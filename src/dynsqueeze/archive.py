"""Raw homodyne records: their set, draws and reduction, and their archive, ``records.npz``.

A block is C-ordered float64 rows, which one ``fill(rows, start)`` puts a
chunk at a time, to be drawn, written or reduced.  Only
:meth:`HomodyneRecordSet.load` reads an archive back, checking every CRC
once; a block is then read a chunk of rows at a time, or mapped to read it
whole.  This module imports ``harness``, never the reverse, and only runs
that draw, save or load raw shots import it, so the CLI runs that do none of
these do not compile it.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zipfile
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .config import ConfigError, RunConfig, config_digest
from .gate import gate_output_state
from .harness import _CHUNK_BYTES, _gib, _moment_estimates, _route, _seed, _shot_laws
from .states import Immutable
from .tables import MEASUREMENT_ANGLES, MomentEstimates


def check_records_space(cfg: RunConfig, path) -> None:
    """Raise ConfigError when ``cfg``'s records archive would not fit in the free space at ``path``.

    The archive, three n_trials x n_bins float64 blocks, the two traces and
    under 4 KiB of headers, is written beside ``path`` before it replaces any
    archive there.
    """
    need, where = 8 * cfg.n_bins * (3 * cfg.n_trials + 2) + 4096, os.path.abspath(path)
    while not os.path.exists(where):
        where = os.path.dirname(where)
    if need > (have := shutil.disk_usage(where).free):
        raise ConfigError(
            f"raw records of n_trials {cfg.n_trials} x {cfg.n_bins} bins would need "
            f"{_gib(need):.1f} GiB, more than the {have / 2**30:.1f} GiB free for {path}"
        )


def _row_buffer(n: int, m: int) -> np.ndarray:
    """The row buffer of an (n, m) block: a running sum in row 0, then a chunk of rows."""
    return np.empty((min(max(1, _CHUNK_BYTES // (8 * max(m, 1))), max(n, 1)) + 1, m))


def _copied(block: np.ndarray) -> tuple:
    """``block`` as ``(shape, fill)``: ``fill`` copies its rows as C-ordered float64."""
    return block.shape, lambda rows, start: np.copyto(rows, block[start:start + len(rows)])


def _filled(buf: np.ndarray, n: int, fill):
    """Rows 1 .. of ``buf`` in turn, each given rows start .. of an n-row block by ``fill``."""
    size = len(buf) - 1
    for start in range(0, n, size):
        rows = buf[1:min(size, n - start) + 1]
        fill(rows, start)
        yield rows


def _row_moments(shape: tuple, fill) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin mean and ddof-1 variance of the (n, m) block that ``fill`` puts, twice.

    Each chunk (:func:`_filled`), or its squared deviations from the mean, is
    summed onto row 0 in numpy's row-by-row order, so for m > 1 they are
    ``block.mean(axis=0)`` and ``block.var(axis=0, ddof=1)`` of the C-ordered
    float64 block bit for bit, and no block is held.
    """
    n, buf = shape[0], _row_buffer(*shape)

    def total(mean=None) -> np.ndarray:
        buf[0] = -0.0  # -0.0 + x is x for every x, so the sum starts from row 0
        for rows in _filled(buf, n, fill):
            if mean is not None:
                np.subtract(rows, mean, out=rows)
                np.square(rows, out=rows)
            buf[0] = buf[:len(rows) + 1].sum(axis=0)
        return buf[0]

    mean = total() / n  # a copy, so the second pass leaves it whole
    return mean, total(mean) / (n - 1)


def write_records(path, time_us, kappa, blocks, seed: int, digest: str) -> str:
    """Write a records archive member by member, as ``np.savez`` lays it out; the path written.

    The members are ``meta``, ``time_us``, ``kappa``, ``samples_0`` .. and
    ``angles``, each an uncompressed ``.npy`` in a zip file, byte for byte
    what ``np.savez`` writes, into ``path``'s directory, which is created if
    need be.  As with ``np.savez``, ``.npz`` is appended to a path that lacks
    it.  ``blocks`` yields (angle, (shape, fill)) pairs: ``fill(rows, start)``
    puts the block's rows start .. into ``rows``, a chunk of the row buffer
    (:func:`_filled`), which is written and filled over, so no block is held.
    Every block is written as C-ordered float64.  The archive is written
    beside ``path`` and renamed onto it, so a write that fails leaves the old
    archive whole and no partial file, and a record set loaded from ``path``
    can be saved onto it.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp, angles, fmt = f"{path}.{os.getpid()}.tmp", [], np.lib.format
    try:
        with zipfile.ZipFile(tmp, "w") as zf:

            def write(name, array, chunks=None) -> None:
                """Member ``name``: ``array``'s header, then its bytes or ``chunks``."""
                array = np.asanyarray(array)
                with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                    fmt.write_array_header_1_0(fh, fmt.header_data_from_array_1_0(array))
                    for chunk in (array.tobytes(),) if chunks is None else chunks:
                        fh.write(chunk)

            write("meta", np.array(json.dumps({"seed": seed, "config_digest": digest})))
            write("time_us", time_us)
            write("kappa", kappa)
            for i, (angle, (shape, fill)) in enumerate(blocks):
                # a zero-stride array of the block's shape gives its header
                chunks = _filled(_row_buffer(*shape), shape[0], fill)
                write(f"samples_{i}", np.broadcast_to(0.0, shape), chunks)
                angles.append(angle)
            write("angles", np.array(angles))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


class _Member(NamedTuple):
    """Where an archive keeps one C-ordered float64 ``.npy`` block, stored uncompressed."""

    name: str
    shape: tuple
    offset: int


def _identity(fd: int) -> tuple:
    st = os.stat(fd)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class ArchiveBlocks(Mapping):
    """A record set's sample blocks by angle: arrays, or members of a records archive.

    The store copies the mapping it is given and takes its one ``shape`` from
    the first block.  Every block entering it, assigned ones too, must be an
    array of real numbers or a C-ordered float64 member, of that shape, at a
    finite real angle; none is deleted.  ``blocks[key]`` maps a member from
    ``path`` as a copy-on-write ``np.memmap``, often unaligned; :meth:`rows`
    reads it a chunk of rows at a time.  A read from an archive replaced or
    rewritten since :meth:`HomodyneRecordSet.load` checked it raises
    ValueError naming the path.
    """

    __slots__ = ("path", "shape", "_identity", "_blocks")
    __eq__, __hash__ = object.__eq__, object.__hash__  # Mapping's __eq__ reads every block

    def __init__(self, blocks: Mapping, path=None, identity: tuple | None = None) -> None:
        if isinstance(blocks, ArchiveBlocks):  # copied without reading a member
            path, identity, blocks = blocks.path, blocks._identity, blocks._blocks
        if not isinstance(blocks, Mapping):
            name = type(blocks).__name__
            raise ValueError(f"samples is not a mapping of angles to blocks: {name}")
        if not blocks:
            raise ValueError("no sample blocks")
        self.path, self._identity, self._blocks = path and os.fspath(path), identity, {}
        self.shape = getattr(next(iter(blocks.values())), "shape", None)
        for key, block in blocks.items():
            self[key] = block

    def __getitem__(self, key):
        block = self._blocks[key]
        return self._read(block) if isinstance(block, _Member) else block

    def __setitem__(self, key, block) -> None:
        if isinstance(key, bool) or not isinstance(key, (int, float, np.integer, np.floating)):
            raise ValueError(f"angle {key!r} is not a real number")
        if not -np.inf < key < np.inf:  # NaN != NaN, so two NaN angles would both enter
            raise ValueError(f"angle {key} is not finite")
        if not isinstance(block, _Member) and (
            not isinstance(block, np.ndarray) or block.dtype.kind not in "iuf"
        ):
            raise ValueError(f"samples at angle {key} are not real numbers")
        if block.shape != self.shape:
            raise ValueError(f"samples at angle {key} have shape {block.shape}, want {self.shape}")
        self._blocks[float(key)] = block

    def __contains__(self, key) -> bool:  # Mapping's would read the block
        return key in self._blocks

    def __iter__(self):
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r}, shapes={dict.fromkeys(self, self.shape)!r})"

    def rows(self):
        """Each key and its block as ``(shape, fill)``: an array's rows copied, or a member's read.

        A member's ``fill`` reads with ``readinto`` from the archive, opened
        and checked for it and closed when the next block is taken.
        """
        for key, m in self._blocks.items():
            if not isinstance(m, _Member):
                yield key, _copied(m)
                continue
            with self._open() as f:

                def fill(rows, start):
                    f.seek(m.offset + start * 8 * m.shape[1])
                    if f.readinto(rows) != rows.nbytes:
                        raise ValueError(f"{self.path}: member {m.name} ends early")

                yield key, (m.shape, fill)

    def _open(self):
        f = open(self.path, "rb")
        if _identity(f.fileno()) != self._identity:
            f.close()
            raise ValueError(f"{self.path}: the archive changed after it was loaded")
        return f

    def _read(self, m: _Member) -> np.ndarray:
        with self._open() as f:
            if not m.shape[0] * m.shape[1]:  # mmap maps no empty range
                return np.empty(m.shape)
            return np.memmap(f, float, "c", m.offset, m.shape)


def _member(f, zf: zipfile.ZipFile, name: str, block: bool = False):
    """Member ``name`` of ``zf`` on ``f``, CRC checked: its array, or with ``block`` a _Member.

    ``block`` refuses a member that is not a C-ordered 2-D float64 block.
    A refusal names the member, not the file.
    """
    info, fmt = zf.getinfo(f"{name}.npy"), np.lib.format
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"member {name} is stored compressed")
    try:
        with zf.open(info) as fh:
            v1 = fmt.read_magic(fh) == (1, 0)
            read = fmt.read_array_header_1_0 if v1 else fmt.read_array_header_2_0
            (shape, fortran_order, dtype), start = read(fh), fh.tell()
            if block and (len(shape) != 2 or fortran_order or dtype != float):
                raise ValueError(f"member {name} is not a C-ordered 2-D float64 block")
            if dtype.hasobject:
                raise ValueError(f"member {name} holds Python objects")
            if start + dtype.itemsize * int(np.prod(shape)) > info.file_size:
                raise ValueError(f"member {name} ends early")
            if not block:
                fh.seek(0)
                array = fmt.read_array(fh, allow_pickle=False)
            # to the end, where zipfile checks the CRC; 128 KiB reads raised peak RSS 124 kB
            while fh.read(1 << 16):
                pass
    except (zipfile.BadZipFile, EOFError):
        raise ValueError(f"member {name} fails its CRC check") from None
    if not block:
        return array
    # the data follow the 30-byte local header, its file name and extra field
    f.seek(info.header_offset + 26)
    offset = info.header_offset + 30 + sum(struct.unpack("<2H", f.read(4))) + start
    return _Member(name, shape, offset)


class HomodyneRecordSet(Immutable):
    """Raw per-trial homodyne samples for each measurement angle.

    ``samples[angle]`` has shape (n_trials, n_bins); all angles share the time
    grid and the control trace.  ``config_digest`` ties the records back to the
    configuration that produced them.  ``samples`` is an :class:`ArchiveBlocks`
    of the blocks given, which checks each block as it enters, assigned ones
    too; any block of real numbers, in any layout, is saved and reduced as its
    C-ordered float64 copy.  One from :meth:`load` maps each block from its
    archive every time it is asked for, a copy-on-write memmap often not
    aligned; its ``samples.shape``, ``angles``, ``n_trials`` and ``repr`` come
    from the headers.  Every set the constructor accepts saves and loads back.
    """

    __slots__ = ("time_us", "kappa", "samples", "seed", "config_digest")

    def __init__(self, time_us: np.ndarray, kappa: np.ndarray, samples: Mapping, seed: int,
                 config_digest: str) -> None:
        time_us, kappa = np.asarray(time_us), np.asarray(kappa)
        for name, trace in (("time_us", time_us), ("kappa", kappa)):
            if trace.ndim != 1 or trace.dtype.kind not in "iuf":
                raise ValueError(f"{name} is not a 1-D array of real numbers")
        if len(kappa) != len(time_us):
            raise ValueError("kappa and time grids differ in length")
        seed = _seed(seed)
        if not isinstance(config_digest, str):
            raise ValueError(f"config_digest is {config_digest!r}, not a string")
        samples = ArchiveBlocks(samples)
        if samples.shape[1:] != (len(time_us),):
            raise ValueError(f"samples have shape {samples.shape}, want (*, {len(time_us)})")
        self._set(time_us, kappa, samples, seed, config_digest)

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(self.samples)

    @property
    def n_trials(self) -> int:
        return self.samples.shape[0]

    def save(self, path) -> None:
        write_records(path, self.time_us, self.kappa, self.samples.rows(), self.seed,
                      self.config_digest)

    @classmethod
    def load(cls, path) -> "HomodyneRecordSet":
        """The records archived at ``path``, each block read only when it is asked for.

        Each member is read through once, which checks its CRC; of the sample
        blocks only the headers are kept, in an :class:`ArchiveBlocks`.
        Raises ValueError naming the file, and the member, key or angle at
        fault, for a file that is not a zip archive; a missing member or
        ``meta`` key; a member stored compressed, that holds Python objects,
        fails its CRC or ends before its data; a sample member that is not a
        C-ordered 2-D float64 block; a ``meta`` that is not a JSON object;
        ``angles`` that are not a 1-D array of real numbers, list no angle,
        or one twice; a ``samples_<i>`` member beyond the listed ones; and
        what the store or the constructor refuses, as a block of another
        shape than the first, an angle that is not finite or a negative
        seed.  Reading a block raises one once the archive is replaced or
        rewritten.
        """
        try:
            with open(path, "rb") as f, zipfile.ZipFile(f) as zf:
                small = {n: _member(f, zf, n) for n in ("meta", "time_us", "kappa", "angles")}
                if small["angles"].ndim != 1 or small["angles"].dtype.kind not in "iuf":
                    raise ValueError("member angles is not a 1-D array of real numbers")
                if not len(small["angles"]):
                    raise ValueError("member angles lists no angle")
                members = {}
                for i, angle in enumerate(map(float, small["angles"])):
                    if angle in members:
                        raise ValueError(f"angle {angle!r} comes more than once")
                    members[angle] = _member(f, zf, f"samples_{i}", block=True)
                listed = {f"samples_{i}.npy" for i in range(len(members))}
                for name in (n.removesuffix(".npy") for n in zf.namelist() if n not in listed):
                    if name.startswith("samples_"):
                        raise ValueError(f"member {name} is not listed in angles")
                blocks = ArchiveBlocks(members, path, _identity(f.fileno()))
            try:
                meta = json.loads(str(small["meta"]))
            except json.JSONDecodeError:
                meta = None
            if not isinstance(meta, dict):
                raise ValueError("member meta is not a JSON object")
            for key in ("seed", "config_digest"):
                if key not in meta:
                    raise ValueError(f"meta has no {key!r} key: not a records archive")
            return cls(small["time_us"], small["kappa"], blocks, meta["seed"],
                       meta["config_digest"])
        except KeyError as exc:  # zipfile's message names the missing member
            raise ValueError(f"{path}: {exc.args[0]}: not a records archive") from None
        except (ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _shots(loc: np.ndarray, variance: np.ndarray, rng):
    """``fill(rows, start)``, which fills ``rows`` with the next shots of N(loc, variance).

    loc + scale * z, scaled and shifted in place, are the numbers
    Generator.normal(loc, scale, size) draws, and z fills in stream order, so
    rows drawn in turn, a chunk at a time, are those of one whole-block draw.
    """
    scale = np.sqrt(variance)

    def fill(rows: np.ndarray, start: int) -> None:
        rng.standard_normal(out=rows)
        rows *= scale
        rows += loc

    return fill


def run_experiment(cfg: RunConfig, seed: int | None = None) -> HomodyneRecordSet:
    """Simulate the repeated-shot run and return the raw homodyne records in memory.

    This is the in-memory route: all three angles' C-ordered float64 blocks
    are held at once, and :func:`estimate_moments` reduces them with no
    block-sized temporary.  :func:`simulate_records` draws the same shots into
    a row buffer and writes them to disk, and ``harness.simulate_moments``
    draws no shot at all.  Every bin's output state is Gaussian, so the
    n_trials samples per (angle, bin) are drawn directly from the projected
    normal law.  Each angle gets an independent child stream of the seed;
    identical (config, seed) pairs give bit-identical records.  Raises, before
    drawing anything, ValueError for a bad ``seed`` and ConfigError, from
    ``harness._route``, when the records (3 x n_trials x n_bins float64) would
    not fit in memory or their sums could overflow.
    """
    seed = _seed(cfg.seed if seed is None else seed)
    traces = _route(cfg, gate_output_state, len(MEASUREMENT_ANGLES))[0]
    samples = {angle: np.empty((cfg.n_trials, cfg.n_bins)) for angle in MEASUREMENT_ANGLES}
    for angle, law in _shot_laws(traces, seed).items():
        _shots(*law)(samples[angle], 0)
    return HomodyneRecordSet(traces.time_us, traces.kappa, samples, seed, config_digest(cfg))


def estimate_moments(records: HomodyneRecordSet) -> MomentEstimates:
    """Sample mean/variance per (angle, bin); needs at least two trials.

    Every block goes through :func:`_row_moments` a chunk of rows at a
    time, as ``samples.rows()`` gives its C-ordered float64 copy: a stored one
    read from its archive, any other copied, so no block-sized temporary is
    made, and a set's moments equal its archive's loaded back bit for bit.
    """
    n = records.n_trials
    if n < 2:
        raise ValueError("need at least two trials to estimate a variance")
    mean, variance = {}, {}
    for angle, rows in records.samples.rows():
        mean[angle], variance[angle] = _row_moments(*rows)
    return _moment_estimates(records.time_us, records.kappa, n, mean, variance)


def simulate_records(cfg: RunConfig, path, seed: int | None = None) -> MomentEstimates:
    """Draw the records of ``run_experiment(cfg, seed)``, write them to ``path``, return their moments.

    The archive is that of ``run_experiment(cfg, seed).save(path)`` byte for
    byte, drawn and written a chunk of rows at a time (:func:`_shots`);
    the moments are ``estimate_moments`` of it loaded back, CRC checked, and
    no block is held.  As with ``save``, ``.npz`` is appended to a path that
    lacks it, and the directory is created if need be.  Raises ValueError for
    a bad ``seed``, and ConfigError when the archive would not fit in the free
    space there or as ``harness._route`` does, before drawing or writing
    anything, or creating that directory.
    """
    seed = _seed(cfg.seed if seed is None else seed)
    check_records_space(cfg, path)
    traces = _route(cfg, gate_output_state, 0)[0]
    blocks = [(angle, ((cfg.n_trials, cfg.n_bins), _shots(*law)))
              for angle, law in _shot_laws(traces, seed).items()]
    path = write_records(path, traces.time_us, traces.kappa, blocks, seed, config_digest(cfg))
    return estimate_moments(HomodyneRecordSet.load(path))
