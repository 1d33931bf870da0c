"""The raw records archive, ``records.npz``, and the row buffer that streams shots through it.

A block is C-ordered float64 rows, which one ``fill(rows, start)`` puts a
chunk at a time, to be written or reduced.  Only :func:`read_records` reads
an archive back, checking every CRC once; a block is then read a chunk of
rows at a time, or mapped to read it whole.  Only runs that draw, save or
load raw shots import this module, so the CLI runs that do none of these do
not compile it.
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

from .config import ConfigError, RunConfig
from .harness import _CHUNK_BYTES, _gib


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
    real angle; none is deleted.  ``blocks[key]`` maps a member from ``path`` as a
    copy-on-write ``np.memmap``, often unaligned; :meth:`rows` reads it a
    chunk of rows at a time.  A read from an archive replaced or rewritten
    since :func:`read_records` checked it raises ValueError naming the path.
    """

    __slots__ = ("path", "shape", "_identity", "_blocks")

    def __init__(self, blocks: Mapping, path=None, identity: tuple | None = None) -> None:
        if isinstance(blocks, ArchiveBlocks):  # copied without reading a member
            path, identity, blocks = blocks.path, blocks._identity, blocks._blocks
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
    """
    info, fmt = zf.getinfo(f"{name}.npy"), np.lib.format
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"{f.name}: member {name} is stored compressed")
    try:
        with zf.open(info) as fh:
            v1 = fmt.read_magic(fh) == (1, 0)
            read = fmt.read_array_header_1_0 if v1 else fmt.read_array_header_2_0
            (shape, fortran_order, dtype), start = read(fh), fh.tell()
            if block and (len(shape) != 2 or fortran_order or dtype != float):
                raise ValueError(f"{f.name}: member {name} is not a C-ordered 2-D float64 block")
            if dtype.hasobject:
                raise ValueError(f"{f.name}: member {name} holds Python objects")
            if start + dtype.itemsize * int(np.prod(shape)) > info.file_size:
                raise ValueError(f"{f.name}: member {name} ends early")
            if not block:
                fh.seek(0)
                array = fmt.read_array(fh, allow_pickle=False)
            # to the end, where zipfile checks the CRC; 128 KiB reads raised peak RSS 124 kB
            while fh.read(1 << 16):
                pass
    except (zipfile.BadZipFile, EOFError):
        raise ValueError(f"{f.name}: member {name} fails its CRC check") from None
    if not block:
        return array
    # the data follow the 30-byte local header, its file name and extra field
    f.seek(info.header_offset + 26)
    offset = info.header_offset + 30 + sum(struct.unpack("<2H", f.read(4))) + start
    return _Member(name, shape, offset)


def read_records(path) -> tuple[np.ndarray, np.ndarray, ArchiveBlocks, object, object]:
    """A records archive's ``time_us``, ``kappa``, blocks by angle, and its meta's seed and digest.

    Each member is read through once, which checks its CRC; of the sample
    blocks only the headers are kept, in an :class:`ArchiveBlocks`.  Raises
    ValueError naming the file, and the member, key or angle at fault, for
    a file that is not a zip archive; a missing member or ``meta`` key; a
    member stored compressed, that holds Python objects, fails its CRC or
    ends before its data; a sample member that is not a C-ordered 2-D
    float64 block, or of another shape than the first; a ``meta`` that is
    not a JSON object; ``angles`` that are not a 1-D array of real numbers,
    list no angle, or one twice; or a ``samples_<i>`` member beyond the
    listed ones.  ``HomodyneRecordSet`` checks the rest.
    """
    with open(path, "rb") as f:
        try:
            zf = zipfile.ZipFile(f)
        except zipfile.BadZipFile as exc:
            raise ValueError(f"{path}: {exc}") from None
        with zf:
            try:
                small = {n: _member(f, zf, n) for n in ("meta", "time_us", "kappa", "angles")}
                if small["angles"].ndim != 1 or small["angles"].dtype.kind not in "iuf":
                    raise ValueError(f"{path}: member angles is not a 1-D array of real numbers")
                if not len(small["angles"]):
                    raise ValueError(f"{path}: member angles lists no angle")
                members = {}
                for i, angle in enumerate(map(float, small["angles"])):
                    if angle in members:
                        raise ValueError(f"{path}: angle {angle!r} comes more than once")
                    members[angle] = _member(f, zf, f"samples_{i}", block=True)
                listed = {f"samples_{i}.npy" for i in range(len(members))}
                for name in (n.removesuffix(".npy") for n in zf.namelist() if n not in listed):
                    if name.startswith("samples_"):
                        raise ValueError(f"{path}: member {name} is not listed in angles")
            except KeyError as exc:  # zipfile's message names the missing member
                raise ValueError(f"{path}: {exc.args[0]}: not a records archive") from None
        try:
            blocks = ArchiveBlocks(members, path, _identity(f.fileno()))
        except ValueError as exc:  # a block of another shape than the first
            raise ValueError(f"{path}: {exc}") from None
    try:
        meta = json.loads(str(small["meta"]))
    except json.JSONDecodeError:
        meta = None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: member meta is not a JSON object")
    for key in ("seed", "config_digest"):
        if key not in meta:
            raise ValueError(f"{path}: meta has no {key!r} key: not a records archive")
    return small["time_us"], small["kappa"], blocks, meta["seed"], meta["config_digest"]
