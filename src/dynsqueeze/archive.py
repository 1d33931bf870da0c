"""The raw records archive, ``records.npz``, and the row buffer that streams shots through it.

Records are written a block, or a chunk of rows, at a time.  Only
:func:`read_records` reads them back, checking every CRC once; a block is
then read a chunk of rows at a time to reduce it, or mapped to read it whole.
Only runs that draw, save or load raw shots import this module, so the CLI
runs that do none of these do not compile it.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zipfile
from collections.abc import MutableMapping
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
    return np.empty((min(max(1, _CHUNK_BYTES // (8 * m)), n) + 1, m))


def _row_moments(n: int, m: int, fill) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin mean and ddof-1 variance of the (n, m) block that ``fill`` puts, twice.

    ``fill(chunk, start)`` puts rows start .. into ``chunk``, rows of the row
    buffer after the first, in row order.  Each chunk, or its squared
    deviations from the mean, is summed onto row 0 in numpy's row-by-row
    order, so for m > 1 they are ``block.mean(axis=0)`` and ``block.var(axis=0,
    ddof=1)`` of the C-ordered float64 block bit for bit, and no block is held.
    """
    buf = _row_buffer(n, m)
    rows = len(buf) - 1

    def total(mean=None) -> np.ndarray:
        buf[0] = -0.0  # -0.0 + x is x for every x, so the sum starts from row 0
        for start in range(0, n, rows):
            chunk = buf[1:min(rows, n - start) + 1]
            fill(chunk, start)
            if mean is not None:
                np.subtract(chunk, mean, out=chunk)
                np.square(chunk, out=chunk)
            buf[0] = buf[:len(chunk) + 1].sum(axis=0)
        return buf[0]

    mean = total() / n  # a copy, so the second pass leaves it whole
    return mean, total(mean) / (n - 1)


def write_records(path, time_us, kappa, blocks, seed: int, digest: str) -> str:
    """Write a records archive member by member, as ``np.savez`` lays it out; the path written.

    The members are ``meta``, ``time_us``, ``kappa``, ``samples_0`` .. and
    ``angles``, each an uncompressed ``.npy`` in a zip file, byte for byte
    what ``np.savez`` writes, into ``path``'s directory, which is created if
    need be.  As with ``np.savez``, ``.npz`` is appended to a path that lacks
    it.  ``blocks`` yields (angle, block) pairs, each block dropped before the
    next is taken: an array, written from its own buffer when C-ordered, or
    ``(shape, rows)``, C-ordered float64 rows that ``rows(put)`` passes to
    ``put`` a chunk at a time, as :func:`drained` makes.  The archive is
    written beside ``path`` and renamed onto it, so a write that fails leaves
    the old archive whole and no partial file, and a record set loaded from
    ``path`` can be saved onto it.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp, angles, fmt = f"{path}.{os.getpid()}.tmp", [], np.lib.format
    try:
        with zipfile.ZipFile(tmp, "w") as zf:

            def write(name, array, rows=None) -> None:
                """Member ``name``: ``array``, or its header and then ``rows(put)``."""
                with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                    if rows is None:
                        return fmt.write_array(fh, np.asanyarray(array), allow_pickle=False)
                    fmt.write_array_header_1_0(fh, fmt.header_data_from_array_1_0(array))
                    rows(fh.write)

            write("meta", np.array(json.dumps({"seed": seed, "config_digest": digest})))
            write("time_us", time_us)
            write("kappa", kappa)
            # not enumerate(blocks), which keeps its last tuple
            for angle, block in blocks:
                name = f"samples_{len(angles)}"
                if isinstance(block, tuple):  # a zero-stride array of the rows' shape heads them
                    write(name, np.broadcast_to(0.0, block[0]), block[1])
                elif block.ndim == 2 and block.flags.c_contiguous:
                    # write_array copies up to 16 MiB at a time through tobytes()
                    write(name, block, lambda put: put(memoryview(block)))
                else:
                    write(name, block)
                angles.append(angle)
                del block
            write("angles", np.array(angles))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


def drained(n: int, m: int, draw) -> tuple:
    """The ``(shape, rows)`` block for :func:`write_records` of the n rows of m that ``draw`` fills.

    ``draw(chunk)`` fills ``chunk`` with the next rows and returns it: each
    chunk of the row buffer is drawn, written and drawn over, so no block is held.
    """

    def rows(put):
        buf = _row_buffer(n, m)[1:]
        for start in range(0, n, len(buf)):
            put(draw(buf[:n - start]))

    return (n, m), rows


class _Member(NamedTuple):
    """Where an archive keeps one ``.npy`` member; ``offset`` is None if compressed."""

    name: str
    shape: tuple
    dtype: np.dtype
    fortran_order: bool
    offset: int | None


def _identity(fd: int) -> tuple:
    st = os.stat(fd)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class ArchiveBlocks(MutableMapping):
    """The sample blocks of a records archive, each read from it when asked for.

    ``blocks[key]`` opens the archive and returns that one member: a stored
    one as a copy-on-write ``np.memmap`` of its own pages, often unaligned,
    and a compressed one, as older versions wrote, through ``np.load``.
    :meth:`reduce` reads a stored member a chunk of rows at a time instead.
    A read from an archive replaced or rewritten since :func:`read_records`
    checked it (its device, inode, size or mtime differ) raises ValueError
    naming the path.  While a block is in use, replace the archive, never
    rewrite it in place.  An array assigned to a key is returned in place of
    the member; ``shapes``, ``repr`` and iterating the keys read no block.
    """

    __slots__ = ("path", "_identity", "_blocks")

    def __init__(self, path, identity: tuple, members: dict) -> None:
        self.path, self._identity, self._blocks = os.fspath(path), identity, members

    def __getitem__(self, key):
        block = self._blocks[key]
        return self._read(block) if isinstance(block, _Member) else block

    def __setitem__(self, key, block) -> None:
        self._blocks[key] = block

    def __delitem__(self, key) -> None:
        del self._blocks[key]

    def __contains__(self, key) -> bool:
        return key in self._blocks

    def __iter__(self):
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.path!r}, shapes={self.shapes()!r})"

    def shapes(self) -> dict:
        """Each block's shape, a member's from its ``.npy`` header."""
        return {key: block.shape for key, block in self._blocks.items()}

    def reduce(self, key):
        """``_row_moments`` of key's block, read in chunks of rows, twice; None if read whole."""
        m = self._blocks[key]
        if not (isinstance(m, _Member) and m.offset is not None and m.dtype == float
                and not m.fortran_order and len(m.shape) == 2 and m.shape[1] > 1):
            return None
        with self._open() as f:

            def fill(chunk, start):
                f.seek(m.offset + start * 8 * m.shape[1])
                if f.readinto(chunk) != chunk.nbytes:
                    raise ValueError(f"{self.path}: member {m.name} ends early")

            return _row_moments(*m.shape, fill)

    def _open(self):
        f = open(self.path, "rb")
        if _identity(f.fileno()) != self._identity:
            f.close()
            raise ValueError(f"{self.path}: the archive changed after it was loaded")
        return f

    def _read(self, m: _Member) -> np.ndarray:
        with self._open() as f:
            if m.offset is None:
                with np.load(f) as data:
                    return data[m.name]
            if not m.dtype.itemsize * int(np.prod(m.shape)):  # mmap maps no empty range
                return np.empty(m.shape, m.dtype)
            return np.memmap(f, m.dtype, "c", m.offset, m.shape, "F" if m.fortran_order else "C")


def _member(f, zf: zipfile.ZipFile, name: str, header: bool = False):
    """Member ``name`` of ``zf`` on ``f``, CRC checked: its array, or with ``header`` a _Member."""
    info, fmt = zf.getinfo(f"{name}.npy"), np.lib.format
    try:
        with zf.open(info) as fh:
            if header:
                v1 = fmt.read_magic(fh) == (1, 0)
                read = fmt.read_array_header_1_0 if v1 else fmt.read_array_header_2_0
                (shape, fortran_order, dtype), start = read(fh), fh.tell()
            else:
                array = fmt.read_array(fh, allow_pickle=False)
            # to the end, where zipfile checks the CRC; 128 KiB reads raised peak RSS 124 kB
            while fh.read(1 << 16):
                pass
    except (zipfile.BadZipFile, EOFError, zipfile.zlib.error):  # the last, a bad deflate stream
        raise ValueError(f"{f.name}: member {name} fails its CRC check") from None
    if not header:
        return array
    if dtype.hasobject:
        raise ValueError(f"{f.name}: member {name} holds Python objects")
    offset = None
    if info.compress_type == zipfile.ZIP_STORED:
        if start + dtype.itemsize * int(np.prod(shape)) > info.file_size:
            raise ValueError(f"{f.name}: member {name} ends early")
        # the data follow the 30-byte local header, its file name and extra field
        f.seek(info.header_offset + 26)
        offset = info.header_offset + 30 + sum(struct.unpack("<2H", f.read(4))) + start
    return _Member(name, shape, dtype, fortran_order, offset)


def read_records(path) -> tuple[np.ndarray, np.ndarray, ArchiveBlocks, int, str]:
    """A records archive's ``time_us``, ``kappa``, blocks by angle, seed and config digest.

    Each member is read through once, which checks its CRC; of the sample
    blocks only the headers are kept, in an :class:`ArchiveBlocks`.  Raises
    ValueError naming the file, and the member, key or angle at fault, for
    a file that is not a zip archive; a missing member or ``meta`` key; a
    member that fails its CRC or ends before its data; a ``meta`` that is
    not a JSON object, or a seed that is not an integer >= 0; ``time_us``,
    ``kappa`` or ``angles`` that are not a 1-D array of real numbers; an
    angle listed twice; or a ``samples_<i>`` member beyond the listed ones.
    """
    with open(path, "rb") as f:
        try:
            zf = zipfile.ZipFile(f)
        except zipfile.BadZipFile as exc:
            raise ValueError(f"{path}: {exc}") from None
        with zf:
            try:
                small = {n: _member(f, zf, n) for n in ("meta", "time_us", "kappa", "angles")}
                for n in ("time_us", "kappa", "angles"):
                    if small[n].ndim != 1 or small[n].dtype.kind not in "iuf":
                        raise ValueError(f"{path}: member {n} is not a 1-D array of real numbers")
                members = {}
                for i, angle in enumerate(map(float, small["angles"])):
                    if angle in members:
                        raise ValueError(f"{path}: angle {angle!r} comes more than once")
                    members[angle] = _member(f, zf, f"samples_{i}", header=True)
                listed = {f"samples_{i}.npy" for i in range(len(members))}
                for name in (n.removesuffix(".npy") for n in zf.namelist() if n not in listed):
                    if name.startswith("samples_"):
                        raise ValueError(f"{path}: member {name} is not listed in angles")
            except KeyError as exc:  # zipfile's message names the missing member
                raise ValueError(f"{path}: {exc.args[0]}: not a records archive") from None
        blocks = ArchiveBlocks(path, _identity(f.fileno()), members)
    try:
        meta = json.loads(str(small["meta"]))
    except json.JSONDecodeError:
        meta = None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: member meta is not a JSON object")
    for key in ("seed", "config_digest"):
        if key not in meta:
            raise ValueError(f"{path}: meta has no {key!r} key: not a records archive")
    if type(meta["seed"]) is not int or meta["seed"] < 0:  # neither a bool nor 1.7
        raise ValueError(f"{path}: meta key 'seed' is {meta['seed']!r}, not an integer >= 0")
    return small["time_us"], small["kappa"], blocks, meta["seed"], str(meta["config_digest"])
