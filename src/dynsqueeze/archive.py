"""The raw records archive, ``records.npz``, and the row buffer that streams shots through it.

Records are written a block, or a chunk of rows, at a time.  Only
:class:`ArchiveBlocks` reads them back, CRC checked: a chunk of rows at a
time to reduce a block, or a map of its member's pages to read it whole.
Only runs that draw, save or load raw shots import this module, so the CLI
runs that do none of these do not compile it.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zipfile
import zlib
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
    header_crc: int
    crc: int


def _identity(fd: int) -> tuple:
    st = os.stat(fd)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class ArchiveBlocks(MutableMapping):
    """The sample blocks of a records archive, each read from it when asked for.

    ``blocks[key]`` opens the archive and returns that one member.  A stored
    member is a copy-on-write view of a map of its own pages: they are read
    in only when touched, writes stay private to the view, and the pages
    leave memory when it is dropped.  Its ``flags.aligned`` is often False,
    as the zip puts the data at any offset.  A compressed one, as older
    versions wrote, is read through ``np.load`` into a fresh array.
    :meth:`reduce` reads a stored member a chunk of rows at a time instead,
    and holds no block.  A stored member's bytes are checked against the
    zip's CRC the first time they are read, before any map is made; later
    reads of the unchanged archive skip that pass.  While a block is in use,
    the archive must be replaced, not rewritten in place, as this package's
    writers do: untouched pages would read the new bytes.
    An array assigned to a key stays in memory and is returned in place of
    the member.  ``shapes``, ``repr`` and iterating the keys read no block.
    Reading from an archive replaced or rewritten since it was opened (its
    device, inode, size or mtime differ) raises ValueError naming the path,
    and reading a member whose bytes fail the CRC, one naming the member.
    """

    __slots__ = ("path", "_identity", "_blocks", "_checked")

    def __init__(self, path, identity: tuple, members: dict) -> None:
        self.path, self._identity, self._blocks = os.fspath(path), identity, members
        self._checked = set()

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
        """``_row_moments`` of key's block as it is read; None if it must be read whole.

        A stored member of C-ordered float64 rows, two or more wide, is read
        a chunk of rows at a time, twice, and the first pass's read of the
        last row checks the CRC.
        """
        m = self._blocks[key]
        if not (isinstance(m, _Member) and m.offset is not None and m.dtype == float
                and not m.fortran_order and len(m.shape) == 2 and m.shape[1] > 1):
            return None
        with self._open() as f:
            return _row_moments(*m.shape, self._reader(f, m, 8 * m.shape[1]))

    def _open(self):
        f = open(self.path, "rb")
        if _identity(f.fileno()) != self._identity:
            f.close()
            raise ValueError(f"{self.path}: the archive changed after it was loaded")
        return f

    def _reader(self, f, m: _Member, row: int):
        """``fill(chunk, start)``: reads member ``m`` from byte ``start * row`` on into ``chunk``.

        The first read to reach the member's end, after reads from its start
        in order, checks the CRC of all its bytes, unless a read did before.
        """
        size = m.dtype.itemsize * int(np.prod(m.shape))
        crc = None if m.name in self._checked else m.header_crc

        def fill(chunk, start):
            nonlocal crc
            f.seek(m.offset + start * row)
            if f.readinto(chunk) != chunk.nbytes:
                raise ValueError(f"{self.path}: member {m.name} ends early")
            if crc is not None:
                crc = zlib.crc32(chunk, crc)
                if start * row + chunk.nbytes == size:
                    if crc != m.crc:
                        raise ValueError(f"{self.path}: member {m.name} fails its CRC check")
                    self._checked.add(m.name)
                    crc = None

        return fill

    def _read(self, m: _Member) -> np.ndarray:
        with self._open() as f:
            if m.offset is None:
                with np.load(f) as data:
                    return data[m.name]
            size = m.dtype.itemsize * int(np.prod(m.shape))
            if m.offset + size > self._identity[2]:
                raise ValueError(f"{self.path}: member {m.name} ends early")
            if m.name not in self._checked:  # streamed, so that the check pages in nothing
                fill, buf = self._reader(f, m, 1), np.empty(min(size, _CHUNK_BYTES), np.uint8)
                for start in range(0, size or 1, _CHUNK_BYTES):  # an empty member's header too
                    fill(buf[:size - start], start)
            if not size:  # mmap maps no empty range
                return np.empty(m.shape, m.dtype)
            import mmap  # here, so that runs that only write records do not load it

            # the member's own pages, read as they are touched; writes stay private
            at = m.offset - m.offset % mmap.ALLOCATIONGRANULARITY
            pages = mmap.mmap(f.fileno(), m.offset + size - at, access=mmap.ACCESS_COPY, offset=at)
        flat = np.frombuffer(pages, m.dtype, offset=m.offset - at)
        return flat.reshape(m.shape, order="F" if m.fortran_order else "C")


def _member(f, zf: zipfile.ZipFile, name: str) -> _Member:
    """The header, CRC and data offset of member ``name`` of ``zf``, open on ``f``."""
    info = zf.getinfo(f"{name}.npy")
    fmt = np.lib.format
    with zf.open(info) as fh:
        version = fmt.read_magic(fh)
        read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
        shape, fortran_order, dtype = read_header(fh)
        header = fh.tell()
        fh.seek(0)
        header_crc = zlib.crc32(fh.read(header))
    if dtype.hasobject:
        raise ValueError(f"{f.name}: member {name} holds Python objects")
    offset = None
    if info.compress_type == zipfile.ZIP_STORED:
        # the data follow the 30-byte local header, its file name and extra field
        f.seek(info.header_offset + 26)
        offset = info.header_offset + 30 + sum(struct.unpack("<2H", f.read(4))) + header
    return _Member(name, shape, dtype, fortran_order, offset, header_crc, info.CRC)


def read_records(path) -> tuple[np.ndarray, np.ndarray, ArchiveBlocks, int, str]:
    """A records archive's ``time_us``, ``kappa``, blocks by angle, seed and config digest.

    The blocks are an :class:`ArchiveBlocks`: only their headers are read here.
    A file that is not a zip archive, or a zip that lacks a member or a
    ``meta`` key of one, raises ValueError naming it and what is missing, and
    one that lists an angle twice, one naming it and the angle.
    """
    with open(path, "rb") as f:
        try:
            zf = zipfile.ZipFile(f)
        except zipfile.BadZipFile as exc:
            raise ValueError(f"{path}: {exc}") from None
        with zf:
            small = {}
            try:
                for name in ("meta", "time_us", "kappa", "angles"):
                    with zf.open(f"{name}.npy") as fh:
                        small[name] = np.lib.format.read_array(fh, allow_pickle=False)
                members = {}
                for i, angle in enumerate(map(float, small["angles"])):
                    if angle in members:
                        raise ValueError(f"{path}: angle {angle!r} comes more than once")
                    members[angle] = _member(f, zf, f"samples_{i}")
            except KeyError as exc:  # zipfile's message names the missing member
                raise ValueError(f"{path}: {exc.args[0]}: not a records archive") from None
        blocks = ArchiveBlocks(path, _identity(f.fileno()), members)
    meta = json.loads(str(small["meta"]))
    for key in ("seed", "config_digest"):
        if key not in meta:
            raise ValueError(f"{path}: meta has no {key!r} key: not a records archive")
    return small["time_us"], small["kappa"], blocks, int(meta["seed"]), str(meta["config_digest"])
