"""The raw records archive, ``records.npz``: written block by block, read a block at a time.

Only runs that save or load raw shots import this module, so the CLI runs
that do neither do not compile it.
"""

from __future__ import annotations

import json
import os
import struct
import zipfile
import zlib
from collections.abc import MutableMapping
from typing import NamedTuple

import numpy as np


def write_records(path, time_us, kappa, blocks, seed: int, digest: str) -> None:
    """Write a records archive member by member, as ``np.savez`` lays it out.

    The members are ``meta``, ``time_us``, ``kappa``, ``samples_0`` .. and
    ``angles``, each an uncompressed ``.npy`` in a zip file, byte for byte
    what ``np.savez`` writes, into ``path``'s directory, which is created if
    need be.  ``blocks`` yields (angle, block) pairs; a C-ordered block is
    written from its own buffer, not copied, and each block is dropped before
    the next is taken.  The archive is written beside ``path`` and renamed
    onto it, so a write that fails leaves the old archive whole and no
    partial file, and a record set loaded from ``path`` can be saved onto it.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp, angles, fmt = f"{path}.{os.getpid()}.tmp", [], np.lib.format
    try:
        with zipfile.ZipFile(tmp, "w", compression=zipfile.ZIP_STORED, allowZip64=True) as zf:

            def write(name, array):
                array = np.asanyarray(array)
                with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                    if array.ndim == 2 and array.flags.c_contiguous:
                        # write_array copies up to 16 MiB at a time through tobytes()
                        fmt.write_array_header_1_0(fh, fmt.header_data_from_array_1_0(array))
                        fh.write(memoryview(array))
                    else:
                        fmt.write_array(fh, array, allow_pickle=False)

            write("meta", np.array(json.dumps({"seed": seed, "config_digest": digest})))
            write("time_us", time_us)
            write("kappa", kappa)
            # not enumerate(blocks), which keeps its last tuple (see harness._shot_blocks)
            for angle, block in blocks:
                write(f"samples_{len(angles)}", block)
                angles.append(angle)
                del block
            write("angles", np.array(angles))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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

    ``blocks[key]`` opens the archive and reads that one member into a fresh
    array: a stored member with one ``readinto``, and a compressed one, as
    older versions wrote, through ``np.load``.  So a caller that takes one
    block at a time and drops it holds one block.  A stored member's bytes
    are checked against the zip's CRC the first time they are read; later
    reads of the unchanged archive skip that pass.  An array assigned to a
    key stays in memory and is returned in place of the member.  ``shapes``,
    ``repr`` and iterating the keys read no block.  Reading from an archive
    replaced or rewritten since it was opened (its device, inode, size or
    mtime differ) raises ValueError naming the path, and reading a member
    whose bytes fail the CRC, one naming the member.
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

    def _read(self, m: _Member) -> np.ndarray:
        with open(self.path, "rb") as f:
            if _identity(f.fileno()) != self._identity:
                raise ValueError(f"{self.path}: the archive changed after it was loaded")
            if m.offset is None:
                with np.load(f) as data:
                    return data[m.name]
            flat = np.empty(int(np.prod(m.shape)), m.dtype)
            raw = flat.view(np.uint8)
            f.seek(m.offset)
            if f.readinto(raw) != raw.size or (
                m.name not in self._checked and zlib.crc32(raw, m.header_crc) != m.crc
            ):
                raise ValueError(f"{self.path}: member {m.name} fails its CRC check")
        self._checked.add(m.name)
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
    ``meta`` key of one, raises ValueError naming it and what is missing.
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
                members = {
                    float(a): _member(f, zf, f"samples_{i}") for i, a in enumerate(small["angles"])
                }
            except KeyError as exc:  # zipfile's message names the missing member
                raise ValueError(f"{path}: {exc.args[0]}: not a records archive") from None
        blocks = ArchiveBlocks(path, _identity(f.fileno()), members)
    meta = json.loads(str(small["meta"]))
    for key in ("seed", "config_digest"):
        if key not in meta:
            raise ValueError(f"{path}: meta has no {key!r} key: not a records archive")
    return small["time_us"], small["kappa"], blocks, int(meta["seed"]), str(meta["config_digest"])
