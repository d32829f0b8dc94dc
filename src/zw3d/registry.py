"""Persistent registration database ("ZW3D" v1 file format).

One append-only file holds both the feature database and the ownership-share
database: records are 1:1, so a single file keeps the id -> record index
injective and atomic. Layout (all little-endian):

    magic "ZW3D" (4) | version u16 | record count u64 | records...

    record: id length u16 | id UTF-8 bytes | _RECORD (27600 bytes)
          | CRC32 u32 over the record body (id length through _RECORD)

``_RECORD`` is one numpy record dtype, the only statement of the fixed part:

    fn  f64 (2, 1600)   fn_2d, fn_depth
    o   u8  (2, 800)    O_2d, O_depth (80x80 bits, row-major, MSB-first)
    w   u8  (2, 200)    W_2d, W_depth (40x40 bits)

Watermarks ride along strictly for evaluation (recovery BER needs the
original); ``register(..., store_watermarks=False)`` zeroes those fields for
deployments that must not retain them. A stored watermark must hold a white
bit, so all-zero fields mean "not stored".

An append writes the record after the last counted one, truncates the file
there and fsyncs; only then does it write the bumped header count and fsync
again. A crash therefore leaves the old count with a whole or torn record
past it, or the new count with its record durable. Readers see the snapshot
the header count describes; bytes past it are ignored and overwritten by the
next append. Writers take an exclusive advisory flock for the lifetime of
the handle; readers take none.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import FEATURE_DIM, feature_values
from .shares import SHARE_SIDE, WATERMARK_SIDE, _as_bits, validate_share

MAGIC = b"ZW3D"
VERSION = 1
_HEADER = struct.Struct("<4sHQ")
_ID_LEN = struct.Struct("<H")
_CRC = struct.Struct("<I")
_RECORD = np.dtype([
    ("fn", "<f8", (2, FEATURE_DIM)),
    ("o", "u1", (2, SHARE_SIDE * SHARE_SIDE // 8)),
    ("w", "u1", (2, WATERMARK_SIDE * WATERMARK_SIDE // 8)),
])


class RegistryError(Exception):
    pass


class DuplicateIdError(RegistryError):
    pass


class UnknownIdError(RegistryError):
    pass


class RegistryCorruptError(RegistryError):
    pass


class RegistryClosedError(RegistryError):
    pass


@dataclass
class RegistrationRecord:
    """Everything registered for one clip id."""

    record_id: str
    fn_2d: np.ndarray
    fn_depth: np.ndarray
    o_2d: np.ndarray
    o_depth: np.ndarray
    w_2d: np.ndarray
    w_depth: np.ndarray


def _feature_values(fn) -> np.ndarray:
    v = feature_values(fn)
    if v.shape != (FEATURE_DIM,):
        raise ValueError(f"feature must have length {FEATURE_DIM}, got {v.shape}")
    return v


def _unpack_bits(packed: np.ndarray, side: int) -> np.ndarray:
    return np.unpackbits(packed).reshape(side, side)


def encode_record(rec: RegistrationRecord, store_watermarks: bool = True) -> bytes:
    """The bytes ``Registry.register`` appends; a bad record raises ``ValueError``."""
    idb = rec.record_id.encode("utf-8")
    if not idb or len(idb) > 0xFFFF:
        raise ValueError("record id must be 1..65535 UTF-8 bytes")
    body = np.zeros((), _RECORD)
    body["fn"] = _feature_values(rec.fn_2d), _feature_values(rec.fn_depth)
    body["o"] = [np.packbits(validate_share(o)) for o in (rec.o_2d, rec.o_depth)]
    w = [_as_bits(w, (WATERMARK_SIDE, WATERMARK_SIDE), "watermark") for w in (rec.w_2d, rec.w_depth)]
    if store_watermarks and not all(map(np.any, w)):
        raise ValueError("a stored watermark needs a white bit: all black reads as not stored")
    body["w"] = [np.packbits(bits if store_watermarks else np.zeros_like(bits)) for bits in w]
    payload = _ID_LEN.pack(len(idb)) + idb + body.tobytes()
    return payload + _CRC.pack(zlib.crc32(payload))


class Registry:
    """Handle on a ZW3D registry file.

    Mode "r" opens existing files read-only; mode "a" creates the file if
    missing and allows ``register``. Use as a context manager or ``close()``
    explicitly.
    """

    _closed = True   # until a file is open: a failed __init__ leaves nothing to close

    def __init__(self, path: str | Path, mode: str = "r"):
        if mode not in ("r", "a"):
            raise ValueError("mode must be 'r' or 'a'")
        self.path = Path(path)
        self.mode = mode
        if mode == "a" and not self.path.exists():
            self.path.write_bytes(_HEADER.pack(MAGIC, VERSION, 0))
        self._fd = os.open(self.path, os.O_RDWR if mode == "a" else os.O_RDONLY)
        self._closed = False
        self._index: dict[str, tuple[int, int]] = {}   # id -> (offset, length), in file order
        try:
            if mode == "a":
                self._lock()
            self._load_index()
        except BaseException:
            self.close()
            raise

    def _lock(self):
        import fcntl

        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as e:
            raise RegistryError(f"registry is locked by another writer: {self.path}") from e

    def _load_index(self):
        header = os.pread(self._fd, _HEADER.size, 0)
        if len(header) != _HEADER.size:
            raise RegistryCorruptError(f"{self.path}: truncated header")
        magic, version, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise RegistryCorruptError(f"{self.path}: bad magic {magic!r}")
        if version != VERSION:
            raise RegistryCorruptError(f"{self.path}: unsupported version {version}")
        size = os.fstat(self._fd).st_size
        offset = _HEADER.size
        for _ in range(count):
            raw_len = os.pread(self._fd, _ID_LEN.size, offset)
            if len(raw_len) != _ID_LEN.size:
                raise RegistryCorruptError(f"{self.path}: truncated record at {offset}")
            (id_len,) = _ID_LEN.unpack(raw_len)
            length = _ID_LEN.size + id_len + _RECORD.itemsize + _CRC.size
            if offset + length > size:
                raise RegistryCorruptError(
                    f"{self.path}: record at {offset} runs past the end of the file ({size} bytes)")
            try:
                rid = os.pread(self._fd, id_len, offset + _ID_LEN.size).decode("utf-8")
            except UnicodeDecodeError as e:
                raise RegistryCorruptError(f"{self.path}: bad record id at {offset}") from e
            if rid in self._index:
                raise RegistryCorruptError(f"{self.path}: duplicate id {rid!r}")
            self._index[rid] = (offset, length)
            offset += length
        self._append_at = offset

    def _check_open(self):
        if self._closed:
            raise RegistryClosedError("registry handle is closed")

    def _read(self, offset: int, length: int) -> np.ndarray:
        """The CRC-checked ``_RECORD`` of the record at ``offset``.

        One positional read fills the id prefix, a fresh aligned ``_RECORD``
        and the CRC, so every field returned is writable memory of its own.
        """
        self._check_open()
        prefix = bytearray(length - _RECORD.itemsize - _CRC.size)
        body, crc = np.empty((), _RECORD), bytearray(_CRC.size)
        if os.preadv(self._fd, [prefix, body, crc], offset) != length:
            raise RegistryCorruptError(f"{self.path}: truncated record at offset {offset}")
        if zlib.crc32(body, zlib.crc32(prefix)) != _CRC.unpack(crc)[0]:
            raise RegistryCorruptError(f"{self.path}: checksum mismatch at offset {offset}")
        return body

    def _pwrite(self, data: bytes, offset: int):
        view = memoryview(data)
        while view:
            written = os.pwrite(self._fd, view, offset)
            view, offset = view[written:], offset + written

    # -- public API ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def ids(self) -> list[str]:
        return list(self._index)

    def register(self, rec: RegistrationRecord | bytes, store_watermarks: bool = True) -> int:
        """Durably append one record (or its ``encode_record`` bytes); returns the new count.

        The record is fsynced before the header count that admits it is
        written, and the count is fsynced in turn.
        """
        self._check_open()
        if self.mode != "a":
            raise RegistryError("registry opened read-only")
        payload = rec if isinstance(rec, bytes) else encode_record(rec, store_watermarks)
        record_id = payload[_ID_LEN.size : _ID_LEN.size + _ID_LEN.unpack_from(payload)[0]].decode("utf-8")
        if record_id in self._index:
            raise DuplicateIdError(f"id already registered: {record_id!r}")
        offset = self._append_at
        self._pwrite(payload, offset)
        os.ftruncate(self._fd, offset + len(payload))
        os.fsync(self._fd)
        self._pwrite(_HEADER.pack(MAGIC, VERSION, len(self._index) + 1), 0)
        os.fsync(self._fd)
        self._index[record_id] = (offset, len(payload))
        self._append_at = offset + len(payload)
        return len(self._index)

    def get_record(self, record_id: str) -> RegistrationRecord:
        self._check_open()
        if record_id not in self._index:
            raise UnknownIdError(f"unknown id: {record_id!r}")
        body = self._read(*self._index[record_id])
        o_2d, o_depth = (validate_share(_unpack_bits(o, SHARE_SIDE)) for o in body["o"])
        w_2d, w_depth = (_unpack_bits(w, WATERMARK_SIDE) for w in body["w"])
        return RegistrationRecord(record_id, *body["fn"], o_2d, o_depth, w_2d, w_depth)

    def iterate_features(self):
        """Yield (id, fn_2d, fn_depth) for every record in insertion order.

        Each record costs one read; its two features are writable views of
        that record's own buffer, shared with no other record.
        """
        self._check_open()
        # a snapshot: the caller may register between yields
        for rid, (offset, length) in list(self._index.items()):
            fn_2d, fn_depth = self._read(offset, length)["fn"]
            yield rid, fn_2d, fn_depth

    def close(self):
        if not self._closed:
            self._closed = True
            os.close(self._fd)

    __del__ = close

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
