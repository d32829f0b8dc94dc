"""Persistent registration database ("ZW3D" v1 file format).

One append-only file holds both the feature database and the ownership-share
database: records are 1:1, so a single file keeps the id -> record index
injective and atomic. Layout (all little-endian):

    magic "ZW3D" (4) | version u16 | record count u64 | records...

    record: id length u16 | id UTF-8 bytes
          | fn_2d 1600 x f64 | fn_depth 1600 x f64
          | O_2d 800 bytes (80x80 bits, row-major, MSB-first) | O_depth 800
          | W_2d 200 bytes (40x40 bits) | W_depth 200
          | CRC32 u32 over the record body (id length through W_depth)

Watermarks ride along strictly for evaluation (recovery BER needs the
original); ``register(..., store_watermarks=False)`` zeroes those fields for
deployments that must not retain them.

Writers take an exclusive advisory flock for the lifetime of the handle;
readers take none and see the consistent snapshot described by the header
count (a torn trailing record past that count is ignored and overwritten by
the next writer).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import FEATURE_DIM, FeatureVector
from .shares import SHARE_SIDE, WATERMARK_SIDE, validate_share

MAGIC = b"ZW3D"
VERSION = 1
_HEADER = struct.Struct("<4sHQ")
_FEATURE_BYTES = FEATURE_DIM * 8
_SHARE_BYTES = SHARE_SIDE * SHARE_SIDE // 8   # 800
_WM_BYTES = WATERMARK_SIDE * WATERMARK_SIDE // 8  # 200


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
    v = fn.values if isinstance(fn, FeatureVector) else np.asarray(fn, dtype=np.float64)
    if v.shape != (FEATURE_DIM,):
        raise ValueError(f"feature must have length {FEATURE_DIM}, got {v.shape}")
    return np.ascontiguousarray(v, dtype=np.float64)


def _pack_bits(matrix: np.ndarray, side: int, what: str) -> bytes:
    m = np.asarray(matrix)
    if m.shape != (side, side) or not np.isin(m, (0, 1)).all():
        raise ValueError(f"{what} must be a binary {side}x{side} matrix")
    return np.packbits(m.astype(np.uint8), axis=1).tobytes()


def _unpack_bits(raw: bytes, side: int) -> np.ndarray:
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(side, side // 8)
    return np.unpackbits(rows, axis=1).astype(np.uint8)


def _encode_record(rec: RegistrationRecord, store_watermarks: bool) -> bytes:
    idb = rec.record_id.encode("utf-8")
    if not idb or len(idb) > 0xFFFF:
        raise ValueError("record id must be 1..65535 UTF-8 bytes")
    w2d = rec.w_2d if store_watermarks else np.zeros_like(rec.w_2d)
    wdep = rec.w_depth if store_watermarks else np.zeros_like(rec.w_depth)
    body = b"".join(
        (
            struct.pack("<H", len(idb)),
            idb,
            _feature_values(rec.fn_2d).astype("<f8").tobytes(),
            _feature_values(rec.fn_depth).astype("<f8").tobytes(),
            _pack_bits(validate_share(rec.o_2d), SHARE_SIDE, "ownership share"),
            _pack_bits(validate_share(rec.o_depth), SHARE_SIDE, "ownership share"),
            _pack_bits(w2d, WATERMARK_SIDE, "watermark"),
            _pack_bits(wdep, WATERMARK_SIDE, "watermark"),
        )
    )
    return body + struct.pack("<I", zlib.crc32(body))


class Registry:
    """Handle on a ZW3D registry file.

    Mode "r" opens existing files read-only; mode "a" creates the file if
    missing and allows ``register``. Use as a context manager or ``close()``
    explicitly.
    """

    def __init__(self, path: str | Path, mode: str = "r"):
        if mode not in ("r", "a"):
            raise ValueError("mode must be 'r' or 'a'")
        self.path = Path(path)
        self.mode = mode
        self._closed = False
        if mode == "a" and not self.path.exists():
            self.path.write_bytes(_HEADER.pack(MAGIC, VERSION, 0))
        self._fh = open(self.path, "r+b" if mode == "a" else "rb")
        if mode == "a":
            self._lock()
        self._ids: dict[str, int] = {}     # id -> body offset
        self._order: list[str] = []
        self._append_at = _HEADER.size
        try:
            self._load_index()
        except BaseException:
            self._fh.close()
            raise

    def _lock(self):
        import fcntl

        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as e:
            self._fh.close()
            raise RegistryError(f"registry is locked by another writer: {self.path}") from e

    def _load_index(self):
        self._fh.seek(0)
        header = self._fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise RegistryCorruptError(f"{self.path}: truncated header")
        magic, version, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise RegistryCorruptError(f"{self.path}: bad magic {magic!r}")
        if version != VERSION:
            raise RegistryCorruptError(f"{self.path}: unsupported version {version}")
        size = os.fstat(self._fh.fileno()).st_size
        offset = _HEADER.size
        for _ in range(count):
            self._fh.seek(offset)
            raw_len = self._fh.read(2)
            if len(raw_len) != 2:
                raise RegistryCorruptError(f"{self.path}: truncated record at {offset}")
            (id_len,) = struct.unpack("<H", raw_len)
            rec_len = 2 + id_len + 2 * _FEATURE_BYTES + 2 * _SHARE_BYTES + 2 * _WM_BYTES + 4
            if offset + rec_len > size:
                raise RegistryCorruptError(
                    f"{self.path}: record at {offset} runs past the end of the file ({size} bytes)")
            try:
                rid = self._fh.read(id_len).decode("utf-8")
            except UnicodeDecodeError as e:
                raise RegistryCorruptError(f"{self.path}: bad record id at {offset}") from e
            if rid in self._ids:
                raise RegistryCorruptError(f"{self.path}: duplicate id {rid!r}")
            self._ids[rid] = offset
            self._order.append(rid)
            offset += rec_len
        self._append_at = offset

    def _check_open(self):
        if self._closed:
            raise RegistryClosedError("registry handle is closed")

    def _read_record_raw(self, offset: int) -> bytes:
        self._fh.seek(offset)
        raw_len = self._fh.read(2)
        if len(raw_len) != 2:
            raise RegistryCorruptError(f"{self.path}: truncated record at offset {offset}")
        (id_len,) = struct.unpack("<H", raw_len)
        body_len = 2 + id_len + 2 * _FEATURE_BYTES + 2 * _SHARE_BYTES + 2 * _WM_BYTES
        self._fh.seek(offset)
        body = self._fh.read(body_len)
        raw_crc = self._fh.read(4)
        if len(body) != body_len or len(raw_crc) != 4:
            raise RegistryCorruptError(f"{self.path}: truncated record at offset {offset}")
        if zlib.crc32(body) != struct.unpack("<I", raw_crc)[0]:
            raise RegistryCorruptError(f"{self.path}: checksum mismatch at offset {offset}")
        return body

    @staticmethod
    def _features(body: bytes) -> tuple[np.ndarray, np.ndarray]:
        """(fn_2d, fn_depth) sliced out of a record body, in writable memory."""
        (id_len,) = struct.unpack_from("<H", body, 0)
        both = np.frombuffer(body, dtype="<f8", count=2 * FEATURE_DIM, offset=2 + id_len).copy()
        return both[:FEATURE_DIM], both[FEATURE_DIM:]

    def _decode(self, body: bytes) -> RegistrationRecord:
        (id_len,) = struct.unpack_from("<H", body, 0)
        rid = body[2 : 2 + id_len].decode("utf-8")
        fn2d, fndep = self._features(body)
        pos = 2 + id_len + 2 * _FEATURE_BYTES
        o2d = _unpack_bits(body[pos : pos + _SHARE_BYTES], SHARE_SIDE)
        pos += _SHARE_BYTES
        odep = _unpack_bits(body[pos : pos + _SHARE_BYTES], SHARE_SIDE)
        pos += _SHARE_BYTES
        w2d = _unpack_bits(body[pos : pos + _WM_BYTES], WATERMARK_SIDE)
        pos += _WM_BYTES
        wdep = _unpack_bits(body[pos : pos + _WM_BYTES], WATERMARK_SIDE)
        return RegistrationRecord(rid, fn2d, fndep, o2d, odep, w2d, wdep)

    # -- public API ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._ids

    def ids(self) -> list[str]:
        return list(self._order)

    def register(self, rec: RegistrationRecord, store_watermarks: bool = True) -> int:
        """Durably append one record; returns the new record count."""
        self._check_open()
        if self.mode != "a":
            raise RegistryError("registry opened read-only")
        if rec.record_id in self._ids:
            raise DuplicateIdError(f"id already registered: {rec.record_id!r}")
        payload = _encode_record(rec, store_watermarks)
        offset = self._append_at
        self._fh.seek(offset)
        self._fh.write(payload)
        self._fh.truncate()
        self._fh.seek(4 + 2)
        self._fh.write(struct.pack("<Q", len(self._order) + 1))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._ids[rec.record_id] = offset
        self._order.append(rec.record_id)
        self._append_at = offset + len(payload)
        return len(self._order)

    def get_record(self, record_id: str) -> RegistrationRecord:
        self._check_open()
        if record_id not in self._ids:
            raise UnknownIdError(f"unknown id: {record_id!r}")
        rec = self._decode(self._read_record_raw(self._ids[record_id]))
        validate_share(rec.o_2d)
        validate_share(rec.o_depth)
        return rec

    def lookup_ownership(self, record_id: str):
        """Stored (O_2d, O_depth, W_2d, W_depth) for a clip id, bit-exact."""
        rec = self.get_record(record_id)
        return rec.o_2d, rec.o_depth, rec.w_2d, rec.w_depth

    def iterate_features(self):
        """Yield (id, fn_2d, fn_depth) for every record in insertion order."""
        self._check_open()
        for rid in self._order:
            yield (rid, *self._features(self._read_record_raw(self._ids[rid])))

    def close(self):
        if not self._closed:
            self._closed = True
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
