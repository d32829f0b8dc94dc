"""Frame-sequence I/O and clip normalization.

Clips live on disk as directories of binary netpbm frames (PGM ``P5`` for
grayscale/depth, PPM ``P6`` for color), named ``frame_%06d.pgm|ppm`` starting
at 000000 with no gaps. Every clip is normalized to a fixed 320x320x100
luminance volume in [0, 1] before feature extraction, so the rest of the
pipeline never sees the source geometry. The spatial resampling (bilinear
resize, then a 3x3 Gaussian) is one linear operator per axis, applied to
each distinct picked frame as a pair of matrix products.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VOLUME_SIZE = 320
VOLUME_FRAMES = 100

ROLES = ("2d", "depth", "synthesized")

# Rec.601 luma weights.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)

_FRAME_RE = re.compile(r"frame_(\d{6})\.(pgm|ppm)$")


class FrameFormatError(ValueError):
    """Raised for malformed or unsupported frame files/sequences."""


@dataclass
class FrameSequence:
    """An ordered stack of same-sized 8-bit frames plus a role tag.

    ``frames`` holds uint8 arrays, each ``(h, w)`` grayscale or ``(h, w, 3)``
    RGB. Depth-role sequences must be single-channel.
    """

    frames: list[np.ndarray]
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if not self.frames:
            raise FrameFormatError("empty frame sequence")
        shape = self.frames[0].shape
        if 0 in shape[:2]:
            raise FrameFormatError(f"frames have zero size {shape[1]}x{shape[0]}")
        for k, f in enumerate(self.frames):
            if f.shape != shape:
                raise FrameFormatError("mixed dimensions in frame sequence")
            if f.dtype != np.uint8:
                raise FrameFormatError(f"frame {k} is not 8-bit")
        if self.role == "depth" and self.frames[0].ndim != 2:
            raise FrameFormatError("depth frames must be single-channel")

    @property
    def width(self) -> int:
        return self.frames[0].shape[1]

    @property
    def height(self) -> int:
        return self.frames[0].shape[0]

    def __len__(self) -> int:
        return len(self.frames)


@dataclass
class NormalizedClip:
    """Luminance volume of exact shape (320, 320, 100), values in [0, 1]."""

    volume: np.ndarray

    def __post_init__(self):
        expected = (VOLUME_SIZE, VOLUME_SIZE, VOLUME_FRAMES)
        if self.volume.shape != expected:
            raise ValueError(f"volume shape {self.volume.shape} != {expected}")
        if self.volume.min() < 0.0 or self.volume.max() > 1.0:
            raise ValueError("volume values outside [0, 1]")


# ---------------------------------------------------------------------------
# netpbm readers/writers (binary P4/P5/P6 only, maxval 255)
# ---------------------------------------------------------------------------

def _read_pnm_header(data: bytes, path: Path) -> tuple[bytes, list[int], int]:
    """Parse a netpbm header; returns (magic, dims, offset of raster)."""
    if len(data) < 2:
        raise FrameFormatError(f"{path}: truncated file")
    magic = data[:2]
    if magic not in (b"P4", b"P5", b"P6"):
        raise FrameFormatError(f"{path}: unsupported format {magic!r}")
    if not data[2:3].isspace():
        raise FrameFormatError(f"{path}: no whitespace after magic {magic!r}")
    want = 2 if magic == b"P4" else 3  # P4 has no maxval
    fields: list[int] = []
    pos = 2
    while len(fields) < want:
        if pos >= len(data):
            raise FrameFormatError(f"{path}: truncated header")
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif c.isdigit():
            end = pos
            while end < len(data) and data[end : end + 1].isdigit():
                end += 1
            fields.append(int(data[pos:end]))
            pos = end
        else:
            raise FrameFormatError(f"{path}: bad header byte {c!r}")
    # exactly one whitespace byte separates header from raster
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FrameFormatError(f"{path}: missing raster separator")
    return magic, fields, pos + 1


def read_frame(path: str | Path) -> np.ndarray:
    """Read one PGM (P5) or PPM (P6) frame as a uint8 array.

    Only maxval 255 is accepted; 16-bit rasters are rejected.
    """
    path = Path(path)
    data = path.read_bytes()
    magic, fields, off = _read_pnm_header(data, path)
    if magic == b"P4":
        raise FrameFormatError(f"{path}: P4 bitmaps are not frames")
    w, h, maxval = fields
    if maxval != 255:
        raise FrameFormatError(f"{path}: unsupported bit depth (maxval {maxval})")
    channels = 3 if magic == b"P6" else 1
    n = w * h * channels
    raster = data[off : off + n]
    if len(raster) != n:
        raise FrameFormatError(f"{path}: raster size mismatch")
    arr = np.frombuffer(raster, dtype=np.uint8)
    return arr.reshape(h, w, 3) if channels == 3 else arr.reshape(h, w)


def write_frame(path: str | Path, frame: np.ndarray) -> None:
    """Write a uint8 array as PGM (2-D input) or PPM ((h, w, 3) input)."""
    frame = np.ascontiguousarray(frame, dtype=np.uint8)
    if frame.ndim == 2:
        magic = b"P5"
        h, w = frame.shape
    elif frame.ndim == 3 and frame.shape[2] == 3:
        magic = b"P6"
        h, w = frame.shape[:2]
    else:
        raise ValueError(f"cannot encode frame of shape {frame.shape}")
    header = magic + b"\n%d %d\n255\n" % (w, h)
    Path(path).write_bytes(header + frame.tobytes())


def read_pbm(path: str | Path) -> np.ndarray:
    """Read a binary PBM (P4) into a 0/1 uint8 matrix, PBM convention (1=black)."""
    path = Path(path)
    data = path.read_bytes()
    magic, fields, off = _read_pnm_header(data, path)
    if magic != b"P4":
        raise FrameFormatError(f"{path}: not a P4 bitmap")
    w, h = fields
    row_bytes = (w + 7) // 8
    raster = data[off : off + row_bytes * h]
    if len(raster) != row_bytes * h:
        raise FrameFormatError(f"{path}: raster size mismatch")
    rows = np.frombuffer(raster, dtype=np.uint8).reshape(h, row_bytes)
    bits = np.unpackbits(rows, axis=1)[:, :w]
    return bits.astype(np.uint8)


def write_pbm(path: str | Path, bits: np.ndarray) -> None:
    """Write a 0/1 matrix as binary PBM (P4), PBM convention (1=black)."""
    bits = np.asarray(bits)
    if bits.ndim != 2 or not np.isin(bits, (0, 1)).all():
        raise ValueError("PBM payload must be a 0/1 matrix")
    h, w = bits.shape
    packed = np.packbits(bits.astype(np.uint8), axis=1)
    header = b"P4\n%d %d\n" % (w, h)
    Path(path).write_bytes(header + packed.tobytes())


# ---------------------------------------------------------------------------
# clip loading
# ---------------------------------------------------------------------------

def load_clip(path: str | Path, role: str) -> FrameSequence:
    """Load ``frame_%06d.pgm|ppm`` files from a directory, in index order.

    The numbering must start at 000000 and be gap-free; all frames must share
    one size, and depth clips must be grayscale.
    """
    path = Path(path)
    if not path.is_dir():
        raise FileNotFoundError(f"clip directory not found: {path}")
    indexed: dict[int, Path] = {}
    for p in sorted(path.iterdir()):
        m = _FRAME_RE.match(p.name)
        if m:
            indexed[int(m.group(1))] = p
    if not indexed:
        raise FrameFormatError(f"{path}: no frame files")
    count = max(indexed) + 1
    if set(indexed) != set(range(count)):
        missing = sorted(set(range(count)) - set(indexed))
        raise FrameFormatError(f"{path}: gap in frame numbering at {missing[0]}")
    frames = [read_frame(indexed[k]) for k in range(count)]
    return FrameSequence(frames=frames, role=role)


def save_clip(path: str | Path, seq: FrameSequence) -> None:
    """Write a FrameSequence as a frame_%06d.pgm|ppm directory."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for k, frame in enumerate(seq.frames):
        ext = "ppm" if frame.ndim == 3 else "pgm"
        write_frame(path / f"frame_{k:06d}.{ext}", frame)


# ---------------------------------------------------------------------------
# normalization to the 320x320x100 working volume
# ---------------------------------------------------------------------------

def to_luminance(frame: np.ndarray) -> np.ndarray:
    """Rec.601 luminance of an 8-bit RGB frame, scaled to [0, 1]."""
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError("to_luminance expects an (h, w, 3) RGB frame")
    r, g, b = (frame[:, :, c].astype(np.float64) for c in range(3))
    wr, wg, wb = LUMA_WEIGHTS
    return (wr * r + wg * g + wb * b) / 255.0


def _resample_axis(n_src: int, n_dst: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center-aligned bilinear sampling plan for one axis.

    Source coordinate of destination pixel x is (x + 0.5) * n_src/n_dst - 0.5,
    clamped to the valid range; this is symmetric under axis flips and exact
    identity when n_src == n_dst.
    """
    x = (np.arange(n_dst, dtype=np.float64) + 0.5) * (n_src / n_dst) - 0.5
    x = np.clip(x, 0.0, n_src - 1.0)
    lo = np.floor(x).astype(np.intp)
    hi = np.minimum(lo + 1, n_src - 1)
    return lo, hi, x - lo


def bilinear_matrix(n_src: int, n_dst: int) -> np.ndarray:
    """(n_dst, n_src) operator of the ``_resample_axis`` plan.

    ``bilinear_matrix(h, H) @ img @ bilinear_matrix(w, W).T`` is the bilinear
    resize of an (h, w) image to (H, W); each row holds at most two
    non-negative weights summing to 1.
    """
    lo, hi, frac = _resample_axis(n_src, n_dst)
    m = np.zeros((n_dst, n_src), dtype=np.float64)
    rows = np.arange(n_dst)
    m[rows, lo] += 1.0 - frac
    m[rows, hi] += frac
    return m


def _gaussian3_matrix(n: int, sigma: float = 0.5) -> np.ndarray:
    """(n, n) operator of the 1-D factor of the 3x3 Gaussian, replicate borders."""
    w = math.exp(-1.0 / (2.0 * sigma * sigma))
    k = np.array([w, 1.0, w], dtype=np.float64)
    k /= k.sum()
    g = np.zeros((n, n), dtype=np.float64)
    rows = np.arange(n)
    for offset, weight in zip((-1, 0, 1), k):
        g[rows, np.clip(rows + offset, 0, n - 1)] += weight
    return g


def temporal_indices(n_src: int, n_dst: int = VOLUME_FRAMES) -> np.ndarray:
    """Nearest-index temporal resampling map (0-based source index per slot)."""
    return (np.arange(n_dst, dtype=np.intp) * n_src) // n_dst


def normalize_clip(seq: FrameSequence, smooth: bool = True) -> NormalizedClip:
    """Resample a FrameSequence to the 320x320x100 luminance volume.

    Temporal axis uses nearest-index selection, spatial axes bilinear resize,
    followed by a 3x3 Gaussian (sigma 0.5). Color frames are converted to
    luminance first; grayscale frames, including depth maps, are scaled by
    1/255. ``smooth=False`` skips the Gaussian so identity-shaped inputs
    round-trip bit-for-bit (test hook).

    Resize and Gaussian are linear and separable, so each axis is one matrix
    built once per clip and every distinct picked frame costs two matmuls,
    ``m_y @ plane @ m_x.T``; only one source plane is held at a time.
    """
    m_y = bilinear_matrix(seq.height, VOLUME_SIZE)
    m_x = bilinear_matrix(seq.width, VOLUME_SIZE)
    if smooth:
        g = _gaussian3_matrix(VOLUME_SIZE)
        m_y, m_x = g @ m_y, g @ m_x
    picks = temporal_indices(len(seq))
    volume = np.empty((VOLUME_SIZE, VOLUME_SIZE, VOLUME_FRAMES), dtype=np.float64)
    # picks never decrease, so each distinct source frame fills one run of slots
    starts = np.flatnonzero(np.diff(picks, prepend=-1))
    for start, stop in zip(starts, np.append(starts[1:], VOLUME_FRAMES)):
        frame = seq.frames[picks[start]]
        plane = to_luminance(frame) if frame.ndim == 3 else frame.astype(np.float64) / 255.0
        plane = m_y @ plane @ m_x.T
        np.clip(plane, 0.0, 1.0, out=plane)
        volume[:, :, start:stop] = plane[:, :, None]
    return NormalizedClip(volume=volume)
