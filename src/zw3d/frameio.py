"""Frame-sequence I/O and clip normalization.

Clips live on disk as directories of binary netpbm frames (PGM ``P5`` for
grayscale/depth, PPM ``P6`` for color), named ``frame_%06d.pgm|ppm`` starting
at 000000 with no gaps. Every clip is normalized to 100 temporal
slots of 320x320 luminance in [0, 1] before feature extraction, so the rest
of the pipeline never sees the source geometry. The clip is frame-major, the
distinct picked source frames plus a slot-to-plane map, so a short clip is
resampled (and later scored) once per source frame, not once per slot. The
spatial resampling (bilinear resize, then a 3x3 Gaussian) is one linear
operator per axis, applied as small products per band and axis, each short
enough to stay on one OpenBLAS thread. ``_operator_bands`` is the one builder
of such banded operators, for this resampling and for the ``gb``/``af``
attack filters alike: it cuts an operator into bands of rows restricted to
their nonzero columns and caches one block per band, which both multiply
along x through the same transposed view. Likewise ``gaussian_taps`` is the
one Gaussian-kernel builder (the 3x3 smoothing here, the ``gb`` blur there)
and ``to_u8`` the one rounding of computed pixels back to uint8 frames, for
the attacks and the synthetic corpus.

``normalize_clip`` resamples nothing: its ``NormalizedClip`` keeps the
source frames and the two axis bands, and one producer
(``NormalizedClip._block``) makes up to 4 planes (``_MAKE``) at a time when
a caller asks for them, into one worker's scratch.
``features.extract_feature`` asks for each plane once and consumes it while
it is still warm, so no clip is ever held as a whole ``(U, 320, 320)``
stack; ``NormalizedClip.planes`` and ``.volume`` build one on demand. The
work goes to up to two threads (``_WORKERS``, ``_run_blocks``), each worker
with its own scratch. A y-band is one stacked product over the planes of a
producer call, so the threads make fewer, longer calls than one plane at a
time would, which trade the interpreter lock back and forth. The producer
clips each output band to [0, 1] as it is written, and a clip built by hand
from a stored stack is checked in full.
"""

from __future__ import annotations

import functools
import os
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VOLUME_SIZE = 320
VOLUME_FRAMES = 100

ROLES = ("2d", "depth", "synthesized")

# Rec.601 luma weights.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)

_FRAME_RE = re.compile(r"frame_(\d{6})\.(pgm|ppm)$")

# output rows per band of an ``_operator_bands`` operator. A band of a
# resampling operator from side n <= 320 spans at most 35 source columns, and
# one of a w-tap filter (w <= 15) at most 32 + w - 1 = 46, so a band product
# against a side of 320 is at most 32 x 46 x 320 = 471,040 multiply-adds and
# stays on one OpenBLAS thread: on a 2-vCPU VM (OpenBLAS 0.3.31) products up
# to 983,040 ran at CPU/wall 1.00 and 1,024,000 at 1.94. After a
# multi-threaded call OpenBLAS's idle worker spins on a CPU for ~0.1 s, which
# the extraction that follows would have to share.
_BAND = 32
# planes per pass of extract_feature's per-pixel stages
_BLOCK = 8
# planes per call of the plane producer: four 320x320 planes (3.3 MB) and
# their x-passes, read back while they are still near the core that made them
_MAKE = 4
# threads that the blocks are handed to: the usable CPUs, at most 2
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


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


class NormalizedClip:
    """A clip resampled to 100 temporal slots of 320x320 luminance in [0, 1].

    Frame-major: the clip has one plane per distinct source frame that the
    slots pick (``len(clip)`` of them), and ``picks[k]`` is the plane of slot
    k. A 64-frame clip has 64 planes, not 100, and every per-pixel stage
    downstream runs once per plane.

    The planes are made on demand by one producer, ``_block``. A clip from
    ``normalize_clip`` holds no plane: it keeps the source frames, the
    distinct frames the slots pick and the two axis bands, and makes the
    planes a caller asks for, ``_MAKE`` at a time, into a worker's scratch
    (``_scratch``, read through ``_stream``) or an array the caller owns
    (``_planes_at``); ``features.extract_feature`` makes each plane once. A
    clip built from a stored ``(U, 320, 320)`` stack, checked in full,
    yields views of it. ``planes`` and ``volume`` build the whole stack on
    each call of a clip that holds none.
    """

    def __init__(self, planes: np.ndarray, picks: np.ndarray):
        if planes.ndim != 3 or planes.shape[1:] != (VOLUME_SIZE, VOLUME_SIZE):
            raise ValueError(f"plane stack shape {planes.shape} is not (U, {VOLUME_SIZE}, {VOLUME_SIZE})")
        if picks.shape != (VOLUME_FRAMES,):
            raise ValueError(f"picks shape {picks.shape} != ({VOLUME_FRAMES},)")
        if picks.min() < 0 or picks.max() >= len(planes):
            raise ValueError(f"picks outside the {len(planes)} planes")
        if not (planes.min() >= 0.0 and planes.max() <= 1.0):  # NaN fails too
            raise ValueError("plane values outside [0, 1]")
        self._stack, self.picks = planes, picks

    @classmethod
    def _trusted(cls, planes: np.ndarray, picks: np.ndarray) -> NormalizedClip:
        """A clip of a stored stack, set as it is, without the checks: for
        planes already shaped and in [0, 1], or of a reduced geometry."""
        clip = object.__new__(cls)
        clip._stack, clip.picks = planes, picks
        return clip

    @classmethod
    def _resampled(cls, seq: FrameSequence, sources: np.ndarray, picks: np.ndarray) -> NormalizedClip:
        """The clip of ``seq`` whose plane k is source frame ``sources[k]``
        resampled (see ``normalize_clip``), holding no plane."""
        clip = object.__new__(cls)
        clip._stack, clip.picks, clip._seq, clip._sources = None, picks, seq, sources
        clip._y_bands = _operator_bands(seq.height, VOLUME_SIZE, gaussian_taps(3, 0.5))
        clip._x_bands = _operator_bands(seq.width, VOLUME_SIZE, gaussian_taps(3, 0.5))
        return clip

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of the plane stack, ``(len(clip), 320, 320)``."""
        return (len(self._sources), VOLUME_SIZE, VOLUME_SIZE) if self._stack is None else self._stack.shape

    def _scratch(self, workers: int) -> list:
        """One producer scratch per worker: a gray source frame, and the
        x-passes and planes of one producer call, each worker's in one array
        with the others' (None for a stored stack, which needs none)."""
        if self._stack is not None:
            return [None] * workers
        h, w, n = self._seq.height, self._seq.width, min(_MAKE, len(self))
        return list(zip(np.empty((workers, h, w)), np.empty((workers, n, h, VOLUME_SIZE)),
                        np.empty((workers, n, VOLUME_SIZE, VOLUME_SIZE))))

    def _block(self, ks, scratch, out: np.ndarray | None = None):
        """Planes ``ks``, at most ``_MAKE`` of them, from the one producer of
        planes: views of a stored stack, or made into ``out`` (by default the
        planes of ``scratch``, one worker's ``_scratch``). Each source frame
        is converted to luminance (a gray one into the scratch frame) and
        multiplied by each x-band into its x-pass; then each y-band is one
        stacked product over the x-passes into its rows of the planes,
        clipped to [0, 1] while still in cache. The stacked product is one
        gemm per plane, the same as a single plane's, so a plane does not
        depend on the planes made with it, its place among them or the
        worker."""
        if self._stack is not None:
            return [self._stack[k] for k in ks]
        src, xs, planes = scratch
        xs = xs[: len(ks)]
        for k, x in zip(ks, xs):
            frame = self._seq.frames[self._sources[k]]
            lum = to_luminance(frame, src) if frame.ndim == 3 else np.divide(frame, 255.0, out=src)
            for r0, r1, c0, c1, band in self._x_bands:
                np.matmul(lum[:, c0:c1], band.T, out=x[:, r0:r1])
        out = (planes if out is None else out)[: len(ks)]
        for r0, r1, c0, c1, band in self._y_bands:
            rows = out[:, r0:r1]
            np.matmul(band, xs[:, c0:c1], out=rows)
            np.clip(rows, 0.0, 1.0, out=rows)
        return out

    def _stream(self, ks, scratch):
        """Planes ``ks`` in order, each one good until the next is read:
        views of a stored stack, or made ``_MAKE`` at a time into
        ``scratch``."""
        for a in range(0, len(ks), _MAKE):
            yield from self._block(ks[a : a + _MAKE], scratch)

    def _planes_at(self, ks: np.ndarray, scratch: list):
        """Planes ``ks``: views of a stored stack, or one new ``(len(ks), 320,
        320)`` array, an equal run of it (to one plane) made on each worker of
        ``scratch``, ``_MAKE`` planes at a time."""
        if self._stack is not None:
            return self._block(ks, None)
        out = np.empty((len(ks), VOLUME_SIZE, VOLUME_SIZE))

        def make(w: int, start: int, stop: int) -> None:
            for a in range(start, stop, _MAKE):
                b = min(a + _MAKE, stop)
                self._block(ks[a:b], scratch[w], out[a:b])

        _run_blocks(len(ks), len(scratch), make, size=-(-len(ks) // len(scratch)))
        return out

    @property
    def planes(self) -> np.ndarray:
        """The ``(len(clip), 320, 320)`` plane stack: the stored one, or
        built on each call."""
        if self._stack is not None:
            return self._stack
        return self._planes_at(np.arange(len(self)), self._scratch(_block_workers(len(self))))

    @property
    def volume(self) -> np.ndarray:
        """The frame-last ``(320, 320, 100)`` volume, built on each call."""
        return np.moveaxis(self.planes[self.picks], 0, -1)


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

    The numbering must start at 000000 and be gap-free, one file per index;
    all frames must share one size, and depth clips must be grayscale.
    """
    path = Path(path)
    if not path.is_dir():
        raise FileNotFoundError(f"clip directory not found: {path}")
    indexed: dict[int, Path] = {}
    for p in sorted(path.iterdir()):
        m = _FRAME_RE.match(p.name)
        if m and indexed.setdefault(int(m.group(1)), p) != p:
            twin = indexed[int(m.group(1))].name
            raise FrameFormatError(f"{path}: frame {m.group(1)} stored twice: {twin} and {p.name}")
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

def to_luminance(frame: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rec.601 luminance of an 8-bit RGB frame, scaled to [0, 1]:
    ``(wr * r + wg * g + wb * b) / 255`` in that order, summed into ``out``
    (a new array by default) with one temporary."""
    if frame.ndim != 3 or frame.shape[2] != 3:
        raise ValueError("to_luminance expects an (h, w, 3) RGB frame")
    y = np.multiply(frame[:, :, 0], LUMA_WEIGHTS[0], out=out, dtype=np.float64)
    tmp = np.empty_like(y)
    for c in (1, 2):
        y += np.multiply(frame[:, :, c], LUMA_WEIGHTS[c], out=tmp, dtype=np.float64)
    y /= 255.0
    return y


def bilinear_matrix(n_src: int, n_dst: int) -> np.ndarray:
    """(n_dst, n_src) center-aligned bilinear resampling operator for one axis.

    Destination pixel x samples source coordinate (x + 0.5) * n_src/n_dst - 0.5,
    clamped to the valid range: symmetric under axis flips and the identity
    when n_src == n_dst. ``bilinear_matrix(h, H) @ img @ bilinear_matrix(w, W).T``
    is the bilinear resize of an (h, w) image to (H, W); each row holds at
    most two non-negative weights summing to 1.
    """
    x = (np.arange(n_dst, dtype=np.float64) + 0.5) * (n_src / n_dst) - 0.5
    x = np.clip(x, 0.0, n_src - 1.0)
    lo = np.floor(x).astype(np.intp)
    frac = x - lo
    m = np.zeros((n_dst, n_src), dtype=np.float64)
    rows = np.arange(n_dst)
    m[rows, lo] += 1.0 - frac
    m[rows, np.minimum(lo + 1, n_src - 1)] += frac
    return m


def temporal_indices(n_src: int, n_dst: int = VOLUME_FRAMES) -> np.ndarray:
    """Nearest-index temporal resampling map (0-based source index per slot)."""
    return (np.arange(n_dst, dtype=np.intp) * n_src) // n_dst


def to_u8(x: np.ndarray) -> np.ndarray:
    """Round to the nearest integer (half to even) and clamp to uint8: the one
    conversion of computed pixel values back to 8-bit frames. Rounds and
    clamps in one temporary."""
    r = np.rint(x)
    return np.clip(r, 0, 255, out=r).astype(np.uint8)


def gaussian_taps(window: int, sigma: float) -> tuple[float, ...]:
    """The normalized ``window``-tap Gaussian of standard deviation ``sigma``,
    centred on the middle tap: the 1-D factor of a separable Gaussian, as the
    ``taps`` of ``_operator_bands``. ``normalize_clip`` smooths with
    ``gaussian_taps(3, 0.5)``, the ``gb`` attack with ``gaussian_taps(w, 1.0)``.
    The taps are divided by their numpy sum (for 3 taps ``(w + 1) + w``);
    another summation order rounds differently and moves the planes by an ulp."""
    t = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    return tuple((k / k.sum()).tolist())


@functools.cache
def _operator_bands(n_src: int, n_dst: int, taps: tuple[float, ...]) -> tuple:
    """Bands of the axis operator from side ``n_src`` to ``n_dst``: a
    ``bilinear_matrix`` resize (only when the sides differ), then correlation
    with the odd-length kernel ``taps`` under replicate borders, output row
    ``i`` being ``sum(taps[t] * x[clip(i + t - r)])`` with ``r = len(taps) // 2``,
    the taps added in tap order.

    The bands are ``(r0, r1, c0, c1, block)`` per ``_BAND`` rows:
    ``block = m[r0:r1, c0:c1]`` with ``c0:c1`` spanning every nonzero column
    of those rows. A product along y is ``block @ x[c0:c1]``, one along x
    ``x[..., c0:c1] @ block.T`` through the transposed view. This is the one
    builder of banded operators: ``normalize_clip``'s resampling and the
    ``gb``/``af`` filters (``attacks._separable``) read its bands, and both
    multiply along x the same way. Cached per sides and taps, read-only,
    since every frame of those sides shares them."""
    r, rows = len(taps) // 2, np.arange(n_dst)
    m = np.zeros((n_dst, n_dst), dtype=np.float64)
    for t, weight in enumerate(taps):  # one entry per row and tap: no repeats within a tap
        m[rows, np.clip(rows + t - r, 0, n_dst - 1)] += weight
    if n_src != n_dst:
        m = m @ bilinear_matrix(n_src, n_dst)
    bands = []
    for r0 in range(0, n_dst, _BAND):
        r1 = min(r0 + _BAND, n_dst)
        cols = np.flatnonzero(m[r0:r1].any(axis=0))
        c0, c1 = int(cols[0]), int(cols[-1]) + 1
        block = m[r0:r1, c0:c1].copy()
        block.flags.writeable = False
        bands.append((r0, r1, c0, c1, block))
    return tuple(bands)


def _block_workers(count: int) -> int:
    """Threads for ``count`` planes: one per block of ``_BLOCK``, at most ``_WORKERS``."""
    return min(_WORKERS, -(-count // _BLOCK))


def _run_blocks(count: int, workers: int, block: Callable[[int, int, int], None], size: int = _BLOCK) -> None:
    """Call ``block(w, start, stop)`` for every block ``start:stop`` of
    ``size`` items (the last one shorter) in ``range(count)``, the blocks
    round-robin over ``workers`` threads (worker ``w`` takes blocks w,
    w + workers, ...). One worker runs inline. The caller allocates every
    buffer and gives each worker its own, so a block's arithmetic is the same
    whichever worker runs it."""
    def work(w: int) -> None:
        for start in range(w * size, count, workers * size):
            block(w, start, min(start + size, count))

    if workers == 1:
        work(0)
    else:
        # imported only here: a process that never starts the pool does not load it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(work, range(workers)))


def normalize_clip(seq: FrameSequence) -> NormalizedClip:
    """Resample a FrameSequence to 100 slots of 320x320 luminance.

    Temporal axis uses nearest-index selection, spatial axes bilinear resize,
    followed by a 3x3 Gaussian (sigma 0.5). Color frames are converted to
    luminance first; grayscale frames, including depth maps, are scaled by
    1/255.

    Resize and Gaussian are linear and separable, so each axis is one matrix
    (the Gaussian's times ``bilinear_matrix``), and each distinct picked frame
    is ``m_y @ plane @ m_x.T``. Each operator is nonzero only near its
    diagonal; ``_operator_bands`` caches it per source side as bands. The
    slots that repeat a frame share its plane through ``picks``. Nothing is
    resampled here: the clip keeps the frames and the bands, and its
    producer (``NormalizedClip._block``) makes the planes when they are
    read, in blocks on the ``_run_blocks`` workers. For sides up to 320 every
    band product stays on one OpenBLAS thread; larger sides give the same
    planes but may use BLAS threads.
    """
    sources, picks = np.unique(temporal_indices(len(seq)), return_inverse=True)
    return NormalizedClip._resampled(seq, sources, picks)
