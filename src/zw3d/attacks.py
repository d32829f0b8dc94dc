"""Deterministic clip attacks for robustness benchmarking.

``PARAMS`` states each attack parameter once: its meaning and its allowed
values with the slug each gives the instance name. ``FAMILY_PARAMS`` is the
single statement of the fourteen attack families: for each one it names its
parameter and holds the clip-level op and whether the op is stochastic. The
26-instance ``attack_catalog``, ``apply_attack``'s dispatch,
``STOCHASTIC_FAMILIES`` and the CLI's attack flags (one per ``PARAMS``
entry) all come from the two.

Geometric families change frame size (rs, cr) or count (fd); everything else
preserves shape. Ops work on whole frames, gray ``(h, w)`` or colour
``(h, w, 3)`` alike; the arithmetic ones see a colour frame as three
contiguous float64 planes ``(3, h, w)``, while the median filter (mf) selects
on the uint8 frame itself, each colour plane apart. The Gaussian blur (gb)
and average filter (af) are separable and linear: each is one product per
band and axis with replicate borders, over the bands that
``frameio._operator_bands`` builds for ``normalize_clip`` too, multiplied
along x the same way. The stochastic families (gn, fr, fd) require a seed
and are bit-reproducible under it. The module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frameio import FrameSequence, _operator_bands, bilinear_matrix, gaussian_taps, to_u8

# ---------------------------------------------------------------------------
# per-frame transforms
# ---------------------------------------------------------------------------

_WINDOWS = 16384  # windows per median selection band: 7.4 MB of uint16 at 15 x 15


def _planes(fn, frame, value):
    """Apply ``fn(x, value)`` to a frame as contiguous float64 planes, ``(h, w)``
    or ``(3, h, w)``; round and clamp the result to uint8, colour axis back last."""
    if frame.ndim == 2:
        return to_u8(fn(frame.astype(np.float64), value))
    x = frame.transpose(2, 0, 1).astype(np.float64, order="C")
    return np.ascontiguousarray(to_u8(fn(x, value)).transpose(1, 2, 0))


def _separable(x: np.ndarray, taps: tuple[float, ...]) -> np.ndarray:
    """``taps`` correlated along y, then along x, over the planes ``(h, w)`` or
    ``(3, h, w)``: one product per band of ``_operator_bands`` and axis, along
    x through the view ``band.T`` as in ``normalize_clip``. Up to side 320
    every product stays on one OpenBLAS thread."""
    h, w = x.shape[-2:]
    t = np.empty_like(x)
    for r0, r1, c0, c1, band in _operator_bands(h, h, taps):
        np.matmul(band, x[..., c0:c1, :], out=t[..., r0:r1, :])
    out = np.empty_like(x)
    for r0, r1, c0, c1, band in _operator_bands(w, w, taps):
        np.matmul(t[..., c0:c1], band.T, out=out[..., r0:r1])
    return out


def _blur(x, window):
    """Gaussian blur: the normalized ``window``-tap Gaussian of variance 1 along
    each axis. The catalog fixes the variance for both windows, so the taps
    that ``gb15`` adds to ``gb9``'s weigh at most exp(-12.5) = 3.7e-6 of the
    centre tap (the ``FOUND`` in ``CHANGES.md``: the two give the same
    detection numbers)."""
    return _separable(x, gaussian_taps(window, 1.0))


def _average(x, window):
    """Average filter: the ``window``-tap mean along each axis."""
    return _separable(x, (1.0 / window,) * window)


def _logo(frame, size):
    """Opaque 8x8-cell checkerboard, white cell first, in the upper-left corner."""
    idx = np.arange(size) // (size // 8)
    logo = np.where((idx[:, None] + idx[None, :]) % 2 == 0, 255, 0).astype(np.uint8)
    h, w = min(size, frame.shape[0]), min(size, frame.shape[1])
    out = frame.copy()
    out[:h, :w] = logo[:h, :w].reshape((h, w) + (1,) * (frame.ndim - 2))
    return out


def _resize(x, factor):
    """Bilinear downscale of each side by ``factor``: one matmul pair over the planes."""
    h = max(1, int(np.rint(x.shape[-2] / factor)))
    w = max(1, int(np.rint(x.shape[-1] / factor)))
    return bilinear_matrix(x.shape[-2], h) @ x @ bilinear_matrix(x.shape[-1], w).T


def _crop(frame, fraction):
    kh = int(np.rint(fraction * frame.shape[0]))
    kw = int(np.rint(fraction * frame.shape[1]))
    return frame[kh : frame.shape[0] - kh, kw : frame.shape[1] - kw].copy()


def _rotate(frame, angle):
    """Rotation about the centre: 90 on a square frame is an exact grid
    permutation, anything else an inverse-map bilinear resample, black fill."""
    if angle == 90 and frame.shape[0] == frame.shape[1]:
        return np.rot90(frame).copy()
    return _planes(_resample_rotation, frame, angle)


def _resample_rotation(x, angle):
    h, w = x.shape[-2:]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    theta = math.radians(angle)
    ct, st = math.cos(theta), math.sin(theta)
    yy, xx = np.indices((h, w)).astype(np.float64)
    dy, dx = yy - cy, xx - cx
    src_y = ct * dy + st * dx + cy
    src_x = -st * dy + ct * dx + cx
    inside = (src_y >= 0) & (src_y <= h - 1) & (src_x >= 0) & (src_x <= w - 1)
    y0 = np.clip(np.floor(src_y), 0, h - 1).astype(np.intp)
    x0 = np.clip(np.floor(src_x), 0, w - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(src_y - y0, 0.0, 1.0)
    fx = np.clip(src_x - x0, 0.0, 1.0)
    flat = x.reshape(x.shape[:-2] + (h * w,))

    def at(yi, xi):  # one gather along every plane
        return np.take(flat, yi * w + xi, axis=-1)

    top = at(y0, x0) * (1 - fx) + at(y0, x1) * fx
    bot = at(y1, x0) * (1 - fx) + at(y1, x1) * fx
    return np.where(inside, top * (1 - fy) + bot * fy, 0.0)


def _flip(frame, direction):
    return (np.flipud(frame) if direction == "vertical" else np.fliplr(frame)).copy()


# ---------------------------------------------------------------------------
# clip-level ops: op(frames, value, seed) -> frames
# ---------------------------------------------------------------------------

def _each(fn):
    """Apply ``fn(frame, value)`` to every uint8 frame on its own."""
    return lambda frames, v, seed: [fn(f, v) for f in frames]


def _pixels(fn):
    """Apply ``fn(x, value)`` to every frame's float64 planes (see ``_planes``)."""
    return lambda frames, v, seed: [_planes(fn, f, v) for f in frames]


def _median(frames, window, seed):
    """Exact w x w median of every uint8 frame, edge-padded (``ndimage``'s "nearest").

    The rank-``n // 2`` order statistic of each window, selected on a uint16
    copy in row bands of at most ``_WINDOWS`` windows; a colour frame's
    planes stay separate. numpy's vectorised selection covers 16-bit but not
    8-bit integers, so selecting on uint16 is about 3x faster than on uint8.
    ``FrameSequence`` gives every frame of a clip the same shape, so one band
    buffer, of ``frame[0].size`` windows (a row's pixels and colour planes)
    per row, serves the whole clip. The filter draws nothing from ``seed``.
    """
    r, n = window // 2, window * window
    height, per_row = frames[0].shape[0], frames[0][0].size
    pad = ((r, r), (r, r)) + ((0, 0),) * (frames[0].ndim - 2)
    rows = max(1, _WINDOWS // per_row)
    buf = np.empty(min(height, rows) * per_row * n, dtype=np.uint16)
    out = []
    for frame in frames:
        views = sliding_window_view(np.pad(frame.astype(np.uint16), pad, mode="edge"),
                                    (window, window), axis=(0, 1))
        median = np.empty_like(frame)
        for y in range(0, height, rows):
            # one C-order copy: the reshape is a view of it and the selection runs in place
            chunk = views[y : y + rows]
            band = buf[: chunk.size].reshape(chunk.shape)
            np.copyto(band, chunk)
            windows = band.reshape(-1, n)
            windows.partition(n // 2, axis=1)
            median[y : y + rows] = windows[:, n // 2].reshape(band.shape[:-2])
        out.append(median)
    return out


def _noise(frames, variance, seed):
    """Additive Gaussian noise on the [0, 1] scale, one generator across the clip."""
    rng = np.random.default_rng(seed)
    sd = math.sqrt(variance)
    return [to_u8((f / 255.0 + rng.normal(0.0, sd, size=f.shape)) * 255.0) for f in frames]


def _replace(frames, rate, seed):
    """Replace a seeded random ``rate`` share of frames (never the first) with their predecessor."""
    out = [f.copy() for f in frames]
    n = int(np.rint(rate * len(frames)))
    if n > 0 and len(frames) > 1:
        rng = np.random.default_rng(seed)
        picks = rng.choice(np.arange(1, len(frames)), size=min(n, len(frames) - 1), replace=False)
        for i in sorted(int(p) for p in picks):
            out[i] = out[i - 1].copy()
    return out


def _drop(frames, rate, seed):
    """Drop a seeded random ``rate`` share of frames, keeping at least one."""
    n = int(np.rint(rate * len(frames)))
    rng = np.random.default_rng(seed)
    drop = {int(d) for d in rng.choice(len(frames), size=min(n, len(frames) - 1), replace=False)}
    return [f.copy() for i, f in enumerate(frames) if i not in drop]


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------

PARAMS = {  # parameter -> (what it means, in what unit; allowed value -> slug in the instance name)
    "window": ("window side in pixels", {9: "9", 15: "15"}),
    "delta": ("signed fraction", {-0.30: "m30", 0.30: "p30"}),
    "gamma": ("exponent", {0.6: "06", 1.4: "14"}),
    "variance": ("variance on the [0,1] scale", {0.005: "005", 0.01: "01"}),
    "size": ("logo side in pixels", {32: "32", 64: "64"}),
    "factor": ("downscale denominator", {2: "2", 5: "5"}),
    "fraction": ("share cut from each edge", {0.05: "5", 0.10: "10"}),
    "angle": ("angle in degrees", {45: "45", 90: "90"}),
    "direction": ("mirror axis", {"vertical": "v", "horizontal": "h"}),
    "rate": ("share of frames", {0.05: "5"}),
}


class Family(NamedTuple):
    param: str            # the one parameter's name in ``PARAMS`` (and the CLI flag's)
    op: Callable          # op(frames, value, seed) -> frames
    stochastic: bool = False  # the op draws from ``seed``, so a seed is required
    values = property(lambda self: PARAMS[self.param][1])  # allowed value -> slug, in catalog order


FAMILY_PARAMS = {
    # Gaussian blur (variance 1), average and median filters over a w x w window
    "gb": Family("window", _pixels(_blur)),
    "af": Family("window", _pixels(_average)),
    "mf": Family("window", _median),
    # contrast change around mid-gray 128, and multiplicative brightness gain
    "cc": Family("delta", _pixels(lambda x, d: 128.0 + (x - 128.0) * (1.0 + d))),
    "cb": Family("delta", _pixels(lambda x, d: x * (1.0 + d))),
    "gt": Family("gamma", _pixels(lambda x, g: np.power(x / 255.0, g) * 255.0)),
    # additive Gaussian noise
    "gn": Family("variance", _noise, stochastic=True),
    # opaque checkerboard logo in the upper-left corner
    "li": Family("size", _each(_logo)),
    # bilinear downscale of each side
    "rs": Family("factor", _pixels(_resize)),
    # crop from every edge
    "cr": Family("fraction", _each(_crop)),
    # rotation about the centre, and vertical or horizontal mirror
    "rt": Family("angle", _each(_rotate)),
    "fl": Family("direction", _each(_flip)),
    # frame replacement and frame dropping
    "fr": Family("rate", _replace, stochastic=True),
    "fd": Family("rate", _drop, stochastic=True),
}

STOCHASTIC_FAMILIES = tuple(f for f, fam in FAMILY_PARAMS.items() if fam.stochastic)


@dataclass(frozen=True)
class AttackSpec:
    family: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown attack family {self.family!r}")
        family = FAMILY_PARAMS[self.family]
        key, allowed = family.param, tuple(family.values)
        if key not in self.params:
            raise ValueError(f"attack {self.family} needs parameter {key!r}")
        if self.params[key] not in allowed:
            raise ValueError(f"attack {self.family}: {key}={self.params[key]!r} not in {allowed}")
        if self.family in STOCHASTIC_FAMILIES and self.seed is None:
            raise ValueError(f"attack {self.family} is stochastic and needs a seed")

    @property
    def value(self):
        return self.params[FAMILY_PARAMS[self.family].param]

    @property
    def name(self) -> str:
        """Filesystem-safe slug, e.g. gb9, ccm30, gn005, flv."""
        return self.family + FAMILY_PARAMS[self.family].values[self.value]


def attack_catalog(seed: int = 0) -> list[AttackSpec]:
    """The 26 standard attack instances: every family's values, in table order.

    Stochastic entries get the deterministic seed ``seed + index``.
    """
    entries = [(fam, f.param, v) for fam, f in FAMILY_PARAMS.items() for v in f.values]
    return [AttackSpec(fam, {key: v}, seed + i if fam in STOCHASTIC_FAMILIES else None)
            for i, (fam, key, v) in enumerate(entries)]


def apply_attack(seq: FrameSequence, spec: AttackSpec) -> FrameSequence:
    """Apply one attack instance to a clip; bit-reproducible under the seed."""
    out = FAMILY_PARAMS[spec.family].op(seq.frames, spec.value, spec.seed)
    return FrameSequence(frames=out, role=seq.role)
