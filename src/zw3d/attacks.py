"""Deterministic clip attacks for robustness benchmarking.

``FAMILY_PARAMS`` is the single statement of the fourteen attack families:
for each one it holds the parameter name and meaning, the allowed values with
the slug each gives the instance name, the label format, the clip-level op and
whether the op is stochastic. The 26-instance ``attack_catalog``,
``apply_attack``'s dispatch, ``STOCHASTIC_FAMILIES`` and the CLI's attack
flags all come from it.

Geometric families change frame size (rs, cr) or count (fd); everything else
preserves shape. Ops work on whole frames, gray ``(h, w)`` or colour
``(h, w, 3)`` alike; the arithmetic ones see a colour frame as three
contiguous float64 planes ``(3, h, w)``. The stochastic families (gn, fr, fd)
require a seed and are bit-reproducible under it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy import ndimage

from .frameio import FrameSequence, bilinear_matrix

# ---------------------------------------------------------------------------
# per-frame transforms
# ---------------------------------------------------------------------------

def _u8(x: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(x), 0, 255).astype(np.uint8)


def _planes(fn, frame, value):
    """Apply ``fn(x, value)`` to a frame as contiguous float64 planes, ``(h, w)``
    or ``(3, h, w)``; round and clamp the result to uint8, colour axis back last."""
    if frame.ndim == 2:
        return _u8(fn(frame.astype(np.float64), value))
    x = frame.transpose(2, 0, 1).astype(np.float64, order="C")
    return np.ascontiguousarray(_u8(fn(x, value)).transpose(1, 2, 0))


def _window(x: np.ndarray, w: int) -> tuple:
    """A w x w filter footprint that leaves a leading colour axis alone."""
    return (1,) * (x.ndim - 2) + (w, w)


def _blur(x, window, sigma=1.0):
    t = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    k /= k.sum()
    return ndimage.correlate1d(ndimage.correlate1d(x, k, axis=-2, mode="nearest"),
                               k, axis=-1, mode="nearest")


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
    """Apply ``fn(frame, value)`` to every uint8 frame."""
    return lambda frames, v, seed: [fn(f, v) for f in frames]


def _pixels(fn):
    """Apply ``fn(x, value)`` to every frame's float64 planes (see ``_planes``)."""
    return lambda frames, v, seed: [_planes(fn, f, v) for f in frames]


def _noise(frames, variance, seed):
    """Additive Gaussian noise on the [0, 1] scale, one generator across the clip."""
    rng = np.random.default_rng(seed)
    sd = math.sqrt(variance)
    return [_u8(np.clip(f.astype(np.float64) / 255.0 + rng.normal(0.0, sd, size=f.shape),
                        0.0, 1.0) * 255.0) for f in frames]


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

class Family(NamedTuple):
    param: str            # the one parameter's name (and the CLI flag's)
    doc: str              # what the parameter means, in what unit (the flag's help)
    values: dict          # allowed value -> slug in the instance name, in catalog order
    label: str            # label format over ``v``, after the upper-case family
    op: Callable          # op(frames, value, seed) -> frames
    stochastic: bool = False  # the op draws from ``seed``, so a seed is required


FAMILY_PARAMS = {
    # Gaussian blur (variance 1), average and median filters over a w x w window
    "gb": Family("window", "window side in pixels", {9: "9", 15: "15"}, "{v}x{v}",
                 _pixels(_blur)),
    "af": Family("window", "window side in pixels", {9: "9", 15: "15"}, "{v}x{v}", _pixels(
        lambda x, w: ndimage.uniform_filter(x, size=_window(x, w), mode="nearest"))),
    "mf": Family("window", "window side in pixels", {9: "9", 15: "15"}, "{v}x{v}", _pixels(
        lambda x, w: ndimage.median_filter(x, size=_window(x, w), mode="nearest"))),
    # contrast change around mid-gray 128, and multiplicative brightness gain
    "cc": Family("delta", "signed fraction", {-0.30: "m30", 0.30: "p30"}, "{v:+.0%}",
                 _pixels(lambda x, d: 128.0 + (x - 128.0) * (1.0 + d))),
    "cb": Family("delta", "signed fraction", {-0.30: "m30", 0.30: "p30"}, "{v:+.0%}",
                 _pixels(lambda x, d: x * (1.0 + d))),
    "gt": Family("gamma", "exponent", {0.6: "06", 1.4: "14"}, "{v}", _pixels(
        lambda x, g: np.power(x / 255.0, g) * 255.0)),
    # additive Gaussian noise
    "gn": Family("variance", "variance on the [0,1] scale", {0.005: "005", 0.01: "01"}, "{v}",
                 _noise, stochastic=True),
    # opaque checkerboard logo in the upper-left corner
    "li": Family("size", "logo side in pixels", {32: "32", 64: "64"}, "{v}x{v}", _each(_logo)),
    # bilinear downscale of each side
    "rs": Family("factor", "downscale denominator", {2: "2", 5: "5"}, "1/{v}", _pixels(_resize)),
    # crop from every edge
    "cr": Family("fraction", "share cut from each edge", {0.05: "5", 0.10: "10"}, "{v:.0%}",
                 _each(_crop)),
    # rotation about the centre, and vertical or horizontal mirror
    "rt": Family("angle", "angle in degrees", {45: "45", 90: "90"}, "{v}", _each(_rotate)),
    "fl": Family("direction", "mirror axis", {"vertical": "v", "horizontal": "h"}, "{v}",
                 _each(_flip)),
    # frame replacement and frame dropping
    "fr": Family("rate", "share of frames", {0.05: "5"}, "{v:.0%}", _replace, stochastic=True),
    "fd": Family("rate", "share of frames", {0.05: "5"}, "{v:.0%}", _drop, stochastic=True),
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

    @property
    def label(self) -> str:
        """Human-readable table label, e.g. 'GB 9x9', 'CC -30%'."""
        return f"{self.family.upper()} " + FAMILY_PARAMS[self.family].label.format(v=self.value)


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
