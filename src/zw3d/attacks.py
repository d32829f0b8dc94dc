"""Deterministic clip attacks for robustness benchmarking.

Fourteen families, 26 parameterized instances in the standard catalog:

    gb  Gaussian blur, window 9 or 15, variance 1
    af  average filter, window 9 or 15
    mf  median filter, window 9 or 15
    cc  contrast change +-30% around mid-gray 128
    cb  brightness gain +-30% (multiplicative)
    gt  gamma transform, gamma 0.6 or 1.4
    gn  additive Gaussian noise, variance 0.005 or 0.01 on the [0,1] scale
    li  opaque checkerboard logo (8x8 cells), 32 or 64 px, upper-left corner
    rs  bilinear downscale to 1/2 or 1/5 of each dimension
    cr  crop 5% or 10% of width/height from every edge
    rt  rotation by 45 (bilinear, black fill) or 90 degrees (exact) about center
    fl  vertical or horizontal mirror
    fr  replace a seeded random 5% of frames with their predecessor
    fd  drop a seeded random 5% of frames

Geometric families change frame size (rs, cr) or count (fd); everything else
preserves shape. The stochastic families (gn, fr, fd) require a seed and are
bit-reproducible under it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .frameio import FrameSequence, bilinear_matrix

STOCHASTIC_FAMILIES = ("gn", "fr", "fd")

FAMILY_PARAMS = {
    "gb": ("window", (9, 15)),
    "af": ("window", (9, 15)),
    "mf": ("window", (9, 15)),
    "cc": ("delta", (-0.30, 0.30)),
    "cb": ("delta", (-0.30, 0.30)),
    "gt": ("gamma", (0.6, 1.4)),
    "gn": ("variance", (0.005, 0.01)),
    "li": ("size", (32, 64)),
    "rs": ("factor", (2, 5)),
    "cr": ("fraction", (0.05, 0.10)),
    "rt": ("angle", (45, 90)),
    "fl": ("direction", ("vertical", "horizontal")),
    "fr": ("rate", (0.05,)),
    "fd": ("rate", (0.05,)),
}


@dataclass(frozen=True)
class AttackSpec:
    family: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown attack family {self.family!r}")
        key, allowed = FAMILY_PARAMS[self.family]
        if key not in self.params:
            raise ValueError(f"attack {self.family} needs parameter {key!r}")
        if self.params[key] not in allowed:
            raise ValueError(
                f"attack {self.family}: {key}={self.params[key]!r} not in {allowed}"
            )
        if self.family in STOCHASTIC_FAMILIES and self.seed is None:
            raise ValueError(f"attack {self.family} is stochastic and needs a seed")

    @property
    def value(self):
        return self.params[FAMILY_PARAMS[self.family][0]]

    @property
    def name(self) -> str:
        """Filesystem-safe slug, e.g. gb9, ccm30, gn005, flv."""
        v = self.value
        if self.family in ("cc", "cb"):
            return f"{self.family}{'m' if v < 0 else 'p'}{round(abs(v) * 100)}"
        if self.family == "gt":
            return f"{self.family}{str(v).replace('.', '')}"
        if self.family == "gn":
            return f"{self.family}{str(v).split('.')[1]}"
        if self.family == "cr":
            return f"{self.family}{round(v * 100)}"
        if self.family == "fl":
            return f"{self.family}{v[0]}"
        if self.family in ("fr", "fd"):
            return f"{self.family}{round(v * 100)}"
        return f"{self.family}{v}"

    @property
    def label(self) -> str:
        """Human-readable table label, e.g. 'GB 9x9', 'CC -30%'."""
        fam = self.family.upper()
        v = self.value
        if self.family in ("gb", "af", "mf", "li"):
            return f"{fam} {v}x{v}"
        if self.family in ("cc", "cb"):
            return f"{fam} {round(v * 100):+d}%"
        if self.family in ("cr", "fr", "fd"):
            return f"{fam} {round(v * 100)}%"
        if self.family == "rs":
            return f"{fam} 1/{v}"
        if self.family == "rt":
            return f"{fam} {v}"
        if self.family == "fl":
            return f"{fam} {v}"
        return f"{fam} {v}"


def attack_catalog(seed: int = 0) -> list[AttackSpec]:
    """The 26 standard attack instances, in benchmark table order.

    Stochastic entries get deterministic seeds derived from ``seed``.
    """
    entries = [
        ("gb", {"window": 9}), ("gb", {"window": 15}),
        ("af", {"window": 9}), ("af", {"window": 15}),
        ("mf", {"window": 9}), ("mf", {"window": 15}),
        ("cc", {"delta": -0.30}), ("cc", {"delta": 0.30}),
        ("cb", {"delta": -0.30}), ("cb", {"delta": 0.30}),
        ("gt", {"gamma": 0.6}), ("gt", {"gamma": 1.4}),
        ("gn", {"variance": 0.005}), ("gn", {"variance": 0.01}),
        ("li", {"size": 32}), ("li", {"size": 64}),
        ("rs", {"factor": 2}), ("rs", {"factor": 5}),
        ("cr", {"fraction": 0.05}), ("cr", {"fraction": 0.10}),
        ("rt", {"angle": 45}), ("rt", {"angle": 90}),
        ("fl", {"direction": "vertical"}), ("fl", {"direction": "horizontal"}),
        ("fr", {"rate": 0.05}), ("fd", {"rate": 0.05}),
    ]
    specs = []
    for idx, (family, params) in enumerate(entries):
        s = seed + idx if family in STOCHASTIC_FAMILIES else None
        specs.append(AttackSpec(family=family, params=params, seed=s))
    return specs


# ---------------------------------------------------------------------------
# per-frame transforms
# ---------------------------------------------------------------------------

def _per_channel(frame: np.ndarray, fn) -> np.ndarray:
    f = frame.astype(np.float64)
    if f.ndim == 2:
        out = fn(f)
    else:
        out = np.stack([fn(f[:, :, c]) for c in range(f.shape[2])], axis=2)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def _gaussian_kernel(window: int, sigma: float) -> np.ndarray:
    x = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def _blur(frame, window, sigma=1.0):
    k = _gaussian_kernel(window, sigma)

    def go(ch):
        tmp = ndimage.correlate1d(ch, k, axis=0, mode="nearest")
        return ndimage.correlate1d(tmp, k, axis=1, mode="nearest")

    return _per_channel(frame, go)


def _average(frame, window):
    return _per_channel(frame, lambda ch: ndimage.uniform_filter(ch, size=window, mode="nearest"))


def _median(frame, window):
    return _per_channel(frame, lambda ch: ndimage.median_filter(ch, size=window, mode="nearest"))


def _contrast(frame, delta):
    return _per_channel(frame, lambda ch: 128.0 + (ch - 128.0) * (1.0 + delta))


def _brightness(frame, delta):
    return _per_channel(frame, lambda ch: ch * (1.0 + delta))


def _gamma(frame, g):
    return _per_channel(frame, lambda ch: np.power(ch / 255.0, g) * 255.0)


def _noise(frame, variance, rng):
    x = frame.astype(np.float64) / 255.0
    x = x + rng.normal(0.0, math.sqrt(variance), size=x.shape)
    return np.clip(np.rint(np.clip(x, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)


def _checkerboard(size: int) -> np.ndarray:
    cell = size // 8
    idx = np.arange(size) // cell
    board = ((idx[:, None] + idx[None, :]) % 2 == 0)
    return np.where(board, 255, 0).astype(np.uint8)


def _logo(frame, size):
    out = frame.copy()
    logo = _checkerboard(size)
    h = min(size, frame.shape[0])
    w = min(size, frame.shape[1])
    if out.ndim == 2:
        out[:h, :w] = logo[:h, :w]
    else:
        out[:h, :w, :] = logo[:h, :w, None]
    return out


def _resize_frame(frame, factor):
    h = max(1, int(np.rint(frame.shape[0] / factor)))
    w = max(1, int(np.rint(frame.shape[1] / factor)))
    m_y = bilinear_matrix(frame.shape[0], h)
    m_x = bilinear_matrix(frame.shape[1], w)
    return _per_channel(frame, lambda ch: m_y @ ch @ m_x.T)


def _crop(frame, fraction):
    kh = int(np.rint(fraction * frame.shape[0]))
    kw = int(np.rint(fraction * frame.shape[1]))
    return frame[kh : frame.shape[0] - kh, kw : frame.shape[1] - kw].copy()


def _rotate(frame, angle):
    if angle == 90 and frame.shape[0] == frame.shape[1]:
        return np.rot90(frame).copy()  # exact grid permutation
    # generic inverse-map bilinear rotation about the frame center, black fill
    h, w = frame.shape[:2]
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

    def go(ch):
        top = ch[y0, x0] * (1 - fx) + ch[y0, x1] * fx
        bot = ch[y1, x0] * (1 - fx) + ch[y1, x1] * fx
        return np.where(inside, top * (1 - fy) + bot * fy, 0.0)

    return _per_channel(frame, go)


def _flip(frame, direction):
    return (np.flipud(frame) if direction == "vertical" else np.fliplr(frame)).copy()


# ---------------------------------------------------------------------------
# clip-level application
# ---------------------------------------------------------------------------

def apply_attack(seq: FrameSequence, spec: AttackSpec) -> FrameSequence:
    """Apply one attack instance to a clip; bit-reproducible under the seed."""
    fam, v = spec.family, spec.value
    frames = seq.frames
    if fam == "fr":
        rng = np.random.default_rng(spec.seed)
        out = [f.copy() for f in frames]
        n = int(np.rint(v * len(frames)))
        if n > 0 and len(frames) > 1:
            picks = rng.choice(np.arange(1, len(frames)), size=min(n, len(frames) - 1), replace=False)
            for i in sorted(int(p) for p in picks):
                out[i] = out[i - 1].copy()
        return FrameSequence(frames=out, role=seq.role, fps=seq.fps)
    if fam == "fd":
        rng = np.random.default_rng(spec.seed)
        n = int(np.rint(v * len(frames)))
        drop = set(int(d) for d in rng.choice(len(frames), size=min(n, len(frames) - 1), replace=False))
        out = [f.copy() for i, f in enumerate(frames) if i not in drop]
        return FrameSequence(frames=out, role=seq.role, fps=seq.fps)

    if fam == "gn":
        rng = np.random.default_rng(spec.seed)
        out = [_noise(f, v, rng) for f in frames]
    elif fam == "gb":
        out = [_blur(f, v) for f in frames]
    elif fam == "af":
        out = [_average(f, v) for f in frames]
    elif fam == "mf":
        out = [_median(f, v) for f in frames]
    elif fam == "cc":
        out = [_contrast(f, v) for f in frames]
    elif fam == "cb":
        out = [_brightness(f, v) for f in frames]
    elif fam == "gt":
        out = [_gamma(f, v) for f in frames]
    elif fam == "li":
        out = [_logo(f, v) for f in frames]
    elif fam == "rs":
        out = [_resize_frame(f, v) for f in frames]
    elif fam == "cr":
        out = [_crop(f, v) for f in frames]
    elif fam == "rt":
        out = [_rotate(f, v) for f in frames]
    elif fam == "fl":
        out = [_flip(f, v) for f in frames]
    else:  # unreachable: AttackSpec validation covers the family set
        raise ValueError(f"unknown attack family {fam!r}")
    return FrameSequence(frames=out, role=seq.role, fps=seq.fps)
