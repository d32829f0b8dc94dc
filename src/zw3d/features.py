"""Attack-invariant clip features.

A normalized clip is condensed into a single temporal reference image (a
weighted mean of sampled frames), each frame is scored by how far its pixels
deviate from the reference image's 8-neighborhoods, the deviations are
contrast-normalized with an arctan ratio, and ring-shaped partitions around
the frame center are reduced to weighted centroids. Rings and 8-neighborhoods
are preserved by flips and quarter-turn rotations about the frame center, so
the resulting vector is exactly invariant under those maps; the temporal
averaging and arctan normalization buy robustness against noise, filtering,
and global intensity changes.

The production geometry is a 320x320x100 volume, 16 rings of width 10, and a
16x100 = 1600-dimensional feature. ``extract_feature`` is the one
implementation of the pipeline; it also runs on reduced geometries, where the
tests compare it against the plain-loop reference in ``tests/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frameio import NormalizedClip

FEATURE_DIM = 1600
DISCARD = -1


@dataclass(frozen=True)
class FeatureParams:
    """Geometry and sampling constants for one feature extraction."""

    size: int = 320          # spatial side of the normalized volume
    frames: int = 100        # temporal depth K
    ring_count: int = 16     # rings N (central disc counts as ring 0)
    ring_width: float = 10.0 # radial width r
    tiri_stride: int = 5     # sample frames k = stride, 2*stride, ...
    tiri_samples: int = 20   # number of sampled frames M
    decay: float = 1.0       # weight base a, w_k = a**k (1.0 = plain mean)

    def __post_init__(self):
        if self.tiri_stride * self.tiri_samples > self.frames:
            raise ValueError("TIRI sampling exceeds frame count")
        if self.ring_count * self.ring_width > self.size / 2 + 1e-9:
            raise ValueError("rings do not fit inside the frame")

    @property
    def dim(self) -> int:
        return self.ring_count * self.frames

    @property
    def center(self) -> float:
        """Geometric center of the 1-based pixel grid 1..size."""
        return (self.size + 1) / 2.0


DEFAULT_PARAMS = FeatureParams()


@dataclass
class FeatureVector:
    """Z-scored feature of length ring_count*frames, ordered frame-major.

    ``values[k*N + n]`` is the centroid of ring ``n`` in frame ``k``. When the
    pre-normalization feature is constant (blank clip), ``degenerate`` is set
    and the values are all zero.
    """

    values: np.ndarray
    role: str
    degenerate: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("feature values must be a flat vector")


def compute_tiri(volume: np.ndarray, params: FeatureParams = DEFAULT_PARAMS) -> np.ndarray:
    """Temporally informative representative image of a volume.

    Weighted mean of frames k = stride*m for m = 1..M with weights a**k; the
    default a = 1 makes it the plain average of the sampled frames.
    """
    ks = params.tiri_stride * np.arange(1, params.tiri_samples + 1)
    w = params.decay ** ks.astype(np.float64)
    acc = np.tensordot(volume[:, :, ks - 1], w, axes=([2], [0]))
    return acc / w.sum()


def ring_labels(params: FeatureParams = DEFAULT_PARAMS) -> np.ndarray:
    """Ring number per pixel as an int array; DISCARD outside the last ring.

    Ring n covers the half-open annulus n*r <= Dist < (n+1)*r around the
    frame's geometric center.
    """
    c = params.center - 1.0  # 0-based center
    ax = np.arange(params.size, dtype=np.float64) - c
    dist = np.hypot(ax[:, None], ax[None, :])
    labels = np.floor(dist / params.ring_width).astype(np.int64)
    labels[labels >= params.ring_count] = DISCARD
    return labels


def zscore(f: np.ndarray) -> tuple[np.ndarray, bool]:
    """Standardize to sample mean 0 / sample std 1 (ddof=1).

    A near-zero standard deviation (< 1e-12) marks the feature degenerate and
    yields the zero vector instead of dividing by noise.
    """
    f = np.asarray(f, dtype=np.float64)
    mu = f.mean()
    sigma = f.std(ddof=1)
    if sigma < 1e-12:
        return np.zeros_like(f), True
    return (f - mu) / sigma, False


_PLAN_CACHE: dict[FeatureParams, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _ring_plan(params: FeatureParams):
    """Flat indices of interior pixels inside the last ring, sorted by ring.

    Returns (flat pixel indices, segment starts per ring, pixel count per
    ring); cached per params since the geometry is fixed.
    """
    if params not in _PLAN_CACHE:
        labels = ring_labels(params)
        valid = labels >= 0
        # border pixels lack a full 8-neighborhood in the reference image
        valid[[0, -1], :] = valid[:, [0, -1]] = False
        flat = np.flatnonzero(valid.ravel())
        lab = labels.ravel()[flat]
        order = np.argsort(lab, kind="stable")
        flat, lab = flat[order], lab[order]
        starts = np.searchsorted(lab, np.arange(params.ring_count))
        counts = np.diff(np.append(starts, lab.size))
        _PLAN_CACHE[params] = (flat, starts.astype(np.intp), counts)
    return _PLAN_CACHE[params]


def extract_feature(
    clip: NormalizedClip | np.ndarray,
    params: FeatureParams = DEFAULT_PARAMS,
    role: str | None = None,
) -> FeatureVector:
    """Full pipeline: reference image, deviations, arctan, centroids, z-score.

    For each interior pixel p inside the last ring and each frame k, the
    deviation is the largest |tiri(a) - volume(p, k)| over the 8 neighbors a
    of p in the reference image ``compute_tiri``. It is normalized to
    arctan(deviation / tiri(p)), and the centroid of ring n in frame k is the
    tiri-weighted mean of those values over the ring (0 for a ring of zero
    weight). The frame-major centroids are z-scored. A pixel whose reference
    is 0 has weight 0, so its arctan value never counts.

    Only the ring-valid interior pixels are gathered, once, and rings are
    reduced with contiguous segment sums.
    """
    if isinstance(clip, NormalizedClip):
        volume, role = clip.volume, clip.role
    else:
        volume = np.asarray(clip, dtype=np.float64)
        role = role or "2d"
    if volume.shape != (params.size, params.size, params.frames):
        raise ValueError(f"volume shape {volume.shape} does not match params")

    tiri = compute_tiri(volume, params)
    flat, starts, counts = _ring_plan(params)

    shifts = (
        tiri[:-2, :-2], tiri[:-2, 1:-1], tiri[:-2, 2:],
        tiri[1:-1, :-2], tiri[1:-1, 2:],
        tiri[2:, :-2], tiri[2:, 1:-1], tiri[2:, 2:],
    )
    full = np.zeros_like(tiri)
    full[1:-1, 1:-1] = np.maximum.reduce(shifts)
    nmax = full.ravel()[flat]
    full[1:-1, 1:-1] = np.minimum.reduce(shifts)
    nmin = full.ravel()[flat]

    r = volume.reshape(-1, params.frames)[flat]  # (pixels, frames) copy
    dev = nmax[:, None] - r
    np.subtract(r, nmin[:, None], out=r)
    np.maximum(dev, r, out=dev)

    t = tiri.ravel()[flat]
    np.divide(dev, t[:, None], out=dev, where=(t != 0)[:, None])
    np.arctan(dev, out=dev)
    np.multiply(dev, t[:, None], out=dev)
    reduce_at = np.minimum(starts, max(flat.size - 1, 0))
    num = np.add.reduceat(dev, reduce_at, axis=0)
    den = np.add.reduceat(t, reduce_at)
    num[counts == 0] = 0.0
    v = np.zeros_like(num)
    np.divide(num, den[:, None], out=v, where=(den > 0)[:, None])

    fn, degenerate = zscore(v.T.ravel())
    return FeatureVector(values=fn, role=role, degenerate=degenerate)

