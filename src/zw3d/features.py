"""Attack-invariant clip features.

A normalized clip is condensed into a single temporal reference image (the
mean of sampled frames), each frame is scored by how far its pixels deviate
from the reference image's 8-neighborhoods, the deviations are
contrast-normalized with an arctan ratio, and ring-shaped partitions around
the frame center are reduced to reference-weighted centroids. Rings and
8-neighborhoods are preserved by flips and quarter-turn rotations about the
frame center, so the resulting vector is exactly invariant under those maps;
the temporal averaging and arctan normalization buy robustness against
noise, filtering, and global intensity changes.

The production geometry is ``frameio``'s 320x320x100 volume, 16 rings of
width 10 and ``FEATURE_DIM`` = 16 x 100 values. ``extract_feature`` is the one
implementation of the pipeline; it also runs on reduced geometries, where the
tests compare it against the plain-loop reference in ``tests/oracle.py``.
The pixels are gathered in ring order, so every ring is one contiguous run
(an empty one for a ring that holds no pixel, which sums to 0 with no special
case), and a ring's weighted sum is a product of its run with the reference
image, split into runs short enough to stay on one OpenBLAS thread.

A clip arrives frame-major (``frameio.NormalizedClip``: the distinct source
planes plus the slot-to-plane map ``picks``), with its planes made on demand.
Extraction streams them in two phases on the worker threads of
``frameio._run_blocks`` (which holds the block size and the worker count).
First it makes only the planes the reference image samples, at most 20, and
sums them. Then it walks the planes in fixed blocks of 8: a worker makes
the block's other planes, 4 at a time, into its own scratch, gathers each
plane's pixels and takes their deviation as soon as the plane is made, into
a buffer of 8 x pixels, and then runs arctan and ring sums on the block. So
an extraction holds the sampled planes and 4 planes per worker, never the
whole stack, and only the ring centroids are copied out to the 100 frames.
A raw frame-last volume is the case of one stored plane per frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .frameio import _BLOCK, VOLUME_FRAMES, VOLUME_SIZE, NormalizedClip, _block_workers, _run_blocks

DISCARD = -1
# longest pixel run per ring-sum product: an (8, 4096) product stays on one
# OpenBLAS thread; after a multi-threaded call OpenBLAS's idle threads spin on
# a CPU for ~0.1 s, which the extraction threads would have to share
_RUN = 4096


@dataclass(frozen=True)
class FeatureParams:
    """Geometry and sampling constants for one feature extraction."""

    size: int = VOLUME_SIZE      # spatial side of the normalized volume
    frames: int = VOLUME_FRAMES  # temporal depth K
    ring_count: int = 16         # rings N (central disc counts as ring 0)
    ring_width: float = 10.0     # radial width r
    tiri_stride: int = 5         # sample frames k = stride, 2*stride, ...
    tiri_samples: int = 20       # number of sampled frames M

    def __post_init__(self):
        if self.tiri_stride * self.tiri_samples > self.frames:
            raise ValueError("TIRI sampling exceeds frame count")
        if self.ring_count * self.ring_width > self.size / 2 + 1e-9:
            raise ValueError("rings do not fit inside the frame")

    @property
    def center(self) -> float:
        """Geometric center of the 1-based pixel grid 1..size."""
        return (self.size + 1) / 2.0


DEFAULT_PARAMS = FeatureParams()
FEATURE_DIM = DEFAULT_PARAMS.ring_count * DEFAULT_PARAMS.frames


@dataclass
class FeatureVector:
    """Z-scored feature of length ring_count*frames, ordered frame-major.

    ``values[k*N + n]`` is the centroid of ring ``n`` in frame ``k``. When the
    pre-normalization feature is constant (blank clip), the values are all
    zero.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("feature values must be a flat vector")


def feature_values(fn: FeatureVector | np.ndarray) -> np.ndarray:
    """The values of a ``FeatureVector``, or an array, as float64."""
    return fn.values if isinstance(fn, FeatureVector) else np.asarray(fn, dtype=np.float64)


def _frame_major(clip: NormalizedClip | np.ndarray, params: FeatureParams) -> NormalizedClip:
    """A ``NormalizedClip`` as it is, or a raw frame-last ``(size, size,
    frames)`` volume as the clip of its frame-major copy, one plane per frame
    (``picks = arange(frames)``)."""
    if not isinstance(clip, NormalizedClip):
        planes = np.ascontiguousarray(np.moveaxis(np.asarray(clip, dtype=np.float64), -1, 0))
        clip = NormalizedClip._trusted(planes, np.arange(len(planes)))
    if clip.shape[1:] != (params.size, params.size) or len(clip.picks) != params.frames:
        raise ValueError(f"clip of {len(clip.picks)} frames of {clip.shape[1:]} does not match params")
    return clip


def _tiri(clip: NormalizedClip, params: FeatureParams, scratch: list) -> tuple[np.ndarray, dict]:
    """The mean of the sampled frames' planes, summed in frame order in place
    (the same bits as ``mean(axis=0)`` of their stack, without the copy), and
    those planes by plane index, each made once (``_planes_at``)."""
    s = params.tiri_stride
    sampled = clip.picks[s - 1 : s * params.tiri_samples : s]
    held = np.unique(sampled)
    made = dict(zip(held.tolist(), clip._planes_at(held, scratch)))
    tiri = made[sampled[0]].copy()
    for k in sampled[1:]:
        tiri += made[k]
    tiri /= len(sampled)
    return tiri, made


def compute_tiri(clip: NormalizedClip | np.ndarray, params: FeatureParams = DEFAULT_PARAMS) -> np.ndarray:
    """Temporally informative representative image of a clip: the mean of
    frames k = stride*m (1-based) for m = 1..M."""
    clip = _frame_major(clip, params)
    return _tiri(clip, params, clip._scratch(_block_workers(len(clip))))[0]


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


def zscore(f: np.ndarray) -> np.ndarray:
    """Standardize to sample mean 0 / sample std 1 (ddof=1).

    A near-zero standard deviation (< 1e-12), as of a blank clip, yields the
    zero vector instead of dividing by noise.
    """
    f = np.asarray(f, dtype=np.float64)
    mu = f.mean()
    sigma = f.std(ddof=1)
    if sigma < 1e-12:
        return np.zeros_like(f)
    return (f - mu) / sigma


@functools.cache
def _ring_plan(params: FeatureParams) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the interior pixels inside the last ring, ordered by
    ring (raster order within a ring), and the run bounds: ring n holds
    ``flat[bounds[n]:bounds[n + 1]]``, an empty run for a ring with no pixel.
    Cached per geometry and read-only, since every caller shares them."""
    labels = ring_labels(params)
    valid = labels >= 0
    # border pixels lack a full 8-neighborhood in the reference image
    valid[[0, -1], :] = valid[:, [0, -1]] = False
    flat = np.flatnonzero(valid.ravel())
    ring = labels.ravel()[flat]
    flat = flat[np.argsort(ring, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(ring, minlength=params.ring_count))))
    flat.flags.writeable = bounds.flags.writeable = False
    return flat, bounds


def extract_feature(
    clip: NormalizedClip | np.ndarray,
    params: FeatureParams = DEFAULT_PARAMS,
) -> FeatureVector:
    """Full pipeline: reference image, deviations, arctan, centroids, z-score.

    For each interior pixel p inside the last ring and each frame k, the
    deviation is the largest |tiri(a) - volume(p, k)| over the 8 neighbors a
    of p in the reference image ``compute_tiri``. It is normalized to
    arctan(deviation / tiri(p)), and the centroid of ring n in frame k is the
    tiri-weighted mean of those values over the ring (0 for a ring of zero
    weight). The frame-major centroids are z-scored. A pixel whose reference
    is 0 has weight 0, so its arctan value never counts.

    The planes are streamed in two phases, both on the worker threads of
    ``frameio._run_blocks`` with one producer scratch per worker
    (``NormalizedClip._scratch``). Phase 1 (``_tiri``) makes only the
    distinct sampled planes and sums them into the reference image. Phase 2
    walks all planes in blocks of ``_BLOCK``: a worker streams the planes of
    its block that phase 1 did not make through its scratch
    (``NormalizedClip._stream``), and as each plane comes it gathers the
    plane's ring-valid interior pixels in ring order (``_ring_plan``) into a
    row of one ``(_BLOCK, pixels)`` buffer and takes the row's deviation.
    The ratio is a product with ``1/tiri`` (0 where the reference is 0), and
    each ring's weighted sum is a product of its pixel run with ``tiri``,
    split into runs of at most ``_RUN`` pixels. So the
    per-pixel stages run once per distinct plane, not per frame, and the
    blocks, and with them the ring-sum products, are the same whatever phase
    1 made. A block's arithmetic is the same whichever thread runs it (one
    worker runs inline), so the values do not depend on the worker count.
    The planes' centroids are then copied to the frames that pick them.
    """
    clip = _frame_major(clip, params)
    workers = _block_workers(len(clip))
    scratch = clip._scratch(workers)
    tiri, made = _tiri(clip, params, scratch)
    flat, bounds = _ring_plan(params)

    shifts = (
        tiri[:-2, :-2], tiri[:-2, 1:-1], tiri[:-2, 2:],
        tiri[1:-1, :-2], tiri[1:-1, 2:],
        tiri[2:, :-2], tiri[2:, 1:-1], tiri[2:, 2:],
    )
    full = np.zeros_like(tiri)
    inner = full[1:-1, 1:-1]

    def neighbourhood(extreme: np.ufunc) -> np.ndarray:
        # pairwise in place: no (8, size - 2, size - 2) stack of the shifts
        extreme(shifts[0], shifts[1], out=inner)
        for shift in shifts[2:]:
            extreme(inner, shift, out=inner)
        return full.ravel()[flat]

    nmax, nmin = neighbourhood(np.maximum), neighbourhood(np.minimum)
    t = tiri.ravel()[flat]
    inv_t = np.zeros_like(t)
    np.divide(1.0, t, out=inv_t, where=t != 0)
    runs = [(n, a, min(a + _RUN, stop))
            for n, (lo, stop) in enumerate(zip(bounds[:-1], bounds[1:]))
            for a in range(lo, stop, _RUN)]

    num = np.zeros((len(clip), params.ring_count))
    # every worker's block buffer in one array, allocated here: each sits at
    # the same alignment, so the products repeat exactly in any worker
    bufs = np.empty((workers, min(_BLOCK, len(clip)), len(flat)))
    # the deviation runs row by row, so nmax - r needs one row per worker
    spans = np.empty((workers, len(flat)))

    def work(w: int, start: int, stop: int) -> None:
        dev = bufs[w, : stop - start]
        fresh = clip._stream([k for k in range(start, stop) if k not in made], scratch[w])
        for k, row in zip(range(start, stop), dev):
            plane = made[k] if k in made else next(fresh)
            # flat is in range; mode="clip" skips the buffered, bounds-checked copy
            np.take(plane.reshape(-1), flat, out=row, mode="clip")
            np.subtract(nmax, row, out=spans[w])
            np.subtract(row, nmin, out=row)
            np.maximum(spans[w], row, out=row)
        np.multiply(dev, inv_t, out=dev)
        np.arctan(dev, out=dev)
        sums = num[start:stop]
        for n, a, b in runs:
            sums[:, n] += dev[:, a:b] @ t[a:b]

    _run_blocks(len(clip), workers, work)
    den = np.array([t[a:b].sum() for a, b in zip(bounds[:-1], bounds[1:])])
    v = np.zeros_like(num)
    np.divide(num, den, out=v, where=den > 0)

    return FeatureVector(values=zscore(v[clip.picks].ravel()))
