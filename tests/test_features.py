import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zw3d import frameio
from zw3d.features import (
    DISCARD,
    DEFAULT_PARAMS,
    FeatureParams,
    _ring_plan,
    compute_tiri,
    extract_feature,
    ring_labels,
    zscore,
)
from zw3d.frameio import FrameSequence, NormalizedClip, normalize_clip
from zw3d.fusion import feature_distance

from oracle import (
    brute_centroids,
    brute_deviation,
    brute_extract,
    brute_normalize,
    brute_ring,
)

SMALL = FeatureParams(size=20, frames=4, ring_count=5, ring_width=2.0,
                      tiri_stride=1, tiri_samples=4)


def rand_volume(rng, params):
    return rng.random((params.size, params.size, params.frames))


# -- TIRI ----------------------------------------------------------------------

def test_tiri_constant_clip():
    vol = np.full((320, 320, 100), 0.5)
    np.testing.assert_allclose(compute_tiri(vol), 0.5, atol=1e-12)


def test_tiri_frame_ramp():
    # frame k (1-based) constant k/100 -> mean over k = 5,10,...,100 is 0.525
    vol = np.empty((320, 320, 100))
    for k in range(100):
        vol[:, :, k] = (k + 1) / 100
    np.testing.assert_allclose(compute_tiri(vol), 0.525, atol=1e-12)


def test_tiri_is_plain_average():
    rng = np.random.default_rng(0)
    vol = rng.random((320, 320, 100))
    expected = vol[:, :, 4::5].mean(axis=2)
    np.testing.assert_allclose(compute_tiri(vol), expected, atol=1e-12)


# -- the oracle's stages, pinned by hand-worked values ----------------------------
# extract_feature is checked against these stages in the pipeline tests below.

def test_deviation_zero_for_constant():
    vol = np.full((20, 20, 4), 0.3)
    tiri = np.full((20, 20), 0.3)
    assert brute_deviation(vol, tiri).max() == 0.0


def test_deviation_single_pixel():
    vol = np.zeros((20, 20, 4))
    vol[7, 9, 2] = 1.0
    tiri = np.zeros((20, 20))
    dev = brute_deviation(vol, tiri)
    assert dev[7, 9, 2] == 1.0
    assert np.count_nonzero(dev) == 1


def test_normalize_deviation_values():
    dev = np.array([[[0.0], [0.6]], [[0.3], [0.2]]])
    tiri = np.array([[0.5, 0.6], [0.6, 0.4]])
    out = brute_normalize(dev, tiri)
    np.testing.assert_allclose(out[:, :, 0], [[0.0, math.pi / 4],
                                              [math.atan(0.5), math.atan(0.5)]], atol=1e-12)
    assert abs(out[1, 0, 0] - 0.46365) < 1e-4


def test_normalize_deviation_zero_reference():
    dev = np.array([[[0.0], [0.2]], [[0.0], [0.0]]])
    tiri = np.zeros((2, 2))
    out = brute_normalize(dev, tiri)
    assert out[0, 0, 0] == 0.0
    assert out[0, 1, 0] == math.pi / 2


def test_normalize_deviation_range():
    rng = np.random.default_rng(2)
    dev = rng.random((10, 10, 5)) * 3
    tiri = rng.random((10, 10))
    out = brute_normalize(dev, tiri)
    assert out.min() >= 0.0 and out.max() <= math.pi / 2


# -- ring partition ---------------------------------------------------------------

ODD = FeatureParams(size=21, frames=4, ring_count=5, ring_width=2.0,
                    tiri_stride=1, tiri_samples=4)


def test_ring_index_examples():
    labels = ring_labels()
    for (i, j), ring in (((161, 161), 0), ((161, 320), 15), ((1, 1), DISCARD)):
        assert brute_ring(i, j, DEFAULT_PARAMS) == ring
        assert labels[i - 1, j - 1] == ring


def test_ring_labels_agree_with_scalar():
    for params in (SMALL, ODD):
        labels = ring_labels(params)
        for i in range(1, params.size + 1):
            for j in range(1, params.size + 1):
                assert labels[i - 1, j - 1] == brute_ring(i, j, params)


def test_ring_annuli_half_open():
    # the odd grid has its center on pixel (11, 11); (11, 13) lies at Dist
    # exactly r and (11, 21) at exactly ring_count * r
    labels = ring_labels(ODD)
    for (i, j), ring in (((11, 12), 0), ((11, 13), 1), ((14, 11), 1),
                         ((11, 15), 2), ((11, 20), 4), ((11, 21), DISCARD)):
        assert brute_ring(i, j, ODD) == ring
        assert labels[i - 1, j - 1] == ring
    # 1-based (160.5 + 10, 160.5) has Dist exactly 10 -> ring 1, not ring 0
    assert brute_ring(170.5, 160.5, DEFAULT_PARAMS) == 1


# -- centroids --------------------------------------------------------------------

def test_centroid_of_constant_ring():
    params = FeatureParams(size=8, frames=1, ring_count=2, ring_width=2.0,
                           tiri_stride=1, tiri_samples=1)
    tiri = np.ones((8, 8))
    norm = np.full((8, 8, 1), 0.7)
    f = brute_centroids(norm, tiri, params)
    np.testing.assert_allclose(f, 0.7, atol=1e-12)


def test_centroid_two_pixel_example():
    params = FeatureParams(size=8, frames=1, ring_count=2, ring_width=2.0,
                           tiri_stride=1, tiri_samples=1)
    tiri = np.zeros((8, 8))
    norm = np.zeros((8, 8, 1))
    tiri[3, 3], norm[3, 3, 0] = 0.2, 1.0   # ring 0 (0-based center 3.5)
    tiri[3, 4], norm[3, 4, 0] = 0.6, 0.0
    f = brute_centroids(norm, tiri, params)
    assert abs(f[0] - 0.25) < 1e-12
    assert f[1] == 0.0  # ring 1 has zero weight -> 0


def test_feature_length_production():
    rng = np.random.default_rng(3)
    fv = extract_feature(rng.random((320, 320, 100)))
    assert fv.values.shape == (1600,)


# -- zscore ----------------------------------------------------------------------

def test_zscore_moments():
    f = np.arange(1, 1601, dtype=np.float64)
    fn = zscore(f)
    assert abs(fn.mean()) <= 1e-9
    assert abs(fn.std(ddof=1) - 1.0) <= 1e-9


def test_zscore_degenerate():
    fn = zscore(np.full(1600, 3.3))
    assert fn.shape == (1600,) and not fn.any()


def test_zscore_affine_invariance():
    rng = np.random.default_rng(4)
    f = rng.random(1600)
    a, b = 2.7, -13.0
    fn1 = zscore(f)
    fn2 = zscore(a * f + b)
    np.testing.assert_allclose(fn1, fn2, atol=1e-9)


# -- full pipeline ----------------------------------------------------------------

def test_extract_deterministic():
    rng = np.random.default_rng(5)
    vol = rng.random((320, 320, 100))
    a = extract_feature(vol)
    b = extract_feature(vol.copy())
    assert (a.values == b.values).all()


@pytest.mark.parametrize("transform", [
    lambda v: v[:, ::-1, :],                # horizontal flip
    lambda v: v[::-1, :, :],                # vertical flip
    lambda v: np.rot90(v, axes=(0, 1)),     # 90 degrees
    lambda v: np.rot90(v, k=2, axes=(0, 1)),
    lambda v: np.rot90(v, k=3, axes=(0, 1)),
])
def test_extract_symmetry_invariance(transform):
    rng = np.random.default_rng(6)
    vol = rng.random((320, 320, 100))
    base = extract_feature(vol)
    moved = extract_feature(np.ascontiguousarray(transform(vol)))
    assert np.abs(base.values - moved.values).max() <= 1e-9


@pytest.mark.parametrize("frames, shape", [(64, (23, 17)), (37, (80, 80)), (120, (19, 13, 3))],
                         ids=["gray-64", "gray-37", "colour-120"])
def test_frame_major_clip_matches_its_frame_last_volume(frames, shape):
    rng = np.random.default_rng(13)
    seq = FrameSequence(frames=[rng.integers(0, 256, size=shape, dtype=np.uint8) for _ in range(frames)],
                        role="2d")
    clip = normalize_clip(seq)
    a = extract_feature(clip).values
    b = extract_feature(np.ascontiguousarray(clip.volume)).values
    assert np.abs(a - b).max() <= 1e-12
    np.testing.assert_allclose(compute_tiri(clip), compute_tiri(clip.volume), atol=1e-12)


def test_centroids_weight_scale_invariance():
    rng = np.random.default_rng(7)
    tiri = rng.random((20, 20))
    norm = rng.random((20, 20, 4)) * math.pi / 2
    a = brute_centroids(norm, tiri, SMALL)
    b = brute_centroids(norm, tiri * 7.3, SMALL)
    np.testing.assert_allclose(a, b, atol=1e-12)
    # scaling a volume scales its reference and deviations alike
    vol = rand_volume(rng, SMALL)
    np.testing.assert_allclose(extract_feature(vol * 7.3, SMALL).values,
                               extract_feature(vol, SMALL).values, atol=1e-12)


# rings of width 0.5 around the center of a 20x20 grid: the nearest pixel
# centers lie at Dist sqrt(0.5) and sqrt(2.5), so rings 0 and 2 hold no pixel
EMPTY_RINGS = FeatureParams(size=20, frames=4, ring_count=5, ring_width=0.5,
                            tiri_stride=1, tiri_samples=4)


def test_pipeline_matches_brute_force_with_empty_rings():
    flat, bounds = _ring_plan(EMPTY_RINGS)
    assert np.diff(bounds).tolist() == [0, 4, 0, 8, 4]
    assert (ring_labels(EMPTY_RINGS).ravel()[flat] == np.repeat(np.arange(5), np.diff(bounds))).all()
    rng = np.random.default_rng(12)
    for _ in range(5):
        vol = rand_volume(rng, EMPTY_RINGS)
        fv = extract_feature(vol, EMPTY_RINGS)
        expected, degenerate = brute_extract(vol, EMPTY_RINGS)
        assert (not fv.values.any()) == degenerate
        assert np.abs(fv.values - expected).max() <= 1e-12


def test_pipeline_matches_brute_force_small():
    rng = np.random.default_rng(8)
    for _ in range(5):
        vol = rand_volume(rng, SMALL)
        fv = extract_feature(vol, SMALL)
        expected, degenerate = brute_extract(vol, SMALL)
        assert not degenerate
        assert np.abs(fv.values - expected).max() <= 1e-12


# 37 frames run as two full blocks of 16 planes and a partial one of 5
MANY_FRAMES = FeatureParams(size=12, frames=37, ring_count=3, ring_width=2.0,
                            tiri_stride=3, tiri_samples=12)


def test_pipeline_matches_brute_force_across_plane_blocks():
    rng = np.random.default_rng(14)
    for _ in range(3):
        vol = rand_volume(rng, MANY_FRAMES)
        expected, degenerate = brute_extract(vol, MANY_FRAMES)
        assert not degenerate
        assert np.abs(extract_feature(vol, MANY_FRAMES).values - expected).max() <= 1e-12


@st.composite
def reduced_clips(draw):
    """A random reduced geometry and a frame-major clip for it: U planes of
    side 5..16 (U from 1 to 21: one to three blocks of 8, most of them
    partial) and ``picks`` that repeat planes. Ring widths of 0.5 and 0.75
    leave rings with no pixel; values are uniform, a few levels, or hold a
    block black in every plane (reference 0)."""
    size = draw(st.integers(5, 16))
    width = draw(st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0]))
    rings = draw(st.integers(1, max(1, int(size / 2 // width))))
    frames = draw(st.integers(2, 24))
    stride = draw(st.integers(1, frames))
    params = FeatureParams(size=size, frames=frames, ring_count=rings, ring_width=width,
                           tiri_stride=stride, tiri_samples=draw(st.integers(1, frames // stride)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = rng.random((draw(st.integers(1, 21)), size, size))
    kind = draw(st.sampled_from(["uniform", "levels", "black-block"]))
    if kind == "levels":
        planes = np.round(planes * 3) / 3
    elif kind == "black-block":
        planes[:, 1 : size // 2, 2 : size // 2 + 1] = 0.0
    picks = np.sort(rng.integers(0, len(planes), size=frames))
    return params, planes, picks


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(case=reduced_clips())
def test_plane_blocks_match_brute_force_for_any_worker_count(case):
    params, planes, picks = case
    # the trusted constructor carries a reduced geometry past NormalizedClip's
    # 320 x 320 x 100 shape check
    clip = NormalizedClip._trusted(planes, picks)
    expected, degenerate = brute_extract(np.moveaxis(planes[picks], 0, -1), params)
    values = {}
    for workers in (1, 2):
        with mock.patch.object(frameio, "_WORKERS", workers):
            values[workers] = extract_feature(clip, params).values
    assert values[1].tobytes() == values[2].tobytes()
    assert (not values[1].any()) == degenerate
    assert np.abs(values[1] - expected).max() <= 1e-12


def test_worker_threads_share_no_buffer():
    # more workers than CPUs, and a thread switch every microsecond: a block
    # computed in another worker's buffers, or a lost write to the shared
    # centroid rows, changes the bits
    vol = rand_volume(np.random.default_rng(15), MANY_FRAMES)  # 37 planes: 5 blocks of 8
    with mock.patch.object(frameio, "_WORKERS", 1):
        expected = extract_feature(vol, MANY_FRAMES).values.tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 5):
            with mock.patch.object(frameio, "_WORKERS", workers):
                for _ in range(10):
                    assert extract_feature(vol, MANY_FRAMES).values.tobytes() == expected
    finally:
        sys.setswitchinterval(interval)


# a clip from normalize_clip holds no plane: extract_feature makes the sampled
# planes first, then every other plane block by block on the workers. Its
# features and planes must be the bytes of the clip of its stored stack.

@settings(derandomize=True, deadline=None, max_examples=16, database=None)
@given(n=st.sampled_from([1, 2, 7, 19]) | st.integers(1, 130),
       h=st.integers(0, 30).map(lambda k: 2 * k + 1), w=st.integers(0, 30).map(lambda k: 2 * k + 1),
       colour=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_streamed_clip_equals_its_stored_stack(n, h, w, colour, seed):
    rng = np.random.default_rng(seed)
    seq = FrameSequence([rng.integers(0, 256, size=(h, w, 3) if colour else (h, w), dtype=np.uint8)
                         for _ in range(n)], "2d")
    clip = normalize_clip(seq)
    stored = NormalizedClip(clip.planes, clip.picks)
    expected = extract_feature(stored).values.tobytes()
    for workers in (1, 2):
        with mock.patch.object(frameio, "_WORKERS", workers):
            assert clip.planes.tobytes() == stored.planes.tobytes()
            assert extract_feature(clip).values.tobytes() == expected
            assert compute_tiri(clip).tobytes() == compute_tiri(stored).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_extraction_holds_the_sampled_planes_and_the_worker_buffers(workers):
    # 120 colour frames of 128 x 128 pick 100 planes (78 MiB as a stack); the
    # extraction holds only the 20 sampled ones and each worker's buffers: the
    # producer's scratch (a luminance frame and its temporary, and the
    # x-passes and planes of one producer call) and the block's ring-ordered
    # pixels plus one deviation row
    h = w = 128
    rng = np.random.default_rng(21)
    seq = FrameSequence([rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8) for _ in range(120)], "2d")
    flat, _ = _ring_plan(DEFAULT_PARAMS)
    block, make, plane = frameio._BLOCK, frameio._MAKE, 320 * 320
    sampled = 20 * plane * 8
    buffers = workers * (2 * h * w + make * (h * 320 + plane) + (block + 1) * len(flat)) * 8
    # the reference image, its neighbourhood extremes, four ring-ordered
    # vectors, and 1 MiB per worker for the centroid rows, the Python objects
    # and numpy's own temporaries
    rest = (2 * plane + 4 * len(flat)) * 8 + workers * 2**20
    with mock.patch.object(frameio, "_WORKERS", workers):
        extract_feature(normalize_clip(seq))  # plans and bands cached outside the trace
        tracemalloc.start()
        try:
            extract_feature(normalize_clip(seq))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= sampled + buffers + rest


def test_streamed_workers_share_no_buffer():
    # more workers than CPUs, and a thread switch every microsecond: a plane
    # made in another worker's scratch, or read before it is made, changes
    # the bits
    rng = np.random.default_rng(22)
    clip = normalize_clip(FrameSequence([rng.integers(0, 256, size=(41, 57), dtype=np.uint8)
                                         for _ in range(37)], "2d"))  # 37 planes: 5 blocks of 8
    with mock.patch.object(frameio, "_WORKERS", 1):
        expected = extract_feature(clip).values.tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 5):
            with mock.patch.object(frameio, "_WORKERS", workers):
                for _ in range(5):
                    assert extract_feature(clip).values.tobytes() == expected
    finally:
        sys.setswitchinterval(interval)


def _constant(rng):
    return np.full((SMALL.size, SMALL.size, SMALL.frames), 0.4)


def _bright_pixel(rng):
    vol = np.zeros((SMALL.size, SMALL.size, SMALL.frames))
    vol[9, 12, 2] = 1.0
    return vol


def _zero_reference(rng):
    # a block black in every frame has reference 0 while its rim deviates
    vol = rand_volume(rng, SMALL)
    vol[5:9, 6:11, :] = 0.0
    return vol


def _zero_weight_ring(rng):
    vol = rand_volume(rng, SMALL)
    vol[ring_labels(SMALL) == 2] = 0.0
    return vol


def _negative(rng):
    return rand_volume(rng, SMALL) - 0.5


@pytest.mark.parametrize("make", [_constant, _bright_pixel, _zero_reference,
                                  _zero_weight_ring, _negative],
                         ids=lambda f: f.__name__.strip("_"))
def test_pipeline_matches_brute_force_cases(make):
    vol = make(np.random.default_rng(11))
    fv = extract_feature(vol, SMALL)
    expected, degenerate = brute_extract(vol, SMALL)
    assert (not fv.values.any()) == degenerate
    assert np.abs(fv.values - expected).max() <= 1e-12


def test_noise_clip_features_are_distinguishable():
    # independent uniform-noise clips should sit far apart in feature space
    rng = np.random.default_rng(9)
    feats = [extract_feature(rng.random((320, 320, 100))).values for _ in range(51)]
    dists = [feature_distance(feats[i], feats[j])
             for i in range(len(feats)) for j in range(i + 1, len(feats))]
    assert len(dists) >= 50
    assert min(dists) > 0.5
