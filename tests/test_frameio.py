import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zw3d import frameio
from zw3d.frameio import (
    FrameFormatError,
    FrameSequence,
    NormalizedClip,
    bilinear_matrix,
    gaussian_taps,
    load_clip,
    normalize_clip,
    read_frame,
    read_pbm,
    save_clip,
    temporal_indices,
    to_luminance,
    write_frame,
    write_pbm,
)

from oracle import brute_resample, filter_taps


def make_seq(frames, role="2d"):
    return FrameSequence(frames=frames, role=role)


# -- netpbm I/O --------------------------------------------------------------

def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(17, 23), dtype=np.uint8)
    write_frame(tmp_path / "a.pgm", img)
    np.testing.assert_array_equal(read_frame(tmp_path / "a.pgm"), img)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(11, 9, 3), dtype=np.uint8)
    write_frame(tmp_path / "a.ppm", img)
    np.testing.assert_array_equal(read_frame(tmp_path / "a.ppm"), img)


def test_pbm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=(40, 40), dtype=np.uint8)
    write_pbm(tmp_path / "w.pbm", bits)
    np.testing.assert_array_equal(read_pbm(tmp_path / "w.pbm"), bits)


def test_header_comments_and_whitespace(tmp_path):
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    raw = b"P5\n# a comment\n 3  2 \n255\n" + img.tobytes()
    (tmp_path / "c.pgm").write_bytes(raw)
    np.testing.assert_array_equal(read_frame(tmp_path / "c.pgm"), img)


def test_rejects_16bit(tmp_path):
    (tmp_path / "deep.pgm").write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FrameFormatError, match="bit depth"):
        read_frame(tmp_path / "deep.pgm")


@pytest.mark.parametrize("raw, reader", [
    (b"P46\n40 40\n" + bytes(200), read_pbm),   # would read as a P4 of width 6
    (b"P56 8\n255\n" + bytes(48), read_frame),  # would read as a P5 of width 6
], ids=["P46", "P56"])
def test_magic_must_be_followed_by_whitespace(tmp_path, raw, reader):
    (tmp_path / "f").write_bytes(raw)
    with pytest.raises(FrameFormatError, match="whitespace after magic"):
        reader(tmp_path / "f")


# Property tests: damaged netpbm files fail only with FrameFormatError.

_NETPBM = (
    b"P5\n4 3\n255\n" + bytes(range(12)),
    b"P6\n# c\n3 2\n255\n" + bytes(range(18)),
    b"P4\n10 3\n" + bytes([0xA5, 0xC0] * 3),
)
_FUZZ = settings(derandomize=True, deadline=None, max_examples=150, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _read_every_way(path):
    """Read ``path`` as a frame (built into a sequence) and as a bitmap."""
    try:
        FrameSequence(frames=[read_frame(path)], role="2d")
    except FrameFormatError:
        pass
    try:
        read_pbm(path)
    except FrameFormatError:
        pass


@_FUZZ
@given(data=st.data())
def test_damaged_netpbm_raises_only_format_error(tmp_path, data):
    raw = bytearray(data.draw(st.sampled_from(_NETPBM), label="file"))
    for pos, byte in data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                                  st.integers(0, 255)), max_size=4), label="edits"):
        raw[pos] = byte
    raw = raw[: data.draw(st.none() | st.integers(0, len(raw)), label="cut")]
    (tmp_path / "f").write_bytes(bytes(raw))
    _read_every_way(tmp_path / "f")


@_FUZZ
@given(magic=st.sampled_from([b"P4", b"P5", b"P6", b"P1", b"P"]),
       fields=st.lists(st.integers(0, 70000) | st.sampled_from([0, 1, 255, 65535]), max_size=4),
       seps=st.lists(st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"#x\n", b"", b"-"]),
                     min_size=5, max_size=5),
       raster=st.binary(max_size=64))
def test_random_netpbm_header_raises_only_format_error(tmp_path, magic, fields, seps, raster):
    raw = magic + b"".join(sep + b"%d" % v for sep, v in zip(seps, fields)) + seps[-1] + raster
    (tmp_path / "f").write_bytes(raw)
    _read_every_way(tmp_path / "f")


# -- clip loading ------------------------------------------------------------

def test_load_clip_counts_and_order(tmp_path):
    for k in range(10):
        write_frame(tmp_path / f"frame_{k:06d}.pgm", np.full((64, 64), k, dtype=np.uint8))
    seq = load_clip(tmp_path, "2d")
    assert len(seq) == 10 and seq.width == 64 and seq.height == 64
    assert [int(f[0, 0]) for f in seq.frames] == list(range(10))


def test_load_clip_gap_error(tmp_path):
    for k in (0, 1, 3):
        write_frame(tmp_path / f"frame_{k:06d}.pgm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(FrameFormatError, match="gap"):
        load_clip(tmp_path, "2d")


def test_load_clip_two_files_for_one_index(tmp_path):
    write_frame(tmp_path / "frame_000000.pgm", np.zeros((4, 4), dtype=np.uint8))
    write_frame(tmp_path / "frame_000000.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
    with pytest.raises(FrameFormatError, match="frame_000000.pgm and frame_000000.ppm"):
        load_clip(tmp_path, "2d")


def test_load_clip_mixed_dimensions(tmp_path):
    write_frame(tmp_path / "frame_000000.pgm", np.zeros((4, 4), dtype=np.uint8))
    write_frame(tmp_path / "frame_000001.pgm", np.zeros((5, 5), dtype=np.uint8))
    with pytest.raises(FrameFormatError, match="mixed dimensions"):
        load_clip(tmp_path, "2d")


def test_load_clip_color(tmp_path):
    rng = np.random.default_rng(4)
    for k in range(3):
        write_frame(tmp_path / f"frame_{k:06d}.ppm",
                    rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8))
    seq = load_clip(tmp_path, "2d")
    assert seq.frames[0].ndim == 3


def test_load_clip_missing_dir(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_clip(tmp_path / "nope", "2d")


def test_depth_rejects_color():
    rng = np.random.default_rng(5)
    color = [rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)]
    with pytest.raises(FrameFormatError, match="single-channel"):
        FrameSequence(frames=color, role="depth")


def test_save_clip_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    seq = make_seq([rng.integers(0, 256, size=(12, 10), dtype=np.uint8) for _ in range(5)])
    save_clip(tmp_path / "c", seq)
    back = load_clip(tmp_path / "c", "2d")
    for a, b in zip(seq.frames, back.frames):
        np.testing.assert_array_equal(a, b)


# -- luminance ---------------------------------------------------------------

def test_luminance_primaries():
    frame = np.array([[[255, 255, 255], [0, 0, 0], [255, 0, 0]]], dtype=np.uint8)
    y = to_luminance(frame)
    np.testing.assert_allclose(y[0], [1.0, 0.0, 0.299], atol=1e-12)


# -- normalization -----------------------------------------------------------

def test_normalize_constant_is_fixed_point():
    frames = [np.full((50, 70), 128, dtype=np.uint8) for _ in range(7)]
    clip = normalize_clip(make_seq(frames))
    np.testing.assert_allclose(clip.volume, 128 / 255, atol=1e-12)


def test_resampling_operators_at_the_volume_size_are_identities():
    for n in (1, 2, 7, 320):
        assert (bilinear_matrix(n, n) == np.eye(n)).all()
    assert (temporal_indices(100) == np.arange(100)).all()


def test_temporal_nearest_index_mapping():
    # 50-frame clip, frame k (1-based) constant k/50: output slot k_dst holds
    # frame floor((k_dst-1)/2)+1
    frames = [np.full((8, 8), round(255 * (k + 1) / 50), dtype=np.uint8) for k in range(50)]
    clip = normalize_clip(make_seq(frames))
    for k_dst in range(1, 101):
        src = (k_dst - 1) // 2 + 1
        expected = round(255 * src / 50) / 255
        assert abs(clip.volume[0, 0, k_dst - 1] - expected) < 1e-12


def test_temporal_indices_bounds():
    for l in (1, 3, 64, 100, 250):
        idx = temporal_indices(l)
        assert idx.shape == (100,)
        assert idx[0] == 0 and idx[-1] == l - 1 if l <= 100 else idx[-1] < l
        assert (np.diff(idx) >= 0).all() and idx.max() < l


def test_normalize_shape_and_range_invariants():
    rng = np.random.default_rng(8)
    for h, w, l in ((32, 48, 3), (200, 100, 130), (64, 64, 1)):
        frames = [rng.integers(0, 256, size=(h, w), dtype=np.uint8) for _ in range(l)]
        clip = normalize_clip(make_seq(frames))
        assert clip.volume.shape == (320, 320, 100)
        assert clip.volume.min() >= 0.0 and clip.volume.max() <= 1.0


def test_normalize_commutes_with_horizontal_flip():
    rng = np.random.default_rng(9)
    frames = [rng.integers(0, 256, size=(46, 57), dtype=np.uint8) for _ in range(11)]
    direct = normalize_clip(make_seq([np.fliplr(f).copy() for f in frames]))
    flipped_after = normalize_clip(make_seq(frames)).volume[:, ::-1, :]
    assert np.abs(direct.volume - flipped_after).max() <= 1e-9


def test_smoothing_preserves_constants():
    # at the volume's own size the resize is the identity and only the
    # Gaussian acts
    clip = normalize_clip(make_seq([np.full((320, 320), 94, dtype=np.uint8)]))
    np.testing.assert_allclose(clip.volume, 94 / 255, atol=1e-12)


@pytest.mark.parametrize("shape", [(32, 48), (200, 100), (46, 57), (320, 320, 3)],
                         ids=["upscale", "mixed", "odd", "color-identity"])
def test_normalize_matches_brute_force(shape):
    rng = np.random.default_rng(11)
    frame = rng.integers(0, 256, size=shape, dtype=np.uint8)
    plane = to_luminance(frame) if frame.ndim == 3 else frame / 255.0
    resized = bilinear_matrix(plane.shape[0], 320) @ plane @ bilinear_matrix(plane.shape[1], 320).T
    assert np.abs(resized - brute_resample(plane.tolist(), 320, False)).max() <= 1e-12
    clip = normalize_clip(make_seq([frame]))
    expected = brute_resample(plane.tolist(), 320, True)
    assert np.abs(clip.volume - expected[:, :, None]).max() <= 1e-12


# Frame j of a clip is a base frame plus j gray levels (base levels 0-5, so no
# level wraps up to 250 frames). Every row of the resampling operators sums to
# 1, so frame j resamples to the base's plane plus j/255: one brute-force
# resample of the base gives the exact plane of every slot.
_BASE = np.random.default_rng(12).integers(0, 6, size=(23, 17, 3), dtype=np.uint8)
_BASES = {"gray": _BASE[:, :, 0], "colour": _BASE}


@pytest.fixture(scope="module")
def brute_bases():
    return {kind: brute_resample((to_luminance(b) if b.ndim == 3 else b / 255.0).tolist(), 320, True)
            for kind, b in _BASES.items()}


@pytest.mark.parametrize("n", [1, 37, 64, 100, 120, 250])
@pytest.mark.parametrize("kind", ["gray", "colour"])
def test_every_slot_holds_its_picked_frame_resampled(brute_bases, kind, n):
    clip = normalize_clip(make_seq([_BASES[kind] + np.uint8(j) for j in range(n)]))
    picks = temporal_indices(n)
    assert clip.planes.shape == (len(np.unique(picks)), 320, 320) and clip.planes.flags.c_contiguous
    volume = clip.volume
    for k in range(100):
        assert np.abs(volume[:, :, k] - (brute_bases[kind] + picks[k] / 255)).max() <= 1e-12


# normalize_clip applies each axis operator as cached bands of rows cut to
# their nonzero columns; the result must be the clipped dense product. The
# reference builds its own 3-tap Gaussian (sigma 0.5, replicate borders), so a
# production kernel that rounds differently fails the band comparison.

def _dense_operator(n):
    w = math.exp(-1.0 / (2.0 * 0.5 * 0.5))
    k = np.array([w, 1.0, w], dtype=np.float64)
    k /= k.sum()
    g = np.zeros((320, 320), dtype=np.float64)
    rows = np.arange(320)
    for offset, weight in zip((-1, 0, 1), k):
        g[rows, np.clip(rows + offset, 0, 319)] += weight
    return g @ bilinear_matrix(n, 320)


def test_gaussian_taps_are_pinned():
    # the planes are compared within 1e-13 elsewhere, so a kernel that rounds
    # one tap differently (e.g. divided by 2w + 1, not the numpy sum) shows only here
    assert gaussian_taps(3, 0.5) == (0.10650697891920073, 0.7869860421615984, 0.10650697891920073)
    for window in (9, 15):
        assert gaussian_taps(window, 1.0) == filter_taps("gb", window)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(h=st.integers(1, 400), w=st.integers(1, 400), colour=st.booleans(),
       levels=st.sampled_from(["full", "extremes"]), seed=st.integers(0, 2**32 - 1))
def test_band_products_equal_the_dense_operators(h, w, colour, levels, seed):
    rng = np.random.default_rng(seed)
    shape = (h, w, 3) if colour else (h, w)
    frame = (rng.integers(0, 256, size=shape) if levels == "full"
             else 255 * rng.integers(0, 2, size=shape)).astype(np.uint8)
    plane = to_luminance(frame) if colour else frame / 255.0
    for n in (h, w):
        dense = np.zeros((320, n))
        for r0, r1, c0, c1, block in frameio._operator_bands(n, 320, gaussian_taps(3, 0.5)):
            dense[r0:r1, c0:c1] = block
        assert (dense == _dense_operator(n)).all()
    expected = np.clip(_dense_operator(h) @ plane @ _dense_operator(w).T, 0.0, 1.0)
    clip = normalize_clip(make_seq([frame]))
    assert np.abs(clip.planes[0] - expected).max() <= 1e-13


def test_band_products_stay_within_one_blas_thread():
    # the worst case: a side-n operator against 320 on the other axis, where
    # both stages multiply 320 x k x rows for a band of k columns; the same
    # holds for the gb and af filters at frame sides up to 320
    operators = [(n, 320, gaussian_taps(3, 0.5)) for n in range(1, 321)]
    operators += [(n, n, filter_taps(family, window))
                  for n in range(1, 321) for family in ("gb", "af") for window in (9, 15)]
    for n_src, n_dst, taps in operators:
        for r0, r1, c0, c1, _ in frameio._operator_bands(n_src, n_dst, taps):
            assert 320 * (c1 - c0) * (r1 - r0) <= 983_040, (n_src, n_dst, len(taps), r0)


def _band_reference(frame):
    """One plane through the cached bands, one 2-D product per band and axis."""
    plane = to_luminance(frame) if frame.ndim == 3 else frame / 255.0
    h, w = plane.shape
    x = np.empty((h, 320))
    for r0, r1, c0, c1, band in frameio._operator_bands(w, 320, gaussian_taps(3, 0.5)):
        x[:, r0:r1] = plane[:, c0:c1] @ band.T
    out = np.empty((320, 320))
    for r0, r1, c0, c1, band in frameio._operator_bands(h, 320, gaussian_taps(3, 0.5)):
        out[r0:r1] = band @ x[c0:c1]
    return np.clip(out, 0.0, 1.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_planes_equal_the_band_products_to_the_bit(workers):
    # the planes are pinned bit for bit to the bands: at 1-37 rows and widths
    # 320 and 401, OpenBLAS rounds an x-pass through a C-contiguous copy of
    # band.T differently from one through the view, by an ulp
    rng = np.random.default_rng(19)
    shapes = [(h, w) for w in (320, 401) for h in range(1, 38)] + [(41, 57), (96, 96)]
    for i, (h, w) in enumerate(shapes):
        shape = (h, w, 3) if i % 3 == 0 else (h, w)
        frames = [rng.integers(0, 256, size=shape, dtype=np.uint8) for _ in range(9)]  # 2 blocks
        with mock.patch.object(frameio, "_WORKERS", workers):
            clip = normalize_clip(make_seq(frames))
        assert len(clip.planes) == len(frames)
        for frame, plane in zip(frames, clip.planes):
            assert (plane == _band_reference(frame)).all(), (h, w)


# normalize_clip hands blocks of _BLOCK source frames round-robin to the
# workers; each block's products are the same whichever worker runs them

@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(n=st.integers(1, 40), h=st.integers(1, 200), w=st.integers(1, 200),
       colour=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_planes_do_not_depend_on_the_worker_count(n, h, w, colour, seed):
    rng = np.random.default_rng(seed)
    frames = [rng.integers(0, 256, size=(h, w, 3) if colour else (h, w), dtype=np.uint8) for _ in range(n)]
    clips = {}
    for workers in (1, 2, 3):
        with mock.patch.object(frameio, "_WORKERS", workers):
            clips[workers] = normalize_clip(make_seq(frames))
    for workers in (2, 3):
        assert clips[workers].planes.tobytes() == clips[1].planes.tobytes()
        assert clips[workers].picks.tobytes() == clips[1].picks.tobytes()
    m_y, m_x = _dense_operator(h), _dense_operator(w)
    expected = {k: np.clip(m_y @ (to_luminance(frames[k]) if colour else frames[k] / 255.0) @ m_x.T, 0.0, 1.0)
                for k in np.unique(temporal_indices(n))}
    for slot, k in enumerate(temporal_indices(n)):
        assert np.abs(clips[1].planes[clips[1].picks[slot]] - expected[k]).max() <= 1e-13


def test_normalize_workers_share_no_buffer():
    # more workers than CPUs, and a thread switch every microsecond: a block
    # resampled in another worker's scratch changes the bytes
    rng = np.random.default_rng(16)
    seq = make_seq([rng.integers(0, 256, size=(41, 57), dtype=np.uint8) for _ in range(37)])  # 5 blocks
    with mock.patch.object(frameio, "_WORKERS", 1):
        expected = normalize_clip(seq).planes.tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 3, 5):
            with mock.patch.object(frameio, "_WORKERS", workers):
                for _ in range(10):
                    assert normalize_clip(seq).planes.tobytes() == expected
    finally:
        sys.setswitchinterval(interval)


def test_normalize_scratch_does_not_scale_with_the_block():
    # each worker holds one (h, w) source plane and one (_BLOCK, h, 320)
    # x-stage scratch; a source buffer of block x h x w would exceed the bound
    h, w, n = 1080, 1920, 4
    seq = make_seq([np.full((h, w), 17 * k, dtype=np.uint8) for k in range(n)])
    for side in (h, w):  # cached per side, built outside the trace
        frameio._operator_bands(side, 320, gaussian_taps(3, 0.5))
    tracemalloc.start()
    try:
        clip = normalize_clip(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = frameio._block_workers(n) * (h * w + frameio._BLOCK * h * 320) * 8
    per_plane = 2 * h * w * 8  # room for two float64 temporaries of one frame
    assert peak <= clip.planes.nbytes + scratch + per_plane


# normalize_clip builds its clip through the trusted constructor, which skips
# the [0, 1] check above: its own clip has to keep the extremes in range
_EXTREMES = {
    "all-0": np.zeros((24, 40), dtype=np.uint8),
    "all-255": np.full((24, 40), 255, dtype=np.uint8),
    "white": np.full((17, 9, 3), 255, dtype=np.uint8),
    "saturated-colours": np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255]],
                                   [[255, 255, 0], [0, 255, 255], [255, 0, 255]]], dtype=np.uint8),
    "1x1-white": np.full((1, 1), 255, dtype=np.uint8),
    "1x1-white-colour": np.full((1, 1, 3), 255, dtype=np.uint8),
    "1x1-black": np.zeros((1, 1), dtype=np.uint8),
}


@pytest.mark.parametrize("frame", _EXTREMES.values(), ids=_EXTREMES.keys())
def test_normalize_clip_stays_in_unit_range(frame):
    clip = normalize_clip(make_seq([frame, 255 - frame, frame]))
    assert clip.planes.min() >= 0.0 and clip.planes.max() <= 1.0
    NormalizedClip(planes=clip.planes, picks=clip.picks)  # the checked constructor agrees
    if not frame.any():
        assert (clip.planes[0] == 0.0).all()
    elif (frame == 255).all():
        np.testing.assert_allclose(clip.planes[0], 1.0, atol=1e-12)


_HALF = np.full((2, 320, 320), 0.5)
_ZERO_PICKS = np.zeros(100, dtype=np.intp)


@pytest.mark.parametrize("planes, picks, match", [
    (np.full((2, 320, 319), 0.5), _ZERO_PICKS, "plane stack shape"),
    (np.full((320, 320), 0.5), _ZERO_PICKS, "plane stack shape"),
    (_HALF, np.zeros(99, dtype=np.intp), "picks shape"),
    (_HALF, np.full(100, 2), "picks outside"),
    (_HALF, np.full(100, -1), "picks outside"),
    (_HALF + 0.6, _ZERO_PICKS, r"values outside \[0, 1\]"),
    (_HALF - 0.6, _ZERO_PICKS, r"values outside \[0, 1\]"),
    (_HALF * np.nan, _ZERO_PICKS, r"values outside \[0, 1\]"),
], ids=["plane-side", "flat-stack", "short-picks", "pick-past-end", "negative-pick",
        "above-1", "below-0", "nan"])
def test_normalized_clip_rejects_bad_fields(planes, picks, match):
    with pytest.raises(ValueError, match=match):
        NormalizedClip(planes=planes, picks=picks)


def test_zero_size_frames_rejected():
    for shape in ((0, 4), (4, 0), (0, 0, 3)):
        with pytest.raises(FrameFormatError, match="zero size"):
            FrameSequence(frames=[np.zeros(shape, dtype=np.uint8)], role="2d")


def test_empty_sequence_rejected():
    with pytest.raises(FrameFormatError, match="empty"):
        FrameSequence(frames=[], role="2d")
