import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import filter_taps
from scipy import ndimage

from zw3d.attacks import (
    _WINDOWS,
    FAMILY_PARAMS,
    PARAMS,
    STOCHASTIC_FAMILIES,
    AttackSpec,
    _median,
    _planes,
    apply_attack,
    attack_catalog,
)
from zw3d.frameio import _BAND, FrameSequence, _operator_bands


def make_seq(rng, n=20, size=64):
    frames = [rng.integers(0, 256, size=(size, size), dtype=np.uint8) for _ in range(n)]
    return FrameSequence(frames=frames, role="2d")


def seq_bytes(seq):
    return b"".join(f.tobytes() for f in seq.frames)


# -- catalog -------------------------------------------------------------------

def test_catalog_is_26_instances():
    catalog = attack_catalog()
    assert len(catalog) == 26
    names = [s.name for s in catalog]
    assert len(set(names)) == 26


def test_catalog_contains_expected_instances():
    names = {s.name for s in attack_catalog()}
    assert "rt45" in names and "rt90" in names
    assert "fr5" in names and "fd5" in names
    assert "gb9" in names and "gn005" in names


def test_catalog_family_counts():
    from collections import Counter

    counts = Counter(s.family for s in attack_catalog())
    assert counts["fr"] == 1 and counts["fd"] == 1
    assert all(counts[f] == 2 for f in ("gb", "af", "mf", "cc", "cb", "gt",
                                        "gn", "li", "rs", "cr", "rt", "fl"))


# -- validation ------------------------------------------------------------------

def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        AttackSpec("gb", {"window": 7})
    with pytest.raises(ValueError):
        AttackSpec("cc", {"delta": 0.5})
    with pytest.raises(ValueError):
        AttackSpec("bogus", {"x": 1})
    with pytest.raises(ValueError):
        AttackSpec("gb", {})


def test_stochastic_families_need_seed():
    with pytest.raises(ValueError, match="seed"):
        AttackSpec("gn", {"variance": 0.005})
    AttackSpec("gn", {"variance": 0.005}, seed=1)  # fine with a seed


def test_every_parameter_is_stated_once_and_used():
    # a family names its parameter; meaning and values live in PARAMS alone
    assert {spec.param for spec in FAMILY_PARAMS.values()} == set(PARAMS)
    for spec in FAMILY_PARAMS.values():
        assert spec.values is PARAMS[spec.param][1]


def test_stochastic_families_come_from_table():
    assert STOCHASTIC_FAMILIES == ("gn", "fr", "fd")
    for family, spec in FAMILY_PARAMS.items():
        params = {spec.param: next(iter(spec.values))}
        if family in STOCHASTIC_FAMILIES:
            with pytest.raises(ValueError, match="seed"):
                AttackSpec(family, params)
        else:
            AttackSpec(family, params)


# -- involutions and exact geometry ------------------------------------------------

def test_horizontal_flip_is_involution():
    rng = np.random.default_rng(0)
    seq = make_seq(rng)
    spec = AttackSpec("fl", {"direction": "horizontal"})
    twice = apply_attack(apply_attack(seq, spec), spec)
    assert seq_bytes(twice) == seq_bytes(seq)


def test_rotation_90_order_four():
    rng = np.random.default_rng(1)
    seq = make_seq(rng)
    spec = AttackSpec("rt", {"angle": 90})
    out = seq
    for _ in range(4):
        out = apply_attack(out, spec)
    assert seq_bytes(out) == seq_bytes(seq)


def test_rotation_45_fills_corners_black():
    seq = FrameSequence(frames=[np.full((64, 64), 200, dtype=np.uint8)], role="2d")
    out = apply_attack(seq, AttackSpec("rt", {"angle": 45}))
    frame = out.frames[0]
    assert frame[0, 0] == 0 and frame[0, -1] == 0
    assert frame[32, 32] == 200


# -- noise ---------------------------------------------------------------------

def test_noise_deterministic_and_calibrated():
    rng = np.random.default_rng(2)
    frames = [np.full((128, 128), 128, dtype=np.uint8) for _ in range(64)]
    seq = FrameSequence(frames=frames, role="2d")
    spec = AttackSpec("gn", {"variance": 0.005}, seed=99)
    a = apply_attack(seq, spec)
    b = apply_attack(seq, spec)
    assert seq_bytes(a) == seq_bytes(b)
    deltas = np.concatenate(
        [(f.astype(np.float64) - 128.0) / 255.0 for f in a.frames]
    ).ravel()
    assert deltas.size >= 1_000_000
    assert abs(deltas.var() - 0.005) < 0.0005  # within 10%


def test_noise_seeds_differ():
    rng = np.random.default_rng(3)
    seq = make_seq(rng, n=2)
    a = apply_attack(seq, AttackSpec("gn", {"variance": 0.01}, seed=1))
    b = apply_attack(seq, AttackSpec("gn", {"variance": 0.01}, seed=2))
    assert seq_bytes(a) != seq_bytes(b)


# -- shape contracts ----------------------------------------------------------------

def test_shape_contracts():
    rng = np.random.default_rng(4)
    seq = make_seq(rng, n=40, size=80)
    for spec in attack_catalog(seed=7):
        out = apply_attack(seq, spec)
        if spec.family == "rs":
            assert out.frames[0].shape == (round(80 / spec.value),) * 2
            assert len(out) == 40
        elif spec.family == "cr":
            k = round(spec.value * 80)
            assert out.frames[0].shape == (80 - 2 * k,) * 2
            assert len(out) == 40
        elif spec.family == "fd":
            assert len(out) == 40 - round(0.05 * 40)
            assert out.frames[0].shape == (80, 80)
        else:
            assert len(out) == 40
            assert out.frames[0].shape == (80, 80)


def test_frame_replacement_copies_predecessor():
    rng = np.random.default_rng(5)
    seq = make_seq(rng, n=40)
    out = apply_attack(seq, AttackSpec("fr", {"rate": 0.05}, seed=11))
    replaced = [i for i in range(40) if not (out.frames[i] == seq.frames[i]).all()]
    assert len(replaced) == round(0.05 * 40)
    for i in replaced:
        np.testing.assert_array_equal(out.frames[i], out.frames[i - 1])


def test_determinism_across_catalog():
    rng = np.random.default_rng(6)
    seq = make_seq(rng, n=10, size=48)
    for spec in attack_catalog(seed=3):
        assert seq_bytes(apply_attack(seq, spec)) == seq_bytes(apply_attack(seq, spec))


# -- pixel map families ---------------------------------------------------------------

def test_contrast_pivots_at_mid_gray():
    frame = np.array([[128, 78, 228]], dtype=np.uint8)
    seq = FrameSequence(frames=[frame], role="2d")
    out = apply_attack(seq, AttackSpec("cc", {"delta": 0.30}))
    assert out.frames[0][0, 0] == 128           # pivot unchanged
    assert out.frames[0][0, 1] == 63            # 128 + (78-128)*1.3
    assert out.frames[0][0, 2] == 255           # clamped: 128 + 100*1.3 = 258


def test_brightness_is_multiplicative():
    frame = np.array([[100, 200]], dtype=np.uint8)
    seq = FrameSequence(frames=[frame], role="2d")
    out = apply_attack(seq, AttackSpec("cb", {"delta": -0.30}))
    np.testing.assert_array_equal(out.frames[0], [[70, 140]])
    out = apply_attack(seq, AttackSpec("cb", {"delta": 0.30}))
    np.testing.assert_array_equal(out.frames[0], [[130, 255]])


def test_gamma_endpoints_fixed():
    frame = np.array([[0, 255, 128]], dtype=np.uint8)
    seq = FrameSequence(frames=[frame], role="2d")
    out = apply_attack(seq, AttackSpec("gt", {"gamma": 0.6}))
    assert out.frames[0][0, 0] == 0 and out.frames[0][0, 1] == 255
    assert out.frames[0][0, 2] == round((128 / 255) ** 0.6 * 255)


def test_logo_checkerboard_upper_left():
    rng = np.random.default_rng(7)
    seq = make_seq(rng, n=1, size=64)
    out = apply_attack(seq, AttackSpec("li", {"size": 32}))
    frame = out.frames[0]
    assert frame[0, 0] == 255 and frame[0, 4] == 0      # 4px cells alternate
    assert frame[4, 0] == 0 and frame[4, 4] == 255
    np.testing.assert_array_equal(frame[32:, 32:], seq.frames[0][32:, 32:])


def test_average_filter_flattens():
    rng = np.random.default_rng(8)
    seq = make_seq(rng, n=1, size=64)
    out = apply_attack(seq, AttackSpec("af", {"window": 15}))
    assert out.frames[0].std() < seq.frames[0].std()


def test_median_filter_kills_salt():
    frame = np.zeros((32, 32), dtype=np.uint8)
    frame[10, 10] = 255
    seq = FrameSequence(frames=[frame], role="2d")
    out = apply_attack(seq, AttackSpec("mf", {"window": 9}))
    assert out.frames[0][10, 10] == 0


def _window(x, w):
    """A w x w ``ndimage`` footprint that leaves a leading colour axis alone."""
    return (1,) * (x.ndim - 2) + (w, w)


def ndimage_median(frame, window):
    """The float64-plane ``ndimage`` median filter that ``_median`` replaced."""
    return _planes(lambda x, w: ndimage.median_filter(x, size=_window(x, w), mode="nearest"),
                   frame, window)


@st.composite
def median_clips(draw):
    """Clips of 1-3 gray or colour uint8 frames of one shape, sides 1..40,
    each frame over the full range or over 2-4 levels (ties in nearly every
    window)."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40))) + draw(st.sampled_from([(), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = []
    for _ in range(draw(st.integers(1, 3))):
        levels = draw(st.sampled_from([256, 2, 3, 4]))
        values = np.arange(256) if levels == 256 else rng.choice(256, size=levels, replace=False)
        frames.append(rng.choice(values, size=shape).astype(np.uint8))
    return frames


def assert_clip_median(frames, window):
    """Every frame of ``_median``'s one-buffer pass over the clip equals its
    own ``ndimage`` median, so no frame reads a band that another one left."""
    for got, frame in zip(_median(frames, window, None), frames, strict=True):
        np.testing.assert_array_equal(got, ndimage_median(frame, window))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(frames=median_clips())
def test_median_equals_ndimage_median(frames):
    for window in (1, 3, 5):
        assert_clip_median(frames, window)
    for window in (9, 15):
        out = apply_attack(FrameSequence(frames, "2d"), AttackSpec("mf", {"window": window}))
        for got, frame in zip(out.frames, frames, strict=True):
            np.testing.assert_array_equal(got, ndimage_median(frame, window))


def test_median_across_bands():
    # 100 x 3 windows a row, 54 rows a band: bands of 54, 54, 54 and a shorter
    # last one of 38 rows, for three different frames through one buffer
    rng = np.random.default_rng(10)
    frames = [rng.integers(0, 256, size=(200, 100, 3), dtype=np.uint8) for _ in range(3)]
    assert -(-200 // (_WINDOWS // 300)) == 4
    for window in (9, 15):
        assert_clip_median(frames, window)


# -- gb and af against the ndimage filters they replaced ------------------------------

def ndimage_blur(x, window, sigma=1.0):
    t = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    k /= k.sum()
    return ndimage.correlate1d(ndimage.correlate1d(x, k, axis=-2, mode="nearest"),
                               k, axis=-1, mode="nearest")


def ndimage_average(x, window):
    return ndimage.uniform_filter(x, size=_window(x, window), mode="nearest")


@st.composite
def filter_frames(draw):
    """Gray or colour uint8 frames, sides 1..60 (many below the 9 and 15
    windows), over the full range or over 0 and 255 only."""
    shape = (draw(st.integers(1, 60)), draw(st.integers(1, 60))) + draw(st.sampled_from([(), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    return (rng.integers(0, 2, size=shape) * 255).astype(np.uint8)


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(frame=filter_frames())
def test_blur_and_average_equal_ndimage(frame):
    seq = FrameSequence([frame], "2d")
    for window in (9, 15):
        for family, reference in (("gb", ndimage_blur), ("af", ndimage_average)):
            out = apply_attack(seq, AttackSpec(family, {"window": window})).frames[0]
            np.testing.assert_array_equal(out, _planes(reference, frame, window))


def tap_bands(n, taps):
    """Bands of correlation with ``taps`` along a side-``n`` axis, replicate
    borders, each band of ``_BAND`` rows cut to the source rows its taps
    reach and written tap by tap, with no n x n matrix."""
    r = len(taps) // 2
    for r0 in range(0, n, _BAND):
        r1 = min(r0 + _BAND, n)
        c0, c1 = max(r0 - r, 0), min(r1 + r, n)
        rows = np.arange(r0, r1)
        block = np.zeros((r1 - r0, c1 - c0), dtype=np.float64)
        for t, weight in enumerate(taps):
            block[rows - r0, np.clip(rows + t - r, 0, n - 1) - c0] += weight
        yield r0, r1, c0, c1, block


@pytest.mark.parametrize("window", [9, 15])
@pytest.mark.parametrize("family", ["gb", "af"])
def test_filter_bands_equal_the_tap_written_bands(family, window):
    taps = filter_taps(family, window)
    for n in [*range(1, 61), 96, 128, 320]:
        got = _operator_bands(n, n, taps)
        want = list(tap_bands(n, taps))
        assert len(got) == len(want), n
        for (r0, r1, c0, c1, block), (*spans, ref) in zip(got, want):
            assert [r0, r1, c0, c1] == spans, n
            assert block.shape == ref.shape and (block == ref).all(), (n, r0)


def test_attacks_run_without_scipy():
    # a fresh process: importing the package and running gb and af loads no scipy
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import zw3d, zw3d.cli
        from zw3d import AttackSpec, apply_attack
        from zw3d.frameio import FrameSequence
        rng = np.random.default_rng(0)
        for shape in ((12, 10), (7, 11, 3)):
            seq = FrameSequence([rng.integers(0, 256, size=shape, dtype=np.uint8)] * 2, "2d")
            for spec in (AttackSpec("gb", {"window": 9}), AttackSpec("af", {"window": 15})):
                assert apply_attack(seq, spec).frames[0].shape == shape
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_color_frames_pass_through_families():
    rng = np.random.default_rng(9)
    frames = [rng.integers(0, 256, size=(48, 48, 3), dtype=np.uint8) for _ in range(4)]
    seq = FrameSequence(frames=frames, role="2d")
    for spec in (AttackSpec("gb", {"window": 9}), AttackSpec("li", {"size": 32}),
                 AttackSpec("rt", {"angle": 45}), AttackSpec("fl", {"direction": "vertical"})):
        out = apply_attack(seq, spec)
        assert out.frames[0].ndim == 3


# -- golden outputs ----------------------------------------------------------------

# SHA-256 over every output frame's shape and bytes, per catalog instance (seed
# 11), across the four clips of ``golden_clips``; taken from the per-channel,
# per-family implementation that the family table replaced.
GOLDEN = {
    "gb9": "ed42a254d9a8f2d5b489aa98ec10027a9202d8e0d7b391e1c6554c001fc6b389",
    "gb15": "3840919b9752f9573824d5fb7f5d46ddd181db5fcd58c89fad6e501357a399e7",
    "af9": "77f87c2c2e4e41ce5ae83ee0f0f68fb98006a7d0388d74e7024751e1bc5f07ee",
    "af15": "bc8dc309abbe4a52629be5890391bc715a70c10587acd446893f1258db913f64",
    "mf9": "03ca514134b72e476d6107e187e15f0a53987ca7818db5f9452d2bf9618f4b2d",
    "mf15": "8b92d00b58172293b6437e1a4d9295093e6024578de5ab7b5564faf9ca731303",
    "ccm30": "d30ec045f8433d0d823c3c0d453d1d195977b08ab75bc5166a1bb746f719d1f7",
    "ccp30": "e1e2583d26d18404330d4cf0e29d7352356a822693f2fd790277dfd2b2ddd148",
    "cbm30": "e42a1077f0538a2fdbb80b98d82dff78496ccd839b68b55a523fdf10942e2de3",
    "cbp30": "22d6c16dca5fefcf6e83e004c80c1763d0d01d5ff2672296763341710d0b37f4",
    "gt06": "72eb843ca23144d765bba1489d61ca593523bbfea3c5d810e876f745e117aa2c",
    "gt14": "2caf3c57331595eba8947ae694789b547b0641dfd42df1019cbc3c3a441eb23f",
    "gn005": "8f86b890719345256067fe4fc5b8e997533b47040368d258ff07fb96c92c1caa",
    "gn01": "5aada027fa2c11061014f10079fc4eccb2cbf00847e94f40180448a966c06dbe",
    "li32": "55f010d1f4cb672b7af761aa07d39e98201ab3c314475fa061866c883600b328",
    "li64": "236d0e959b13791a84b0cc7c0c79a308fbeb42f23c48e41fd173740e717a4421",
    "rs2": "0898c973cc705d7b66f0e54a9b9171b1df7bfa2ac65988bd4075083329b4dd3c",
    "rs5": "307ba0d781c6c4fadf4c61edd36bb24fe5ae0f9feda2be9715121025b1c3dbdf",
    "cr5": "25516bb6a2bc1e76969a2da8f02423db0d322c1163dde22669187f4835066a70",
    "cr10": "72fdc49d8a0ed05771e048d367ca23115438e904f3f7aeeed9973a7aa0b8fbfd",
    "rt45": "c88c25ca0516ffecae8d080f713171ff820667e4d35eaf6b03700ffde0492355",
    "rt90": "dc49c210528e3ac21f15832a42b767e1be0deecacf5aa25b6241efe6e62b263f",
    "flv": "aff7849a6147ec49bc609a4b65340adcc14049fde91ff77df1f10a18a39ec4c4",
    "flh": "5c2b4892eb8d80310f9b86482ad28ead7c535e7b36cbb2a37e3798d8b479f69d",
    "fr5": "a1f32fff1d1662a018faf91aeaed53b65360ae7f6b2a6b63534b74fae46c177c",
    "fd5": "2fe96f2b1366a98276b72ed5fd05666f7a343e3f439da479df9e21a31978b3c7",
}


def golden_clips():
    """Gray 31x45 (odd, non-square: rt 90 goes bilinear, rs rounds both ways),
    depth 40x40, colour 36x36 and colour 27x41, 20 random frames each."""
    rng = np.random.default_rng(2024)
    shapes = (("2d", (31, 45)), ("depth", (40, 40)), ("2d", (36, 36, 3)), ("2d", (27, 41, 3)))
    return [FrameSequence([rng.integers(0, 256, size=s, dtype=np.uint8) for _ in range(20)], role)
            for role, s in shapes]


def test_catalog_output_golden_hash():
    clips = golden_clips()
    got = {}
    for spec in attack_catalog(seed=11):
        h = hashlib.sha256()
        for clip in clips:
            for f in apply_attack(clip, spec).frames:
                h.update(repr(f.shape).encode())
                h.update(f.tobytes())
        got[spec.name] = h.hexdigest()
    assert got == GOLDEN
