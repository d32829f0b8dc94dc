"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion. The shared fixtures build a synthetic corpus (20 clips, 64 frames,
96x96), register it, calibrate thresholds at a 1% false-positive target, and
attack every clip with the full 26-instance catalog; the heavy robustness
sweep dominates the runtime (minutes, bounded below).

When ``ZW3D_QUALITY_JSON`` names a file, criterion 2 writes its worst symmetry
delta and criterion 6 its per-attack P_fn/BER table into it as JSON, which
``tools/bench_record.py --quality`` copies into a benchmark record.
"""

import contextlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from zw3d.attacks import AttackSpec, apply_attack, attack_catalog
from zw3d.corpus import generate_corpus
from zw3d.dibr import BaselineConfig, synthesize_clip, synthesize_views
from zw3d.evaluation import compute_rates, det_curve
from zw3d.features import FeatureParams, extract_feature
from zw3d.frameio import load_clip, normalize_clip
from zw3d.fusion import (
    calibration_report,
    feature_distance,
    fuse_scores,
    match_query,
)
from zw3d.registry import RegistrationRecord, Registry
from zw3d.shares import (
    ber,
    binarize_feature,
    build_master_share,
    build_ownership_share,
    load_watermark,
    rearrange,
    recover_from_feature,
    recover_watermark,
    stack_shares,
)

from oracle import brute_extract

pytestmark = pytest.mark.slow

CLIPS = 20
FRAMES = 64
SIZE = 96
SEED = 42
GAMMA = 0.1
TARGET_PFP = 0.01


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number} ({description}): FAIL", flush=True)
        raise
    print(f"criterion {number} ({description}): PASS", flush=True)


def record_quality(key, value):
    """Merge ``{key: value}`` into the JSON file that ``ZW3D_QUALITY_JSON`` names, if any."""
    name = os.environ.get("ZW3D_QUALITY_JSON")
    if not name:
        return
    path = Path(name)
    quality = json.loads(path.read_text()) if path.exists() else {}
    quality[key] = value
    path.write_text(json.dumps(quality, indent=1) + "\n")


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """Corpus on disk, loaded sequences, features, registry, thresholds."""
    t0 = time.time()
    root = tmp_path_factory.mktemp("acceptance")
    ids = generate_corpus(root / "clips", clips=CLIPS, frames=FRAMES, size=SIZE, seed=SEED)
    seqs, feats, wms, shares = {}, {}, {}, {}
    db_path = root / "registry.zw3d"
    with Registry(db_path, "a") as db:
        for cid in ids:
            base = root / "clips" / cid
            seq2d = load_clip(base / "2d", "2d")
            seqdep = load_clip(base / "depth", "depth")
            w2d = load_watermark(base / "watermark_2d.pbm")
            wdep = load_watermark(base / "watermark_depth.pbm")
            fv2d = extract_feature(normalize_clip(seq2d))
            fvdep = extract_feature(normalize_clip(seqdep))
            o2d = build_ownership_share(
                build_master_share(rearrange(binarize_feature(fv2d))), w2d)
            odep = build_ownership_share(
                build_master_share(rearrange(binarize_feature(fvdep))), wdep)
            db.register(RegistrationRecord(cid, fv2d.values, fvdep.values,
                                           o2d, odep, w2d, wdep))
            seqs[cid] = (seq2d, seqdep)
            feats[cid] = (fv2d, fvdep)
            wms[cid] = (w2d, wdep)
            shares[cid] = (o2d, odep)
    with Registry(db_path, "r") as db:
        thresholds = calibration_report(db, target_pfp=TARGET_PFP, gamma=GAMMA)[0]
    return dict(root=root, ids=ids, db_path=db_path, seqs=seqs, feats=feats,
                wms=wms, shares=shares, thresholds=thresholds,
                setup_seconds=time.time() - t0)


@pytest.fixture(scope="module")
def attacked(bench):
    """Features of every (attack, clip) pair, both channels."""
    t0 = time.time()
    results = {}
    for spec in attack_catalog(seed=SEED):
        rows = []
        for cid in bench["ids"]:
            seq2d, seqdep = bench["seqs"][cid]
            f2d = extract_feature(normalize_clip(apply_attack(seq2d, spec)))
            fdep = extract_feature(normalize_clip(apply_attack(seqdep, spec)))
            rows.append((cid, f2d, fdep))
        results[spec.name] = rows
    return dict(features=results, seconds=time.time() - t0)


def test_criterion_1_vss_round_trip():
    with criterion(1, "VSS round-trip, 1000 random pairs, BER 0"):
        rng = np.random.default_rng(SEED)
        t0 = time.time()
        for _ in range(1000):
            V = rng.integers(0, 2, size=(40, 40), dtype=np.uint8)
            W = rng.integers(0, 2, size=(40, 40), dtype=np.uint8)
            master = build_master_share(V)
            ownership = build_ownership_share(master, W)
            recovered = recover_watermark(stack_shares(master, ownership))
            assert ber(W, recovered) == 0.0
        elapsed = time.time() - t0
        assert elapsed < 5.0, f"round trips took {elapsed:.1f}s"


def test_criterion_2_exact_symmetry(bench):
    with criterion(2, "flip/rotation invariance <= 1e-9 and BER 0"):
        t0 = time.time()
        transforms = [
            AttackSpec("fl", {"direction": "horizontal"}),
            AttackSpec("fl", {"direction": "vertical"}),
            AttackSpec("rt", {"angle": 90}),
        ]
        worst = 0.0
        for cid in bench["ids"]:
            seq2d, seqdep = bench["seqs"][cid]
            fv2d, _ = bench["feats"][cid]
            o2d, odep = bench["shares"][cid]
            w2d, wdep = bench["wms"][cid]
            for spec in transforms:
                moved = extract_feature(normalize_clip(apply_attack(seq2d, spec)))
                delta = np.abs(moved.values - fv2d.values).max()
                worst = max(worst, delta)
                assert delta <= 1e-9, f"{cid} {spec.name}: delta {delta:.3e}"
                assert ber(w2d, recover_from_feature(moved, o2d)) == 0.0
            # depth channel through one transform, plus fused identification
            moved_dep = extract_feature(normalize_clip(apply_attack(seqdep, transforms[0])))
            b_dep = ber(wdep, recover_from_feature(moved_dep, odep))
            assert b_dep == 0.0
            assert fuse_scores(0.0, b_dep, GAMMA) == 0.0
        elapsed = time.time() - t0
        assert elapsed < 300.0, f"symmetry sweep took {elapsed:.0f}s"
        print(f"  worst component delta {worst:.2e} over {len(bench['ids'])} clips", flush=True)
        record_quality("criterion_2", {"worst_delta": float(worst)})


def test_criterion_3_oracle_equivalence():
    with criterion(3, "reduced-geometry pipeline equals brute force <= 1e-12"):
        params = FeatureParams(size=20, frames=4, ring_count=5, ring_width=2.0,
                               tiri_stride=1, tiri_samples=4)
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(100):
            vol = rng.random((20, 20, 4))
            fast = extract_feature(vol, params)
            slow, degenerate = brute_extract(vol, params)
            assert not degenerate
            worst = max(worst, np.abs(fast.values - slow).max())
        assert worst <= 1e-12, f"worst deviation {worst:.3e}"


def test_criterion_4_fusion_algebra():
    with criterion(4, "fusion algebra over 1e4 random positive pairs"):
        rng = np.random.default_rng(SEED)
        for _ in range(10_000):
            s1, s2 = np.sort(rng.uniform(1e-4, 10.0, size=2))
            # (a) fixed point
            assert abs(fuse_scores(s1, s1, GAMMA) - s1) <= 1e-12
            # (b) bounds
            f = fuse_scores(s1, s2, GAMMA)
            harmonic = 2 * s1 * s2 / (s1 + s2)
            assert min(s1, s2) - 1e-12 <= f <= harmonic + 1e-12
            # (c) heterogeneity and monotonicity on the sampled triple
            eps = rng.uniform(1e-6, s1 * 0.999)
            assert f > fuse_scores(s1 - eps, s2 + eps, GAMMA)
            assert fuse_scores(s1 + eps, s2, GAMMA) > f
            assert fuse_scores(s1, s2 + eps, GAMMA) > f
            # (d) gamma = 0 reduces to min
            assert abs(fuse_scores(s1, s2, 0.0) - s1) <= 1e-12


def test_criterion_5_registration_round_trip(bench):
    with criterion(5, "unattacked self-match at distance 0 and db durability"):
        before = bench["db_path"].read_bytes()
        with Registry(bench["db_path"], "r") as db:
            for cid in bench["ids"]:
                base = bench["root"] / "clips" / cid
                q2d = extract_feature(normalize_clip(load_clip(base / "2d", "2d")))
                qdep = extract_feature(normalize_clip(load_clip(base / "depth", "depth")))
                for mode in ("independent", "fused"):
                    results = match_query(q2d, qdep, db, bench["thresholds"], mode=mode)
                    assert results and results[0].record_id == cid
                    assert results[0].d_2d == 0.0 and results[0].d_depth == 0.0
                rec = db.get_record(cid)
                b2d = ber(rec.w_2d, recover_from_feature(q2d, rec.o_2d))
                bdep = ber(rec.w_depth, recover_from_feature(qdep, rec.o_depth))
                assert fuse_scores(b2d, bdep, GAMMA) == 0.0
        # close/reopen must not change a byte
        assert bench["db_path"].read_bytes() == before
        with Registry(bench["db_path"], "r") as db:
            assert db.ids() == bench["ids"]
            for cid in bench["ids"]:
                rec = db.get_record(cid)
                np.testing.assert_array_equal(rec.fn_2d, bench["feats"][cid][0].values)
                np.testing.assert_array_equal(rec.o_depth, bench["shares"][cid][1])


def test_criterion_6_robustness_trend(bench, attacked):
    with criterion(6, "mean fused P_fn <= 0.25; fused BER bounds; GN BER <= 0.15"):
        t0 = time.time()
        th = bench["thresholds"]
        pfn_per_attack = {}
        ber_per_attack = {}
        ber_sums = {"2d": 0.0, "depth": 0.0, "fused": 0.0}
        gn005_fused = []
        n_rows = 0
        with Registry(bench["db_path"], "r") as db:
            for attack, rows in attacked["features"].items():
                misses = 0
                bers = []
                for cid, f2d, fdep in rows:
                    ref2d, refdep = bench["feats"][cid]
                    d2d = feature_distance(f2d, ref2d)
                    ddep = feature_distance(fdep, refdep)
                    if fuse_scores(d2d, ddep, GAMMA) >= th.t_fusion:
                        misses += 1
                    rec = db.get_record(cid)
                    b2d = ber(rec.w_2d, recover_from_feature(f2d, rec.o_2d))
                    bdep = ber(rec.w_depth, recover_from_feature(fdep, rec.o_depth))
                    bfus = fuse_scores(b2d, bdep, GAMMA)
                    # per-clip fusion bound: min <= fused <= harmonic mean
                    lo = min(b2d, bdep)
                    hi = 2 * b2d * bdep / (b2d + bdep) if (b2d and bdep) else 0.0
                    assert lo - 1e-12 <= bfus <= hi + 1e-12, (attack, cid, b2d, bdep, bfus)
                    bers.append((b2d, bdep, bfus))
                    ber_sums["2d"] += b2d
                    ber_sums["depth"] += bdep
                    ber_sums["fused"] += bfus
                    if attack == "gn005":
                        gn005_fused.append(bfus)
                    n_rows += 1
                pfn_per_attack[attack] = misses / len(rows)
                ber_per_attack[attack] = dict(zip(("2d", "depth", "fused"), np.mean(bers, axis=0).tolist()))
        assert len(pfn_per_attack) == 26
        mean_pfn = sum(pfn_per_attack.values()) / len(pfn_per_attack)
        mean_ber = {k: v / n_rows for k, v in ber_sums.items()}
        gn_mean = float(np.mean(gn005_fused))
        elapsed = attacked["seconds"] + (time.time() - t0)
        print(f"  fused P_fn mean {mean_pfn:.4f}; mean BER 2d {mean_ber['2d']:.4f} "
              f"depth {mean_ber['depth']:.4f} fused {mean_ber['fused']:.4f}; "
              f"GN-0.005 fused {gn_mean:.4f}; runtime {elapsed:.0f}s", flush=True)
        record_quality("criterion_6", {
            "fused_pfn_mean": mean_pfn, "mean_ber": mean_ber, "gn005_fused_ber": gn_mean,
            "attacks": {a: {"fused_pfn": pfn_per_attack[a], "ber": ber_per_attack[a]}
                        for a in pfn_per_attack}})
        assert mean_pfn <= 0.25, f"mean fused P_fn {mean_pfn:.4f}"
        assert mean_ber["fused"] <= mean_ber["2d"] + 1e-12
        assert mean_ber["fused"] <= mean_ber["depth"] + 1e-12
        assert gn_mean <= 0.15, f"GN-0.005 fused BER {gn_mean:.4f}"
        assert elapsed < 1800.0, f"robustness sweep took {elapsed:.0f}s"


def test_criterion_7_dibr_consistency(bench):
    with criterion(7, "synthesized views match sources at >= 95%"):
        th = bench["thresholds"]
        matched = 0
        total = 0
        for cid in bench["ids"]:
            seq2d, seqdep = bench["seqs"][cid]
            ref2d = bench["feats"][cid][0]
            for baseline in (0.05, 0.07):
                left, right = synthesize_clip(seq2d, seqdep, BaselineConfig(baseline))
                for view in (left, right):
                    fv = extract_feature(normalize_clip(view))
                    if feature_distance(fv, ref2d) < th.t_2d:
                        matched += 1
                    total += 1
        rate = matched / total
        print(f"  synthesized match rate {rate:.3f} over {total} sequences", flush=True)
        assert rate >= 0.95

        # zero-disparity configuration reproduces the input image exactly
        rng = np.random.default_rng(SEED)
        frame = rng.integers(0, 256, size=(SIZE, SIZE), dtype=np.uint8)
        depth = np.full((SIZE, SIZE), 0.5)
        left, right = synthesize_views(frame, depth, BaselineConfig(0.05, convergence_depth=0.5))
        assert (left == frame).all() and (right == frame).all()


def test_criterion_8_evaluation_estimators():
    with criterion(8, "rate estimators exact on fixtures; DET monotone with endpoints"):
        genuine, impostor = [0.1, 0.2], [0.5, 0.9]
        assert compute_rates(genuine, impostor, 0.3) == (0.0, 0.0)
        assert compute_rates(genuine, impostor, 0.15) == (0.0, 0.5)
        assert compute_rates(genuine, impostor, 0.95) == (1.0, 0.0)
        assert compute_rates(genuine, impostor, 0.5) == (0.0, 0.0)  # boundary: 0.5 not < 0.5
        assert compute_rates([0.5], [0.5], 0.5) == (0.0, 1.0)

        rng = np.random.default_rng(SEED)
        points = det_curve(rng.random(200) * 0.6, rng.random(200) * 0.6 + 0.2)
        assert (points[0].pfp, points[0].pfn) == (0.0, 1.0)
        assert (points[-1].pfp, points[-1].pfn) == (1.0, 0.0)
        for a, b in zip(points, points[1:]):
            assert a.pfp <= b.pfp and a.pfn >= b.pfn
