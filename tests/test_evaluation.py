import csv

import numpy as np
import pytest

from zw3d.evaluation import (
    ber_table,
    compute_rates,
    det_curve,
    identify_record,
    write_ber_csv,
    write_det_csv,
)
from zw3d.fusion import fuse_scores
from zw3d.registry import RegistrationRecord, Registry, UnknownIdError
from zw3d.shares import ber, binarize_feature, build_master_share, build_ownership_share, rearrange


def zvec(rng):
    v = rng.normal(size=1600)
    return (v - v.mean()) / v.std(ddof=1)


def registered_db(tmp_path, rng, n=3):
    path = tmp_path / "db.zw3d"
    feats, wms = {}, {}
    with Registry(path, "a") as db:
        for i in range(n):
            rid = f"clip{i}"
            fn2d, fndep = zvec(rng), zvec(rng)
            w2d = rng.integers(0, 2, size=(40, 40), dtype=np.uint8)
            wdep = rng.integers(0, 2, size=(40, 40), dtype=np.uint8)
            o2d = build_ownership_share(build_master_share(rearrange(binarize_feature(fn2d))), w2d)
            odep = build_ownership_share(build_master_share(rearrange(binarize_feature(fndep))), wdep)
            db.register(RegistrationRecord(rid, fn2d, fndep, o2d, odep, w2d, wdep))
            feats[rid] = (fn2d, fndep)
            wms[rid] = (w2d, wdep)
    return path, feats, wms


# -- rate estimators ---------------------------------------------------------

def test_rates_threshold_extremes():
    genuine, impostor = [0.1, 0.2], [0.5, 0.9]
    assert compute_rates(genuine, impostor, 0.0) == (0.0, 1.0)
    assert compute_rates(genuine, impostor, 1.1) == (1.0, 0.0)


def test_rates_hand_counted():
    genuine, impostor = [0.1, 0.2], [0.5, 0.9]
    assert compute_rates(genuine, impostor, 0.3) == (0.0, 0.0)
    assert compute_rates(genuine, impostor, 0.6) == (0.5, 0.0)
    # boundary: a genuine score equal to the threshold counts as a miss
    assert compute_rates([0.3], [0.9], 0.3) == (0.0, 1.0)


def test_rates_brute_force_recount():
    rng = np.random.default_rng(0)
    genuine = rng.random(57)
    impostor = rng.random(71)
    for t in rng.random(25):
        pfp, pfn = compute_rates(genuine, impostor, t)
        assert pfp == sum(1 for s in impostor if s < t) / 71
        assert pfn == sum(1 for s in genuine if s >= t) / 57


def test_rates_empty_rejected():
    with pytest.raises(ValueError):
        compute_rates([], [0.5], 0.1)


def test_nan_scores_and_threshold_rejected():
    for genuine, impostor, t in (([0.1, np.nan], [0.9], 0.5), ([0.1], [np.nan], 0.5),
                                 ([0.1], [0.9], np.nan)):
        with pytest.raises(ValueError, match="NaN"):
            compute_rates(genuine, impostor, t)
    with pytest.raises(ValueError, match="NaN"):
        det_curve([0.1, np.nan, 0.3], [0.9])


def test_infinite_scores_keep_their_order():
    genuine, impostor = [0.1, np.inf], [-np.inf, 0.9]
    assert compute_rates(genuine, impostor, 0.5) == (0.5, 0.5)
    assert compute_rates(genuine, impostor, np.inf) == (1.0, 0.5)
    points = det_curve(genuine, impostor)
    assert (points[-1].pfp, points[-1].pfn) == (1.0, 0.5)  # +inf never matches
    for a, b in zip(points, points[1:]):
        assert a.threshold < b.threshold
        assert a.pfp <= b.pfp and a.pfn >= b.pfn


# -- DET curves -----------------------------------------------------------------

@pytest.mark.parametrize("kind", ["random", "tied", "infinite"])
def test_det_points_equal_rates_at_every_threshold(kind):
    rng = np.random.default_rng(9)
    for _ in range(20):
        genuine, impostor = rng.random(int(rng.integers(1, 30))), rng.random(int(rng.integers(1, 30)))
        if kind == "tied":
            genuine, impostor = np.round(genuine * 4) / 4, np.round(impostor * 4) / 4
        elif kind == "infinite":
            genuine[::3], impostor[1::4] = np.inf, -np.inf
        points = det_curve(genuine, impostor)
        assert [p.threshold for p in points] == sorted({0.0, *genuine, *impostor,
                                                       np.nextafter(max(*genuine, *impostor), np.inf)})
        for p in points:
            counted = (sum(s < p.threshold for s in impostor) / impostor.size,
                       sum(s >= p.threshold for s in genuine) / genuine.size)
            assert (p.pfp, p.pfn) == compute_rates(genuine, impostor, p.threshold) == counted

def test_det_endpoints_and_monotonicity():
    rng = np.random.default_rng(1)
    genuine = rng.random(40) * 0.5
    impostor = rng.random(40) * 0.5 + 0.3
    points = det_curve(genuine, impostor)
    assert (points[0].pfp, points[0].pfn) == (0.0, 1.0)
    assert (points[-1].pfp, points[-1].pfn) == (1.0, 0.0)
    for a, b in zip(points, points[1:]):
        assert a.threshold < b.threshold
        assert a.pfp <= b.pfp and a.pfn >= b.pfn


def test_det_perfect_separation_has_zero_zero():
    points = det_curve([0.1, 0.2], [0.8, 0.9])
    assert any(p.pfp == 0.0 and p.pfn == 0.0 for p in points)


def test_det_identical_distributions():
    rng = np.random.default_rng(2)
    shared = rng.random(500)
    points = det_curve(shared, shared)
    for p in points:
        assert abs(p.pfp + p.pfn - 1.0) <= 0.01


# -- BER tables ----------------------------------------------------------------------

def test_ber_table_unattacked_is_zero(tmp_path):
    rng = np.random.default_rng(4)
    path, feats, _ = registered_db(tmp_path, rng)
    corpus = [(rid, "none", fn2d, fndep) for rid, (fn2d, fndep) in feats.items()]
    with Registry(path, "r") as db:
        rows = ber_table(db, corpus)
    assert len(rows) == 3  # one attack, three channels
    assert all(r["mean_ber"] == 0.0 and r["n"] == 3 for r in rows)


def test_identify_record_recovers_and_scores_both_channels(tmp_path):
    rng = np.random.default_rng(9)
    path, feats, wms = registered_db(tmp_path, rng, n=1)
    fn2d, fndep = feats["clip0"]
    with Registry(path, "r") as db:
        rec = db.get_record("clip0")
    (w2d, wdep), bers = identify_record(rec, fn2d, fndep, 0.1)
    assert (w2d == wms["clip0"][0]).all() and (wdep == wms["clip0"][1]).all()
    assert bers == (0.0, 0.0, 0.0)
    noisy = fn2d + rng.normal(0, 0.3, 1600)
    (w2d, wdep), (b2d, bdep, fused) = identify_record(rec, noisy, fndep, 0.1)
    assert b2d == ber(wms["clip0"][0], w2d) > 0 and bdep == 0.0
    assert fused == fuse_scores(b2d, bdep, 0.1)


def test_ber_table_fused_bound(tmp_path):
    rng = np.random.default_rng(5)
    path, feats, _ = registered_db(tmp_path, rng)
    # perturb features to force nonzero BER
    corpus = []
    for rid, (fn2d, fndep) in feats.items():
        corpus.append((rid, "noisy", fn2d + rng.normal(0, 0.3, 1600),
                       fndep + rng.normal(0, 0.3, 1600)))
    with Registry(path, "r") as db:
        rows = {r["channel"]: r for r in ber_table(db, corpus)}
    fused, b2d, bdep = (rows[c]["mean_ber"] for c in ("fused", "2d", "depth"))
    assert fused <= b2d + 1e-12 and fused <= bdep + 1e-12
    assert fused > 0


def test_ber_table_respects_attack_order(tmp_path):
    rng = np.random.default_rng(6)
    path, feats, _ = registered_db(tmp_path, rng, n=2)
    corpus = []
    for attack in ("zeta", "alpha"):
        for rid, (fn2d, fndep) in feats.items():
            corpus.append((rid, attack, fn2d, fndep))
    with Registry(path, "r") as db:
        rows = ber_table(db, corpus, attack_order=["alpha", "zeta"])
    assert [r["attack"] for r in rows[::3]] == ["alpha", "zeta"]


def test_ber_table_unknown_id(tmp_path):
    rng = np.random.default_rng(7)
    path, _, _ = registered_db(tmp_path, rng)
    with Registry(path, "r") as db:
        with pytest.raises(UnknownIdError):
            ber_table(db, [("ghost", "none", zvec(rng), zvec(rng))])


def test_per_clip_fused_equals_formula(tmp_path):
    rng = np.random.default_rng(8)
    path, feats, wms = registered_db(tmp_path, rng, n=1)
    fn2d, fndep = feats["clip0"]
    noisy2d = fn2d + rng.normal(0, 0.2, 1600)
    with Registry(path, "r") as db:
        rows = {r["channel"]: r["mean_ber"]
                for r in ber_table(db, [("clip0", "gn", noisy2d, fndep)])}
    assert rows["fused"] == fuse_scores(rows["2d"], rows["depth"], 0.1)


# -- CSV writers -----------------------------------------------------------------------

def test_csv_outputs(tmp_path):
    points = det_curve([0.1], [0.9])
    write_det_csv(tmp_path / "det.csv", points)
    with open(tmp_path / "det.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["pfp"]) for r in rows][0] == 0.0

    write_ber_csv(tmp_path / "ber.csv", [{"attack": "gb9", "channel": "2d",
                                          "mean_ber": 0.01, "n": 3}])
    with open(tmp_path / "ber.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["attack"] == "gb9"
