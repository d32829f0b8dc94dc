import numpy as np
import pytest
from oracle import brute_calibration, brute_match, brute_pair_distances

from zw3d.features import FeatureVector
from zw3d.fusion import (
    BLOCK_ROWS,
    MODES,
    Thresholds,
    calibrate_thresholds,
    calibration_report,
    feature_distance,
    fuse_scores,
    fused_ber,
    match_query,
    pairwise_distances,
    read_calibration_csv,
    score_record,
    write_calibration_csv,
    zero_anchored_quantile,
)


class FakeRegistry:
    """Minimal iterate_features stand-in for matching/calibration tests."""

    def __init__(self, rows):
        self.rows = rows

    def iterate_features(self):
        yield from self.rows


def zvec(rng):
    v = rng.normal(size=1600)
    return (v - v.mean()) / v.std(ddof=1)


# -- distance -----------------------------------------------------------------

def test_distance_identity_and_shift():
    rng = np.random.default_rng(0)
    fn = rng.normal(size=1600)
    assert feature_distance(fn, fn) == 0.0
    assert abs(feature_distance(fn, fn + 1.0) - 1.0) < 1e-12


def test_distance_mismatch():
    with pytest.raises(ValueError):
        feature_distance(np.zeros(1600), np.zeros(100))


def test_distance_dot_product_identity():
    # for z-scored vectors: d = 2(n-1)/n - 2 mean(fn * fn')
    rng = np.random.default_rng(1)
    n = 1600
    for _ in range(10):
        a, b = zvec(rng), zvec(rng)
        expected = 2 * (n - 1) / n - 2 * np.dot(a, b) / n
        assert abs(feature_distance(a, b) - expected) < 1e-12


def test_distance_accepts_feature_vectors():
    rng = np.random.default_rng(2)
    a = FeatureVector(values=rng.normal(size=1600))
    assert feature_distance(a, a) == 0.0


# -- fusion algebra --------------------------------------------------------------

def test_fusion_fixed_point():
    for d in (0.001, 0.1, 1.0, 42.0):
        assert abs(fuse_scores(d, d) - d) < 1e-12


def test_fusion_gamma_zero_is_min():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        s1, s2 = rng.uniform(1e-6, 10, size=2)
        assert abs(fuse_scores(s1, s2, gamma=0.0) - min(s1, s2)) < 1e-12


def test_fusion_worked_example():
    assert abs(fuse_scores(0.1, 0.3, gamma=0.1) - 0.103125) < 1e-6


def test_fusion_zero_convention_and_errors():
    assert fuse_scores(0.0, 0.5) == 0.0
    assert fuse_scores(0.5, 0.0) == 0.0
    with pytest.raises(ValueError):
        fuse_scores(-0.1, 0.5)
    with pytest.raises(ValueError):
        fuse_scores(0.1, 0.5, gamma=-1.0)


def test_fusion_heterogeneity_monotonicity_bounds():
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        s1, s2 = np.sort(rng.uniform(1e-4, 5.0, size=2))
        eps = rng.uniform(1e-6, s1 * 0.999)
        f = fuse_scores(s1, s2)
        # heterogeneity: moving mass from the smaller to the larger lowers F
        assert f > fuse_scores(s1 - eps, s2 + eps)
        # strict monotonicity in each argument
        assert fuse_scores(s1 + eps, s2) > f
        assert fuse_scores(s1, s2 + eps) > f
        # bounds and symmetry
        harmonic = 2 * s1 * s2 / (s1 + s2)
        assert min(s1, s2) - 1e-12 <= f <= harmonic + 1e-12
        assert abs(f - fuse_scores(s2, s1)) < 1e-15


def test_fused_ber_conventions():
    assert fused_ber(0.0, 0.2) == 0.0
    assert abs(fused_ber(0.3, 0.3) - 0.3) < 1e-12
    b = fused_ber(0.0619, 0.0628, 0.1)
    assert 0.0619 <= b <= 0.06235
    with pytest.raises(ValueError):
        fused_ber(-0.1, 0.2)


# -- matching ---------------------------------------------------------------------

def make_db(rng, n=3):
    rows = [(f"clip{i}", zvec(rng), zvec(rng)) for i in range(n)]
    return FakeRegistry(rows), rows


def test_match_query_self_match():
    rng = np.random.default_rng(5)
    db, rows = make_db(rng)
    q2d, qdep = rows[1][1], rows[1][2]
    th = Thresholds(0.5, 0.5, 0.5)
    results = match_query(q2d, qdep, db, th, mode="independent")
    assert results and results[0].record_id == "clip1"
    assert results[0].d_2d == 0.0 and results[0].d_depth == 0.0
    fused = match_query(q2d, qdep, db, th, mode="fused")
    assert fused[0].record_id == "clip1" and fused[0].d_fused == 0.0


def test_match_query_zero_thresholds_never_match():
    rng = np.random.default_rng(6)
    db, rows = make_db(rng)
    th = Thresholds(0.0, 0.0, 0.0)
    assert match_query(rows[0][1], rows[0][2], db, th, mode="independent") == []
    assert match_query(rows[0][1], rows[0][2], db, th, mode="fused") == []


def test_match_query_empty_registry():
    rng = np.random.default_rng(7)
    th = Thresholds(1.0, 1.0, 1.0)
    assert match_query(zvec(rng), zvec(rng), FakeRegistry([]), th) == []


def test_match_query_fused_threshold_selects():
    # hand-built records at controlled fused distances ~ {0.01, 0.5, 0.9}
    rng = np.random.default_rng(8)
    q2d, qdep = zvec(rng), zvec(rng)

    def at_distance(base, d):
        # mixing a z-scored vector with independent noise hits distance ~d
        noise = zvec(rng)
        t = 1 - d / 2.0
        v = t * base + np.sqrt(1 - t * t) * noise
        return (v - v.mean()) / v.std(ddof=1)

    rows = [
        ("near", at_distance(q2d, 0.01), at_distance(qdep, 0.01)),
        ("mid", at_distance(q2d, 0.5), at_distance(qdep, 0.5)),
        ("far", at_distance(q2d, 0.9), at_distance(qdep, 0.9)),
    ]
    th = Thresholds(1.0, 1.0, 0.1)
    results = match_query(q2d, qdep, FakeRegistry(rows), th, mode="fused")
    assert [r.record_id for r in results] == ["near"]


def test_match_results_sorted_by_deciding_distance():
    rng = np.random.default_rng(9)
    db, rows = make_db(rng, n=5)
    q2d, qdep = rows[2][1], rows[2][2]
    th = Thresholds(10.0, 10.0, 10.0)  # everything matches
    results = match_query(q2d, qdep, db, th, mode="fused")
    assert results[0].record_id == "clip2"
    d = [r.d_fused for r in results]
    assert d == sorted(d)


def test_score_record_decisions():
    rng = np.random.default_rng(10)
    a, b = zvec(rng), zvec(rng)
    th = Thresholds(0.5, 0.5, 0.5)
    _, _, _, decision = score_record(a, b, a, b, th, "independent")
    assert decision in ("match-2d", "match-depth")
    _, _, _, decision = score_record(a, b, zvec(rng), zvec(rng), th, "independent")
    assert decision == "no-match"
    with pytest.raises(ValueError):
        score_record(a, b, a, b, th, "bogus")


# -- calibration ------------------------------------------------------------------

def test_quantile_single_sample_scales():
    t = zero_anchored_quantile([0.8], 0.01)
    assert 0.0 < t < 0.8
    assert abs(t - 0.008) < 1e-12


def test_quantile_grid_hits_first_percentile():
    values = np.linspace(0.01, 1.01, 101)
    t = zero_anchored_quantile(values, 0.01)
    assert abs(t - values[0]) < 0.002  # position 1.01 -> just past x_(1)


def test_quantile_target_one_matches_everything():
    values = [0.2, 0.5, 0.9]
    t = zero_anchored_quantile(values, 1.0)
    assert t >= max(values)
    assert all(v < t for v in values)


def test_calibrate_two_records_no_false_match():
    rng = np.random.default_rng(11)
    db, rows = make_db(rng, n=2)
    th = calibrate_thresholds(db, target_pfp=0.01)
    d = feature_distance(rows[0][1], rows[1][1])
    assert th.t_2d < d  # the lone distinct pair must not false-match


def test_calibrate_realized_rate_within_one_order_statistic():
    rng = np.random.default_rng(12)
    db, rows = make_db(rng, n=25)  # 300 distinct pairs
    target = 0.05
    th, report = calibration_report(db, target_pfp=target)
    n_pairs = 25 * 24 // 2
    for row in report:
        assert abs(row["realized_pfp"] - target) <= 1.0 / n_pairs + 1e-12


def test_calibration_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    db, _ = make_db(rng, n=5)
    th, rows = calibration_report(db)
    write_calibration_csv(tmp_path / "t.csv", rows)
    assert read_calibration_csv(tmp_path / "t.csv") == {
        "t_2d": th.t_2d, "t_depth": th.t_depth, "t_fusion": th.t_fusion}


def test_calibrate_needs_two_records():
    rng = np.random.default_rng(13)
    db = FakeRegistry([("only", zvec(rng), zvec(rng))])
    with pytest.raises(ValueError, match="at least 2"):
        calibrate_thresholds(db)


def test_calibration_rejects_bad_gamma_and_target():
    rng = np.random.default_rng(14)
    db, _ = make_db(rng, n=3)
    for bad in (dict(gamma=-1.0), dict(target_pfp=1.5), dict(target_pfp=-0.1)):
        with pytest.raises(ValueError):
            calibration_report(db, **bad)


def test_nan_scores_rejected_by_quantile_and_calibration():
    with pytest.raises(ValueError, match="NaN"):
        zero_anchored_quantile([0.2, np.nan, 0.5], 0.5)
    rng = np.random.default_rng(15)
    db, rows = make_db(rng, n=4)
    rows[2][1][3] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        calibration_report(db)


@pytest.mark.parametrize("mode", MODES)
def test_match_query_rejects_nan_record(mode):
    # one NaN 2D component makes the fused distance NaN, which no threshold
    # (not even +inf) passes: the query must refuse the record, not skip it
    rng = np.random.default_rng(16)
    db, rows = make_db(rng)
    rows[1][1][7] = np.nan
    with pytest.raises(ValueError, match="'clip1' is NaN"):
        match_query(rows[0][1], rows[0][2], db, Thresholds(np.inf, np.inf, np.inf), mode)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(-0.1, 0.2, 0.3)
    with pytest.raises(ValueError):
        Thresholds(0.1, 0.2, 0.3, gamma=-2.0)


@pytest.mark.parametrize("field", ["t_2d", "t_depth", "t_fusion", "gamma"])
def test_thresholds_reject_nan(field):
    values = {"t_2d": 0.1, "t_depth": 0.2, "t_fusion": 0.3, "gamma": 0.1, field: float("nan")}
    with pytest.raises(ValueError, match="NaN"):
        Thresholds(**values)


def test_infinite_threshold_matches_every_record():
    th = Thresholds(np.inf, np.inf, np.inf)
    rng = np.random.default_rng(3)
    q = rng.standard_normal(16)
    fn = rng.standard_normal(16)
    assert score_record(q, q, fn, fn, th, "independent")[3] != "no-match"
    assert score_record(q, q, fn, fn, th, "fused")[3] == "match-fused"


# -- Gram/matvec paths against the brute-force loops ------------------------------

def mixed_rows(rng, n):
    """z-scored records plus exact duplicates under other ids, all-zero
    (degenerate) features and near-duplicates one coordinate apart, whose
    distances sit far inside the Gram error bound."""
    rows = []
    for i in range(n):
        kind = i % 6
        if kind == 3 and rows:
            _, a, b = rows[int(rng.integers(len(rows)))]
            a, b = a.copy(), b.copy()
        elif kind == 4:
            a, b = np.zeros(1600), (zvec(rng) if i % 12 == 4 else np.zeros(1600))
        elif kind == 5 and rows:
            _, a, b = rows[int(rng.integers(len(rows)))]
            a, b = a.copy(), b.copy()
            a[int(rng.integers(1600))] += 1e-9
        else:
            a, b = zvec(rng), zvec(rng)
        rows.append((f"r{int(rng.integers(10**6)):06d}-{i}", a, b))
    return rows


def assert_calibration_is_exact(rows, q, gamma=0.1):
    th, report = calibration_report(FakeRegistry(rows), target_pfp=q, gamma=gamma)
    want = brute_calibration([(a, b) for _, a, b in rows], q, gamma)
    assert {r["threshold"]: (r["value"], r["realized_pfp"]) for r in report} == want
    assert th == Thresholds(want["t_2d"][0], want["t_depth"][0], want["t_fusion"][0], gamma)
    return want


def assert_match_is_exact(q2d, qdep, rows, th):
    for mode in MODES:
        got = match_query(q2d, qdep, FakeRegistry(rows), th, mode)
        assert all(r.mode == mode for r in got)
        assert [(r.record_id, r.d_2d, r.d_depth, r.d_fused, r.decision) for r in got] == brute_match(
            q2d, qdep, rows, th.t_2d, th.t_depth, th.t_fusion, th.gamma, mode)


@pytest.mark.parametrize("q", [0.01, 0.2, 1.0, 1e-9, 0.0])
@pytest.mark.parametrize("gamma", [0.1, 0.0, 3.0])
def test_calibration_equals_pair_loop(q, gamma):
    rng = np.random.default_rng(20)
    assert_calibration_is_exact(mixed_rows(rng, 40), q, gamma)


def test_calibration_duplicates_and_zero_features():
    rng = np.random.default_rng(21)
    a, b = zvec(rng), zvec(rng)
    zero = np.zeros(1600)
    rows = [("dup-b", a, b), ("dup-a", a.copy(), b.copy()), ("zero1", zero, zero),
            ("zero2", zero.copy(), zero.copy()), ("half", zero.copy(), b.copy())]
    rows += [(f"x{i}", zvec(rng), zvec(rng)) for i in range(5)]
    want = assert_calibration_is_exact(rows, 0.1)
    # the duplicate pairs give distance 0, fused 0, and pull t_fusion to 0
    assert want["t_fusion"] == (0.0, 0.0)


def test_calibration_quantile_node_inside_gram_window():
    # distances ~1e-22 among near-duplicates are noise to the Gram form
    # (error bound ~1e-12): the nodes and the realized rate need rescoring
    rng = np.random.default_rng(22)
    base2d, basedep = zvec(rng), zvec(rng)
    rows = []
    for i in range(8):
        a, b = base2d.copy(), basedep.copy()
        a[i] += (i + 1) * 1e-9
        b[i + 8] += (8 - i) * 1e-9
        rows.append((f"n{i}", a, b))
    rows += [(f"x{i}", zvec(rng), zvec(rng)) for i in range(4)]
    features = [(a, b) for _, a, b in rows]
    q = 10 / 66 + 0.004  # between the 10th and 11th of 66 pair distances
    gram = zero_anchored_quantile(pairwise_distances(features)[0], q)
    assert gram != zero_anchored_quantile(brute_pair_distances(features)[0], q)
    want = assert_calibration_is_exact(rows, q)
    assert 0.0 < want["t_2d"][0] < 1e-18


def test_calibration_threshold_on_an_observed_distance():
    rng = np.random.default_rng(23)
    rows = mixed_rows(rng, 10)  # 45 pairs
    q = 9 / 45
    assert q * 45 == 9  # the quantile lands exactly on the 9th smallest distance
    want = assert_calibration_is_exact(rows, q)
    d2d = brute_pair_distances([(a, b) for _, a, b in rows])[0]
    t, realized = want["t_2d"]
    assert t in d2d and realized == sum(1 for d in d2d if d < t) / 45


def test_match_equals_record_loop_across_blocks():
    rng = np.random.default_rng(24)
    rows = mixed_rows(rng, 2 * BLOCK_ROWS + 37)
    th = calibration_report(FakeRegistry(rows[:40]), target_pfp=0.05)[0]
    queries = [rows[5][1:], rows[300][1:], rows[2 * BLOCK_ROWS + 30][1:],  # stored: distance 0
               (np.zeros(1600), np.zeros(1600)),
               (zvec(rng), rows[7][2])]
    for q2d, qdep in queries:
        for t in (th, Thresholds(10.0, 10.0, 10.0), Thresholds(0.0, 0.0, 0.0), Thresholds(1.9, 2.0, 1.95, 0.5)):
            assert_match_is_exact(q2d, qdep, rows, t)


def test_match_threshold_equal_to_distance_is_strict():
    # near-duplicates of the query sit ~1e-22 away, inside the Gram error bound
    rng = np.random.default_rng(25)
    q2d, qdep = zvec(rng), zvec(rng)
    rows = []
    for i in range(6):
        a, b = q2d.copy(), qdep.copy()
        a[i] += (i + 1) * 1e-9
        b[i] += (6 - i) * 1e-9
        rows.append((f"n{i}", a, b))
    rows += [(f"x{i}", zvec(rng), zvec(rng)) for i in range(3)]
    d2d = [feature_distance(q2d, a) for _, a, _ in rows]
    ddep = [feature_distance(qdep, b) for _, _, b in rows]
    th = Thresholds(d2d[2], ddep[3], fuse_scores(d2d[1], ddep[1]))
    assert_match_is_exact(q2d, qdep, rows, th)
    # 2d distances grow with i, depth distances shrink: n2 and n3 sit on a threshold
    independent = {r.record_id for r in match_query(q2d, qdep, FakeRegistry(rows), th)}
    assert independent == {"n0", "n1", "n4", "n5"}
    fused = [r.record_id for r in match_query(q2d, qdep, FakeRegistry(rows), th, "fused")]
    assert "n1" not in fused


def test_match_ties_broken_by_id():
    rng = np.random.default_rng(26)
    a, b = zvec(rng), zvec(rng)
    rows = [(rid, a.copy(), b.copy()) for rid in ("d", "b", "c", "a")]
    rows += [(f"x{i}", zvec(rng), zvec(rng)) for i in range(4)]
    q2d, qdep = zvec(rng), zvec(rng)
    th = Thresholds(10.0, 10.0, 10.0)
    assert_match_is_exact(q2d, qdep, rows, th)
    for mode in MODES:
        got = [r.record_id for r in match_query(q2d, qdep, FakeRegistry(rows), th, mode)]
        tied = [rid for rid in got if rid in "abcd"]
        assert tied == ["a", "b", "c", "d"]
        assert got.index("a") + 3 == got.index("d")  # tied records sit together


def test_match_rejects_feature_length_mismatch():
    rng = np.random.default_rng(27)
    rows = [("ok", zvec(rng), zvec(rng)), ("short", np.zeros(1), zvec(rng))]
    with pytest.raises(ValueError, match="length"):
        match_query(zvec(rng), zvec(rng), FakeRegistry(rows), Thresholds(1.0, 1.0, 1.0))


def test_pairwise_distances_within_gram_bound_of_loop():
    rng = np.random.default_rng(28)
    features = [(a, b) for _, a, b in mixed_rows(rng, 30)]
    got = pairwise_distances(features)
    want = brute_pair_distances(features)
    for g, w in zip(got, want):
        assert len(g) == len(w) and np.max(np.abs(np.asarray(g) - w)) <= 1e-12
