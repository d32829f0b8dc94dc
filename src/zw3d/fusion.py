"""Distance scoring, attention-based fusion, and registry matching.

Two clips are compared channel-wise (2D frame features vs depth features) by
a normalized squared distance. The two channel scores can be fused by an
attention-style combiner that leans toward the stronger (smaller) score while
staying strictly monotone in both arguments; the same combiner serves both
distances and bit error rates. Matching against the registry is flexible:
either channel may match independently against its own threshold, or the
fused score is held against a fusion threshold.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .features import FeatureVector

MODES = ("independent", "fused")


@dataclass
class Thresholds:
    t_2d: float
    t_depth: float
    t_fusion: float
    gamma: float = 0.1

    def __post_init__(self):
        if min(self.t_2d, self.t_depth, self.t_fusion) < 0:
            raise ValueError("thresholds must be nonnegative")
        if self.gamma <= -1:
            raise ValueError("gamma must be > -1")


@dataclass
class MatchResult:
    record_id: str
    d_2d: float
    d_depth: float
    d_fused: float
    decision: str  # match-2d | match-depth | match-fused | no-match
    mode: str


def _values(fn: FeatureVector | np.ndarray) -> np.ndarray:
    v = fn.values if isinstance(fn, FeatureVector) else np.asarray(fn, dtype=np.float64)
    return v


def feature_distance(fn: FeatureVector | np.ndarray, fn_other: FeatureVector | np.ndarray) -> float:
    """Mean squared difference between two feature vectors."""
    a, b = _values(fn), _values(fn_other)
    if a.shape != b.shape:
        raise ValueError(f"feature length mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return float(diff.dot(diff)) / a.size


def fuse_scores(s1: float, s2: float, gamma: float = 0.1) -> float:
    """Attention-based fusion of two nonnegative scores.

    With x1 the sum and x2 the absolute difference of the reciprocal scores,
    the fused value is 1 / (0.5 * (x1 + x2 / (1 + gamma))). It is symmetric,
    strictly increasing in each score, bounded between min and harmonic mean
    (for gamma >= 0), and equals s when both scores are s. A zero score wins
    outright (fused value 0): a perfect component match should dominate,
    which is also the gamma-independent limit of the formula.
    """
    if s1 < 0 or s2 < 0:
        raise ValueError("scores must be nonnegative")
    if gamma <= -1:
        raise ValueError("gamma must be > -1")
    if s1 == 0 or s2 == 0:
        return 0.0
    x1 = 1.0 / s1 + 1.0 / s2
    x2 = abs(1.0 / s1 - 1.0 / s2)
    return 1.0 / (0.5 * (x1 + x2 / (1.0 + gamma)))


def fused_ber(b_2d: float, b_depth: float, gamma: float = 0.1) -> float:
    """Attention-based fusion applied to a pair of bit error rates."""
    if b_2d < 0 or b_depth < 0:
        raise ValueError("BER values must be nonnegative")
    return fuse_scores(b_2d, b_depth, gamma)


def score_record(
    q2d, qdepth, fn_2d, fn_depth, thresholds: Thresholds, mode: str
) -> tuple[float, float, float, str]:
    """Distances of a query against one record plus the match decision."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    d2d = feature_distance(q2d, fn_2d)
    ddep = feature_distance(qdepth, fn_depth)
    dfused = fuse_scores(d2d, ddep, thresholds.gamma)
    if mode == "fused":
        decision = "match-fused" if dfused < thresholds.t_fusion else "no-match"
    else:
        hit_2d = d2d < thresholds.t_2d
        hit_depth = ddep < thresholds.t_depth
        if hit_2d and hit_depth:
            decision = "match-2d" if d2d <= ddep else "match-depth"
        elif hit_2d:
            decision = "match-2d"
        elif hit_depth:
            decision = "match-depth"
        else:
            decision = "no-match"
    return d2d, ddep, dfused, decision


def _deciding_distance(r: MatchResult) -> float:
    if r.mode == "fused":
        return r.d_fused
    if r.decision == "match-2d":
        return r.d_2d
    if r.decision == "match-depth":
        return r.d_depth
    return min(r.d_2d, r.d_depth)


def match_query(q2d, qdepth, db, thresholds: Thresholds, mode: str = "independent") -> list[MatchResult]:
    """Scan the registry and return matching records, best first.

    Matching is strict (< threshold). Results are sorted ascending by the
    distance that decided the match (fused distance in fused mode, the
    matched channel's distance otherwise), with the record id as tiebreak.
    An empty registry yields an empty list.
    """
    results = []
    for record_id, fn_2d, fn_depth in db.iterate_features():
        d2d, ddep, dfused, decision = score_record(q2d, qdepth, fn_2d, fn_depth, thresholds, mode)
        if decision != "no-match":
            results.append(MatchResult(record_id, d2d, ddep, dfused, decision, mode))
    results.sort(key=lambda r: (_deciding_distance(r), r.record_id))
    return results


# ---------------------------------------------------------------------------
# threshold calibration
# ---------------------------------------------------------------------------

def zero_anchored_quantile(values, q: float) -> float:
    """Empirical quantile interpolated over nodes 0 <= x(1) <= ... <= x(n).

    The interpolation position is q*n, so tiny q yields a threshold well
    below the smallest observed score; q = 1 lands just above the maximum so
    that every observed score counts as strictly below the threshold.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n == 0:
        raise ValueError("no samples to calibrate on")
    p = q * n
    if p >= n:
        return float(np.nextafter(xs[-1], np.inf))
    nodes = np.concatenate([[0.0], xs])
    i = int(p)
    return float(nodes[i] + (p - i) * (nodes[i + 1] - nodes[i]))


def pairwise_distances(features: list[tuple[np.ndarray, np.ndarray]], gamma: float = 0.1):
    """Distances of all distinct record pairs, per channel and fused."""
    d2d, ddep, dfus = [], [], []
    for i in range(len(features)):
        for j in range(i + 1, len(features)):
            a = feature_distance(features[i][0], features[j][0])
            b = feature_distance(features[i][1], features[j][1])
            d2d.append(a)
            ddep.append(b)
            dfus.append(fuse_scores(a, b, gamma))
    return d2d, ddep, dfus


def calibrate_thresholds(db, target_pfp: float = 0.01, gamma: float = 0.1) -> Thresholds:
    """Set each threshold so the distinct-pair false-positive fraction hits the target.

    Uses all pairwise distances between features of distinct registered clips
    and the zero-anchored interpolated quantile above. Needs >= 2 records.
    """
    return calibration_report(db, target_pfp, gamma)[0]


def calibration_report(db, target_pfp: float = 0.01, gamma: float = 0.1):
    """Calibrate and report realized false-positive fractions per threshold."""
    features = [(fn2d, fndep) for _, fn2d, fndep in db.iterate_features()]
    if len(features) < 2:
        raise ValueError("calibration needs at least 2 registered clips")
    d2d, ddep, dfus = pairwise_distances(features, gamma)
    th = Thresholds(
        t_2d=zero_anchored_quantile(d2d, target_pfp),
        t_depth=zero_anchored_quantile(ddep, target_pfp),
        t_fusion=zero_anchored_quantile(dfus, target_pfp),
        gamma=gamma,
    )
    rows = []
    for name, value, scores in (
        ("t_2d", th.t_2d, d2d),
        ("t_depth", th.t_depth, ddep),
        ("t_fusion", th.t_fusion, dfus),
    ):
        realized = sum(1 for s in scores if s < value) / len(scores)
        rows.append({"threshold": name, "value": value, "target_pfp": target_pfp, "realized_pfp": realized})
    return th, rows


def write_calibration_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["threshold", "value", "target_pfp", "realized_pfp"])
        writer.writeheader()
        writer.writerows(rows)
