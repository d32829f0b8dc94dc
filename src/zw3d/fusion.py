"""Distance scoring, attention-based fusion, and registry matching.

Two clips are compared channel-wise (2D frame features vs depth features) by
the normalized squared distance ``d(a, b) = ||a - b||^2 / n``. The two
channel scores can be fused by an attention-style combiner that leans toward
the stronger (smaller) score while staying strictly monotone in both
arguments; the same combiner serves both distances and bit error rates.
Matching against the registry is flexible: either channel may match
independently against its own threshold, or the fused score is held against a
fusion threshold.

Retrieval and calibration are linear algebra on the identity
``||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b``. A query streams
``db.iterate_features()`` in blocks of ``BLOCK_ROWS`` records into
preallocated buffers and scores each block with one matrix-vector product per
channel; calibration takes one Gram matrix ``F F^T`` per channel over all
records. A Gram distance differs from the exact ``feature_distance`` (the
difference vector dotted with itself) by at most the bound of ``_gram_eps``.
Every record or pair whose Gram distance, moved by that bound, could change a
decision, a quantile node or a realized rate is rescored exactly, so
``match_query`` and ``calibration_report`` return exactly what scoring every
record and every pair with ``score_record`` and ``feature_distance`` returns.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from .features import FeatureVector, feature_values

MODES = ("independent", "fused")
DECISIONS = ("no-match", "match-2d", "match-depth", "match-fused")  # a match's index - 1 picks its distance
GAMMA = 0.1  # default fusion gamma
TARGET_PFP = 0.01  # default calibration target for the false-positive fraction
BLOCK_ROWS = 256  # records per matrix-vector product in match_query
_U = np.finfo(np.float64).eps / 2  # unit roundoff


@dataclass
class Thresholds:
    """Per-channel and fused match thresholds plus the fusion gamma. A score
    matches when it is strictly below its threshold, so a threshold of +inf
    matches every finite score. A NaN threshold or gamma raises ValueError."""

    t_2d: float
    t_depth: float
    t_fusion: float
    gamma: float = GAMMA

    def __post_init__(self):
        if np.isnan([self.t_2d, self.t_depth, self.t_fusion, self.gamma]).any():
            raise ValueError("thresholds and gamma must not be NaN")
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


def feature_distance(fn: FeatureVector | np.ndarray, fn_other: FeatureVector | np.ndarray) -> float:
    """Mean squared difference between two feature vectors."""
    a, b = feature_values(fn), feature_values(fn_other)
    if a.shape != b.shape:
        raise ValueError(f"feature length mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return float(diff.dot(diff)) / a.size


def _gram_distances(sq_a, sq_b, dots, n: int) -> np.ndarray:
    """``(||a||^2 + ||b||^2 - 2 a.b) / n`` from squared norms and dot
    products, clamped at 0 (a true distance is never negative)."""
    return np.maximum((sq_a + sq_b - 2.0 * dots) / n, 0.0)


def _gram_eps(n: int, sq_norm):
    """A bound on the difference between a ``_gram_distances`` value and
    ``feature_distance`` for vectors of length n whose computed squared norms
    are at most ``sq_norm``.

    With u the unit roundoff and g_m = m u / (1 - m u), a dot product of n
    terms, summed in any order, errs by at most g_n sum |x_k y_k|. So both
    fl((a - b).(a - b)) / n and the Gram form lie within
    g_{n+4} (||a|| + ||b||)^2 / n <= 4 g_{n+4} r^2 / n of ||a - b||^2 / n,
    where r bounds ||a|| and ||b||, and they differ by at most
    8 g_{n+4} r^2 / n. The computed squared norms may read low by a factor
    1 - g_n; 9 (n + 5) u sq_norm / n covers both factors while n u < 1e-3.
    """
    return 9.0 * (n + 5) * _U * sq_norm / n


def _fuse(s1, s2, gamma: float):
    """The fusion formula of ``fuse_scores``, elementwise over arrays; a
    score at or below 0 gives 0."""
    if gamma <= -1:
        raise ValueError("gamma must be > -1")
    s1, s2 = np.asarray(s1, dtype=np.float64), np.asarray(s2, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1, r2 = 1.0 / s1, 1.0 / s2
        fused = 1.0 / (0.5 * ((r1 + r2) + np.abs(r1 - r2) / (1.0 + gamma)))
    return np.where((s1 <= 0) | (s2 <= 0), 0.0, fused)


def _fused_bound(a, b, gamma: float, side: int):
    """A bound on the computed ``fuse_scores`` of any pair of nonnegative
    scores within the given ones: the lower bound (``side`` -1) at the
    scores' lower ends, the upper bound (``side`` +1) at their upper ends.

    The formula is increasing in each score, so its values at the ends bound
    it. Each evaluation rounds by a relative (4 + 3 / (1 + gamma)) u at most
    (the difference of the reciprocals is what 1 + gamma can amplify); the
    slack covers the evaluation here and the one it bounds.
    """
    return _fuse(a, b, gamma) * (1.0 + side * 16.0 * _U * (1.0 + 1.0 / (1.0 + gamma)))


def fuse_scores(s1: float, s2: float, gamma: float = GAMMA) -> float:
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
    return float(_fuse(s1, s2, gamma))


def _decide(d2d, ddep, dfused, thresholds: Thresholds, mode: str) -> np.ndarray:
    """The match decision for each record's distances, as an index into
    ``DECISIONS``. Matching is strict (< threshold). In fused mode the fused
    distance decides; otherwise either channel may match, and when both do
    the smaller distance decides, 2D on a tie."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "fused":
        return np.where(np.less(dfused, thresholds.t_fusion), 3, 0)
    # np.less, not <, so that Python floats give numpy booleans for ~
    hit_2d, hit_depth = np.less(d2d, thresholds.t_2d), np.less(ddep, thresholds.t_depth)
    return np.where(hit_2d & (~hit_depth | np.less_equal(d2d, ddep)), 1, np.where(hit_depth, 2, 0))


def score_record(
    q2d, qdepth, fn_2d, fn_depth, thresholds: Thresholds, mode: str
) -> tuple[float, float, float, str]:
    """Distances of a query against one record plus the match decision."""
    d2d = feature_distance(q2d, fn_2d)
    ddep = feature_distance(qdepth, fn_depth)
    dfused = fuse_scores(d2d, ddep, thresholds.gamma)
    return d2d, ddep, dfused, DECISIONS[_decide(d2d, ddep, dfused, thresholds, mode)]


def match_query(q2d, qdepth, db, thresholds: Thresholds, mode: str = "independent") -> list[MatchResult]:
    """Scan the registry and return matching records, best first.

    Matching is strict (< threshold). Results are sorted ascending by the
    distance that decided the match (fused distance in fused mode, the
    matched channel's distance otherwise), with the record id as tiebreak.
    An empty registry yields an empty list. A record whose distance to the
    query is NaN raises ``ValueError`` in either mode.

    Records are scored ``BLOCK_ROWS`` at a time by one matrix-vector product
    per channel. A record goes on to the exact ``score_record`` when its Gram
    distances, lowered by their error bound, could still pass the decision;
    no other record can match, so the results are those of scoring every
    record exactly.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    shapes = (feature_values(q2d).shape, feature_values(qdepth).shape)
    blocks = (np.empty((BLOCK_ROWS, *shapes[0])), np.empty((BLOCK_ROWS, *shapes[1])))
    ids: list[str] = []
    results: list[MatchResult] = []
    for record_id, fn_2d, fn_depth in db.iterate_features():
        if (np.shape(fn_2d), np.shape(fn_depth)) != shapes:
            raise ValueError(f"feature length mismatch: query {shapes}, record {record_id!r}")
        blocks[0][len(ids)], blocks[1][len(ids)] = fn_2d, fn_depth
        ids.append(record_id)
        if len(ids) == BLOCK_ROWS:
            results += _match_block(q2d, qdepth, blocks, ids, thresholds, mode)
            ids = []
    if ids:
        results += _match_block(q2d, qdepth, blocks, ids, thresholds, mode)
    results.sort(key=lambda r: ((r.d_2d, r.d_depth, r.d_fused)[DECISIONS.index(r.decision) - 1],
                                r.record_id))
    return results


def _match_block(q2d, qdepth, blocks, ids, thresholds: Thresholds, mode: str) -> list[MatchResult]:
    """Matches among the first ``len(ids)`` buffered records: a Gram lower
    bound on each channel's distance, then ``score_record`` for every record
    the bounds cannot rule out. A NaN distance (a feature holding NaN or an
    infinity) raises ``ValueError`` naming the record, since no decision can
    be made on it."""
    lows = []
    for q, block in zip((feature_values(q2d), feature_values(qdepth)), blocks):
        rows = block[: len(ids)]
        sq_q, sq = q.dot(q), np.einsum("ij,ij->i", rows, rows)
        low = _gram_distances(sq_q, sq, rows @ q, q.size) - _gram_eps(q.size, np.maximum(sq_q, sq))
        if np.isnan(low).any():
            raise ValueError(f"distance to record {ids[np.isnan(low).argmax()]!r} is NaN")
        lows.append(low)
    out = []
    for k in np.flatnonzero(_decide(*lows, _fused_bound(*lows, thresholds.gamma, -1), thresholds, mode)):
        d2d, ddep, dfused, decision = score_record(q2d, qdepth, blocks[0][k], blocks[1][k], thresholds, mode)
        if decision != "no-match":
            out.append(MatchResult(ids[k], d2d, ddep, dfused, decision, mode))
    return out


# ---------------------------------------------------------------------------
# threshold calibration
# ---------------------------------------------------------------------------

def _check_quantile(q: float) -> None:
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")


def zero_anchored_quantile(values, q: float) -> float:
    """Empirical quantile interpolated over nodes 0 <= x(1) <= ... <= x(n).

    The interpolation position is q*n, so tiny q yields a threshold well
    below the smallest observed score; q = 1 lands just above the maximum so
    that every observed score counts as strictly below the threshold.
    """
    _check_quantile(q)
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("no samples to calibrate on")
    return _exact_quantile(x, x, x.__getitem__, q)[0]


def _channel_pair_distances(f: np.ndarray) -> tuple[np.ndarray, float]:
    """Gram distances of all record pairs i < j (row-major) of one channel's
    (records, n) feature matrix, and their error bound."""
    gram = f @ f.T
    sq = gram.diagonal().copy()
    n_rec, n = f.shape
    out = np.empty(n_rec * (n_rec - 1) // 2)
    start = 0
    for i in range(n_rec - 1):
        out[start : start + n_rec - 1 - i] = _gram_distances(sq[i], sq[i + 1 :], gram[i, i + 1 :], n)
        start += n_rec - 1 - i
    return out, _gram_eps(n, sq.max())


def _exact_quantile(lo: np.ndarray, hi: np.ndarray, exact, q: float) -> tuple[float, float]:
    """Zero-anchored quantile t of n scores x known as lo <= x <= hi, and the
    fraction of x strictly below t. This is the only code that reads order
    statistics: t interpolates x(i) and x(i + 1), i = int(q n), with x(0) = 0,
    or is the next float above x(n) when q n >= n.

    ``exact(idx)`` returns the exact scores of the entries ``idx``. The k-th
    smallest x lies between the k-th smallest lo and the k-th smallest hi, so
    an entry with hi below the first node's lower bound sits below it and one
    with lo above the last node's upper bound sits above it. Only the entries
    in between, and those whose interval holds t, are rescored. NaN bounds
    raise ``ValueError``.
    """
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError("scores must not be NaN")
    n, p = lo.size, q * lo.size
    i = int(p)
    k1, k2 = min(max(i, 1), n), min(i + 1, n)  # the first and last node read
    floor = np.partition(lo, k1 - 1)[k1 - 1]
    ceiling = np.partition(hi, k2 - 1)[k2 - 1]
    below = np.count_nonzero(hi < floor)
    nodes = np.sort(exact(np.flatnonzero((hi >= floor) & (lo <= ceiling))))

    def x(k):  # the k-th smallest score, k1 <= k <= k2
        return nodes[k - 1 - below]

    if p >= n:
        t = float(np.nextafter(x(n), np.inf))
    else:
        lower = x(i) if i else 0.0
        t = float(lower + (p - i) * (x(i + 1) - lower))
    undecided = np.flatnonzero((lo < t) & (hi >= t))
    count = int(np.count_nonzero(hi < t)) + int(np.count_nonzero(exact(undecided) < t))
    return t, count / n


def calibration_report(db, target_pfp: float = TARGET_PFP, gamma: float = GAMMA):
    """Calibrate and report realized false-positive fractions per threshold.

    Each threshold is the zero-anchored quantile at ``target_pfp`` of one
    score over all pairs of distinct records; at least 2 records are needed.
    The scan copies each record's two features out of its read buffer, so
    no buffer (with its shares and watermarks) outlives its record, and pair
    distances come from one Gram matrix per channel. The pairs whose distance
    could, within the Gram error bound, be a quantile node or fall on the
    other side of a threshold are rescored with ``feature_distance`` (and
    ``_fuse``, the array form of ``fuse_scores``), so thresholds and rates
    are those of the exact distances of every pair.
    """
    _check_quantile(target_pfp)
    features = [np.array(row[1:], dtype=np.float64) for row in db.iterate_features()]
    if len(features) < 2:
        raise ValueError("calibration needs at least 2 registered clips")
    dists, eps = zip(*(_channel_pair_distances(np.array([f[c] for f in features])) for c in (0, 1)))
    starts = np.concatenate([[0], np.cumsum(np.arange(len(features) - 1, 0, -1))])  # row i's first pair

    def exact(channel, idx):
        """Exact scores of the pairs ``idx`` on channel 0 (2D), 1 (depth) or 2 (fused)."""
        if channel == 2:
            return _fuse(exact(0, idx), exact(1, idx), gamma)
        rows = np.searchsorted(starts, idx, side="right") - 1
        pairs = zip(rows, idx - starts[rows] + rows + 1)
        return np.array([feature_distance(features[i][channel], features[j][channel]) for i, j in pairs],
                        dtype=np.float64)

    def bound(channel, side):
        """Lower (side -1) or upper (side +1) bounds on the scores of every pair."""
        if channel == 2:
            return _fused_bound(bound(0, side), bound(1, side), gamma, side)
        return dists[channel] + side * eps[channel]

    # one threshold's bounds at a time: each call's arrays are freed on return
    results = [_exact_quantile(bound(c, -1), bound(c, +1), functools.partial(exact, c), target_pfp)
               for c in range(3)]
    rows = [
        {"threshold": name, "value": value, "target_pfp": target_pfp, "realized_pfp": realized}
        for name, (value, realized) in zip(("t_2d", "t_depth", "t_fusion"), results)
    ]
    th = Thresholds(*(row["value"] for row in rows), gamma=gamma)
    return th, rows


def write_calibration_csv(path, rows) -> None:
    """Write ``calibration_report``'s rows, one threshold per line."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["threshold", "value", "target_pfp", "realized_pfp"])
        writer.writeheader()
        writer.writerows(rows)


def read_calibration_csv(path) -> dict[str, float]:
    """Threshold values by name from a CSV in ``write_calibration_csv``'s
    format. A missing ``threshold`` or ``value`` column or a bad value raises
    ``ValueError``; text that is not UTF-8 raises ``UnicodeDecodeError``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for column in ("threshold", "value"):
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"thresholds CSV {path} has no {column!r} column")
        return {row["threshold"]: float(row["value"] or "") for row in reader}
