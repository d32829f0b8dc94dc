"""Distance scoring, attention-based fusion, and registry matching.

Two clips are compared channel-wise (2D frame features vs depth features) by
the normalized squared distance ``d(a, b) = ||a - b||^2 / n``. The two
channel scores can be fused by an attention-style combiner that leans toward
the stronger (smaller) score; ``fuse_scores`` gives its shape for each gamma.
The same combiner serves both distances and bit error rates. Matching
against the registry is flexible: either channel may match independently
against its own threshold, or the fused score is held against a fusion
threshold.

A query scores every record exactly, in blocks of ``BLOCK_ROWS``, with the
row kernel of ``feature_distance``. Calibration takes one Gram matrix
``F F^T`` per channel (``||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b``), gives
each score (fused ones too) one error bound, and rescores exactly every pair
whose score could, within it, be a quantile node or cross a threshold. So
both return what ``feature_distance`` and ``fuse_scores`` give on every pair.
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
BLOCK_ROWS = 256  # records per scored block in match_query
_U = np.finfo(np.float64).eps / 2  # unit roundoff
_SQ_NORM_MAX = np.finfo(np.float64).max / 8  # below it, no Gram or exact pair distance overflows


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


def _row_distances(diff: np.ndarray):
    """``||d||^2 / n`` for each row d of ``diff`` (a 0-d array for a vector):
    the one rounding of a distance, so every scoring path gives the same bits."""
    return np.vecdot(diff, diff) / diff.shape[-1]


def feature_distance(fn: FeatureVector | np.ndarray, fn_other: FeatureVector | np.ndarray) -> float:
    """Mean squared difference between two feature vectors."""
    a, b = feature_values(fn), feature_values(fn_other)
    if a.shape != b.shape:
        raise ValueError(f"feature length mismatch: {a.shape} vs {b.shape}")
    return float(_row_distances(a - b))


def _gram_eps(n: int, sq_norm):
    """A bound on the difference between a Gram distance of
    ``_channel_pair_distances`` and ``feature_distance`` for vectors of
    length n whose computed squared norms are at most ``sq_norm``.

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


def _fused_eps(fused: np.ndarray, eps_2d: float, eps_depth: float, gamma: float) -> float:
    """A bound on the difference between ``fused``, the ``_fuse`` of score
    pairs, and the ``_fuse`` of any pairs within ``eps_2d`` and ``eps_depth``.

    With k = 1 / (1 + gamma), a = (1 + k) / 2 and s1 <= s2, the formula is
    f = 1 / (a / s1 + (1 - a) / s2) <= s1 max(1, 1 / a), so its partial
    derivatives a (f / s1)^2 and (1 - a) (f / s2)^2 are at most max(a, 1 / a)
    for every gamma > -1, monotone or not. Each evaluation rounds by a
    relative (4 + 3k) u at most; (9 + 7k) u covers both, second order too.
    """
    k = 1.0 / (1.0 + gamma)
    a = (1.0 + k) / 2.0
    spread = max(a, 1.0 / a) * (eps_2d + eps_depth)
    return spread + (9.0 + 7.0 * k) * _U * (float(fused.max()) + spread)


def fuse_scores(s1: float, s2: float, gamma: float = GAMMA) -> float:
    """Attention-based fusion of two nonnegative scores.

    With x1 the sum and x2 the absolute difference of the reciprocal scores,
    the fused value is 1 / (0.5 * (x1 + x2 / (1 + gamma))), symmetric, and s
    when both scores are s. For gamma > 0 it is strictly increasing in each
    score, between the min and the harmonic mean; gamma = 0 gives the min;
    for -1 < gamma < 0 it is below the min and falls as the larger score
    grows. A zero score wins outright (fused value 0): a perfect component
    match should dominate, which is also the gamma-independent limit.
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
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    queries = (feature_values(q2d), feature_values(qdepth))
    shapes = tuple(q.shape for q in queries)
    blocks = tuple(np.empty((BLOCK_ROWS, *shape)) for shape in shapes)
    ids: list[str] = []
    results: list[MatchResult] = []
    for record_id, fn_2d, fn_depth in db.iterate_features():
        if (np.shape(fn_2d), np.shape(fn_depth)) != shapes:
            raise ValueError(f"feature length mismatch: query {shapes}, record {record_id!r}")
        blocks[0][len(ids)], blocks[1][len(ids)] = fn_2d, fn_depth
        ids.append(record_id)
        if len(ids) == BLOCK_ROWS:
            results += _match_block(queries, blocks, ids, thresholds, mode)
            ids = []
    if ids:
        results += _match_block(queries, blocks, ids, thresholds, mode)
    results.sort(key=lambda r: ((r.d_2d, r.d_depth, r.d_fused)[DECISIONS.index(r.decision) - 1],
                                r.record_id))
    return results


def _match_block(queries, blocks, ids, thresholds: Thresholds, mode: str) -> list[MatchResult]:
    """Matches among the first ``len(ids)`` buffered records: the query is
    subtracted from the buffer in place, each row scored by ``_row_distances``.
    A NaN distance (a NaN component, or the query's infinity in the record)
    raises ``ValueError`` naming the record: no decision can be made on it."""
    dists = []
    for q, block in zip(queries, blocks):
        rows = np.subtract(block[: len(ids)], q, out=block[: len(ids)])
        d = _row_distances(rows)
        if np.isnan(d).any():
            raise ValueError(f"distance to record {ids[np.isnan(d).argmax()]!r} is NaN")
        dists.append(d)
    fused = _fuse(*dists, thresholds.gamma)
    decisions = _decide(*dists, fused, thresholds, mode)
    return [MatchResult(ids[k], float(dists[0][k]), float(dists[1][k]), float(fused[k]),
                        DECISIONS[decisions[k]], mode) for k in np.flatnonzero(decisions)]


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
    return _exact_quantile(x, 0.0, x.__getitem__, q)[0]


def _channel_pair_distances(f: np.ndarray) -> tuple[np.ndarray, float]:
    """Gram distances ``(||a||^2 + ||b||^2 - 2 a.b) / n``, clamped at 0, of
    all record pairs i < j (row-major) of one channel's (records, n) feature
    matrix, and their error bound."""
    gram = f @ f.T
    sq = gram.diagonal().copy()
    n_rec, n = f.shape
    out = np.empty(n_rec * (n_rec - 1) // 2)
    start = 0
    for i in range(n_rec - 1):
        out[start : start + n_rec - 1 - i] = np.maximum((sq[i] + sq[i + 1 :] - 2.0 * gram[i, i + 1 :]) / n,
                                                        0.0)
        start += n_rec - 1 - i
    return out, _gram_eps(n, sq.max())


def _exact_quantile(x_hat: np.ndarray, eps: float, exact, q: float) -> tuple[float, float]:
    """Zero-anchored quantile t of n scores x known as |x - x_hat| <= eps, and
    the fraction of x strictly below t. This is the only code that reads order
    statistics: t interpolates x(i) and x(i + 1), i = int(q n), with x(0) = 0,
    or is the next float above x(n) when q n >= n.

    ``exact(idx)`` returns the exact scores of the entries ``idx``. The k-th
    smallest x lies within eps of the k-th smallest x_hat, so an entry with
    x_hat + eps below the first node's lower end sits below it and one with
    x_hat - eps above the last node's upper end sits above it. Only the
    entries in between, and those within eps of t, are rescored; rounding is
    monotone, so the ends stay ends in floating point. NaN scores raise
    ``ValueError``.
    """
    if np.isnan(x_hat).any():
        raise ValueError("scores must not be NaN")
    n, p = x_hat.size, q * x_hat.size
    i = int(p)
    k1, k2 = min(max(i, 1), n), min(i + 1, n)  # the first and last node read
    floor, ceiling = np.partition(x_hat, (k1 - 1, k2 - 1))[[k1 - 1, k2 - 1]] + [-eps, eps]
    below = np.count_nonzero(x_hat + eps < floor)
    nodes = np.sort(exact(np.flatnonzero((x_hat + eps >= floor) & (x_hat - eps <= ceiling))))

    def x(k):  # the k-th smallest score, k1 <= k <= k2
        return nodes[k - 1 - below]

    if p >= n:
        t = float(np.nextafter(x(n), np.inf))
    else:
        lower = x(i) if i else 0.0
        t = float(lower + (p - i) * (x(i + 1) - lower))
    undecided = np.flatnonzero((x_hat - eps < t) & (x_hat + eps >= t))
    count = int(np.count_nonzero(x_hat + eps < t)) + int(np.count_nonzero(exact(undecided) < t))
    return t, count / n


def calibration_report(db, target_pfp: float = TARGET_PFP, gamma: float = GAMMA):
    """Calibrate and report realized false-positive fractions per threshold.

    Each threshold is the zero-anchored quantile at ``target_pfp`` of one
    score over all pairs of distinct records; at least 2 records are needed.
    The scan copies each record's two features out of its read buffer, so
    no buffer (with its shares and watermarks) outlives its record, and pair
    distances come from one Gram matrix per channel. The pairs whose score
    could, within its bound (``_gram_eps``, or ``_fused_eps`` when fused), be
    a quantile node or fall on the other side of a threshold are rescored
    with ``feature_distance`` and ``_fuse``, so thresholds and rates are
    those of the exact scores of every pair. A record with a NaN or infinite
    component, or a squared norm of ``_SQ_NORM_MAX`` or more, raises
    ``ValueError`` naming it: its distances are not finite.
    """
    _check_quantile(target_pfp)
    features = []
    for record_id, *fns in db.iterate_features():
        features.append(np.array(fns, dtype=np.float64))
        if not (np.vecdot(features[-1], features[-1]) < _SQ_NORM_MAX).all():
            raise ValueError(f"record {record_id!r} has a NaN, infinite or too large feature component")
    if len(features) < 2:
        raise ValueError("calibration needs at least 2 registered clips")
    dists, eps = zip(*(_channel_pair_distances(np.array([f[c] for f in features])) for c in (0, 1)))
    scores = (*dists, _fuse(*dists, gamma))
    bounds = (*eps, _fused_eps(scores[2], *eps, gamma))
    starts = np.concatenate([[0], np.cumsum(np.arange(len(features) - 1, 0, -1))])  # row i's first pair

    def exact(channel, idx):
        """Exact scores of the pairs ``idx`` on channel 0 (2D), 1 (depth) or 2 (fused)."""
        if channel == 2:
            return _fuse(exact(0, idx), exact(1, idx), gamma)
        rows = np.searchsorted(starts, idx, side="right") - 1
        pairs = zip(rows, idx - starts[rows] + rows + 1)
        return np.array([feature_distance(features[i][channel], features[j][channel]) for i, j in pairs])

    results = [_exact_quantile(scores[c], bounds[c], functools.partial(exact, c), target_pfp) for c in range(3)]
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
