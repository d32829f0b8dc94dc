"""False-positive/false-negative estimation, DET curves, and BER tables.

Score populations follow the retrieval semantics: *impostor* scores are
distances between distinct registered clips (a score below threshold is a
false positive), *genuine* scores are distances between a clip and its own
attacked version (a score at or above threshold is a false negative).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .fusion import GAMMA, fuse_scores
from .shares import ber, recover_from_feature

CHANNELS = ("2d", "depth", "fused")


@dataclass
class DetPoint:
    threshold: float
    pfp: float
    pfn: float


def _scores(genuine_scores, impostor_scores) -> tuple[np.ndarray, np.ndarray]:
    genuine = np.asarray(genuine_scores, dtype=np.float64)
    impostor = np.asarray(impostor_scores, dtype=np.float64)
    if genuine.size == 0 or impostor.size == 0:
        raise ValueError("score lists must be nonempty")
    if np.isnan(genuine).any() or np.isnan(impostor).any():
        raise ValueError("scores must not be NaN")
    return genuine, impostor


def _rates(genuine: np.ndarray, impostor: np.ndarray, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """(false-positive, false-negative) fractions at each threshold, counted
    on the sorted scores: impostors < t and genuines >= t."""
    false_pos = np.searchsorted(np.sort(impostor), thresholds, side="left")
    false_neg = genuine.size - np.searchsorted(np.sort(genuine), thresholds, side="left")
    return false_pos / impostor.size, false_neg / genuine.size


def compute_rates(genuine_scores, impostor_scores, threshold: float) -> tuple[float, float]:
    """(false-positive, false-negative) fractions at one threshold.

    A match requires score < threshold, so impostors strictly below count as
    false positives and genuines at or above count as false negatives. Scores
    and the threshold may be infinite and keep their order: a +inf score
    never matches a finite threshold, a -inf score matches every threshold
    above it. NaN raises ``ValueError``.
    """
    genuine, impostor = _scores(genuine_scores, impostor_scores)
    if np.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    pfp, pfn = _rates(genuine, impostor, threshold)
    return float(pfp), float(pfn)


def det_curve(genuine_scores, impostor_scores) -> list[DetPoint]:
    """Sweep thresholds over the merged score set (plus both extremes).

    For finite nonnegative scores (distances) the first point is (pfp=0,
    pfn=1) and the last (pfp=1, pfn=0); pfp is nondecreasing and pfn
    nonincreasing along the curve. Infinite scores keep their order as in
    ``compute_rates``, so a +inf genuine score stays a false negative at the
    last point; NaN raises ``ValueError``. Both score lists are sorted once,
    so the sweep costs O(N log N).
    """
    genuine, impostor = _scores(genuine_scores, impostor_scores)
    merged = np.unique(np.concatenate([genuine, impostor]))
    thresholds = np.unique(np.concatenate([[0.0], merged, [np.nextafter(merged[-1], np.inf)]]))
    pfp, pfn = _rates(genuine, impostor, thresholds)
    return [DetPoint(*point) for point in zip(thresholds.tolist(), pfp.tolist(), pfn.tolist())]


# ---------------------------------------------------------------------------
# identification scores, and BER tables over an attacked-feature corpus
# ---------------------------------------------------------------------------

def identify_record(rec, fn_2d, fn_depth, gamma: float):
    """Both watermarks recovered from a suspect's features against ``rec``'s
    ownership shares, and their BERs against its stored ones, fused last:
    ``((w_2d, w_depth), (ber_2d, ber_depth, ber_fused))``."""
    w_2d = recover_from_feature(fn_2d, rec.o_2d)
    w_depth = recover_from_feature(fn_depth, rec.o_depth)
    b2d, bdep = ber(rec.w_2d, w_2d), ber(rec.w_depth, w_depth)
    return (w_2d, w_depth), (b2d, bdep, fuse_scores(b2d, bdep, gamma))


# A corpus is an iterable of (clip_id, attack_name, fn_2d, fn_depth) holding
# the features extracted from the attacked 2D and depth channels of a
# registered clip.

def ber_table(db, corpus, gamma: float = GAMMA, attack_order=None) -> list[dict]:
    """Mean watermark-recovery BER per (attack, channel) over a corpus.

    Each corpus entry is scored by ``identify_record`` against its clip's
    record. Rows come out one per (attack, channel) with channels 2d,
    depth, and fused (per-clip fusion, then mean), ordered by
    ``attack_order`` when given, else by first appearance.
    """
    per_attack: dict[str, list[tuple[float, float, float]]] = {}
    for clip_id, attack, fn2d, fndep in corpus:
        _, bers = identify_record(db.get_record(clip_id), fn2d, fndep, gamma)
        per_attack.setdefault(attack, []).append(bers)
    names = list(per_attack)
    if attack_order is not None:
        ordered = [a for a in attack_order if a in per_attack]
        names = ordered + [a for a in names if a not in ordered]
    rows = []
    for attack in names:
        triples = np.array(per_attack[attack], dtype=np.float64)
        for ci, channel in enumerate(CHANNELS):
            rows.append({
                "attack": attack,
                "channel": channel,
                "mean_ber": float(triples[:, ci].mean()),
                "n": len(triples),
            })
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_det_csv(path, points: list[DetPoint]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "pfp", "pfn"])
        for p in points:
            writer.writerow([repr(p.threshold), repr(p.pfp), repr(p.pfn)])


def write_ber_csv(path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["attack", "channel", "mean_ber", "n"])
        writer.writeheader()
        writer.writerows(rows)
