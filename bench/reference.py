"""Reference computations made apart from zw3d, used to check its outputs.

Each function restates one rule of the method from its definition (dense
arrays, no shared code with the package), so a check compares two
independent implementations rather than the program with itself.
"""

from __future__ import annotations

import math

import numpy as np

SIZE, FRAMES = 320, 100
RINGS, RING_WIDTH = 16, 10.0
TIRI_FRAMES = np.arange(5, 101, 5) - 1      # frames 5, 10, ..., 100 (1-based)
GAMMA = 0.1


# -- feature ------------------------------------------------------------------

def zscore(f: np.ndarray) -> np.ndarray:
    """Sample z-score (ddof 1); the zero vector when the spread is < 1e-12."""
    sd = f.std(ddof=1)
    return np.zeros_like(f) if sd < 1e-12 else (f - f.mean()) / sd


def dense_feature(volume: np.ndarray) -> np.ndarray:
    """Feature of a (320, 320, 100) volume, computed pixel by pixel.

    Reference image: mean of frames 5, 10, ..., 100.  Deviation of an
    interior pixel: the largest |reference(neighbour) - frame(pixel)| over
    its 8 neighbours.  Normalized deviation: arctan(deviation / reference),
    with 0 (no deviation) or pi/2 where the reference is 0.  Ring n holds the
    interior pixels at distance [10n, 10n + 10) from the frame centre;
    its value is the reference-weighted mean of the normalized deviations.
    """
    ref = volume[:, :, TIRI_FRAMES].mean(axis=2)
    inner = (slice(1, SIZE - 1), slice(1, SIZE - 1))
    neighbours = [ref[1 + dy:SIZE - 1 + dy, 1 + dx:SIZE - 1 + dx]
                  for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]
    t = ref[inner]
    coord = np.arange(2, SIZE, dtype=np.float64) - (SIZE + 1) / 2.0   # 1-based pixel centres
    ring = np.floor(np.hypot(coord[:, None], coord[None, :]) / RING_WIDTH).astype(np.int64)
    keep = ring < RINGS
    ring_k, t_k = ring[keep], t[keep]
    weight = np.bincount(ring_k, weights=t_k, minlength=RINGS)
    values = np.zeros((FRAMES, RINGS))
    for k in range(FRAMES):
        x = volume[:, :, k][inner]
        dev = np.max([np.abs(a - x) for a in neighbours], axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.where(t > 0, np.arctan(dev / t), np.where(dev > 0, math.pi / 2, 0.0))
        num = np.bincount(ring_k, weights=(t * theta)[keep], minlength=RINGS)
        values[k] = np.where(weight > 0, num / np.where(weight > 0, weight, 1.0), 0.0)
    return zscore(values.ravel())


# -- distances, fusion, matching ------------------------------------------------

def distances(stored: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Mean squared difference of each stored row against the query."""
    diff = stored - query[None, :]
    return np.einsum("ij,ij->i", diff, diff) / query.size


def fuse(s1, s2, gamma: float = GAMMA):
    """Attention fusion 1 / (0.5 (x1 + x2 / (1 + gamma))); 0 if either score is 0.

    x1 is the sum and x2 the absolute difference of the reciprocal scores.
    """
    s1, s2 = np.asarray(s1, dtype=np.float64), np.asarray(s2, dtype=np.float64)
    zero = (s1 == 0) | (s2 == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1, r2 = 1.0 / s1, 1.0 / s2
        out = 1.0 / (0.5 * ((r1 + r2) + np.abs(r1 - r2) / (1.0 + gamma)))
    return np.where(zero, 0.0, out)


def match(ids, d2d, ddep, thresholds: dict, mode: str):
    """Matches best first, as (id, d_2d, d_depth, d_fused, decision).

    A channel matches strictly below its threshold.  In independent mode a
    record matched on both channels is credited to the smaller distance (2d
    on a tie); the order is by the deciding distance, then by id.
    """
    dfus = fuse(d2d, ddep, thresholds.get("gamma", GAMMA))
    rows = []
    for rid, a, b, f in zip(ids, d2d, ddep, dfus):
        if mode == "fused":
            if f < thresholds["t_fusion"]:
                rows.append((f, rid, a, b, f, "match-fused"))
            continue
        hit_a, hit_b = a < thresholds["t_2d"], b < thresholds["t_depth"]
        if hit_a and (not hit_b or a <= b):
            rows.append((a, rid, a, b, f, "match-2d"))
        elif hit_b:
            rows.append((b, rid, a, b, f, "match-depth"))
    rows.sort(key=lambda r: (r[0], r[1]))
    return [(rid, float(a), float(b), float(f), decision) for _, rid, a, b, f, decision in rows]


def near_boundary(ids, d2d, ddep, thresholds: dict, rel: float = 1e-9) -> bool:
    """True when some distance sits within rounding of a threshold, where two
    correct summation orders may decide differently."""
    dfus = fuse(d2d, ddep, thresholds.get("gamma", GAMMA))
    for d, key in ((d2d, "t_2d"), (ddep, "t_depth"), (dfus, "t_fusion")):
        t = thresholds[key]
        if np.any(np.abs(np.asarray(d) - t) <= rel * max(t, 1e-300)):
            return True
    return False


# -- calibration ---------------------------------------------------------------

def pair_distances(f2d: np.ndarray, fdep: np.ndarray):
    """Per-channel and fused distances of every distinct record pair, i < j."""
    n = len(f2d)
    a, b = [], []
    for i in range(n - 1):
        a.append(distances(f2d[i + 1:], f2d[i]))
        b.append(distances(fdep[i + 1:], fdep[i]))
    a, b = np.concatenate(a), np.concatenate(b)
    return a, b, fuse(a, b)


def zero_anchored_quantile(scores: np.ndarray, q: float) -> float:
    """Quantile q interpolated over the nodes 0 <= x(1) <= ... <= x(n) at
    position q n; at q n >= n, the next float above the largest score."""
    xs = np.sort(scores)
    n = len(xs)
    p = q * n
    if p >= n:
        return float(np.nextafter(xs[-1], np.inf))
    nodes = np.concatenate([[0.0], xs])
    i = int(p)
    return float(nodes[i] + (p - i) * (nodes[i + 1] - nodes[i]))


def calibration(f2d: np.ndarray, fdep: np.ndarray, target: float = 0.01) -> dict:
    """Thresholds and realized false-positive fractions from all record pairs."""
    out = {}
    for key, scores in zip(("t_2d", "t_depth", "t_fusion"), pair_distances(f2d, fdep)):
        t = zero_anchored_quantile(scores, target)
        out[key] = (t, float(np.count_nonzero(scores < t)) / scores.size)
    return out


# -- (2,2) visual secret sharing ----------------------------------------------------

def master_share(feature: np.ndarray) -> np.ndarray:
    """80x80 share: bit 1 (above the lower median) -> diagonal 2x2 block,
    bit 0 -> anti-diagonal block, bits laid out row-major on 40x40."""
    t = np.sort(feature)[(feature.size - 1) // 2]
    bits = (feature > t).reshape(40, 40)
    share = np.zeros((80, 80), dtype=np.uint8)
    share[0::2, 0::2] = bits
    share[1::2, 1::2] = bits
    share[0::2, 1::2] = ~bits
    share[1::2, 0::2] = ~bits
    return share


def recover(feature: np.ndarray, ownership: np.ndarray) -> np.ndarray:
    """Watermark bits from stacking (AND) a master share with an ownership
    share: white where a 2x2 block keeps two white subpixels."""
    stacked = master_share(feature) & ownership
    sums = stacked[0::2, 0::2] + stacked[0::2, 1::2] + stacked[1::2, 0::2] + stacked[1::2, 1::2]
    return (sums >= 2).astype(np.uint8)


def ber(w: np.ndarray, w_rec: np.ndarray) -> float:
    return float(np.count_nonzero(w != w_rec)) / w.size


def read_watermark(path) -> np.ndarray:
    """40x40 watermark bits (1 = white) from a binary PBM (1 = black)."""
    data = open(path, "rb").read()
    fields, pos = [], 2
    if data[:2] != b"P4":
        raise ValueError(f"{path}: not a P4 bitmap")
    while len(fields) < 2:
        while data[pos:pos + 1].isspace():
            pos += 1
        end = pos
        while data[end:end + 1].isdigit():
            end += 1
        fields.append(int(data[pos:end]))
        pos = end
    w, h = fields
    rows = np.frombuffer(data[pos + 1:pos + 1 + h * ((w + 7) // 8)], dtype=np.uint8)
    bits = np.unpackbits(rows.reshape(h, -1), axis=1)[:, :w]
    return (1 - bits).astype(np.uint8)
