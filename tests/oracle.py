"""Brute-force reference implementation of frame resampling, the feature
pipeline, and retrieval and calibration.

Deliberately written as plain Python loops with no vectorization so it cannot
share bugs with the production code. The feature stages are only used on
reduced geometries, the resampling on single frames. A retrieval distance is
the difference vector dotted with itself, over n, one pair at a time: the one
rounding order the production's exact path also uses, so results compare
with ``==``.
"""

import math

import numpy as np


def brute_tiri(volume, params):
    size, _ = volume.shape[0], volume.shape[2]
    out = np.zeros((size, size))
    ks = [params.tiri_stride * m for m in range(1, params.tiri_samples + 1)]
    for i in range(size):
        for j in range(size):
            acc = 0.0
            for k in ks:
                acc += volume[i, j, k - 1]
            out[i, j] = acc / len(ks)
    return out


def brute_deviation(volume, tiri):
    size, frames = volume.shape[0], volume.shape[2]
    out = np.zeros((size, size, frames))
    for i in range(1, size - 1):
        for j in range(1, size - 1):
            for k in range(frames):
                best = 0.0
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        if di == 0 and dj == 0:
                            continue
                        d = abs(tiri[i + di, j + dj] - volume[i, j, k])
                        if d > best:
                            best = d
                out[i, j, k] = best
    return out


def brute_normalize(dev, tiri):
    size, frames = dev.shape[0], dev.shape[2]
    out = np.zeros((size, size, frames))
    for i in range(size):
        for j in range(size):
            for k in range(frames):
                t = tiri[i, j]
                d = dev[i, j, k]
                if t == 0.0:
                    out[i, j, k] = math.pi / 2 if d > 0 else 0.0
                else:
                    out[i, j, k] = math.atan(d / t)
    return out


def brute_ring(i, j, params):
    """Ring of 1-based pixel (i, j), or -1 when outside the last ring."""
    c = (params.size + 1) / 2.0
    dist = math.sqrt((i - c) ** 2 + (j - c) ** 2)
    n = int(dist // params.ring_width)
    return n if n < params.ring_count else -1


def brute_centroids(norm, tiri, params):
    frames = norm.shape[2]
    f = []
    for k in range(frames):
        vals = []
        for n in range(params.ring_count):
            num = 0.0
            den = 0.0
            for i in range(2, params.size):        # 1-based interior 2..size-1
                for j in range(2, params.size):
                    if brute_ring(i, j, params) != n:
                        continue
                    w = tiri[i - 1, j - 1]
                    num += w * norm[i - 1, j - 1, k]
                    den += w
            vals.append(num / den if den > 0 else 0.0)
        f.extend(vals)
    return np.array(f)


def brute_zscore(f):
    n = len(f)
    mu = sum(f) / n
    var = sum((x - mu) ** 2 for x in f) / (n - 1)
    sigma = math.sqrt(var)
    if sigma < 1e-12:
        return np.zeros(n), True
    return np.array([(x - mu) / sigma for x in f]), False


def brute_extract(volume, params):
    tiri = brute_tiri(volume, params)
    dev = brute_deviation(volume, tiri)
    norm = brute_normalize(dev, tiri)
    f = brute_centroids(norm, tiri, params)
    fn, degenerate = brute_zscore(f)
    return fn, degenerate


def brute_resample(plane, size, smooth, sigma=0.5):
    """One frame plane resampled to size x size: center-aligned bilinear,
    then (when ``smooth``) the 3x3 Gaussian with replicate borders."""
    h, w = len(plane), len(plane[0])

    def taps(n_src, x):
        s = (x + 0.5) * n_src / size - 0.5
        s = min(max(s, 0.0), n_src - 1.0)
        lo = int(math.floor(s))
        return lo, min(lo + 1, n_src - 1), s - lo

    rows = [taps(h, y) for y in range(size)]
    cols = [taps(w, x) for x in range(size)]
    out = [[0.0] * size for _ in range(size)]
    for y, (y0, y1, fy) in enumerate(rows):
        for x, (x0, x1, fx) in enumerate(cols):
            top = plane[y0][x0] * (1 - fx) + plane[y0][x1] * fx
            bot = plane[y1][x0] * (1 - fx) + plane[y1][x1] * fx
            out[y][x] = top * (1 - fy) + bot * fy
    if not smooth:
        return np.array(out)
    e = math.exp(-1.0 / (2.0 * sigma * sigma))
    k = {-1: e / (1 + 2 * e), 0: 1 / (1 + 2 * e), 1: e / (1 + 2 * e)}
    last = size - 1
    smoothed = [[0.0] * size for _ in range(size)]
    for y in range(size):
        for x in range(size):
            acc = 0.0
            for a in (-1, 0, 1):
                row = out[min(max(y + a, 0), last)]
                for b in (-1, 0, 1):
                    acc += k[a] * k[b] * row[min(max(x + b, 0), last)]
            smoothed[y][x] = acc
    return np.array(smoothed)


def brute_distance(a, b):
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.dot(diff, diff)) / len(diff)


def brute_fuse(s1, s2, gamma):
    if s1 == 0 or s2 == 0:
        return 0.0
    x1 = 1.0 / s1 + 1.0 / s2
    x2 = abs(1.0 / s1 - 1.0 / s2)
    return 1.0 / (0.5 * (x1 + x2 / (1.0 + gamma)))


def brute_pair_distances(features, gamma=0.1):
    """(2d, depth, fused) distance lists over all pairs i < j, row-major."""
    d2d, ddep, dfus = [], [], []
    for i in range(len(features)):
        for j in range(i + 1, len(features)):
            a = brute_distance(features[i][0], features[j][0])
            b = brute_distance(features[i][1], features[j][1])
            d2d.append(a)
            ddep.append(b)
            dfus.append(brute_fuse(a, b, gamma))
    return d2d, ddep, dfus


def brute_calibration(features, q, gamma=0.1):
    """{name: (threshold, realized fraction)}: the quantile interpolated at
    position q*n over the nodes 0, x(1), ..., x(n) (just above x(n) once
    q*n >= n), and the fraction of scores strictly below it."""
    out = {}
    for name, scores in zip(("t_2d", "t_depth", "t_fusion"), brute_pair_distances(features, gamma)):
        nodes = [0.0] + sorted(scores)
        n = len(scores)
        p = q * n
        if p >= n:
            t = float(np.nextafter(nodes[n], math.inf))
        else:
            i = int(p)
            t = nodes[i] + (p - i) * (nodes[i + 1] - nodes[i])
        out[name] = (t, sum(1 for s in scores if s < t) / n)
    return out


def brute_match(q2d, qdep, rows, t_2d, t_depth, t_fusion, gamma, mode):
    """Matches of a query against (id, fn_2d, fn_depth) rows, best first, as
    (id, d_2d, d_depth, d_fused, decision): strict thresholds; in independent
    mode a record matched on both channels goes to the smaller distance (2d
    on a tie); ordered by the deciding distance, then the id."""
    found = []
    for rid, f2d, fdep in rows:
        a = brute_distance(q2d, f2d)
        b = brute_distance(qdep, fdep)
        f = brute_fuse(a, b, gamma)
        if mode == "fused":
            if f < t_fusion:
                found.append((f, rid, a, b, f, "match-fused"))
        elif a < t_2d and (b >= t_depth or a <= b):
            found.append((a, rid, a, b, f, "match-2d"))
        elif b < t_depth:
            found.append((b, rid, a, b, f, "match-depth"))
    found.sort(key=lambda r: (r[0], r[1]))
    return [r[1:] for r in found]
