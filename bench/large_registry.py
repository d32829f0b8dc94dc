"""large-registry: retrieval from a registry of thousands of records.

No feature extraction: set-up generates z-scored 1600-vectors (ddof 1) per
channel, binds them to random watermarks with ``zw3d.shares`` and appends
them with ``Registry.register``.  The registry holds 1700 unrelated records
and 100 planted families of three: a base record, a near-duplicate of it and
an exact duplicate under another id.  The first 500 unrelated records also
form a second registry, used for calibration.  Records are generated one at
a time and not kept, so the benchmark's own arrays stay out of the peak
memory.

One round runs ``calibration_report`` on the calibration registry, then 8
queries by precomputed features (near-duplicates of family bases), each in
both modes as ``Registry(path, "r")`` plus ``match_query``, each followed by
one durable append to the large registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from zw3d import fusion, registry, shares

import harness
import reference

MAX_ROUNDS = 12
SINGLES, FAMILIES, CALIBRATION = 1700, 100, 500
RECORDS = SINGLES + 3 * FAMILIES
QUERIES, QUERIES_PER_ROUND = 32, 8
NEAR_NOISE, QUERY_NOISE = 0.15, 0.1
MODES = ("independent", "fused")
DIM = 1600


def _z(v: np.ndarray) -> np.ndarray:
    return (v - v.mean()) / v.std(ddof=1)


def _single(seed: int, kind: int, index: int):
    """(2d feature, depth feature, 2d watermark, depth watermark) of an
    unrelated record (kind 0) or of an appended record (kind 3)."""
    rng = np.random.default_rng([seed, kind, index])
    f2d, fdep = _z(rng.standard_normal(DIM)), _z(rng.standard_normal(DIM))
    return f2d, fdep, rng.integers(0, 2, (40, 40), dtype=np.uint8), rng.integers(0, 2, (40, 40), dtype=np.uint8)


def _family(seed: int, index: int):
    """Base and near-duplicate of one planted family, as ``_single`` tuples."""
    rng = np.random.default_rng([seed, 1, index])
    b2d, bdep = _z(rng.standard_normal(DIM)), _z(rng.standard_normal(DIM))
    near = (_z(b2d + NEAR_NOISE * rng.standard_normal(DIM)), _z(bdep + NEAR_NOISE * rng.standard_normal(DIM)))
    marks = [rng.integers(0, 2, (40, 40), dtype=np.uint8) for _ in range(4)]
    return (b2d, bdep, marks[0], marks[1]), (*near, marks[2], marks[3])


def _query(seed: int, index: int):
    """(family, 2d query, depth query): a near-duplicate of a family base."""
    family = index * 7 % FAMILIES
    (b2d, bdep, _, _), _ = _family(seed, family)
    rng = np.random.default_rng([seed, 2, index])
    return family, _z(b2d + QUERY_NOISE * rng.standard_normal(DIM)), _z(bdep + QUERY_NOISE * rng.standard_normal(DIM))


def _order(seed: int) -> list[tuple[str, int]]:
    """Registry insertion order: ("s", i) unrelated, ("b" | "n" | "a", f) family."""
    entries = [("s", i) for i in range(SINGLES)] + [(k, f) for f in range(FAMILIES) for k in "bna"]
    rng = np.random.default_rng([seed, 9])
    order = [entries[i] for i in rng.permutation(len(entries))]
    # an exact duplicate is registered after its base, under an id sorting first
    for f in range(FAMILIES):
        ib, ia = order.index(("b", f)), order.index(("a", f))
        if ia < ib:
            order[ia], order[ib] = order[ib], order[ia]
    return order


def _record_id(kind: str, index: int) -> str:
    return f"s{index:05d}" if kind == "s" else f"f{index:04d}-{kind}"


def _generated(seed: int, kind: str, index: int):
    if kind == "s":
        return _single(seed, 0, index)
    base, near = _family(seed, index)
    return near if kind == "n" else base


def _bind(f: np.ndarray, w: np.ndarray) -> np.ndarray:
    return shares.build_ownership_share(shares.build_master_share(shares.rearrange(shares.binarize_feature(f))), w)


def _record(record_id: str, f2d, fdep, w2d, wdep) -> registry.RegistrationRecord:
    return registry.RegistrationRecord(record_id, f2d, fdep, _bind(f2d, w2d), _bind(fdep, wdep), w2d, wdep)


@dataclass
class State:
    seed: int
    path: Path
    calibration_path: Path
    order: list
    queries: list
    pool: list
    writer: registry.Registry
    matches: list = field(default_factory=list)
    appends: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    summary: list = field(default_factory=list)


def setup(directory: Path, seed: int) -> State:
    path, cal_path = directory / "large.zw3d", directory / "calibration.zw3d"
    order = _order(seed)
    writer = registry.Registry(path, "a")
    with registry.Registry(cal_path, "a") as cal:
        for kind, index in order:
            rec = _record(_record_id(kind, index), *_generated(seed, kind, index))
            writer.register(rec)
            if kind == "s" and index < CALIBRATION:
                cal.register(rec)
    queries = [_query(seed, j) for j in range(QUERIES)]
    pool = [_record(f"a{k:05d}", *_single(seed, 3, k)) for k in range(MAX_ROUNDS * QUERIES_PER_ROUND)]
    return State(seed, path, cal_path, order, queries, pool, writer)


def _calibrate(path: Path):
    with registry.Registry(path, "r") as db:
        return fusion.calibration_report(db)


def _match(path: Path, q2d, qdep, thresholds, mode: str):
    with registry.Registry(path, "r") as db:
        return fusion.match_query(q2d, qdep, db, thresholds, mode)


def run_round(state: State, log: harness.OpLog, index: int) -> None:
    i, result = log.run("calibrate", _calibrate, state.calibration_path)
    state.calibrations.append((i, result))
    thresholds = result[0] if result else fusion.Thresholds(0.0, 0.0, 0.0)
    for k in range(QUERIES_PER_ROUND):
        j = (index * QUERIES_PER_ROUND + k) % QUERIES
        _, q2d, qdep = state.queries[j]
        for mode in MODES:
            i, result = log.run("match", _match, state.path, q2d, qdep, thresholds, mode)
            state.matches.append((i, result, j, mode, len(state.appends), thresholds))
        rec = state.pool[len(state.appends)]
        i, result = log.run("append", state.writer.register, rec)
        state.appends.append((i, result, rec))


def _calibration_rows(order) -> list[int]:
    return [n for n, (kind, index) in enumerate(order) if kind == "s" and index < CALIBRATION]


def check(state: State, log: harness.OpLog) -> None:
    seed = state.seed
    ids = [_record_id(kind, index) for kind, index in state.order] + [rec.record_id for _, _, rec in state.appends]
    rows = [_generated(seed, kind, index) for kind, index in state.order]
    rows += [(rec.fn_2d, rec.fn_depth, rec.w_2d, rec.w_depth) for _, _, rec in state.appends]
    f2d = np.array([r[0] for r in rows])
    fdep = np.array([r[1] for r in rows])

    with registry.Registry(state.path, "r") as db:
        log.check(len(db) == len(ids) and db.ids() == ids, None,
                  f"registry reopens with {len(db)} records, expected {len(ids)}")
        for n, (rid, a, b) in enumerate(db.iterate_features()):
            log.check(np.array_equal(a, f2d[n]) and np.array_equal(b, fdep[n]), None, f"{rid}: stored feature differs")
            for f in (a, b):
                log.check(abs(f @ f - (DIM - 1)) <= 1e-9 and abs(f.mean()) <= 1e-12, None,
                          f"{rid}: stored feature norm {f @ f!r}, mean {f.mean()!r}")
        for n, rid in enumerate(ids):
            rec = db.get_record(rid)
            w2d, wdep = rows[n][2], rows[n][3]
            log.check(reference.ber(reference.recover(rec.fn_2d, rec.o_2d), w2d) == 0.0
                      and reference.ber(reference.recover(rec.fn_depth, rec.o_depth), wdep) == 0.0, None,
                      f"{rid}: stored shares do not give back the watermarks")
        for k, (i, count, rec) in enumerate(state.appends):
            back = db.get_record(rec.record_id)
            log.check(count == RECORDS + k + 1 and all(
                np.array_equal(getattr(back, a), getattr(rec, a))
                for a in ("fn_2d", "fn_depth", "o_2d", "o_depth", "w_2d", "w_depth")), i,
                f"append {rec.record_id}: count {count}, read-back differs")

    rows_cal = _calibration_rows(state.order)
    cal = reference.calibration(f2d[rows_cal], fdep[rows_cal])
    for i, result in state.calibrations:
        if result is None:
            continue
        th, report_rows = result
        got = {row["threshold"]: (row["value"], row["realized_pfp"]) for row in report_rows}
        log.check(all(abs(got[key][0] - t) <= 1e-9 * t and got[key][1] == realized
                      and getattr(th, key) == got[key][0] for key, (t, realized) in cal.items()), i,
                  f"calibration {got} vs reference {cal}")
    state.summary.append("calibration (threshold, realized P_fp): " + ", ".join(
        f"{key} {t:.6f} {realized:.5f}" for key, (t, realized) in cal.items()))

    returned = []
    for i, result, j, mode, appended, th in state.matches:
        if result is None:
            continue
        family, q2d, qdep = state.queries[j]
        n = RECORDS + appended
        d2d, ddep = reference.distances(f2d[:n], q2d), reference.distances(fdep[:n], qdep)
        thresholds = {"t_2d": th.t_2d, "t_depth": th.t_depth, "t_fusion": th.t_fusion, "gamma": th.gamma}
        want = reference.match(ids[:n], d2d, ddep, thresholds, mode)
        same = [r.record_id for r in result] == [w[0] for w in want] and all(
            r.decision == w[4] and all(abs(x - y) <= 1e-12 * max(abs(y), 1e-300)
                                       for x, y in zip((r.d_2d, r.d_depth, r.d_fused), w[1:4]))
            for r, w in zip(result, want))
        if not same and reference.near_boundary(ids[:n], d2d, ddep, thresholds):
            same = [r.record_id for r in result][:3] == [w[0] for w in want][:3]
        planted = {_record_id(k, family) for k in "bna"}
        log.check(same, i, f"match query {j} {mode}: {[r.record_id for r in result][:5]} vs reference "
                           f"{[w[0] for w in want][:5]}")
        log.check({r.record_id for r in result[:3]} == planted, i,
                  f"match query {j} {mode}: planted family {sorted(planted)} not first")
        returned.append(len(result))
    if returned:
        state.summary.append(f"matches returned per query: mean {np.mean(returned):.1f} of "
                             f"{RECORDS}+ records, planted family first in every query")


def report(state: State, log: harness.OpLog) -> list[str]:
    return state.summary


def close(state: State) -> None:
    state.writer.close()
