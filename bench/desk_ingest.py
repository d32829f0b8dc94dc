"""desk-ingest: the CLI session of a desk user, through ``zw3d.cli.main``.

Set-up writes a corpus with ``zw3d.corpus`` (four 96x96 gray clips of 64
frames, two clips with a 128x128 colour 2D channel and 120 frames) and four
suspect copies of the gray clips: a horizontal flip and a 90-degree
rotation, which the feature is exactly invariant to, and two mild attacks
(9x9 Gaussian blur, noise of variance 0.005).  One round registers every
clip into a fresh registry, calibrates once, queries every suspect in both
modes and runs ``identify --auto`` on it.

All suspects come from the gray clips so that the round's 12 query and
identify calls, each one clip of the same size, hold the median operation.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from zw3d import attacks, cli, corpus, features, frameio, fusion, registry

import harness
import reference

MAX_ROUNDS = 4
MODES = ("independent", "fused")
GRAY = dict(clips=4, frames=64, size=96)
COLOUR = dict(clips=2, frames=120, size=128, color=True)
# name, source record, attack family and parameter, exactly invariant
SUSPECTS = (
    ("flip", "g000", "fl", {"direction": "horizontal"}, True),
    ("rot90", "g001", "rt", {"angle": 90}, True),
    ("blur", "g002", "gb", {"window": 9}, False),
    ("noise", "g003", "gn", {"variance": 0.005}, False),
)


@dataclass
class Clip:
    record_id: str
    clip_2d: Path
    clip_depth: Path
    watermark_2d: Path
    watermark_depth: Path


@dataclass
class Suspect:
    name: str
    source: str
    exact: bool
    clip_2d: Path
    clip_depth: Path


@dataclass
class State:
    directory: Path
    seed: int
    clips: list
    suspects: list
    rounds: list = field(default_factory=list)
    summary: list = field(default_factory=list)


def setup(directory: Path, seed: int) -> State:
    clips = []
    for prefix, params, corpus_seed in (("g", GRAY, 2 * seed + 1), ("c", COLOUR, 2 * seed + 2)):
        out = directory / f"corpus-{prefix}"
        for k, clip_id in enumerate(corpus.generate_corpus(out, seed=corpus_seed, **params)):
            base = out / clip_id
            clips.append(Clip(f"{prefix}{k:03d}", base / "2d", base / "depth",
                              base / "watermark_2d.pbm", base / "watermark_depth.pbm"))
    by_id = {c.record_id: c for c in clips}
    suspects = []
    for name, source, family, params, exact in SUSPECTS:
        spec = attacks.AttackSpec(family, params, seed=seed if family in attacks.STOCHASTIC_FAMILIES else None)
        target = directory / "suspects" / name
        src = by_id[source]
        for role, path in (("2d", src.clip_2d), ("depth", src.clip_depth)):
            frameio.save_clip(target / role, attacks.apply_attack(frameio.load_clip(path, role), spec))
        suspects.append(Suspect(name, source, exact, target / "2d", target / "depth"))
    return State(directory, seed, clips, suspects)


def run_round(state: State, log: harness.OpLog, index: int) -> None:
    d = state.directory
    db, thresholds = d / f"registry-{index}.zw3d", d / f"thresholds-{index}.csv"
    rnd = {"db": db, "thresholds": thresholds, "register": [], "query": [], "identify": []}
    for clip in state.clips:
        rnd["register"].append(log.run("register", harness.cli_call, cli, [
            "register", "--db", db, "--id", clip.record_id,
            "--clip-2d", clip.clip_2d, "--clip-depth", clip.clip_depth,
            "--watermark-2d", clip.watermark_2d, "--watermark-depth", clip.watermark_depth]))
    rnd["calibrate"] = log.run("calibrate", harness.cli_call, cli, [
        "calibrate", "--db", db, "--out", thresholds])
    for s in state.suspects:
        pair = ["--db", db, "--clip-2d", s.clip_2d, "--clip-depth", s.clip_depth, "--thresholds", thresholds]
        for mode in MODES:
            rnd["query"].append((s, mode, *log.run("query", harness.cli_call, cli,
                                                   ["query", *pair, "--mode", mode])))
        out_dir = d / f"identify-{index}" / s.name
        rnd["identify"].append((s, out_dir, *log.run("identify", harness.cli_call, cli,
                                                      ["identify", *pair, "--auto", "--out-dir", out_dir])))
    state.rounds.append(rnd)


def _feature(path: Path, role: str) -> np.ndarray:
    return features.extract_feature(frameio.normalize_clip(frameio.load_clip(path, role))).values


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) or abs(a - b) <= 1e-300


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check(state: State, log: harness.OpLog) -> None:
    held = {s.name: (_feature(s.clip_2d, "2d"), _feature(s.clip_depth, "depth")) for s in state.suspects}
    generated = {c.record_id: {"2d": reference.read_watermark(c.watermark_2d),
                               "depth": reference.read_watermark(c.watermark_depth)} for c in state.clips}
    for number, rnd in enumerate(state.rounds):
        reg_ops = {c.record_id: op for c, op in zip(state.clips, rnd["register"])}
        for k, (i, res) in enumerate(rnd["register"]):
            log.check(res is not None and res[0] == 0 and res[1].strip() == str(k + 1), i,
                      f"register #{k}: exit/count {res and res[:2]}")
        if any(i in log.errors for i, _ in rnd["register"]):
            continue
        with registry.Registry(rnd["db"], "r") as db:
            ids = db.ids()
            records = [db.get_record(rid) for rid in ids]
        log.check(ids == [c.record_id for c in state.clips], None, f"registry ids {ids}")
        f2d = np.array([r.fn_2d for r in records])
        fdep = np.array([r.fn_depth for r in records])
        for rec in records:
            i = reg_ops[rec.record_id][0]
            for f in (rec.fn_2d, rec.fn_depth):
                log.check(abs(f @ f - 1599.0) <= 1e-9 and abs(f.mean()) <= 1e-12, i,
                          f"{rec.record_id}: stored feature norm {f @ f!r}, mean {f.mean()!r}")
            for f, o, stored, channel in ((rec.fn_2d, rec.o_2d, rec.w_2d, "2d"),
                                          (rec.fn_depth, rec.o_depth, rec.w_depth, "depth")):
                w = generated[rec.record_id][channel]
                log.check(reference.ber(reference.recover(f, o), w) == 0.0 and np.array_equal(stored, w), i,
                          f"{rec.record_id} {channel}: stored share does not give back the watermark")

        if number == 0:
            clip = state.clips[state.seed % len(state.clips)]
            i = reg_ops[clip.record_id][0]
            rec = records[ids.index(clip.record_id)]
            for path, role, stored in ((clip.clip_2d, "2d", rec.fn_2d), (clip.clip_depth, "depth", rec.fn_depth)):
                volume = frameio.normalize_clip(frameio.load_clip(path, role)).volume
                delta = float(np.abs(reference.dense_feature(volume) - stored).max())
                log.check(delta <= 1e-9, i, f"{clip.record_id} {role}: dense reference differs by {delta:.3g}")
                state.summary.append(f"dense reference feature, {clip.record_id} {role}: max |difference| {delta:.3g}")

        i, res = rnd["calibrate"]
        if not log.check(res is not None and res[0] == 0, i, f"calibrate exit {res and res[0]}"):
            continue
        with open(rnd["thresholds"], newline="") as fh:
            written = {row["threshold"]: row for row in csv.DictReader(fh)}
        expected = reference.calibration(f2d, fdep)
        for key, (t, realized) in expected.items():
            row = written.get(key)
            log.check(row is not None and _close(float(row["value"]), t, 1e-9)
                      and float(row["realized_pfp"]) == realized, i,
                      f"calibration {key}: {row} vs reference ({t!r}, {realized!r})")
        th = {key: float(row["value"]) for key, row in written.items()}
        th["gamma"] = reference.GAMMA

        for s, mode, i, res in rnd["query"]:
            q2d, qdep = held[s.name]
            d2d, ddep = reference.distances(f2d, q2d), reference.distances(fdep, qdep)
            want = reference.match(ids, d2d, ddep, th, mode)
            if res is None:
                continue
            log.check(res[0] == (0 if want else 1), i, f"query {s.name} {mode}: exit {res[0]}, want {len(want)} matches")
            got = _rows(res[1])
            program = fusion.match_query(q2d, qdep, _Features(ids, f2d, fdep),
                                         fusion.Thresholds(th["t_2d"], th["t_depth"], th["t_fusion"]), mode)
            log.check([r.record_id for r in program] == [w[0] for w in want]
                      and [r.decision for r in program] == [w[4] for w in want], i,
                      f"query {s.name} {mode}: match_query order differs from reference")
            ok = [r["record_id"] for r in got] == [w[0] for w in want] and all(
                r["decision"] == w[4] and r["mode"] == mode
                and all(_close(float(r[k]), w[n], 1e-8) for n, k in ((1, "d_2d"), (2, "d_depth"), (3, "d_fused")))
                for r, w in zip(got, want))
            if not ok and reference.near_boundary(ids, d2d, ddep, th):
                ok = True  # a distance within rounding of a threshold: either decision is right
            log.check(ok, i, f"query {s.name} {mode}: CSV {got} vs reference {want}")
            if s.exact:
                log.check(bool(got) and got[0]["record_id"] == s.source
                          and float(got[0]["d_2d"]) <= 1e-9 and float(got[0]["d_depth"]) <= 1e-9, i,
                          f"query {s.name} {mode}: invariant copy of {s.source} not first at distance 0")
            state.summary.append(
                f"query {s.name:6s} {mode:11s}: " + (f"{got[0]['record_id']} {got[0]['decision']}" if got else "no match"))

        for s, out_dir, i, res in rnd["identify"]:
            q2d, qdep = held[s.name]
            want = reference.match(ids, reference.distances(f2d, q2d), reference.distances(fdep, qdep), th,
                                   "independent")
            if res is None:
                continue
            if not want:
                log.check(res[0] == 1 and not (out_dir / "recovered_2d.pbm").exists(), i,
                          f"identify {s.name}: exit {res[0]}, want no match")
                continue
            top = records[ids.index(want[0][0])]
            rows = _rows(res[1])
            ok = res[0] == 0 and len(rows) == 1 and rows[0]["record_id"] == top.record_id
            bers = []
            for q, o, w, channel in ((q2d, top.o_2d, top.w_2d, "2d"), (qdep, top.o_depth, top.w_depth, "depth")):
                recovered = reference.recover(q, o)
                written_bits = reference.read_watermark(out_dir / f"recovered_{channel}.pbm") if ok else None
                ok = ok and np.array_equal(written_bits, recovered)
                if s.exact:
                    ok = ok and np.array_equal(written_bits, generated[top.record_id][channel])
                bers.append(reference.ber(w, recovered))
            bers.append(float(reference.fuse(*bers)))
            ok = ok and all(abs(float(rows[0][k]) - b) <= 1e-6
                            for k, b in zip(("ber_2d", "ber_depth", "ber_fused"), bers))
            log.check(ok, i, f"identify {s.name}: output {res[:2]} vs reference {want[0][0]} {bers}")
            state.summary.append(f"identify {s.name:6s}: {top.record_id} BER 2d {bers[0]:.4f} "
                                 f"depth {bers[1]:.4f} fused {bers[2]:.4f}")


class _Features:
    """Held features in the shape ``match_query`` scans."""

    def __init__(self, ids, f2d, fdep):
        self.rows = list(zip(ids, f2d, fdep))

    def iterate_features(self):
        return iter(self.rows)


def report(state: State, log: harness.OpLog) -> list[str]:
    return state.summary


def close(state: State) -> None:
    pass
