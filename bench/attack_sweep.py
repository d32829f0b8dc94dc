"""attack-sweep: the robustness sweep, one 96x96x64 gray clip per round.

Set-up makes a clip pair with ``zw3d.corpus`` and registers it through the
library (normalize, extract, bind, append).  One round applies all 26
``attack_catalog`` instances to both channels; each attacked channel is
normalized and extracted, and ``evaluation.ber_table`` recovers both
watermarks against the stored ownership shares.  The round ends with left
and right ``dibr`` views at baselines 0.05 and 0.07 and their 2D features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from zw3d import attacks, corpus, dibr, evaluation, features, frameio, registry, shares

import harness
import reference

MAX_ROUNDS = 4
FRAMES, SIZE = 64, 96
BASELINES = (0.05, 0.07)
CLIP_ID = "sweep"


@dataclass
class State:
    seed: int
    clip_2d: object
    clip_depth: object
    feature_2d: np.ndarray
    db: registry.Registry
    entries: list = field(default_factory=list)
    views: list = field(default_factory=list)
    summary: list = field(default_factory=list)


def _extract(seq) -> np.ndarray:
    return features.extract_feature(frameio.normalize_clip(seq)).values


def setup(directory: Path, seed: int) -> State:
    seq2d, seqdep = corpus.make_clip(seed, frames=FRAMES, size=SIZE)
    f2d, fdep = _extract(seq2d), _extract(seqdep)
    w2d, wdep = corpus.make_watermark(2 * seed + 1), corpus.make_watermark(2 * seed + 2)
    owned = [shares.build_ownership_share(shares.build_master_share(shares.rearrange(shares.binarize_feature(f))), w)
             for f, w in ((f2d, w2d), (fdep, wdep))]
    path = directory / "sweep.zw3d"
    with registry.Registry(path, "a") as db:
        db.register(registry.RegistrationRecord(CLIP_ID, f2d, fdep, *owned, w2d, wdep))
    return State(seed, seq2d, seqdep, f2d, registry.Registry(path, "r"))


def _attacked(state: State, spec):
    """Features of both attacked channels and their BER rows."""
    f2d = _extract(attacks.apply_attack(state.clip_2d, spec))
    fdep = _extract(attacks.apply_attack(state.clip_depth, spec))
    return f2d, fdep, evaluation.ber_table(state.db, [(CLIP_ID, spec.name, f2d, fdep)])


def _views(state: State, baseline: float):
    left, right = dibr.synthesize_clip(state.clip_2d, state.clip_depth, dibr.BaselineConfig(baseline))
    return left, right, _extract(left), _extract(right)


def run_round(state: State, log: harness.OpLog, index: int) -> None:
    for spec in attacks.attack_catalog(seed=state.seed):
        state.entries.append((spec, *log.run("sweep", _attacked, state, spec)))
    for baseline in BASELINES:
        state.views.append((baseline, *log.run("dibr_verify", _views, state, baseline)))


def check(state: State, log: harness.OpLog) -> None:
    rec = state.db.get_record(CLIP_ID)
    for f, o, w in ((rec.fn_2d, rec.o_2d, rec.w_2d), (rec.fn_depth, rec.o_depth, rec.w_depth)):
        log.check(abs(f @ f - 1599.0) <= 1e-9 and abs(f.mean()) <= 1e-12
                  and reference.ber(reference.recover(f, o), w) == 0.0, None,
                  "stored feature or share of the sweep clip is wrong")

    table: dict[str, list] = {}
    for spec, i, result in state.entries:
        if result is None:
            continue
        f2d, fdep, rows = result
        b2d = reference.ber(rec.w_2d, reference.recover(f2d, rec.o_2d))
        bdep = reference.ber(rec.w_depth, reference.recover(fdep, rec.o_depth))
        fused = float(reference.fuse(b2d, bdep))
        got = {row["channel"]: row["mean_ber"] for row in rows}
        harmonic = 0.0 if min(b2d, bdep) == 0 else 2 * b2d * bdep / (b2d + bdep)
        log.check(got.get("2d") == b2d and got.get("depth") == bdep
                  and abs(got.get("fused", -1.0) - fused) <= 1e-12, i,
                  f"{spec.name}: ber_table {got} vs reference {b2d}, {bdep}, {fused}")
        log.check(min(b2d, bdep) - 1e-12 <= got.get("fused", -1.0) <= harmonic + 1e-12, i,
                  f"{spec.name}: fused BER {got.get('fused')} outside [min, harmonic mean] of {b2d}, {bdep}")
        for f in (f2d, fdep):
            log.check(abs(f @ f - 1599.0) <= 1e-9, i, f"{spec.name}: attacked feature norm {f @ f!r}")
        table.setdefault(spec.name, []).append((b2d, bdep, got.get("fused")))

    n_frames, shape = len(state.clip_2d), state.clip_2d.frames[0].shape
    for baseline, i, result in state.views:
        if result is None:
            continue
        left, right, fl, fr = result
        log.check(all(len(v) == n_frames and all(f.shape == shape for f in v.frames) for v in (left, right)), i,
                  f"dibr {baseline}: views changed frame count or size")
        state.summary.append(f"dibr baseline {baseline}: distance of left/right 2D feature to source "
                             f"{float(reference.distances(fl[None], state.feature_2d)[0]):.5f} / "
                             f"{float(reference.distances(fr[None], state.feature_2d)[0]):.5f}")

    flat = frameio.FrameSequence([np.full(shape, 128, dtype=np.uint8)] * 4, "depth")
    frames = frameio.FrameSequence(state.clip_2d.frames[:4], "2d")
    left, right = dibr.synthesize_clip(frames, flat, dibr.BaselineConfig(0.07, convergence_depth=128 / 255))
    log.check(all(np.array_equal(a, b) for view in (left, right) for a, b in zip(view.frames, frames.frames)),
              None, "dibr: constant depth at the convergence plane does not reproduce the frame")

    state.summary.append("attack   BER 2d  depth   fused")
    for name, values in table.items():
        b = np.mean(values, axis=0)
        state.summary.append(f"{name:7s} {b[0]:.4f} {b[1]:.4f} {b[2]:.4f}")


def report(state: State, log: harness.OpLog) -> list[str]:
    seconds = sum(log.times("sweep"))
    clips = 2 * len(log.times("sweep"))
    lines = [f"sweep_clips_per_s: {clips / seconds:.4f} channel-clips/s over {clips} channel-clips"]
    return lines + state.summary


def close(state: State) -> None:
    state.db.close()
