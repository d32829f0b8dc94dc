"""Desk-scale robustness benchmark: attacks, error rates, DET curve.

Registers a handful of clips, runs a representative slice of the attack
catalog over them, and prints the per-attack false-negative rates (at
thresholds calibrated for a 1% false-positive rate) plus recovery BER per
channel. Also writes a DET curve CSV for the fused channel.

A fuller sweep (all 26 attacks, 20 clips) runs in the acceptance suite; this
demo trades coverage for a sub-minute runtime.
"""

import tempfile
from pathlib import Path

import numpy as np

from zw3d.attacks import AttackSpec, apply_attack
from zw3d.corpus import make_clip, make_watermark
from zw3d.evaluation import det_curve, write_det_csv
from zw3d.features import extract_feature
from zw3d.frameio import normalize_clip
from zw3d.fusion import calibration_report, feature_distance, fuse_scores
from zw3d.registry import RegistrationRecord, Registry
from zw3d.shares import (
    ber,
    binarize_feature,
    build_master_share,
    build_ownership_share,
    rearrange,
    recover_from_feature,
)

N = 6
ATTACKS = [
    AttackSpec("gb", {"window": 15}),
    AttackSpec("mf", {"window": 9}),
    AttackSpec("cc", {"delta": -0.30}),
    AttackSpec("gn", {"variance": 0.005}, seed=1),
    AttackSpec("li", {"size": 32}),
    AttackSpec("cr", {"fraction": 0.05}),
    AttackSpec("rt", {"angle": 90}),
    AttackSpec("fl", {"direction": "horizontal"}),
    AttackSpec("fd", {"rate": 0.05}, seed=2),
]

clips, feats, wms, shares = {}, {}, {}, {}
with tempfile.TemporaryDirectory(prefix="zw3d_bench_") as work:
    db_path = Path(work) / "registry.zw3d"
    with Registry(db_path, "a") as db:
        for i in range(N):
            cid = f"clip{i:02d}"
            seq2d, seqdep = make_clip(seed=2000 + i, frames=48, size=96)
            fv2d = extract_feature(normalize_clip(seq2d))
            fvdep = extract_feature(normalize_clip(seqdep))
            w2d, wdep = make_watermark(i), make_watermark(50 + i)
            o2d = build_ownership_share(build_master_share(rearrange(binarize_feature(fv2d))), w2d)
            odep = build_ownership_share(build_master_share(rearrange(binarize_feature(fvdep))), wdep)
            db.register(RegistrationRecord(cid, fv2d.values, fvdep.values, o2d, odep, w2d, wdep))
            clips[cid] = (seq2d, seqdep)
            feats[cid] = (fv2d, fvdep)
            wms[cid] = (w2d, wdep)
            shares[cid] = (o2d, odep)

    with Registry(db_path, "r") as db:
        th = calibration_report(db, target_pfp=0.01)[0]
print(f"thresholds: t_2d={th.t_2d:.3f} t_depth={th.t_depth:.3f} t_fusion={th.t_fusion:.3f}")
print(f"{'attack':>8} {'P_fn(fused)':>12} {'BER 2d':>8} {'BER depth':>10} {'BER fused':>10}")

genuine_fused = []
for spec in ATTACKS:
    misses, b2s, bds, bfs = 0, [], [], []
    for cid, (seq2d, seqdep) in clips.items():
        f2d = extract_feature(normalize_clip(apply_attack(seq2d, spec)))
        fdep = extract_feature(normalize_clip(apply_attack(seqdep, spec)))
        d2d = feature_distance(f2d, feats[cid][0])
        ddep = feature_distance(fdep, feats[cid][1])
        dfus = fuse_scores(d2d, ddep)
        genuine_fused.append(dfus)
        if dfus >= th.t_fusion:
            misses += 1
        b2 = ber(wms[cid][0], recover_from_feature(f2d, shares[cid][0]))
        bd = ber(wms[cid][1], recover_from_feature(fdep, shares[cid][1]))
        b2s.append(b2)
        bds.append(bd)
        bfs.append(fuse_scores(b2, bd))
    print(f"{spec.name:>8} {misses / N:>12.3f} {np.mean(b2s):>8.4f} "
          f"{np.mean(bds):>10.4f} {np.mean(bfs):>10.4f}")

impostor_fused = [
    fuse_scores(feature_distance(feats[a][0], feats[b][0]),
                feature_distance(feats[a][1], feats[b][1]))
    for i, a in enumerate(clips) for b in list(clips)[i + 1:]
]
out = Path("demo_output")
out.mkdir(exist_ok=True)
write_det_csv(out / "det_fused.csv", det_curve(genuine_fused, impostor_fused))
print(f"DET curve (fused channel) -> {out / 'det_fused.csv'}")
