"""End-to-end registration, calibration, retrieval, and identification.

Registers a small corpus, calibrates thresholds from the pairwise distances
of the registered features, then queries a blurred copy of one clip and an
unrelated clip, finishing with watermark recovery for the matched record.
"""

import tempfile
from pathlib import Path

from zw3d.attacks import AttackSpec, apply_attack
from zw3d.corpus import make_clip, make_watermark
from zw3d.features import extract_feature
from zw3d.frameio import normalize_clip
from zw3d.fusion import calibration_report, fuse_scores, match_query
from zw3d.registry import RegistrationRecord, Registry
from zw3d.shares import (
    ber,
    binarize_feature,
    build_master_share,
    build_ownership_share,
    rearrange,
    recover_from_feature,
)

N = 8
with tempfile.TemporaryDirectory(prefix="zw3d_demo_") as work:
    db_path = Path(work) / "registry.zw3d"
    print(f"registering {N} clips into {db_path}")
    clips = {}
    with Registry(db_path, "a") as db:
        for i in range(N):
            cid = f"clip{i:02d}"
            seq2d, seqdep = make_clip(seed=1000 + i, frames=48, size=96)
            fv2d = extract_feature(normalize_clip(seq2d))
            fvdep = extract_feature(normalize_clip(seqdep))
            w2d, wdep = make_watermark(i), make_watermark(100 + i)
            o2d = build_ownership_share(build_master_share(rearrange(binarize_feature(fv2d))), w2d)
            odep = build_ownership_share(build_master_share(rearrange(binarize_feature(fvdep))), wdep)
            db.register(RegistrationRecord(cid, fv2d.values, fvdep.values, o2d, odep, w2d, wdep))
            clips[cid] = (seq2d, seqdep, w2d)

    with Registry(db_path, "r") as db:
        thresholds, report = calibration_report(db, target_pfp=0.01)
        for row in report:
            print(f"  {row['threshold']:>9} = {row['value']:.4f} "
                  f"(realized false-positive fraction {row['realized_pfp']:.4f})")

        # query a blurred copy of clip03
        seq2d, seqdep, w2d = clips["clip03"]
        blur = AttackSpec("gb", {"window": 15})
        q2d = extract_feature(normalize_clip(apply_attack(seq2d, blur)))
        qdep = extract_feature(normalize_clip(apply_attack(seqdep, blur)))
        for mode in ("independent", "fused"):
            results = match_query(q2d, qdep, db, thresholds, mode=mode)
            top = results[0]
            print(f"blurred clip03, {mode:>11} mode: {len(results)} match(es); best "
                  f"{top.record_id} ({top.decision}, d_2d={top.d_2d:.4f}, "
                  f"d_depth={top.d_depth:.4f}, d_fused={top.d_fused:.4f})")

        # an unrelated clip should not match
        other2d, otherdep = make_clip(seed=31337, frames=48, size=96)
        o2d_f = extract_feature(normalize_clip(other2d))
        odep_f = extract_feature(normalize_clip(otherdep))
        results = match_query(o2d_f, odep_f, db, thresholds, mode="fused")
        print(f"unrelated clip, fused mode: {len(results)} match(es)")

        # identification: recover the watermark from the blurred query
        stored = db.get_record("clip03")
        recovered = recover_from_feature(q2d, stored.o_2d)
        b = ber(stored.w_2d, recovered)
        print(f"recovered watermark BER under 15x15 blur: {b:.4f} "
              f"(fused with clean depth: {fuse_scores(b, 0.0):.4f})")
