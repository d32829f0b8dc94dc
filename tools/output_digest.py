"""Print one SHA-256 over the outputs of a checkout, to show two checkouts byte-identical.

Runs in a fresh process with ``src/`` of the checkout first on ``PYTHONPATH``
(as ``tools/cli_latency.py`` runs its commands) and hashes, for each of four
fixed synthetic clips, in this order:

- the frames of both channels,
- per channel, the ``normalize_clip`` planes and picks and the
  ``extract_feature`` values,
- the frames of all 26 ``attack_catalog`` attacks on each channel,
- the left and right ``synthesize_clip`` views at baselines 0.05 and 0.07;

then, over one fixed in-memory registry of 300 z-scored records (more than
``fusion.BLOCK_ROWS``, so a query crosses a block boundary) holding exact
duplicates under other ids and all-zero features:

- the ``calibration_report`` rows at targets 0.01 and 0.1, and at target
  0.1 with gamma -0.5 and 3.0 (the fusion is not monotone for gamma < 0),
- ``match_query`` in both modes for four queries (a stored record, a
  near-duplicate of one, all zeros and an unrelated one) at the thresholds
  calibrated at 0.1, at 0 and at +inf: ids, decisions and distance bytes.

The clips are ``corpus.make_clip`` pairs, the two wide ones cut to their
first rows: gray 96x96 with 64 frames, colour 57x57 with 30, gray 24x320 with
12 and colour 33x401 with 9 (height x width). Frames of 1-37 rows at widths
320 and 401 are where BLAS's small-matrix kernels round two equal products
differently, so a change in how the planes are multiplied shows there.
Every array goes in with its dtype and shape. Equal digests mean every one of
these bytes is equal; the digest depends on numpy and its BLAS, so compare
checkouts on one machine.

    python3 tools/output_digest.py ../parent
    python3 tools/output_digest.py .
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

# (seed, frames, height, width, colour) of the four clips
CLIPS = ((1, 64, 96, 96, False), (2, 30, 57, 57, True), (3, 12, 24, 320, False), (4, 9, 33, 401, True))
BASELINES = (0.05, 0.07)
RECORDS = 300
TARGETS = (0.01, 0.1)
GAMMAS = (-0.5, 3.0)  # besides the default, at the last target


def registry_rows(np):
    """(id, fn_2d, fn_depth) of the fixed registry, in registry order."""
    rng = np.random.default_rng(20)

    def zvec():
        v = rng.normal(size=1600)
        return (v - v.mean()) / v.std(ddof=1)

    rows = [(f"rec{i:03d}", zvec(), zvec()) for i in range(RECORDS)]
    for copy, source in ((10, 3), (150, 40), (299, 200), (257, 256)):  # exact duplicates
        rows[copy] = (rows[copy][0], rows[source][1].copy(), rows[source][2].copy())
    rows[77] = (rows[77][0], np.zeros(1600), rows[77][2])
    rows[78] = (rows[78][0], np.zeros(1600), np.zeros(1600))
    return rows


def digest() -> str:
    """The digest of the zw3d that this process imports."""
    import numpy as np

    from zw3d.attacks import apply_attack, attack_catalog
    from zw3d.corpus import make_clip
    from zw3d.dibr import BaselineConfig, synthesize_clip
    from zw3d.features import extract_feature
    from zw3d.frameio import FrameSequence, normalize_clip
    from zw3d.fusion import MODES, Thresholds, calibration_report, match_query

    h = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())

    for seed, frames, height, width, colour in CLIPS:
        pair = [FrameSequence([f[:height, :width] for f in seq.frames], seq.role)
                for seq in make_clip(seed, frames=frames, size=max(height, width), color=colour)]
        for seq in pair:
            add(*seq.frames)
        for seq in pair:
            clip = normalize_clip(seq)
            add(clip.planes, clip.picks, extract_feature(clip).values)
        for seq in pair:
            for spec in attack_catalog():
                add(*apply_attack(seq, spec).frames)
        for baseline in BASELINES:
            for view in synthesize_clip(*pair, BaselineConfig(baseline_fraction=baseline)):
                add(*view.frames)

    rows = registry_rows(np)
    db = SimpleNamespace(iterate_features=lambda: iter(rows))
    for target in TARGETS:
        th, report = calibration_report(db, target_pfp=target)
        h.update(repr([(r["threshold"], r["target_pfp"]) for r in report]).encode())
        add(np.array([(r["value"], r["realized_pfp"]) for r in report]))
    for gamma in GAMMAS:
        add(np.array([(r["value"], r["realized_pfp"]) for r in calibration_report(db, TARGETS[-1], gamma)[1]]))
    near = rows[5][1].copy(), rows[5][2].copy()
    near[0][9] += 1e-9
    queries = (rows[200][1:], near, (np.zeros(1600), np.zeros(1600)), (rows[1][1], rows[2][2]))
    for t in (th, Thresholds(0.0, 0.0, 0.0), Thresholds(np.inf, np.inf, np.inf)):
        for query in queries:
            for mode in MODES:
                results = match_query(*query, db, t, mode)
                h.update(repr([(r.record_id, r.decision, r.mode) for r in results]).encode())
                add(np.array([(r.d_2d, r.d_depth, r.d_fused) for r in results]).reshape(-1, 3))
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="root of the checkout to hash")
    parser.add_argument("--here", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = (args.checkout / "src").resolve()
    if args.here:
        import zw3d

        if Path(zw3d.__file__).resolve().parent.parent != src:
            raise SystemExit(f"imported {zw3d.__file__}, not the zw3d under {src}")
        print(digest())
        return 0
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, str(args.checkout), "--here"], env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
