"""Print one SHA-256 over the outputs of a checkout, to show two checkouts byte-identical.

Runs in a fresh process with ``src/`` of the checkout first on ``PYTHONPATH``
(as ``tools/cli_latency.py`` runs its commands) and hashes, for each of four
fixed synthetic clips, in this order:

- the frames of both channels,
- per channel, the ``normalize_clip`` planes and picks and the
  ``extract_feature`` values,
- the frames of all 26 ``attack_catalog`` attacks on each channel,
- the left and right ``synthesize_clip`` views at baselines 0.05 and 0.07.

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

# (seed, frames, height, width, colour) of the four clips
CLIPS = ((1, 64, 96, 96, False), (2, 30, 57, 57, True), (3, 12, 24, 320, False), (4, 9, 33, 401, True))
BASELINES = (0.05, 0.07)


def digest() -> str:
    """The digest of the zw3d that this process imports."""
    import numpy as np

    from zw3d.attacks import apply_attack, attack_catalog
    from zw3d.corpus import make_clip
    from zw3d.dibr import BaselineConfig, synthesize_clip
    from zw3d.features import extract_feature
    from zw3d.frameio import FrameSequence, normalize_clip

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
