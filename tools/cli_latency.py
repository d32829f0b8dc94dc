"""Time fresh ``python -m zw3d`` processes of two checkouts, command by command.

Generates one gray desk corpus (``gen-corpus``: 2 clips of 64 frames, 96x96,
corpus seed 1, fixed so that runs of the script compare), then for every pair runs
both checkouts in turn, alternating which side goes first from pair to pair
as ``tools/bench_pairs.py`` does.  One run of a side registers every corpus
clip into a new registry, calibrates it, queries the first clip's pair and
identifies it with ``--auto``, each command a new process with ``src/`` of
that checkout first on ``PYTHONPATH``.  It prints, per command, the wall
times in ms in the form of ``bench_pairs.report`` (parent -> change medians,
quartiles, pairs won), and whether both sides printed the same output.

    python3 tools/cli_latency.py ../parent . --pairs 10

Import time and first-call costs are part of every number: this is what a
user of the CLI waits for, which the in-process ``desk-ingest`` workload
does not show.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import report

COMMANDS = ("register", "calibrate", "query", "identify")
CLIPS, FRAMES, SIZE, SEED = 2, 64, 96, 1  # the desk corpus every run uses


def zw3d(checkout: Path, work: Path, *args) -> tuple[float, str]:
    """Wall time (s) and stdout of one fresh ``python -m zw3d`` process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "zw3d", *map(str, args)], cwd=work, env=env,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode:
        raise SystemExit(f"{checkout}: zw3d {' '.join(map(str, args))}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return elapsed, proc.stdout


def run_side(checkout: Path, work: Path, clips: list[Path]) -> dict[str, tuple[list[float], list[str]]]:
    """Every command of one run in fresh processes: per command, times and outputs."""
    db, thresholds = work / "registry.zw3d", work / "thresholds.csv"
    for path in (db, thresholds):
        path.unlink(missing_ok=True)
    runs = {c: ([], []) for c in COMMANDS}

    def timed(command, *args):
        elapsed, out = zw3d(checkout, work, command, *args)
        runs[command][0].append(elapsed)
        runs[command][1].append(out)

    for k, clip in enumerate(clips):
        timed("register", "--db", db, "--id", f"c{k:03d}", "--clip-2d", clip / "2d",
              "--clip-depth", clip / "depth", "--watermark-2d", clip / "watermark_2d.pbm",
              "--watermark-depth", clip / "watermark_depth.pbm")
    timed("calibrate", "--db", db, "--out", thresholds)
    pair = ("--db", db, "--clip-2d", clips[0] / "2d", "--clip-depth", clips[0] / "depth",
            "--thresholds", thresholds)
    timed("query", *pair)
    timed("identify", *pair, "--auto", "--out-dir", work / "identify")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the change checkout")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times = {side: {c: [] for c in COMMANDS} for side in sides}
    outputs = {side: {c: [] for c in COMMANDS} for side in sides}
    with tempfile.TemporaryDirectory(prefix="zw3d-cli-latency-") as tmp:
        work = Path(tmp)
        corpus = work / "corpus"
        zw3d(sides["change"], work, "gen-corpus", "--out", corpus, "--clips", CLIPS,
             "--frames", FRAMES, "--size", SIZE, "--seed", SEED)
        clips = sorted(p for p in corpus.iterdir() if p.is_dir())
        run_dir = work / "run"  # one directory for both sides: the outputs name the same paths
        run_dir.mkdir()
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"pair {i + 1}/{args.pairs}: {side}", file=sys.stderr, flush=True)
                for command, (elapsed, out) in run_side(sides[side], run_dir, clips).items():
                    # a run's registrations count once, as their mean
                    times[side][command].append(sum(elapsed) / len(elapsed))
                    outputs[side][command].append(out)

    print(f"fresh-process CLI, {args.pairs} pairs, {CLIPS} clips of {FRAMES} frames "
          f"{SIZE}x{SIZE}, ms per command, parent -> change")
    for command in COMMANDS:
        same = outputs["parent"][command] == outputs["change"][command]
        ms = {side: [1000.0 * t for t in times[side][command]] for side in sides}
        print(report(command, ms["parent"], ms["change"], higher_better=False)
              + f"\n  same output on both sides: {same}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
