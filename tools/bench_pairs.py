"""Compare two checkouts on one workload with alternating benchmark runs.

Runs ``bench/run.py`` of a parent and a change checkout once per seed each,
in their own processes, alternating which side runs first from pair to pair
so that machine drift falls on both sides, and prints one line per metric:

    ops_per_s 1.89 -> 2.62 (+38.8%) [1.80-2.02 | 2.54-2.65] (10/10; 1.76/2.62, ...)

that is, parent -> change medians, the relative change, the parent's and the
change's quartiles, and how many pairs the change wins, then every pair as
parent/change.  A win is a value better in the direction that the change's
``BENCHMARK.json`` declares for the metric.  The last line per metric gives
the gap between the medians and the parent's quartile distance.

    python3 tools/bench_pairs.py ../parent . --workload attack-sweep --seeds 3001-3010
    python3 tools/bench_pairs.py ../parent . --workload desk-ingest --seeds 1,2,3 --trace 1

Each checkout runs its own ``bench/run.py`` from its own root, through
``bench_record.run_once``; nothing under ``bench/`` is imported or written here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_record import quartiles, run_once


def parse_seeds(text: str) -> list[int]:
    """``"3001-3010"`` or ``"1,2,5"`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def report(name: str, parent: list[float], change: list[float], higher_better: bool | None) -> str:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    rel = f" ({(cm - pm) / pm:+.1%})" if pm else ""
    pairs = ", ".join(f"{a:.4g}/{b:.4g}" for a, b in zip(parent, change))
    if higher_better is None:
        wins = "?"
    else:
        wins = sum((b > a) if higher_better else (b < a) for a, b in zip(parent, change))
    return (f"{name} {pm:.4g} -> {cm:.4g}{rel} [{p1:.4g}-{p3:.4g} | {c1:.4g}-{c3:.4g}] "
            f"({wins}/{len(parent)}; {pairs})\n"
            f"  median gap {abs(cm - pm):.4g}, parent quartile distance {p3 - p1:.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "3001-3010" or "1,2,3"')
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"] + bench["per_layer"]}
    results = {side: [] for side in sides}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            print(f"pair {i + 1}/{len(args.seeds)}: {side} seed {seed}", file=sys.stderr, flush=True)
            results[side].append(run_once(sides[side], args.workload, seed, args.seconds, args.trace))

    print(f"{args.workload}, seeds {args.seeds[0]}..{args.seeds[-1]} ({len(args.seeds)} pairs), "
          f"--seconds {args.seconds:g}, --trace {args.trace}, parent -> change")
    for side, runs in results.items():
        print(f"{side}: correct {all(r['correct'] for r in runs)}, "
              f"attempted {sum(r['attempted'] for r in runs)}, failed {sum(r['failed'] for r in runs)}")
    for name in results["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in results.items()}
        print(report(name, values["parent"], values["change"], better.get(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
