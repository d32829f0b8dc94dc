"""zw3d benchmark: runs one workload and prints its metrics.

From the root of a checkout:

    python3 bench/run.py --workload desk-ingest --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout and nowhere else.
Report lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
from pathlib import Path

import harness
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = {
    "desk-ingest": "desk_ingest",
    "large-registry": "large_registry",
    "attack-sweep": "attack_sweep",
}

ATTACK_FAMILIES = ("gb", "af", "mf", "cc", "cb", "gt", "gn", "li", "rs", "cr", "rt", "fl", "fr", "fd")

# per-layer self-time metric -> span name
LAYER_TIMES = {
    "frameio.load_clip_s": "frameio.load_clip",
    "frameio.normalize_clip_s": "frameio.normalize_clip",
    "features.extract_feature_s": "features.extract_feature",
    "shares.bind_s": "shares.bind",
    "shares.recover_s": "shares.recover",
    "registry.open_s": "registry.open",
    "registry.scan_s": "registry.scan",
    "registry.append_s": "registry.append",
    "registry.lookup_s": "registry.lookup",
    "fusion.score_s": "fusion.score",
    "fusion.match_query_s": "fusion.match_query",
    "fusion.calibration_s": "fusion.calibration",
    **{f"attacks.{f}_s": f"attacks.{f}" for f in ATTACK_FAMILIES},
    "dibr.synthesize_clip_s": "dibr.synthesize_clip",
    "evaluation.ber_s": "evaluation.ber",
    "cli.self_s": "cli",
    "corpus.generate_s": "corpus.generate",
}
# per-layer count metric -> (counter, unit)
LAYER_COUNTS = {
    "frameio.frames_read": ("frames_read", "count"),
    "frameio.source_frames_resampled": ("source_frames_resampled", "count"),
    "features.extractions": ("extractions", "count"),
    "registry.records_indexed": ("records_indexed", "count"),
    "registry.records_decoded": ("records_decoded", "count"),
    "registry.bytes_written": ("bytes_written", "bytes"),
    "fusion.records_scored": ("records_scored", "count"),
    "fusion.pairs_scored": ("pairs_scored", "count"),
}


def import_program():
    """Import zw3d from this checkout's src/, or stop with exit code 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import zw3d
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import zw3d from {src}: {exc}")
    if Path(zw3d.__file__).resolve().parent != src / "zw3d":
        raise SystemExit(f"bench: zw3d was imported from {zw3d.__file__}, not {src}")
    return zw3d


def end_to_end(result) -> dict:
    log = result["log"]
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ops_per_s": (len(log.seconds) / sum(result["rounds"]), "1/s"),
    }


def per_layer(result, tracer, span_cost: float) -> dict:
    """Each figure is one set-up plus one round: set-up totals divided by the
    number of set-ups, timed totals divided by the number of rounds."""
    per = {tracing.SETUP: len(result["setup_s"]), tracing.TIMED: len(result["rounds"])}
    own = tracer.self_times()
    counts = tracer.counts

    def unit_total(table, key):
        return sum(table.get((phase, key), 0.0) / n for phase, n in per.items())

    out = {name: (unit_total(own, span), "s") for name, span in LAYER_TIMES.items()}
    out.update({name: (unit_total(counts, c), unit) for name, (c, unit) in LAYER_COUNTS.items()})
    scored = unit_total(counts, "records_scored")
    out["fusion.match_yield"] = (unit_total(counts, "matches") / scored if scored else 0.0, "ratio")
    spans = sum(tracer.span_count(phase) / n for phase, n in per.items())
    out["trace.spans"] = (spans, "count")
    out["trace.overhead_s"] = (spans * span_cost, "s")
    out["traced.ops_per_s"] = end_to_end(result)["ops_per_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    zw3d = import_program()
    workload = importlib.import_module(WORKLOADS[args.workload])
    tracer = tracing.Tracer()
    cost = 0.0
    if args.trace:
        cost = tracing.span_cost()
        tracing.install(tracer, zw3d)

    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    result = harness.execute(workload, args.seed, args.seconds, tracer, work)
    log = result["log"]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("set-ups: " + ", ".join(f"{s:.3f} s" for s in result["setup_s"]))
    print(f"rounds: {len(result['rounds'])}, " + ", ".join(f"{s:.2f} s" for s in result["rounds"]))
    for kind in dict.fromkeys(log.kinds):
        print(harness.describe(f"{kind}_s", log.times(kind)))
    for line in result["lines"]:
        print(line)
    for message in list(log.errors.values())[:10] + log.check_failures[:10]:
        print("FAIL " + message)

    if args.trace:
        metrics = per_layer(result, tracer, cost)
        out_dir = BENCH / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}.trace.json.gz")
    else:
        metrics = end_to_end(result)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not log.check_failures,
        "attempted": len(log.kinds),
        "failed": len(log.errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
