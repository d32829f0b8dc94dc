"""Record the benchmark of one checkout as a BENCH_<date>_<sha>.json file.

Runs ``bench/run.py`` of the checkout once for every workload x seed
(``SEEDS``) x ``--trace 0|1``, each in its own process, with the workloads
and run length that the checkout's ``BENCHMARK.json`` declares, and keeps
the JSON object that each run prints as its last line.  The file holds, per workload and
trace mode, every metric's median, quartiles and per-seed values, whether
every run was correct, and the machine the runs were made on: CPU count and
model, Python, numpy and scipy versions (scipy only serves the tests, so it
reads null where it is not installed), and the checkout's git sha.

    python3 tools/bench_record.py                      # this checkout
    python3 tools/bench_record.py --checkout ../other  # another checkout
    python3 tools/bench_record.py --quality q.json     # with the acceptance quality numbers

``--quality`` copies a JSON file, as the acceptance suite writes it under
``ZW3D_QUALITY_JSON=q.json`` (criterion 2's worst symmetry delta, criterion
6's per-attack P_fn/BER table), into the record as ``quality``, so detection
drift shows next to the timings.

The file goes to the root of the repository that holds this script.

A checkout whose ``src/`` differs from its HEAD commit is named
``<sha>+<hash>``, where ``<hash>`` is the start of the SHA-256 of the
files under ``src/``, so two different working trees never share a name.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def revision(checkout: Path) -> dict:
    sha = git(checkout, "rev-parse", "--short=7", "HEAD")
    dirty = bool(git(checkout, "status", "--porcelain", "--", "src"))
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    name = f"{sha}+{digest.hexdigest()[:7]}" if dirty else sha
    return {"name": name, "git_sha": git(checkout, "rev-parse", "HEAD"), "src_dirty": dirty,
            "src_sha256": digest.hexdigest()}


def machine() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": installed("scipy")}


def installed(package: str) -> str | None:
    """The installed version of ``package``, or None."""
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive")) if len(values) > 1 else (values[0],) * 3


def summarize(results: list[dict]) -> dict:
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = quartiles(values)
        metrics[name] = {"median": median, "q1": q1, "q3": q3, "values": values,
                         "unit": results[0]["metrics"][name]["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="root of the checkout to benchmark (default: this one)")
    parser.add_argument("--quality", type=Path,
                        help="acceptance-suite quality JSON of the same checkout to copy in")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    quality = json.loads(args.quality.read_text()) if args.quality else None
    rev = revision(checkout)
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {(w, t): [] for w in workloads for t in (0, 1)}
    for seed in SEEDS:
        for workload, trace in runs:
            print(f"{rev['name']}: {workload} seed {seed} trace {trace}", file=sys.stderr)
            runs[workload, trace].append(
                run_once(checkout, workload, seed, bench["run_seconds"], trace))

    date = datetime.datetime.now(datetime.timezone.utc).date().isoformat()
    record = {
        "date": date,
        "revision": rev,
        "machine": machine(),
        "seeds": list(SEEDS),
        "seconds": bench["run_seconds"],
        "workloads": {w: {f"trace{t}": summarize(runs[w, t]) for t in (0, 1)} for w in workloads},
        "quality": quality,
    }
    out = ROOT / f"BENCH_{date}_{rev['name']}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
