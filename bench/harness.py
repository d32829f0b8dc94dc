"""Run loop shared by the workloads: set-ups, timed rounds, checks, result.

A workload module provides ``setup(directory, seed) -> state``,
``run_round(state, log, index)``, ``check(state, log)``,
``report(state, log) -> lines`` and ``close(state)``, plus ``MAX_ROUNDS``.
The loop is closed with one client: each operation starts when the previous
one has returned.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import shutil
import statistics
import time
from pathlib import Path

import tracing

SETUPS = 3


class OpLog:
    """Every timed operation of a run, with its outcome."""

    def __init__(self, tracer: tracing.Tracer):
        self.tracer = tracer
        self.kinds: list[str] = []
        self.seconds: list[float] = []
        self.errors: dict[int, str] = {}
        self.check_failures: list[str] = []

    def run(self, kind: str, fn, *args):
        """Time ``fn(*args)`` as one operation; returns (index, result).

        An exception, or an exit through ``SystemExit``, fails the operation
        and yields a ``None`` result.
        """
        index = len(self.kinds)
        result = None
        with self.tracer.span("op." + kind):
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            except (Exception, SystemExit) as exc:
                self.errors[index] = f"{kind}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        self.kinds.append(kind)
        self.seconds.append(elapsed)
        return index, result

    def check(self, ok: bool, index: int | None, message: str) -> bool:
        """Record a failed check on operation ``index`` (None: on the inputs)."""
        if not ok:
            self.check_failures.append(message)
            if index is not None:
                self.errors.setdefault(index, message)
        return bool(ok)

    def times(self, kind: str) -> list[float]:
        return [s for k, s in zip(self.kinds, self.seconds) if k == kind]


def cli_call(cli, argv: list[str]):
    """``zw3d.cli.main(argv)`` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def tail(values: list[float]):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None below forty samples."""
    n = len(values)
    if n < 40:
        return None
    return math.floor(100.0 * (n - 10) / n), sorted(values)[n - 11]


def describe(name: str, values: list[float], unit: str = "s") -> str:
    if not values:
        return f"{name}: no samples"
    line = f"{name}: median {statistics.median(values):.4f} {unit}, n={len(values)}"
    t = tail(values)
    if t:
        line += f", p{t[0]} {t[1]:.4f} {unit}"
    return line


def execute(workload, seed: int, seconds: float, tracer: tracing.Tracer, work: Path):
    """Set up SETUPS times, run whole rounds for ``seconds``, then check."""
    setup_s = []
    state = None
    try:
        for k in range(SETUPS):
            if state is not None:
                workload.close(state)
                shutil.rmtree(work / f"setup{k - 1}")
            directory = work / f"setup{k}"
            directory.mkdir(parents=True)
            tracer.phase = tracing.SETUP
            t0 = time.perf_counter()
            state = workload.setup(directory, seed)
            setup_s.append(time.perf_counter() - t0)
            tracer.phase = 0

        log = OpLog(tracer)
        rounds: list[float] = []
        tracer.phase = tracing.TIMED
        while len(rounds) < workload.MAX_ROUNDS:
            t0 = time.perf_counter()
            workload.run_round(state, log, len(rounds))
            rounds.append(time.perf_counter() - t0)
            if sum(rounds) + statistics.mean(rounds) > seconds:
                break
        tracer.phase = 0
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        workload.check(state, log)
        lines = workload.report(state, log)
    finally:
        tracer.phase = 0
        if state is not None:
            workload.close(state)
        shutil.rmtree(work, ignore_errors=True)

    return {
        "setup_s": setup_s,
        "rounds": rounds,
        "peak_rss_mb": peak_mb,
        "log": log,
        "lines": lines,
    }
