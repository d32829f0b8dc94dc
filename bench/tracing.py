"""Spans around zw3d's public functions, recorded from outside the package.

``install`` replaces each traced function, in every zw3d module that holds a
reference to it, with a wrapper that records one span per call: name, start,
end and the enclosing span.  Spans live in flat arrays in memory and are
written out once, when the run ends.  A layer's self time is the length of
its spans minus the part covered by their child spans.

Set-up is traced only for the layers that make the inputs (``corpus`` and
``attacks``); the timed rounds are traced for every layer.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import time
from array import array

import numpy as np

SETUP, TIMED = 1, 2
SETUP_LAYERS = ("corpus.", "attacks.")

# Functions traced wherever a zw3d module references them:
# (module, attribute, span name, counter).
_FUNCTIONS = (
    ("frameio", "load_clip", "frameio.load_clip", "frames_read"),
    ("frameio", "normalize_clip", "frameio.normalize_clip", "source_frames_resampled"),
    ("features", "extract_feature", "features.extract_feature", "extractions"),
    ("shares", "recover_from_feature", "shares.recover", None),
    ("fusion", "score_record", "fusion.score", "records_scored"),
    ("fusion", "match_query", "fusion.match_query", "matches"),
    ("fusion", "calibration_report", "fusion.calibration", "pairs_scored"),
    ("dibr", "synthesize_clip", "dibr.synthesize_clip", None),
    ("evaluation", "ber_table", "evaluation.ber", None),
    ("corpus", "generate_corpus", "corpus.generate", None),
    ("corpus", "make_clip", "corpus.generate", None),
    ("cli", "main", "cli", None),
)

# The bind chain is traced only where the CLI calls it: inside
# ``recover_from_feature`` the same functions belong to recovery.
_BIND = ("binarize_feature", "rearrange", "build_master_share", "build_ownership_share")


def _distinct_slots(n_frames: int, slots: int = 100) -> int:
    """Distinct source frames picked by nearest-index resampling to 100 slots."""
    return len({k * n_frames // slots for k in range(slots)})


_COUNTERS = {
    "frames_read": lambda result, args, pre: len(result),
    "source_frames_resampled": lambda result, args, pre: _distinct_slots(len(args[0])),
    "extractions": lambda result, args, pre: 1,
    "records_scored": lambda result, args, pre: 1,
    "matches": lambda result, args, pre: len(result),
    "pairs_scored": lambda result, args, pre: len(args[0]) * (len(args[0]) - 1) // 2,
    "records_indexed": lambda result, args, pre: len(args[0]),
    "bytes_written": lambda result, args, pre: os.path.getsize(args[0].path) - pre,
}


class Tracer:
    """Span and counter store; records nothing until ``phase`` is set."""

    def __init__(self):
        self.phase = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._setup_ok: list[bool] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.span_phase = array("b")
        self.counts: dict[tuple[int, str], float] = {}
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._setup_ok.append(name.startswith(SETUP_LAYERS))
        return self._ids[name]

    def recording(self, nid: int) -> bool:
        return self.phase == TIMED or (self.phase == SETUP and self._setup_ok[nid])

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.span_phase.append(self.phase)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, counter: str, value: float) -> None:
        key = (self.phase, counter)
        self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        nid = self._intern(name)
        if not self.recording(nid):
            yield
            return
        i = self.open(nid)
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, fn, name, counter=None, before=None):
        """Wrapper of ``fn`` recording a span per call; ``name`` may be a
        function of the call's arguments."""
        tracer = self
        fixed = None if callable(name) else self._intern(name)
        count = _COUNTERS[counter] if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._intern(name(args))
            if not tracer.recording(nid):
                return fn(*args, **kwargs)
            pre = before(args) if before else None
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if count:
                tracer.count(counter, count(result, args, pre))
            return result

        return traced

    def wrap_scan(self, iterate):
        """Generator wrapper: one span per record the registry scan yields."""
        tracer = self
        nid = self._intern("registry.scan")

        @functools.wraps(iterate)
        def traced(db):
            it = iterate(db)
            while True:
                if not tracer.recording(nid):
                    item = next(it, None)
                else:
                    i = tracer.open(nid)
                    try:
                        item = next(it, None)
                    finally:
                        tracer.close(i)
                    if item is not None:
                        tracer.count("records_decoded", 1)
                if item is None:
                    return
                yield item

        return traced

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[tuple[int, str], float]:
        """Self time per (phase, span name)."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - covered
        name = np.frombuffer(self.name, dtype=np.int32)
        phase = np.frombuffer(self.span_phase, dtype=np.int8)
        out = {}
        for ph in (SETUP, TIMED):
            sel = phase == ph
            totals = np.bincount(name[sel], weights=own[sel], minlength=len(self.names))
            for nid, total in enumerate(totals):
                if total:
                    out[(ph, self.names[nid])] = float(total)
        return out

    def span_count(self, phase: int) -> int:
        return int(np.count_nonzero(np.frombuffer(self.span_phase, dtype=np.int8) == phase))

    def write(self, path) -> None:
        """Write every span (times in microseconds from the first span)."""
        n = len(self.start)
        t0 = self.start[0] if n else 0.0
        to_us = lambda a: np.rint((np.frombuffer(a, dtype=np.float64) - t0) * 1e6).astype(np.int64).tolist()
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "phase", "start_us", "end_us"],
            "name": list(self.name),
            "parent": list(self.parent),
            "phase": list(self.span_phase),
            "start_us": to_us(self.start) if n else [],
            "end_us": to_us(self.end) if n else [],
            "counts": [[phase, key, value] for (phase, key), value in self.counts.items()],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer: Tracer, zw3d) -> None:
    """Route calls into zw3d's layers through ``tracer``."""
    import importlib

    modules = [zw3d] + [importlib.import_module(f"zw3d.{m}") for m in (
        "frameio", "features", "shares", "fusion", "registry", "dibr",
        "attacks", "evaluation", "corpus", "cli")]

    def patch_everywhere(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    for mod_name, attr, name, counter in _FUNCTIONS:
        original = getattr(importlib.import_module(f"zw3d.{mod_name}"), attr)
        patch_everywhere(original, tracer.wrap(original, name, counter))

    attacks = importlib.import_module("zw3d.attacks")
    original = attacks.apply_attack
    patch_everywhere(original, tracer.wrap(original, lambda args: f"attacks.{args[1].family}"))

    cli = importlib.import_module("zw3d.cli")
    for attr in _BIND:
        setattr(cli, attr, tracer.wrap(getattr(cli, attr), "shares.bind"))

    Registry = importlib.import_module("zw3d.registry").Registry
    Registry.__init__ = tracer.wrap(Registry.__init__, "registry.open", "records_indexed")
    Registry.register = tracer.wrap(
        Registry.register, "registry.append", "bytes_written",
        before=lambda args: os.path.getsize(args[0].path))
    Registry.get_record = tracer.wrap(Registry.get_record, "registry.lookup")
    Registry.iterate_features = tracer.wrap_scan(Registry.iterate_features)


def span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    probe = Tracer()
    probe.phase = TIMED

    def noop(*args):
        return None

    traced = probe.wrap(noop, "probe")
    t0 = time.perf_counter()
    for _ in range(samples):
        noop(1)
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        traced(1)
    return max(time.perf_counter() - t0 - plain, 0.0) / samples
