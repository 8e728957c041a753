"""Span tracer for the benchmark's traced runs.

A traced run replaces each public glaug function in TARGETS, at the module
attribute its callers look it up by, with a wrapper that records a span
(id, parent id, name, start, end, counts) around the call. `installed`
restores every original when it exits. Spans stay in memory. Fold workers
forked by `--parallel-folds` inherit the wrappers and the open span stack;
each worker appends its own spans to a file when its `train_fold` returns,
and `Tracer.collect` merges those files with the parent's spans.

This module imports no glaug code until `installed` runs, so the benchmark
can check for the source tree before anything imports it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# (module, attribute names) that callers resolve at call time. glaug.cli binds
# its own names at import, so the CLI's copies are wrapped separately.
TARGETS = (
    ("glaug.training", (
        "train_fold", "augment", "represent", "classify", "project",
        "normalize_adjacency", "adam_step", "evaluate", "label_invariant_rate",
        "contrastive_loss", "ntxent_with_negatives", "classification_loss",
    )),
    ("glaug.augment", ("snapshot_probs",)),
    ("glaug.autodiff", ("backward",)),
    ("glaug.data", ("parse_tudataset", "build_node_features")),
    ("glaug.cli", (
        "parse_tudataset", "build_node_features", "run_experiment",
        "metrics_document", "manifest_document", "write_artifact",
    )),
    ("glaug.reporting", ("dataset_fingerprint",)),
)

_ID_STRIDE = 10**9  # span id = pid * stride + sequence number within that process


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counts read at the boundary where the work happens. BEFORE probes see the
# arguments before the call; AFTER probes also see the result.
BEFORE = {
    "backward": lambda a, k: {"records": _arg(a, k, 0, "loss").tape.num_records},
}
AFTER = {
    "parse_tudataset": lambda a, k, r: {"nodes": sum(g.node_count for g in r.graphs)},
    "represent": lambda a, k, r: {"nodes": _arg(a, k, 1, "g").node_count},
    "augment": lambda a, k, r: {
        "qualified": r.qualified_count,
        "candidates": _arg(a, k, 3, "cfg").num_candidates,
        "fallback": int(r.fallback),
    },
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def pid(self) -> int:
        """The process that recorded the span."""
        return self.id // _ID_STRIDE


class Tracer:
    """Collects spans in memory; forked workers spill theirs to `spill_dir`."""

    def __init__(self, spill_dir) -> None:
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._seq = 0

    def _new_id(self) -> int:
        self._seq += 1
        return os.getpid() * _ID_STRIDE + self._seq

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        kwargs = kwargs or {}
        before, after = BEFORE.get(name), AFTER.get(name)
        counts = before(args, kwargs) if before else None
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        if after:
            counts = after(args, kwargs, result)
        self.spans.append(Span(sid, parent, name, start, end, counts))
        if name == "train_fold" and os.getpid() != self.pid:
            self.spill()
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def spill(self) -> None:
        """Append this process's spans to its spill file and drop them."""
        pid = os.getpid()
        mine = [s for s in self.spans if s.pid == pid]
        self.spans = [s for s in self.spans if s.pid != pid]
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"spans-{pid}.jsonl", "a", encoding="utf-8") as fh:
            for s in mine:
                fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end, s.counts]) + "\n")

    def collect(self) -> list[Span]:
        """All spans recorded so far, in this process and in spilled workers.

        Clears them, so the next collect returns only newer spans.
        """
        spans, self.spans = self.spans, []
        if self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as fh:
                    spans.extend(Span(*json.loads(line)) for line in fh)
                path.unlink()
        return spans


@contextmanager
def installed(tracer: Tracer):
    """Wrap every TARGETS function for the duration of the block."""
    saved = []
    try:
        for module_name, names in TARGETS:
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


# ---------------------------------------------------------------- arithmetic


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children from parallel workers may overlap each other; the union is
    subtracted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - _covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def ancestors(span: Span, by_id: dict[int, Span]):
    """Names of the spans above `span`, nearest first."""
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent.name
        parent = by_id.get(parent.parent)


def breakdown(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """Span name -> (calls, inclusive seconds, self seconds)."""
    own = self_times(spans)
    table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = table[s.name]
        row[0] += 1
        row[1] += s.duration
        row[2] += own[s.id]
    return {name: tuple(row) for name, row in table.items()}
