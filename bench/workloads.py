"""The benchmark's workloads: input generation, operations, checks, metrics.

Run as a script, this is one workload's measuring process. run.py starts it
in a process of its own, so its peak memory is its own, with BLAS pinned to
one thread:

    python3 bench/workloads.py --workload NAME --work DIR --seconds S --trace 0|1

It reads the inputs `generate` wrote to DIR/data, times the dataset load
several times (setup), runs the workload's operation repeatedly for S
seconds (run phase), checks every result and writes DIR/result.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import glaug.cli
import glaug.data
import glaug.training
from glaug.data import FeaturePolicy, assign_labels, make_folds

import layers
from spans import Tracer, breakdown, installed

MIN_OPS = 3  # every median is taken over at least this many operations
SETUP_MIN_SECONDS = 3.0
CLI_WORKERS = 2
# Seconds `calibrate` is taken to last at the reference machine speed.
CALIBRATION_REF_S = 0.05


@dataclass(frozen=True)
class Workload:
    """One input set and the operation the run phase repeats on it.

    Why each workload exists, and which layers it should and should not
    stress, is written in README.md and in BENCHMARK.json.
    """

    name: str
    graphs: int
    sizes: tuple[int, int]  # node-count range, inclusive
    densities: tuple[float, float]  # edge density of class 0 and class 1
    op: str  # "fold" (train_fold on fold 0), "cli" (glaug run) or "load"
    features: str | None = None  # feature policy applied after parsing; None keeps the default
    train: dict = field(default_factory=dict)  # TrainConfig overrides
    # Least test accuracy a fold (or a CLI run's mean) must reach. Set below the
    # lowest value seen over seeds 1-30 (mutag_k10: 0.37 on 19 test graphs after
    # 4 epochs), seeds 1-20 (large_ntxent: 0.80) and seeds 1-10 (mutag_cli_par2: 0.57).
    accuracy_floor: float = 0.0

    @property
    def dataset(self) -> str:
        return self.name.upper()

    def config(self) -> glaug.training.TrainConfig:
        return glaug.training.TrainConfig(**self.train)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mutag_k10",
            graphs=188, sizes=(10, 28), densities=(0.08, 0.16), op="fold",
            train={"epochs": 4}, accuracy_floor=0.25,
        ),
        Workload(
            name="large_ntxent",
            graphs=200, sizes=(60, 120), densities=(0.05, 0.10), op="fold",
            features="degree_one_hot:10",
            train={"epochs": 2, "negative_pairs": True, "num_candidates": 1},
            accuracy_floor=0.7,
        ),
        Workload(
            name="parse_12k",
            graphs=12000, sizes=(10, 28), densities=(0.1, 0.3), op="load",
        ),
        Workload(
            name="mutag_cli_par2",
            graphs=188, sizes=(10, 28), densities=(0.08, 0.16), op="cli",
            train={"epochs": 2}, accuracy_floor=0.5,
        ),
    )
}


# ------------------------------------------------------------------- inputs


def generate(w: Workload, seed: int, data_dir: Path) -> None:
    """Write the workload's TUDataset files and the fingerprint a correct load gives."""
    ds = glaug.data.generate_synthetic(
        w.graphs, 2, w.sizes, w.densities, seed=seed, name=w.dataset
    )
    glaug.data.write_tudataset(ds, data_dir, w.dataset)
    if w.features:
        ds = glaug.data.build_node_features(ds, FeaturePolicy.parse(w.features))
    expected = {"fingerprint": glaug.data.dataset_fingerprint(ds)}
    (data_dir / "expected.json").write_text(json.dumps(expected), encoding="utf-8")


def load(w: Workload, data_dir: Path):
    """TUDataset files on disk -> training-ready GraphDataset (the setup step)."""
    ds = glaug.data.parse_tudataset(data_dir, w.dataset)
    if w.features:
        ds = glaug.data.build_node_features(ds, FeaturePolicy.parse(w.features))
    return ds


# --------------------------------------------------------------- operations
#
# Each operation has run() (timed) and check(value) (not timed), which
# returns the problems it found. `graphs` is the graphs one run() processes:
# training graph-steps (train graphs x epochs x folds), or graphs loaded.


class LoadOp:
    def __init__(self, w: Workload, data_dir: Path):
        self.w, self.data_dir = w, data_dir
        self.fingerprint = json.loads((data_dir / "expected.json").read_text())["fingerprint"]
        self.graphs = w.graphs
        self.last = None  # the latest dataset loaded

    def run(self):
        self.last = None  # so peak memory holds one dataset, not two
        self.last = load(self.w, self.data_dir)
        return self.last

    def check(self, ds) -> list[str]:
        got = glaug.data.dataset_fingerprint(ds)
        return [] if got == self.fingerprint else [f"fingerprint {got[:12]} != {self.fingerprint[:12]}"]


def _fold_problems(w: Workload, fold: dict, train_size: int) -> list[str]:
    problems = []
    losses = list(fold["epoch_pair_losses"]) + list(fold["epoch_cls_losses"])
    if not all(math.isfinite(x) for x in losses):
        problems.append(f"fold {fold['fold_index']}: non-finite loss")
    augment_calls = train_size * w.config().epochs
    if sum(fold["qualified_histogram"]) != augment_calls:
        problems.append(
            f"fold {fold['fold_index']}: qualified_histogram sums to "
            f"{sum(fold['qualified_histogram'])}, expected {augment_calls} augment calls"
        )
    for key in ("label_invariant_rate", "fallback_rate"):
        if not 0.0 <= fold[key] <= 1.0:
            problems.append(f"fold {fold['fold_index']}: {key} {fold[key]} outside [0, 1]")
    return problems


class FoldOp:
    def __init__(self, w: Workload, ds):
        self.w, self.ds, self.cfg = w, ds, w.config()
        self.plan = assign_labels(
            make_folds(ds, 10, self.cfg.seed)[0], self.cfg.label_ratio, self.cfg.seed
        )
        self.graphs = len(self.plan.train_indices) * self.cfg.epochs

    def run(self):
        return glaug.training.train_fold(self.ds, self.plan, self.cfg)

    def check(self, result) -> list[str]:
        problems = _fold_problems(self.w, dataclasses.asdict(result), len(self.plan.train_indices))
        if result.test_accuracy < self.w.accuracy_floor:
            problems.append(f"test accuracy {result.test_accuracy} < {self.w.accuracy_floor}")
        return problems


class CliOp:
    """`glaug run DATA --epochs E --parallel-folds 2` for all 10 folds."""

    def __init__(self, w: Workload, ds, data_dir: Path, out_dir: Path):
        self.w, self.data_dir, self.out_dir = w, data_dir, out_dir
        cfg = w.config()
        self.train_sizes = [len(p.train_indices) for p in make_folds(ds, 10, cfg.seed)]
        self.graphs = sum(self.train_sizes) * cfg.epochs

    def argv(self) -> list[str]:
        cfg = self.w.config()
        return [
            "run", str(self.data_dir), "--name", self.w.dataset,
            "--epochs", str(cfg.epochs), "--parallel-folds", str(CLI_WORKERS),
            "--out", str(self.out_dir),
        ]

    def run(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return glaug.cli.main(self.argv())

    def check(self, exit_code) -> list[str]:
        if exit_code != 0:
            return [f"glaug run exited with {exit_code}"]
        doc = json.loads((self.out_dir / "metrics.json").read_text(encoding="utf-8"))
        if doc.get("schema") != "glaug-metrics/1":
            return [f"metrics schema {doc.get('schema')!r}"]
        folds = doc.get("folds", [])
        if len(folds) != 10:
            return [f"{len(folds)} folds in metrics.json, expected 10"]
        problems = []
        for fold, train_size in zip(sorted(folds, key=lambda f: f["fold_index"]), self.train_sizes):
            problems += _fold_problems(self.w, fold, train_size)
        mean = doc["summary"]["mean_accuracy"]
        if mean < self.w.accuracy_floor:
            problems.append(f"mean test accuracy {mean} < {self.w.accuracy_floor}")
        return problems


# -------------------------------------------------------------- measurement


_CAL_H = np.random.default_rng(0).normal(size=(1, 128))
_CAL_W = np.random.default_rng(1).normal(size=(128, 128)) / 10


def calibrate() -> float:
    """Seconds a fixed reference computation takes right now.

    The shared machines this runs on change speed by up to 1.7x over seconds
    and drift by 30-50% over tens of minutes, and the two move together for
    every kind of code. The mix here (1 x 128 products, elementwise numpy, a
    dict-heavy Python loop) resembles glaug's per-graph work but runs none of
    its code, so a change to glaug leaves it alone.
    """
    start = time.perf_counter()
    for _ in range(1800):
        z = np.maximum(_CAL_H @ _CAL_W + 0.1, 0.0)
        e = np.exp(z - z.max())
        e /= e.sum()
    counts: dict[int, int] = {}
    for i in range(135_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


class Ledger:
    """Times operations and counts those that raise or fail their check.

    Every operation is bracketed by calibrations, and its wall time is
    scaled to the reference machine speed by their mean.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0  # unscaled wall time of all successful runs
        self.calibrations = [calibrate()]

    def attempt(self, op) -> float | None:
        """Run op once; its seconds at reference speed, or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            value = op.run()
            wall = time.perf_counter() - start
            problems = op.check(value)
        except Exception:  # an operation that raises counts as failed; keep measuring
            traceback.print_exc()
            problems = ["raised"]
        # Start every operation from the same heap, so no operation pays for
        # collecting the previous one's garbage and peak memory repeats.
        gc.collect()
        self.calibrations.append(calibrate())
        if problems:
            print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return None
        self.wall_s += wall
        return wall * CALIBRATION_REF_S / statistics.mean(self.calibrations[-2:])

    def repeat(self, op, seconds: float, min_runs: int = 1) -> list[float]:
        """Scaled times of op's successful runs; runs until both floors are met."""
        times = []
        start = time.perf_counter()
        runs = 0
        while runs < min_runs or time.perf_counter() - start < seconds:
            runs += 1
            t = self.attempt(op)
            if t is not None:
                times.append(t)
        return times


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process and of any worker it reaped (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def measure(w: Workload, work: Path, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload; the result line as a dict."""
    ledger = Ledger()
    loader = LoadOp(w, work / "data")
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}

    # Setup: files on disk -> training-ready dataset, timed several times.
    # On a load workload the load is also the run-phase operation, so its
    # setup loads make up the run phase. A traced run reports no setup_s and
    # needs the dataset only once.
    if trace:
        setup_times = ledger.repeat(loader, 0.0)
    else:
        setup_seconds = max(SETUP_MIN_SECONDS, seconds if w.op == "load" else 0.0)
        setup_times = ledger.repeat(loader, setup_seconds, MIN_OPS)
    if loader.last is None:
        result.update(attempted=ledger.attempted, failed=ledger.failed)
        return result

    if w.op == "load":
        op = loader
    elif w.op == "fold":
        op = FoldOp(w, loader.last)
    else:
        op = CliOp(w, loader.last, work / "data", work / "out")
    cpu_before, wall_before = _children_cpu(), ledger.wall_s
    times = setup_times if op is loader else ledger.repeat(op, seconds, MIN_OPS)
    run_wall = ledger.wall_s - wall_before
    pool_busy = (_children_cpu() - cpu_before) / (CLI_WORKERS * run_wall) if run_wall else 0.0

    if not trace:
        metrics = {
            "setup_s": (_median(setup_times), "s"),
            "graphs_per_s": (_median([op.graphs / t for t in times]), "1/s"),
            "peak_rss_mb": (_peak_rss_mb(), "MiB"),
        }
    else:
        first = len(ledger.calibrations) - 1
        tracer = Tracer(work / "spans")
        with installed(tracer):
            if w.op != "load":
                ledger.repeat(loader, 0.0)  # one traced load for the data.* metrics
            traced_times = ledger.repeat(op, seconds, MIN_OPS)
        spans = tracer.collect()
        values = layers.per_layer(spans, len(traced_times), op.graphs * len(traced_times))
        # Span times to reference speed, by the calibrations around the traced runs.
        scale = CALIBRATION_REF_S / statistics.median(ledger.calibrations[first:])
        values = {k: v * scale if layers.UNITS[k] == "s" else v for k, v in values.items()}
        values["training.pool_busy_share"] = pool_busy if w.op == "cli" else 0.0
        values["trace.overhead"] = _median(traced_times) / _median(times) if times else 0.0
        values["machine.calibration_s"] = statistics.median(ledger.calibrations)
        metrics = {name: (values[name], unit) for name, unit in layers.UNITS.items()}
        rows = sorted(breakdown(spans).items(), key=lambda kv: -kv[1][1])
        for name, (calls, inclusive, own) in rows:
            print(
                f"span {name:22s} calls {calls:8d}  inclusive {inclusive:9.4f} s  "
                f"self {own:9.4f} s  (unscaled)",
                file=sys.stderr,
            )

    result.update(
        correct=ledger.failed == 0,
        attempted=ledger.attempted,
        failed=ledger.failed,
        metrics={name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    result = measure(WORKLOADS[args.workload], args.work, args.seconds, bool(args.trace))
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
