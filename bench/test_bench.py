"""Checks on the benchmark's own arithmetic and tracing.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import importlib
import os

import pytest

import glaug.training
import layers
import workloads
from spans import Span, Tracer, installed, self_times, TARGETS


def _small(name: str, **changes) -> workloads.Workload:
    """The workload on 40 graphs; too few to learn from, so no accuracy floor."""
    return dataclasses.replace(
        workloads.WORKLOADS[name], graphs=40, accuracy_floor=0.0, **changes
    )


def _loaded(w: workloads.Workload, tmp_path):
    data = tmp_path / "data"
    data.mkdir(parents=True)
    workloads.generate(w, seed=3, data_dir=data)
    loader = workloads.LoadOp(w, data)
    assert loader.check(loader.run()) == []
    return loader.last, data


def _traced_fold(tmp_path):
    w = _small("mutag_k10", train={"epochs": 1})
    ds, _ = _loaded(w, tmp_path)
    op = workloads.FoldOp(w, ds)
    tracer = Tracer(tmp_path / "spans")
    with installed(tracer):
        result = op.run()
    assert op.check(result) == []
    return op, tracer.collect()


def test_self_time_subtracts_nested_children():
    spans = [
        Span(1, None, "train_fold", 0.0, 10.0),
        Span(2, 1, "augment", 1.0, 5.0),
        Span(3, 2, "snapshot_probs", 2.0, 3.0),
        Span(4, 2, "snapshot_probs", 3.5, 4.0),
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.5, 3: 1.0, 4: 0.5}


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, None, "run_experiment", 0.0, 10.0),
        Span(2, 1, "train_fold", 1.0, 4.0),  # two workers at once
        Span(3, 1, "train_fold", 2.0, 6.0),
        Span(4, 1, "train_fold", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_traced_fold_nests_snapshot_in_augment_in_train_fold(tmp_path):
    _, spans = _traced_fold(tmp_path)
    by_id = {s.id: s for s in spans}
    root = next(s for s in spans if s.name == "train_fold")
    augments = [s for s in spans if s.name == "augment"]
    assert augments and all(by_id[s.parent].name in ("train_fold", "label_invariant_rate") for s in augments)
    under_augment = [s for s in spans if s.name == "snapshot_probs" and by_id[s.parent].name == "augment"]
    assert len(under_augment) >= len(augments) * workloads.WORKLOADS["mutag_k10"].config().num_candidates
    # Sequential spans: self times of the whole tree add up to the root's duration.
    assert sum(self_times(spans).values()) == pytest.approx(root.duration, rel=1e-9)


def test_backward_under_rate_pass_is_attributed_to_rate(tmp_path):
    op, spans = _traced_fold(tmp_path)
    by_id = {s.id: s for s in spans}
    rate = next(s for s in spans if s.name == "label_invariant_rate")
    backwards = [s for s in spans if s.name == "backward"]
    in_rate = [s for s in backwards if by_id[s.parent].name == "label_invariant_rate"]
    assert len(in_rate) == glaug.training.SURROGATE_STEPS

    values = layers.per_layer(spans, ops=1, graphs=op.graphs)
    batches = len(glaug.training._batches(list(op.plan.train_indices), op.cfg.batch_size))
    assert values["autodiff.backward_calls"] == batches * op.cfg.epochs
    assert values["autodiff.backward_s"] == pytest.approx(
        sum(s.duration for s in backwards if s not in in_rate)
    )
    assert values["training.rate_s"] == pytest.approx(rate.duration)
    assert values["training.rate_s"] >= sum(s.duration for s in in_rate)


def test_counts_repeat_exactly(tmp_path):
    first = layers.per_layer(_traced_fold(tmp_path / "a")[1], ops=1, graphs=1)
    second = layers.per_layer(_traced_fold(tmp_path / "b")[1], ops=1, graphs=1)
    for name in ("autodiff.tape_records", "augment.snapshot_calls", "model.adjacency_calls"):
        assert first[name] == second[name] > 0


def test_installed_restores_every_wrapped_name(tmp_path):
    originals = {
        (module, name): getattr(importlib.import_module(module), name)
        for module, names in TARGETS for name in names
    }
    with pytest.raises(RuntimeError):
        with installed(Tracer(tmp_path)):
            for (module, name), fn in originals.items():
                assert getattr(importlib.import_module(module), name) is not fn
            raise RuntimeError("leave the block early")
    for (module, name), fn in originals.items():
        assert getattr(importlib.import_module(module), name) is fn


def test_traced_cli_run_writes_identical_artifacts(tmp_path):
    w = _small("mutag_cli_par2", train={"epochs": 1})
    ds, data = _loaded(w, tmp_path)
    plain = workloads.CliOp(w, ds, data, tmp_path / "plain")
    assert plain.check(plain.run()) == []

    traced = workloads.CliOp(w, ds, data, tmp_path / "traced")
    tracer = Tracer(tmp_path / "spans")
    with installed(tracer):
        assert traced.check(traced.run()) == []
    spans = tracer.collect()

    for name in ("metrics.json", "manifest.json"):
        assert (plain.out_dir / name).read_bytes() == (traced.out_dir / name).read_bytes()
    folds = [s for s in spans if s.name == "train_fold"]
    assert len(folds) == 10
    assert all(s.pid != os.getpid() for s in folds)  # recorded in forked workers
    by_id = {s.id: s for s in spans}
    assert all(by_id[s.parent].name == "run_experiment" for s in folds)
    assert layers.per_layer(spans, ops=1, graphs=traced.graphs)["reporting.fingerprint_calls"] == 2
