"""Per-layer metrics derived from the spans of one traced run.

Layers are glaug's modules. Times are seconds summed over every process of
the run (fold workers included) and divided by the number of run-phase
operations, so they read per fold, per CLI command or per dataset load; the
caller then scales them to reference machine speed. The `data.*` metrics are
per dataset load instead. Counts are divided the same
way; every operation of a run does identical work, so they are exact.

Work done under `evaluate` or `label_invariant_rate` is frozen (no training
step): it is counted in `training.evaluate_s` / `training.rate_s` and in
`model.represent_frozen_s`, never in `autodiff.*`, `training.adam_s` or
`model.heads_s`. Augmentation counts include the rate pass, which runs the
same selection.
"""

from __future__ import annotations

from spans import Span, ancestors, self_times

FROZEN = frozenset({"evaluate", "label_invariant_rate"})
LOSSES = frozenset({"contrastive_loss", "ntxent_with_negatives", "classification_loss"})
ARTIFACTS = frozenset({"metrics_document", "manifest_document", "write_artifact"})

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "data.parse_s": "s",
    "data.features_s": "s",
    "data.nodes": "count",
    "model.adjacency_calls": "count",
    "model.adjacency_s": "s",
    "model.represent_calls": "count",
    "model.represent_train_s": "s",
    "model.represent_frozen_s": "s",
    "model.node_rows": "count",
    "model.heads_s": "s",
    "augment.calls": "count",
    "augment.self_s": "s",
    "augment.snapshot_calls": "count",
    "augment.snapshot_s": "s",
    "augment.qualified_ratio": "ratio",
    "augment.fallback_ratio": "ratio",
    "autodiff.backward_calls": "count",
    "autodiff.backward_s": "s",
    "autodiff.tape_records": "count",
    "autodiff.records_per_graph": "count",
    "training.loss_s": "s",
    "training.adam_s": "s",
    "training.evaluate_s": "s",
    "training.rate_s": "s",
    "training.self_s": "s",
    "training.pool_busy_share": "ratio",
    "reporting.fingerprint_calls": "count",
    "reporting.fingerprint_s": "s",
    "reporting.artifacts_s": "s",
    "trace.overhead": "ratio",
    "machine.calibration_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list[Span], ops: int, graphs: int) -> dict[str, float]:
    """Every UNITS metric except the three the caller measures without spans
    (`training.pool_busy_share`, `trace.overhead`, `machine.calibration_s`).

    `ops` is the number of run-phase operations the spans cover and
    `graphs` the graphs they processed (training graph-steps, or graphs loaded).
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    frozen = {s.id for s in spans if not FROZEN.isdisjoint(ancestors(s, by_id))}

    def pick(names, train_only=False):
        return [
            s for s in spans
            if s.name in names and not (train_only and s.id in frozen)
        ]

    def count(key, chosen):
        return sum(s.counts[key] for s in chosen)

    def wall(chosen):
        return sum(s.duration for s in chosen)

    def own_wall(chosen):
        return sum(own[s.id] for s in chosen)

    parses = pick({"parse_tudataset"})
    loads = len(parses)
    represents = pick({"represent"})
    augments = pick({"augment"})
    backwards = pick({"backward"}, train_only=True)
    records = count("records", backwards)

    per_op = {
        "model.adjacency_calls": len(pick({"normalize_adjacency"})),
        "model.adjacency_s": wall(pick({"normalize_adjacency"})),
        "model.represent_calls": len(represents),
        "model.represent_train_s": wall(s for s in represents if s.id not in frozen),
        "model.represent_frozen_s": wall(s for s in represents if s.id in frozen),
        "model.node_rows": count("nodes", represents),
        "model.heads_s": wall(pick({"classify", "project"}, train_only=True)),
        "augment.calls": len(augments),
        "augment.self_s": own_wall(augments),
        "augment.snapshot_calls": len(pick({"snapshot_probs"})),
        "augment.snapshot_s": wall(pick({"snapshot_probs"})),
        "autodiff.backward_calls": len(backwards),
        "autodiff.backward_s": wall(backwards),
        "autodiff.tape_records": records,
        "training.loss_s": wall(pick(LOSSES)),
        "training.adam_s": wall(pick({"adam_step"}, train_only=True)),
        "training.evaluate_s": wall(pick({"evaluate"})),
        "training.rate_s": wall(pick({"label_invariant_rate"})),
        "training.self_s": own_wall(pick({"train_fold"})),
        "reporting.fingerprint_calls": len(pick({"dataset_fingerprint"})),
        "reporting.fingerprint_s": wall(pick({"dataset_fingerprint"})),
        "reporting.artifacts_s": own_wall(pick(ARTIFACTS)),
    }
    out = {
        "data.parse_s": _ratio(own_wall(parses), loads),
        "data.features_s": _ratio(wall(pick({"build_node_features"})), loads),
        "data.nodes": _ratio(count("nodes", parses), loads),
    }
    out.update({name: _ratio(value, ops) for name, value in per_op.items()})
    out["augment.qualified_ratio"] = _ratio(
        count("qualified", augments), count("candidates", augments)
    )
    out["augment.fallback_ratio"] = _ratio(count("fallback", augments), len(augments))
    out["autodiff.records_per_graph"] = _ratio(records, graphs)
    return out
