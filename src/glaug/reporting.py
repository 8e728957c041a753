"""Artifact plumbing: metrics documents, run manifests, plot-ready tables.

Everything written here must be byte-deterministic for a fixed (seed, config,
dataset): canonical JSON (sorted keys, fixed separators), no timestamps, no
absolute-path leakage beyond what the user typed. The manifest alone is
enough to re-execute a run and reproduce its artifacts byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from . import __version__
from .data import GraphDataset, dataset_fingerprint, dataset_stats
from .errors import InputError
from .training import ExperimentResult, TrainConfig

METRICS_SCHEMA = "glaug-metrics/1"
MANIFEST_SCHEMA = "glaug-manifest/1"


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no trailing spaces, one final newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def write_artifact(path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def render_table(headers: list[str], rows: list[list]) -> str:
    """Tab-delimited text with a header row; floats rendered via repr."""
    def cell(x):
        if isinstance(x, float):
            return repr(x)
        return str(x)

    lines = ["\t".join(headers)]
    lines.extend("\t".join(cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _document_head(
    schema: str, cfg: TrainConfig, feature_policy: str, dataset: GraphDataset, dataset_path: str
) -> dict:
    """What metrics and manifest share: the config with all defaults
    materialized plus the resolved feature policy, and the dataset by the path
    as the user typed it."""
    return {
        "schema": schema,
        "tool_version": __version__,
        "config": dict(dataclasses.asdict(cfg), feature_policy=feature_policy),
        "dataset": {
            "path": dataset_path,
            "fingerprint": dataset_fingerprint(dataset),
            "stats": dataset_stats(dataset),
        },
    }


def experiment_dict(result: ExperimentResult) -> dict:
    folds = [dataclasses.asdict(f) for f in result.folds]
    rates = [f.label_invariant_rate for f in result.folds]
    fallbacks = [f.fallback_rate for f in result.folds]
    return {
        "folds": folds,
        "summary": {
            "mean_accuracy": result.mean_accuracy,
            "std_accuracy": result.std_accuracy,
            "mean_invariant_rate": sum(rates) / len(rates),
            "mean_fallback_rate": sum(fallbacks) / len(fallbacks),
        },
    }


def metrics_document(
    cfg: TrainConfig,
    feature_policy: str,
    dataset: GraphDataset,
    dataset_path: str,
    results,
    trends: list[dict] | None = None,
) -> str:
    """The per-run structured metrics artifact.

    `results` is either one ExperimentResult or a list of (key dict, result)
    pairs for sweep commands; each entry echoes the varied parameters.
    """
    doc = _document_head(METRICS_SCHEMA, cfg, feature_policy, dataset, dataset_path)
    if isinstance(results, ExperimentResult):
        doc.update(experiment_dict(results))
    else:
        doc["runs"] = [dict(key, **experiment_dict(res)) for key, res in results]
    if trends:
        doc["trends"] = trends
    return canonical_json(doc)


def manifest_document(
    command: str,
    cfg: TrainConfig,
    feature_policy: str,
    dataset: GraphDataset,
    dataset_path: str,
    artifact_names: list[str],
    extra: dict | None = None,
) -> str:
    doc = _document_head(MANIFEST_SCHEMA, cfg, feature_policy, dataset, dataset_path)
    doc.update(command=command, artifacts=sorted(artifact_names))
    if extra:
        doc["extra"] = extra
    return canonical_json(doc)


def load_document(path, schema: str, what: str) -> dict:
    """A JSON artifact read back from disk, checked to carry `schema`."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from None
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise InputError(f"{path}: not a {what} (schema {found!r})")
    return doc


def trend_report(name: str, holds: bool, detail: str) -> dict:
    """Soft directional check: recorded in the metrics document and printed
    as a warning when it fails, never an error."""
    return {"name": name, "holds": holds, "detail": detail}
