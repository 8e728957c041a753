"""Artifact plumbing: metrics documents, run manifests, plot-ready tables.

Everything written here must be byte-deterministic for a fixed (seed, config,
dataset): canonical JSON (sorted keys, fixed separators), no timestamps, no
absolute-path leakage beyond what the user typed. The manifest alone is
enough to re-execute a run and reproduce its artifacts byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import os
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
    """Write `text` to a temporary file beside `path` and move it into place,
    so `path` holds either its old content or all of `text`, never a part."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def render_table(headers: list[str], rows: list[list]) -> str:
    """Tab-delimited text with a header row; every cell is written with `str`,
    which for a float is its shortest round-tripping `repr`, so nothing is rounded."""
    lines = ["\t".join(headers)]
    lines.extend("\t".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _document_head(schema: str, cfg: TrainConfig, dataset: GraphDataset, dataset_path: str) -> dict:
    """What metrics and manifest share: the config with all defaults
    materialized plus the feature policy the data set's features were built
    under, and the dataset by the path as the user typed it."""
    return {
        "schema": schema,
        "tool_version": __version__,
        "config": dict(dataclasses.asdict(cfg), feature_policy=dataset.feature_policy.spelled()),
        "dataset": {
            "path": dataset_path,
            "fingerprint": dataset_fingerprint(dataset),
            "stats": dataset_stats(dataset),
        },
    }


def experiment_dict(result: ExperimentResult) -> dict:
    return {
        "folds": [dataclasses.asdict(f) for f in result.folds],
        "summary": {
            "mean_accuracy": result.mean_accuracy,
            "std_accuracy": result.std_accuracy,
            "mean_invariant_rate": result.mean_invariant_rate,
            "mean_fallback_rate": result.mean_fallback_rate,
        },
    }


def metrics_document(
    cfg: TrainConfig,
    dataset: GraphDataset,
    dataset_path: str,
    body: dict,
    trends: list[dict],
) -> str:
    """The per-run structured metrics artifact: the shared head, then `body`,
    one run's `experiment_dict` or a study's {"runs": [...]}, each run of
    which echoes the value it varied."""
    doc = _document_head(METRICS_SCHEMA, cfg, dataset, dataset_path)
    doc.update(body)
    if trends:
        doc["trends"] = trends
    return canonical_json(doc)


def manifest_document(
    command: str,
    cfg: TrainConfig,
    dataset: GraphDataset,
    dataset_path: str,
    artifact_names: list[str],
    extra: dict,
) -> str:
    doc = _document_head(MANIFEST_SCHEMA, cfg, dataset, dataset_path)
    doc.update(command=command, artifacts=sorted(artifact_names))
    if extra:
        doc["extra"] = extra
    return canonical_json(doc)


def load_document(path, schema: str, what: str) -> dict:
    """A JSON artifact read back from disk, checked to carry `schema`."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # undecodable, or nested too deep
        raise InputError(f"cannot read {what} {path}: {exc}") from None
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise InputError(f"{path}: not a {what} (schema {found!r})")
    return doc


def trend_report(name: str, holds: bool, detail: str) -> dict:
    """Soft directional check: recorded in the metrics document and printed
    as a warning when it fails, never an error."""
    return {"name": name, "holds": holds, "detail": detail}
