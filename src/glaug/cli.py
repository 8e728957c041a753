"""Command-line front end.

Exit codes: 0 success, 1 config or input error, 2 internal invariant
violation. Every experiment command writes a metrics document plus a manifest
that suffices to re-execute the run byte-for-byte (see `rerun`).
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import traceback
from pathlib import Path
from typing import Callable

import click

from . import __version__
from .data import (
    FeaturePolicy,
    build_node_features,
    dataset_fingerprint,
    default_policy,
    generate_synthetic,
    parse_tudataset,
    write_tudataset,
)
from .errors import InputError, InvariantViolation
from .reporting import (
    MANIFEST_SCHEMA,
    METRICS_SCHEMA,
    load_document,
    manifest_document,
    metrics_document,
    render_table,
    trend_report,
    write_artifact,
)
from .training import ExperimentResult, TrainConfig, gradient_suite, run_experiment

DATA_DIR_VAR = "GLAUG_DATA_DIR"


# ------------------------------------------------------------- resolution


def _resolve_dataset(path_str: str, name: str | None, features: str | None):
    """Locate and parse a TUDataset directory; returns (dataset, policy string).

    The path is tried as given, then under $GLAUG_DATA_DIR. The manifest
    stores `path_str` exactly as typed so reruns resolve the same way.
    """
    name = name or Path(path_str).name
    bases = [Path(path_str)]
    if os.environ.get(DATA_DIR_VAR):
        bases.append(Path(os.environ[DATA_DIR_VAR]) / path_str)
    base = next((b for b in bases if (b / f"{name}_A.txt").is_file()), None)
    if base is None:
        raise InputError(f"no dataset named {name!r} at " + " or ".join(str(b) for b in bases))
    ds = parse_tudataset(base, name)
    if features:
        policy = FeaturePolicy.parse(features)
        ds = build_node_features(ds, policy)
    else:
        policy = default_policy(ds.graphs[0].node_labels is not None)
    return ds, policy.spelled()


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise InputError(f"{flag}: expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise InputError(f"{flag}: empty value list")
    return values


def _fmt_summary(label: str, result: ExperimentResult) -> str:
    return (
        f"{label}: mean test accuracy "
        f"{result.mean_accuracy * 100:.2f} ± {result.std_accuracy * 100:.2f} "
        f"over {len(result.folds)} folds"
    )


def _mean_rate(result: ExperimentResult) -> float:
    return sum(f.label_invariant_rate for f in result.folds) / len(result.folds)


def _mean_chosen(result: ExperimentResult) -> float:
    vals = [f.mean_chosen_prob for f in result.folds if f.mean_chosen_prob is not None]
    return sum(vals) / len(vals) if vals else float("nan")  # every selection fell back


# ----------------------------------------------------------------- studies


def _strategy_trends(runs: list) -> list[dict]:
    by = dict(runs)
    strategies = [s for s, _ in runs]
    trends = [
        trend_report(
            "hardest_accuracy_at_least_easiest",
            by["hardest"].mean_accuracy >= by["easiest"].mean_accuracy,
            f"hardest {by['hardest'].mean_accuracy:.4f} vs easiest "
            f"{by['easiest'].mean_accuracy:.4f}",
        )
    ]
    chosen = [_mean_chosen(by[s]) for s in strategies]
    if not any(math.isnan(c) for c in chosen):
        trends.append(
            trend_report(
                "chosen_prob_ordered",
                chosen[0] <= chosen[1] <= chosen[2],
                "mean chosen target prob "
                + " <= ".join(f"{s}:{c:.4f}" for s, c in zip(strategies, chosen)),
            )
        )
    return trends


def _paired_delta(runs: list) -> float:
    """Mean per-fold accuracy of (with negatives - without negatives)."""
    by = dict(runs)
    paired = [w.test_accuracy - wo.test_accuracy for w, wo in zip(by[True].folds, by[False].folds)]
    return sum(paired) / len(paired)


def _negatives_trends(runs: list) -> list[dict]:
    delta = _paired_delta(runs)
    return [
        trend_report(
            "positive_pairs_only_at_least_with_negatives",
            delta <= 0,
            f"paired mean delta (with - without) = {delta:+.4f}",
        )
    ]


def _rate_trends(runs: list) -> list[dict]:
    if len(runs) < 2:
        return []
    ratios = [ratio for ratio, _ in runs]
    rates = [_mean_rate(r) for _, r in runs]
    return [
        trend_report(
            "invariant_rate_nondecreasing_in_label_ratio",
            all(a <= b + 1e-12 for a, b in zip(rates, rates[1:])),
            "rates " + ", ".join(f"{ratio:g}:{rate:.4f}" for ratio, rate in zip(ratios, rates)),
        )
    ]


@dataclasses.dataclass(frozen=True)
class Study:
    """An experiment command that runs one fold-matched experiment per value
    of the TrainConfig `field`. The values are `fixed`, or given by the user
    and recorded in the manifest's `extra` under `extra_key`, which is also the
    command's flag name. `echo` and `trends` see the (value, result) runs."""

    field: str
    table: str
    columns: tuple[str, ...]
    row: Callable[[object, ExperimentResult], list]
    echo: Callable[[list], list[str]]
    trends: Callable[[list], list[dict]] = lambda runs: []
    fixed: tuple = ()
    extra_key: str | None = None
    extra_config: tuple[str, ...] = ()  # config fields echoed into `extra`; rerun ignores them


STUDIES = {
    "sweep-eta": Study(
        field="eta",
        table="sweep_eta.tsv",
        columns=("eta", "mean_accuracy", "std_accuracy", "mean_invariant_rate"),
        row=lambda eta, r: [eta, r.mean_accuracy, r.std_accuracy, _mean_rate(r)],
        echo=lambda runs: [_fmt_summary(f"eta={eta:g}", r) for eta, r in runs],
        extra_key="values",
    ),
    "ablate-strategy": Study(
        field="strategy",
        table="ablate_strategy.tsv",
        columns=("strategy", "mean_accuracy", "std_accuracy", "mean_chosen_prob",
                 "mean_invariant_rate"),
        row=lambda s, r: [s, r.mean_accuracy, r.std_accuracy, _mean_chosen(r), _mean_rate(r)],
        echo=lambda runs: [_fmt_summary(s, r) for s, r in runs],
        trends=_strategy_trends,
        fixed=("hardest", "random", "easiest"),
    ),
    "ablate-negatives": Study(
        field="negative_pairs",
        table="ablate_negatives.tsv",
        columns=("mode", "mean_accuracy", "std_accuracy"),
        row=lambda neg, r: [
            "with_negatives" if neg else "without_negatives", r.mean_accuracy, r.std_accuracy
        ],
        echo=lambda runs: [
            *(_fmt_summary("with negatives" if neg else "without negatives", r) for neg, r in runs),
            f"paired delta (with - without): {_paired_delta(runs) * 100:+.2f} accuracy points",
        ],
        trends=_negatives_trends,
        fixed=(False, True),
        extra_config=("temperature",),
    ),
    "invariant-rate": Study(
        field="label_ratio",
        table="invariant_rate.tsv",
        columns=("label_ratio", "mean_invariant_rate", "mean_accuracy"),
        row=lambda ratio, r: [ratio, _mean_rate(r), r.mean_accuracy],
        echo=lambda runs: [
            f"label ratio {ratio:g}: mean invariant rate {_mean_rate(r):.4f}" for ratio, r in runs
        ],
        trends=_rate_trends,
        extra_key="ratios",
    ),
}


def _execute(command, ds, path_str, policy, cfg, out: Path, workers, values=None) -> None:
    """Run an experiment command, write its artifacts and echo its summary.

    `values` are the user values of a study with an `extra_key`. Library
    functions are looked up as module globals at call time, so anything that
    replaces them on this module (tests, the benchmark's tracer) takes effect.
    """
    artifacts, extra, trends = ["metrics.json"], {}, []
    if command == "run":
        results = run_experiment(ds, cfg, workers=workers)
        lines = [_fmt_summary(f"{ds.name} @ {cfg.label_ratio:g} labels", results)]
    else:
        study = STUDIES[command]
        values = study.fixed if study.extra_key is None else values
        # every variant's config is built, and so validated, before any of them trains
        variants = [dataclasses.replace(cfg, **{study.field: v}) for v in values]
        runs = [(v, run_experiment(ds, sub, workers=workers)) for v, sub in zip(values, variants)]
        trends = study.trends(runs)
        rows = [study.row(v, r) for v, r in runs]
        write_artifact(out / study.table, render_table(list(study.columns), rows))
        artifacts.append(study.table)
        results = [({study.field: v}, r) for v, r in runs]
        extra = {name: getattr(cfg, name) for name in study.extra_config}
        if study.extra_key is not None:
            extra[study.extra_key] = values
        lines = study.echo(runs)
    write_artifact(
        out / "metrics.json", metrics_document(cfg, policy, ds, path_str, results, trends)
    )
    write_artifact(
        out / "manifest.json",
        manifest_document(command, cfg, policy, ds, path_str, artifacts, extra=extra),
    )
    for line in lines:
        click.echo(line)
    for t in trends:
        if t["holds"]:
            click.echo(f"trend ok: {t['name']} ({t['detail']})")
        else:
            click.echo(f"warning: trend failed: {t['name']} ({t['detail']})", err=True)


def _json_field(doc, dotted: str, kind, where):
    """The value at a dotted key path in a JSON document read from `where`,
    checked to be a `kind` (a bool is never taken for a number)."""
    value = doc
    for key in dotted.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise InputError(f"{where}: missing or malformed {dotted!r}")
    return value


# ------------------------------------------------------------------- group


@click.group(name="glaug")
@click.version_option(version=__version__)
def cli():
    """Label-invariant representation-space augmentation experiments."""


def train_options(fn):
    opts = [
        click.option("--name", default=None, help="Dataset name (default: directory basename)."),
        click.option("--features", default=None,
                      help="one_hot_node_labels | degree_one_hot:CAP | constant_one."),
        click.option("--label-ratio", type=float, default=0.5, show_default=True),
        click.option("--eta", type=float, default=1.0, show_default=True),
        click.option("--k", "num_candidates", type=int, default=10, show_default=True,
                      help="Perturbation candidates per graph."),
        click.option("--strategy", type=click.Choice(["hardest", "random", "easiest"]),
                      default="hardest", show_default=True),
        click.option("--alpha", type=float, default=1.0, show_default=True),
        click.option("--seed", type=int, default=0, show_default=True),
        click.option("--epochs", type=int, default=100, show_default=True),
        click.option("--dist-scope", type=click.Choice(["batch", "dataset"]),
                      default="batch", show_default=True),
        click.option("--lr", "learning_rate", type=float, default=1e-3, show_default=True),
        click.option("--batch-size", type=int, default=32, show_default=True),
        click.option("--hidden", type=int, default=128, show_default=True),
        click.option("--proj-dim", type=int, default=128, show_default=True),
        click.option("--depth", type=int, default=3, show_default=True),
        click.option("--temperature", type=float, default=0.5, show_default=True,
                      help="NT-Xent temperature (negatives mode only)."),
        click.option("--out", type=click.Path(path_type=Path), default=Path("runs"),
                      show_default=True),
        click.option("--parallel-folds", "workers", type=int, default=1, show_default=True),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


CFG_FIELD_NAMES = {f.name for f in dataclasses.fields(TrainConfig)}


def _command(command: str, dataset_path: str, kw: dict, values_text: str | None = None) -> None:
    """Shared body of the experiment commands: config, values, dataset, execute."""
    cfg = TrainConfig(**{k: v for k, v in kw.items() if k in CFG_FIELD_NAMES})
    values = None
    if values_text is not None:
        values = _parse_floats(values_text, f"--{STUDIES[command].extra_key}")
    ds, policy = _resolve_dataset(dataset_path, kw["name"], kw["features"])
    _execute(command, ds, dataset_path, policy, cfg, kw["out"], kw["workers"], values)


@cli.command("run")
@click.argument("dataset_path")
@click.option("--negative-pairs", is_flag=True, default=False,
              help="Use the NT-Xent loss with in-batch negatives.")
@train_options
def cmd_run(dataset_path, **kw):
    """Full 10-fold experiment on one dataset."""
    _command("run", dataset_path, kw)


@cli.command("sweep-eta")
@click.argument("dataset_path")
@click.option("--values", default="0.1,0.5,1.0,2.0", show_default=True,
              help="Comma-separated eta values.")
@train_options
def cmd_sweep_eta(dataset_path, values, **kw):
    """One experiment per perturbation magnitude, fold-matched."""
    _command("sweep-eta", dataset_path, kw, values)


@cli.command("ablate-strategy")
@click.argument("dataset_path")
@train_options
def cmd_ablate_strategy(dataset_path, **kw):
    """Fold-matched comparison of hardest / random / easiest selection."""
    _command("ablate-strategy", dataset_path, kw)


@cli.command("ablate-negatives")
@click.argument("dataset_path")
@train_options
def cmd_ablate_negatives(dataset_path, **kw):
    """Paired runs with and without in-batch negative pairs."""
    _command("ablate-negatives", dataset_path, kw)


@cli.command("invariant-rate")
@click.argument("dataset_path", required=False)
@click.option("--ratios", default="0.3,0.5,0.7", show_default=True)
@click.option("--from-run", "from_run", type=click.Path(path_type=Path), default=None,
              help="Report rates recorded in an existing metrics.json instead of retraining.")
@train_options
def cmd_invariant_rate(dataset_path, ratios, from_run, **kw):
    """Label-invariant rate across label ratios (retrains per ratio)."""
    if from_run is not None:
        doc = load_document(from_run, METRICS_SCHEMA, "metrics document")
        folds = doc.get("folds")
        if not isinstance(folds, list) or not folds:
            raise InputError(f"{from_run}: not a single-run metrics document with folds")
        rates = [_json_field(f, "label_invariant_rate", (int, float), from_run) for f in folds]
        ratio = _json_field(doc, "config.label_ratio", (int, float), from_run)
        click.echo(render_table(
            ["label_ratio", "mean_invariant_rate"], [[ratio, sum(rates) / len(rates)]]
        ).rstrip("\n"))
        return
    if dataset_path is None:
        raise InputError("provide a dataset path or --from-run")
    _command("invariant-rate", dataset_path, kw, ratios)


@cli.command("gradcheck")
@click.option("--size", type=click.Choice(["small", "full"]), default="small", show_default=True)
def cmd_gradcheck(size):
    """Finite-difference check of every op and the composed objective."""
    checks = gradient_suite(size)
    failed = []
    for name, err in checks:
        ok = err < 1e-4
        click.echo(f"{name}: max rel err {err:.2e} {'ok' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)
    if failed:
        raise InvariantViolation(f"gradient checks failed: {', '.join(failed)}")
    click.echo(f"all {len(checks)} gradient checks passed")


@cli.command("gen-synth")
@click.option("--graphs", type=int, default=60, show_default=True)
@click.option("--classes", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--sizes", default="8,12", show_default=True, help="Node-count range lo,hi.")
@click.option("--densities", default="0.1,0.9", show_default=True,
              help="Edge density per class, comma-separated.")
@click.option("--name", default="SYNTH", show_default=True)
@click.option("--out", type=click.Path(path_type=Path), required=True)
def cmd_gen_synth(graphs, classes, seed, sizes, densities, name, out):
    """Write a synthetic dataset in the four-file text layout."""
    lo_hi = _parse_floats(sizes, "--sizes")
    if len(lo_hi) != 2:
        raise InputError("--sizes needs exactly lo,hi")
    dens = tuple(_parse_floats(densities, "--densities"))
    ds = generate_synthetic(
        graphs, classes, (int(lo_hi[0]), int(lo_hi[1])), dens, seed, name=name
    )
    write_tudataset(ds, out, name)
    click.echo(f"wrote {len(ds)} graphs to {out}")


@cli.command("rerun")
@click.argument("manifest_path", type=click.Path(path_type=Path))
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Destination directory (default: alongside the manifest).")
@click.option("--parallel-folds", "workers", type=int, default=1, show_default=True)
def cmd_rerun(manifest_path, out, workers):
    """Re-execute a recorded run; artifacts reproduce byte-for-byte."""
    doc = load_document(manifest_path, MANIFEST_SCHEMA, "run manifest")
    command = _json_field(doc, "command", str, manifest_path)
    if command != "run" and command not in STUDIES:
        raise InputError(f"manifest records unknown command {command!r}")
    conf = _json_field(doc, "config", dict, manifest_path)
    unknown = sorted(conf.keys() - CFG_FIELD_NAMES - {"feature_policy"})
    if unknown:
        raise InputError(f"{manifest_path}: unknown config keys {', '.join(unknown)}")
    # every field must be present, or the rerun would silently use its default
    cfg = TrainConfig(**{
        name: _json_field(conf, name, type(getattr(TrainConfig, name)), manifest_path)
        for name in sorted(CFG_FIELD_NAMES)
    })
    policy = _json_field(conf, "feature_policy", str, manifest_path)
    values = None
    study = STUDIES.get(command)
    if study is not None and study.extra_key is not None:
        values = _json_field(doc, f"extra.{study.extra_key}", list, manifest_path)
        if not values or any(type(v) not in (int, float) for v in values):
            raise InputError(f"{manifest_path}: extra {study.extra_key!r} must list numbers")
    path_str = _json_field(doc, "dataset.path", str, manifest_path)
    name = _json_field(doc, "dataset.stats.name", str, manifest_path)
    want = _json_field(doc, "dataset.fingerprint", str, manifest_path)
    ds, _ = _resolve_dataset(path_str, name, policy)
    got = dataset_fingerprint(ds)
    if got != want:
        raise InputError(
            f"dataset at {path_str} no longer matches the manifest fingerprint "
            f"({got[:12]} != {want[:12]})"
        )
    out = out if out is not None else Path(manifest_path).parent
    _execute(command, ds, path_str, policy, cfg, out, workers, values)


# -------------------------------------------------------------- entry point


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False, prog_name="glaug")
        return 0
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except InvariantViolation as exc:
        click.echo(f"internal invariant violation: {exc}", err=True)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
