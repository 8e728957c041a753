"""Command-line front end.

Exit codes: 0 success, 1 config or input error, an OS error on a path or a
dead fold worker, 2 internal invariant violation. `gen-synth --name` must be
a file-name stem. Every experiment command writes a metrics document plus a
manifest that suffices to re-execute the run byte-for-byte (see `rerun`).
"""

from __future__ import annotations

import dataclasses
import errno
import math
import os
import sys
import traceback
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .augment import DIST_SCOPES, STRATEGIES
from .data import (  # build_node_features stays a name here: bench/spans.py wraps it
    FeaturePolicy,
    build_node_features,
    dataset_fingerprint,
    generate_synthetic,
    parse_tudataset,
    write_tudataset,
)
from .errors import InputError, InvariantViolation
from .reporting import (
    MANIFEST_SCHEMA,
    METRICS_SCHEMA,
    experiment_dict,
    load_document,
    manifest_document,
    metrics_document,
    render_table,
    trend_report,
    write_artifact,
)
from .training import NUM_FOLDS, ExperimentResult, TrainConfig, gradient_suite, run_experiment

DATA_DIR_VAR = "GLAUG_DATA_DIR"
PARALLEL_FOLDS = click.option(
    "--parallel-folds", "workers", type=click.IntRange(min=1), default=1, show_default=True,
    help="Fold worker processes, forked from this one; at most one per fold of the command is used.",
)


# ------------------------------------------------------------- resolution


def _resolve_dataset(path_str: str, name: str | None, features: str | None):
    """Locate and parse a TUDataset directory, its features built under the policy spelled
    `features` (parse_tudataset's default when None); the data set records the policy.

    The path is tried as given, then, if relative, under $GLAUG_DATA_DIR. `name` defaults
    to the base name of the absolute path, so `.` names the current directory and `..` its
    parent. The manifest stores `path_str` exactly as typed so reruns resolve the same way.
    """
    name = name or Path(os.path.abspath(path_str)).name
    bases = [Path(path_str)]
    if os.environ.get(DATA_DIR_VAR) and not os.path.isabs(path_str):
        bases.append(Path(os.environ[DATA_DIR_VAR]) / path_str)
    base = next((b for b in bases if (b / f"{name}_A.txt").is_file()), None)
    if base is None:
        raise InputError(f"no dataset named {name!r} at " + " or ".join(str(b) for b in bases))
    return parse_tudataset(base, name, FeaturePolicy.parse(features) if features else None)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise InputError(f"{flag}: expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise InputError(f"{flag}: empty value list")
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"{flag}: values must be finite, got {text!r}")
    return values


def _fmt_summary(label: str, result: ExperimentResult) -> str:
    return (
        f"{label}: mean test accuracy "
        f"{result.mean_accuracy * 100:.2f} ± {result.std_accuracy * 100:.2f} "
        f"over {len(result.folds)} folds"
    )


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
    chosen = [by[s].mean_chosen_prob for s in strategies]
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
    rates = [r.mean_invariant_rate for _, r in runs]
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
    command's flag name. `echo` and `trends` see the (value, result) runs. The
    table, named after the command, has a row per run: `cell(value)`, then the
    ExperimentResult property named by each further column."""

    field: str
    columns: tuple[str, ...]
    echo: Callable[[list], list[str]]
    cell: Callable[[object], object] = lambda value: value
    trends: Callable[[list], list[dict]] = lambda runs: []
    fixed: tuple = ()
    extra_key: str | None = None
    extra_config: tuple[str, ...] = ()  # config fields echoed into `extra`; rerun ignores them


STUDIES = {
    "sweep-eta": Study(
        field="eta",
        columns=("eta", "mean_accuracy", "std_accuracy", "mean_invariant_rate"),
        echo=lambda runs: [_fmt_summary(f"eta={eta:g}", r) for eta, r in runs],
        extra_key="values",
    ),
    "ablate-strategy": Study(
        field="strategy",
        columns=("strategy", "mean_accuracy", "std_accuracy", "mean_chosen_prob",
                 "mean_invariant_rate"),
        echo=lambda runs: [_fmt_summary(s, r) for s, r in runs],
        trends=_strategy_trends,
        fixed=STRATEGIES,
    ),
    "ablate-negatives": Study(
        field="negative_pairs",
        columns=("mode", "mean_accuracy", "std_accuracy"),
        cell=lambda neg: "with_negatives" if neg else "without_negatives",
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
        columns=("label_ratio", "mean_invariant_rate", "mean_accuracy"),
        echo=lambda runs: [
            f"label ratio {ratio:g}: mean invariant rate {r.mean_invariant_rate:.4f}"
            for ratio, r in runs
        ],
        trends=_rate_trends,
        extra_key="ratios",
    ),
}


def _check_out(out: Path, *files: str) -> None:
    """Reject an output path that cannot become a directory of `files`: the nearest
    existing path on the way must be a directory this process can write and enter,
    below which no name left to create is too long, and an OSError on the way
    propagates. Nothing is created, so a failed command leaves no directory."""
    for path in (out, *out.parents):
        try:
            os.lstat(path)
        except (FileNotFoundError, NotADirectoryError):
            continue
        if not path.is_dir():
            raise InputError(f"--out {out}: {path} is not a directory")
        if not os.access(path, os.W_OK | os.X_OK):
            raise InputError(f"--out {out}: cannot write in {path}")
        name_max = os.pathconf(path, "PC_NAME_MAX")  # -1 where there is no limit
        for made in (out, *(out / name for name in files)):  # the names to create below `path`
            if name_max > 0 and any(len(os.fsencode(p)) > name_max for p in made.parts[len(path.parts):]):
                raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), str(made))
        return


def _execute(command, ds, path_str, cfg, out: Path, workers, values=None) -> None:
    """Run an experiment command, write its artifacts and echo its summary.

    `run` trains `cfg`, a study one variant per value (`values` for a study
    with an `extra_key`), all in one `run_experiment` call. Library functions
    are looked up as module globals at call time, so anything that replaces
    them on this module (tests, the benchmark's tracer) takes effect.
    """
    _check_out(out)
    files, extra, trends = {}, {}, []
    study = STUDIES.get(command)
    values = (study.fixed or values) if study else None
    # every variant's config is built, and so validated, before any of them trains
    cfgs = [cfg] if study is None else [dataclasses.replace(cfg, **{study.field: v}) for v in values]
    experiments = run_experiment(ds, cfgs, workers=workers)
    if study is None:
        body = experiment_dict(experiments[0])
        lines = [_fmt_summary(f"{ds.name} @ {cfg.label_ratio:g} labels", experiments[0])]
    else:
        runs = list(zip(values, experiments))
        trends = study.trends(runs)
        rows = [[study.cell(v), *(getattr(r, c) for c in study.columns[1:])] for v, r in runs]
        files[command.replace("-", "_") + ".tsv"] = render_table(list(study.columns), rows)
        body = {"runs": [dict({study.field: v}, **experiment_dict(r)) for v, r in runs]}
        extra = {name: getattr(cfg, name) for name in study.extra_config}
        if study.extra_key is not None:
            extra[study.extra_key] = values
        lines = study.echo(runs)
    files["metrics.json"] = metrics_document(cfg, ds, path_str, body, trends)
    # a manifest means a complete run: the last run's files go before any new
    # file lands, and the new manifest lands last
    for name in ["manifest.json", *files]:
        (out / name).unlink(missing_ok=True)
    for name, text in files.items():
        write_artifact(out / name, text)
    write_artifact(
        out / "manifest.json", manifest_document(command, cfg, ds, path_str, list(files), extra)
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


def _recorded_config(doc, where) -> tuple[TrainConfig, str]:
    """The config and feature policy recorded in a metrics or manifest
    document read from `where`, with every field present and none unknown."""
    conf = _json_field(doc, "config", dict, where)
    unknown = sorted(conf.keys() - CFG_FIELD_NAMES - {"feature_policy"})
    if unknown:
        raise InputError(f"{where}: unknown config keys {', '.join(map(repr, unknown))}")
    # every field must be present, or a rerun would silently use its default
    cfg = TrainConfig(**{
        name: _json_field(conf, name, type(getattr(TrainConfig, name)), where)
        for name in sorted(CFG_FIELD_NAMES)
    })
    return cfg, _json_field(conf, "feature_policy", str, where)


# ------------------------------------------------------------------- group


@click.group(name="glaug")
@click.version_option(version=__version__)
def cli():
    """Label-invariant representation-space augmentation experiments."""


DEFAULTS = TrainConfig()
CONFIG_OPTIONS = (  # (flag, TrainConfig field, further click settings)
    ("--label-ratio", "label_ratio", {}),
    ("--eta", "eta", {}),
    ("--k", "num_candidates", {"help": "Perturbation candidates per graph."}),
    ("--strategy", "strategy", {"type": click.Choice(STRATEGIES)}),
    ("--alpha", "alpha", {}),
    ("--seed", "seed", {}),
    ("--epochs", "epochs", {}),
    ("--dist-scope", "dist_scope", {"type": click.Choice(DIST_SCOPES)}),
    ("--lr", "learning_rate", {}),
    ("--batch-size", "batch_size", {}),
    ("--hidden", "hidden", {}),
    ("--proj-dim", "proj_dim", {}),
    ("--depth", "depth", {}),
    ("--temperature", "temperature", {"help": "NT-Xent temperature (negatives mode only)."}),
)


def train_options(swept: str | None = None):
    """Decorator adding the experiment options. A config option's default is
    its TrainConfig field's; the field `swept`, which a study sets once per
    variant itself, gets no option."""
    opts = [
        click.option("--name", default=None,
                      help="Dataset name (default: directory basename; `.` names the current directory)."),
        click.option("--features", default=None,
                      help="one_hot_node_labels | degree_one_hot:CAP | constant_one."),
        *(
            click.option(flag, field, default=getattr(DEFAULTS, field), show_default=True, **kw)
            for flag, field, kw in CONFIG_OPTIONS if field != swept
        ),
        click.option("--out", type=click.Path(path_type=Path), default=Path("runs"),
                      show_default=True),
        PARALLEL_FOLDS,
    ]

    def decorate(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn

    return decorate


CFG_FIELD_NAMES = {f.name for f in dataclasses.fields(TrainConfig)}


def _command(command: str, dataset_path: str, kw: dict, values_text: str | None = None) -> None:
    """Shared body of the experiment commands: config, values, dataset, execute."""
    cfg = TrainConfig(**{k: v for k, v in kw.items() if k in CFG_FIELD_NAMES})
    values = None
    if values_text is not None:
        values = _parse_floats(values_text, f"--{STUDIES[command].extra_key}")
    ds = _resolve_dataset(dataset_path, kw["name"], kw["features"])
    _execute(command, ds, dataset_path, cfg, kw["out"], kw["workers"], values)


@cli.command("run")
@click.argument("dataset_path")
@click.option("--negative-pairs", is_flag=True, default=DEFAULTS.negative_pairs,
              help="Use the NT-Xent loss with in-batch negatives.")
@train_options()
def cmd_run(dataset_path, **kw):
    """Full 10-fold experiment on one dataset."""
    _command("run", dataset_path, kw)


@cli.command("sweep-eta")
@click.argument("dataset_path")
@click.option("--values", default="0.1,0.5,1.0,2.0", show_default=True,
              help="Comma-separated eta values.")
@train_options(swept="eta")
def cmd_sweep_eta(dataset_path, values, **kw):
    """One experiment per perturbation magnitude, fold-matched."""
    _command("sweep-eta", dataset_path, kw, values)


@cli.command("ablate-strategy")
@click.argument("dataset_path")
@train_options(swept="strategy")
def cmd_ablate_strategy(dataset_path, **kw):
    """Fold-matched comparison of hardest / random / easiest selection."""
    _command("ablate-strategy", dataset_path, kw)


@cli.command("ablate-negatives")
@click.argument("dataset_path")
@train_options()
def cmd_ablate_negatives(dataset_path, **kw):
    """Paired runs with and without in-batch negative pairs."""
    _command("ablate-negatives", dataset_path, kw)


@cli.command("invariant-rate")
@click.argument("dataset_path", required=False)
@click.option("--ratios", default="0.3,0.5,0.7", show_default=True)
@click.option("--from-run", "from_run", type=click.Path(path_type=Path), default=None,
              help="Report the mean rate a metrics.json records instead of retraining.")
@train_options(swept="label_ratio")
def cmd_invariant_rate(dataset_path, ratios, from_run, **kw):
    """Label-invariant rate across label ratios (retrains per ratio)."""
    if from_run is not None:
        ctx = click.get_current_context()  # nothing given beside a recorded run would apply
        given = [p.get_error_hint(ctx) for p in ctx.command.params if p.name != "from_run"
                 and ctx.get_parameter_source(p.name) is not ParameterSource.DEFAULT]
        if given:
            raise InputError(f"--from-run takes no dataset or options, got {', '.join(given)}")
        doc = load_document(from_run, METRICS_SCHEMA, "metrics document")
        folds = doc.get("folds")
        if not isinstance(folds, list) or not folds:
            raise InputError(f"{from_run}: not a single-run metrics document with folds")
        rate = _json_field(doc, "summary.mean_invariant_rate", float, from_run)
        cfg, _ = _recorded_config(doc, from_run)
        rows = [[cfg.label_ratio, rate]]
        click.echo(render_table(["label_ratio", "mean_invariant_rate"], rows).rstrip("\n"))
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
    if graphs < NUM_FOLDS:
        raise InputError(
            f"--graphs must be at least {NUM_FOLDS}, the folds every experiment splits into; "
            f"got {graphs}"
        )
    if 8 * graphs > np.iinfo(np.intp).max:  # one int64 label per graph; its bytes overflow intp
        raise InputError(f"--graphs: too many graphs to lay out, got {graphs}")
    lo_hi = _parse_floats(sizes, "--sizes")
    if len(lo_hi) != 2:
        raise InputError("--sizes needs exactly lo,hi")
    if not all(v.is_integer() for v in lo_hi):
        raise InputError(f"--sizes: node counts must be integers, got {sizes!r}")
    hi = int(max(lo_hi))  # the largest graph draws one float64 per candidate edge
    if 8 * hi * (hi - 1) // 2 > np.iinfo(np.intp).max:
        raise InputError(f"--sizes: too many candidate edges to draw for {hi} nodes, got {sizes!r}")
    dens = tuple(_parse_floats(densities, "--densities"))
    _check_out(out, f"{name}_graph_indicator.txt")  # the longest of the four file names
    ds = generate_synthetic(
        graphs, classes, (int(lo_hi[0]), int(lo_hi[1])), dens, seed, name=name
    )
    write_tudataset(ds, out, name)
    click.echo(f"wrote {len(ds)} graphs to {out}")


@cli.command("rerun")
@click.argument("manifest_path", type=click.Path(path_type=Path))
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Destination directory (default: alongside the manifest).")
@PARALLEL_FOLDS
def cmd_rerun(manifest_path, out, workers):
    """Re-execute a recorded run; artifacts reproduce byte-for-byte."""
    doc = load_document(manifest_path, MANIFEST_SCHEMA, "run manifest")
    command = _json_field(doc, "command", str, manifest_path)
    if command != "run" and command not in STUDIES:
        raise InputError(f"manifest records unknown command {command!r}")
    cfg, policy = _recorded_config(doc, manifest_path)
    values = None
    study = STUDIES.get(command)
    if study is not None and study.extra_key is not None:
        values = _json_field(doc, f"extra.{study.extra_key}", list, manifest_path)
        if not values or any(type(v) is not float for v in values):  # as _parse_floats gives them
            raise InputError(f"{manifest_path}: extra {study.extra_key!r} must list floats")
    path_str = _json_field(doc, "dataset.path", str, manifest_path)
    name = _json_field(doc, "dataset.stats.name", str, manifest_path)
    want = _json_field(doc, "dataset.fingerprint", str, manifest_path)
    ds = _resolve_dataset(path_str, name, policy)
    got = dataset_fingerprint(ds)
    if got != want:
        raise InputError(
            f"dataset at {path_str} no longer matches the manifest fingerprint "
            f"({got[:12]} != {want[:12]})"
        )
    out = out if out is not None else Path(manifest_path).parent
    _execute(command, ds, path_str, cfg, out, workers, values)


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
    # numpy's MemoryError names the block it could not allocate; a pool breaks
    # when a fold worker dies, for example killed by the kernel's OOM killer; an
    # OSError names the path the system refused (too long, no permission, ...)
    except (InputError, MemoryError, BrokenProcessPool, OSError) as exc:
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
