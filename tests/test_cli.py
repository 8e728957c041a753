"""Command-line behavior: exit codes, artifacts, manifest reruns."""

import dataclasses
import functools
import itertools
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import click
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import glaug.cli as cli_mod
import glaug.data as data_mod
import glaug.training as training_mod
from glaug.cli import main
from glaug.errors import InvariantViolation

# tiny but non-degenerate settings so each invocation stays around a second
COMMON = [
    "--epochs", "1", "--k", "2", "--hidden", "6", "--proj-dim", "4",
    "--depth", "1", "--batch-size", "8", "--lr", "1e-2",
]


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "TOY"
    rc = main(["gen-synth", "--graphs", "16", "--seed", "3", "--out", str(d), "--name", "TOY"])
    assert rc == 0
    return d


def read(path: Path) -> bytes:
    return path.read_bytes()


# ------------------------------------------------------------- exit codes


def test_success_exit_zero(toy_dir, tmp_path):
    assert main(["run", str(toy_dir), *COMMON, "--out", str(tmp_path / "r")]) == 0


def test_bad_config_exit_one(toy_dir, tmp_path):
    rc = main(["run", str(toy_dir), "--label-ratio", "-0.2", "--out", str(tmp_path / "r")])
    assert rc == 1


@pytest.mark.parametrize("path, within", [(".", "."), ("..", "sub")], ids=["dot", "dot_dot"])
def test_a_dot_path_names_the_directory_it_points_at(tmp_path, monkeypatch, path, within):
    """The default data set name is the base name of the absolute path; the manifest keeps
    the path as typed."""
    data = tmp_path / "SYNTH"
    assert main(["gen-synth", "--graphs", "12", "--seed", "3", "--out", str(data)]) == 0
    (data / within).mkdir(exist_ok=True)
    monkeypatch.chdir(data / within)
    assert main(["run", path, *COMMON, "--out", str(tmp_path / "r")]) == 0
    dataset = json.loads(read(tmp_path / "r" / "manifest.json"))["dataset"]
    assert (dataset["path"], dataset["stats"]["name"]) == (path, "SYNTH")


def test_missing_dataset_exit_one(tmp_path):
    assert main(["run", str(tmp_path / "absent"), "--out", str(tmp_path / "r")]) == 1


def test_bad_choice_exit_one(toy_dir, tmp_path, capsys):
    rc = main(["run", str(toy_dir), "--strategy", "bogus", "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("sweep-eta", "--eta", "3.0"),
    ("ablate-strategy", "--strategy", "easiest"),
    ("invariant-rate", "--label-ratio", "0.3"),
])
def test_study_rejects_its_swept_flag(toy_dir, tmp_path, capsys, monkeypatch, command, flag, value):
    # the study sets this field once per variant, so a user value could only be ignored
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)
    rc = main([command, str(toy_dir), flag, value, "--out", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "No such option" in err and flag in err
    assert not (tmp_path / "r").exists()


def test_option_defaults_are_config_defaults():
    defaults = cli_mod.TrainConfig()
    checked = 0
    for name in ("run", "sweep-eta", "ablate-strategy", "ablate-negatives", "invariant-rate"):
        for param in cli_mod.cli.commands[name].params:
            if param.name in cli_mod.CFG_FIELD_NAMES:
                assert param.default == getattr(defaults, param.name), (name, param.name)
                checked += 1
    # every shared config option on five commands, plus --negative-pairs, less three swept flags
    assert checked == 5 * len(cli_mod.CONFIG_OPTIONS) + 1 - 3


def test_internal_failure_exit_two(toy_dir, tmp_path, monkeypatch):
    def boom(*a, **k):
        raise InvariantViolation("forced")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    rc = main(["run", str(toy_dir), *COMMON, "--out", str(tmp_path / "r")])
    assert rc == 2


def test_invariant_rate_needs_input():
    assert main(["invariant-rate"]) == 1


# ------------------------------------------------------- artifact identity


def test_same_seed_byte_identical_artifacts(toy_dir, tmp_path):
    for sub in ("a", "b"):
        assert main(["run", str(toy_dir), *COMMON, "--out", str(tmp_path / sub)]) == 0
    for name in ("metrics.json", "manifest.json"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


def test_seed_changes_metrics(toy_dir, tmp_path):
    assert main(["run", str(toy_dir), *COMMON, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", str(toy_dir), *COMMON, "--seed", "9", "--out", str(tmp_path / "b")]) == 0
    assert read(tmp_path / "a" / "metrics.json") != read(tmp_path / "b" / "metrics.json")


@pytest.fixture(scope="module")
def relation_base(tmp_path_factory):
    """A 24-graph `gen-synth` data set and the directory of a tiny `run` on it."""
    root = tmp_path_factory.mktemp("relations")
    data = root / "orig" / "META"
    assert main(["gen-synth", "--graphs", "24", "--sizes", "6,10", "--densities", "0.2,0.5",
                 "--seed", "4", "--out", str(data), "--name", "META"]) == 0
    assert main(["run", str(data), *COMMON, "--out", str(root / "run")]) == 0
    return data, root / "run"


def _shuffled(lines, rng):
    return [lines[i] for i in rng.permutation(len(lines))]


def _each_edge_once(lines, rng):
    pairs = [tuple(int(v) for v in line.split(",")) for line in lines]
    once = [(u, v) for u, v in pairs if u < v]
    assert 2 * len(once) == len(pairs)  # gen-synth writes each edge both ways
    flips = rng.random(len(once)) < 0.5
    return [f"{v}, {u}" if flip else f"{u}, {v}" for (u, v), flip in zip(once, flips)]


def _ten_x_plus_five(lines, rng):
    return [str(10 * int(line) + 5) for line in lines]


@pytest.mark.parametrize("kind, edit", [
    ("A", _shuffled), ("A", _each_edge_once), ("graph_labels", _ten_x_plus_five),
], ids=["edge_lines_shuffled", "each_edge_once_either_way", "graph_labels_10x_plus_5"])
def test_a_copy_that_spells_the_same_data_set_gives_the_same_artifacts(
    relation_base, tmp_path, capsys, kind, edit
):
    """Edge-line order, the direction an undirected edge is listed in, and the
    values that name the classes, as long as their order holds, do not change
    the data set: its fingerprint, `metrics.json` and `manifest.json` stay as
    they are, apart from the data set's path, and nothing goes to stderr."""
    data, run = relation_base
    copy = tmp_path / data.name
    shutil.copytree(data, copy)
    path = copy / f"META_{kind}.txt"
    path.write_text("\n".join(edit(path.read_text().splitlines(), np.random.default_rng(7))) + "\n")
    assert path.read_bytes() != (data / path.name).read_bytes()
    capsys.readouterr()
    assert main(["run", str(copy), *COMMON, "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""
    manifests = [json.loads(read(d / "manifest.json")) for d in (run, tmp_path / "run")]
    assert manifests[1]["dataset"]["fingerprint"] == manifests[0]["dataset"]["fingerprint"]
    for name in ("metrics.json", "manifest.json"):
        got = read(tmp_path / "run" / name).replace(str(copy).encode(), str(data).encode())
        assert got == read(run / name)


def _nodes_permuted(data, copy, rng):
    """Write to `copy` the data set at `data` with its node ids permuted at random within each
    graph: both endpoints of every edge line mapped, and the node-label lines reordered."""
    name = data.name
    shutil.copytree(data, copy)
    indicator = np.loadtxt(data / f"{name}_graph_indicator.txt", dtype=np.int64)
    starts = np.flatnonzero(np.diff(indicator, prepend=0))  # each graph's first node, 0-based
    ends = [*starts[1:], len(indicator)]
    new_id = np.concatenate([start + rng.permutation(end - start) for start, end in zip(starts, ends)])
    edges = np.loadtxt(data / f"{name}_A.txt", dtype=np.int64, delimiter=",") - 1
    moved = new_id[edges] + 1
    (copy / f"{name}_A.txt").write_text("".join(f"{u}, {v}\n" for u, v in moved))
    labels = np.loadtxt(data / f"{name}_node_labels.txt", dtype=np.int64)
    reordered = np.empty_like(labels)
    reordered[new_id] = labels
    (copy / f"{name}_node_labels.txt").write_text("".join(f"{v}\n" for v in reordered))


FOLD_FLOATS = ("epoch_pair_losses", "epoch_cls_losses", "mean_chosen_prob")


def assert_same_decisions(got, want, bound):
    """Two metrics documents of one data set make the same decisions. Each fold's loss curves and
    mean chosen probability agree within `bound`; the data set's fingerprint and path are left
    out; every other field (accuracies, validation curves, best epochs, qualified histograms,
    fallback and invariant rates, the summary, config and data set stats) is equal."""
    got, want = json.loads(json.dumps(got)), json.loads(json.dumps(want))  # copies to edit
    for doc in (got, want):
        del doc["dataset"]["fingerprint"], doc["dataset"]["path"]
    assert len(got["folds"]) == len(want["folds"])
    for g, w in zip(got["folds"], want["folds"]):
        for field in FOLD_FLOATS:
            a, b = np.array(g.pop(field), float), np.array(w.pop(field), float)  # None reads NaN
            assert a.shape == b.shape, (g["fold_index"], field)
            assert np.allclose(a, b, rtol=0, atol=bound, equal_nan=True), (g["fold_index"], field)
    assert got == want


# 4 epochs at width 8 and depth 2 made every decision alike over 10 folds of 12 permutations,
# and the floats differed by at most 2.2e-15 (x86-64, OpenBLAS on one thread)
NODE_ORDER_RUN = ["--epochs", "4", "--k", "2", "--hidden", "8", "--proj-dim", "4", "--depth", "2",
                  "--batch-size", "8", "--lr", "1e-2"]
NODE_ORDER_BOUND = 1e-12


def test_a_copy_with_its_nodes_renumbered_makes_the_same_decisions(relation_base, tmp_path):
    """The encoder is equivariant and its pooling a sum, so node order changes only the order of
    float sums: a copy whose nodes are renumbered within each graph makes every decision alike."""
    data, _ = relation_base
    copy = tmp_path / "copy" / data.name
    _nodes_permuted(data, copy, np.random.default_rng(11))
    for d, out in ((data, "orig"), (copy, "copy")):
        assert main(["run", str(d), *NODE_ORDER_RUN, "--out", str(tmp_path / out / "run")]) == 0
    got, want = (json.loads(read(tmp_path / out / "run" / "metrics.json")) for out in ("copy", "orig"))
    assert got["dataset"]["fingerprint"] != want["dataset"]["fingerprint"]
    assert_same_decisions(got, want, NODE_ORDER_BOUND)


def assert_rerun_reproduces(toy_dir, tmp_path, command, *flags):
    """Run a command, rerun its manifest, and compare every artifact."""
    assert main([command, str(toy_dir), *flags, *COMMON, "--out", str(tmp_path / "orig")]) == 0
    rc = main(["rerun", str(tmp_path / "orig" / "manifest.json"), "--out", str(tmp_path / "again")])
    assert rc == 0
    names = sorted(p.name for p in (tmp_path / "orig").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "again").iterdir())
    assert set(json.loads(read(tmp_path / "orig" / "manifest.json"))["artifacts"]) <= set(names)
    for name in names:
        assert read(tmp_path / "orig" / name) == read(tmp_path / "again" / name)


def test_features_flag_builds_node_features_once(toy_dir, monkeypatch):
    policy = data_mod.FeaturePolicy.parse("degree_one_hot:4")
    two_pass = data_mod.build_node_features(data_mod.parse_tudataset(toy_dir, "TOY"), policy)
    built = []
    real = data_mod.build_node_features

    def counting(ds, pol):
        built.append(pol)
        return real(ds, pol)

    monkeypatch.setattr(data_mod, "build_node_features", counting)
    monkeypatch.setattr(cli_mod, "build_node_features", counting)
    ds = cli_mod._resolve_dataset(str(toy_dir), "TOY", "degree_one_hot:4")
    assert built == [policy]
    assert ds.feature_policy.spelled() == "degree_one_hot:4"
    assert data_mod.dataset_fingerprint(ds) == data_mod.dataset_fingerprint(two_pass)


def test_rerun_reproduces_bytes(toy_dir, tmp_path):
    assert_rerun_reproduces(toy_dir, tmp_path, "run")


@pytest.mark.parametrize("command, flags", [
    ("sweep-eta", ["--values", "0.0,1.0"]),
    ("ablate-strategy", []),
    ("ablate-negatives", []),
    ("invariant-rate", ["--ratios", "0.4,0.8"]),
])
def test_rerun_reproduces_study_bytes(toy_dir, tmp_path, command, flags):
    assert_rerun_reproduces(toy_dir, tmp_path, command, *flags)


@pytest.fixture(scope="module")
def run_dir(toy_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["run", str(toy_dir), *COMMON, "--out", str(out)]) == 0
    return out


def test_run_killed_between_artifact_writes_leaves_one_runs_files(toy_dir, tmp_path, monkeypatch):
    """Ctrl-C between two artifact writes, over an earlier run's directory,
    leaves complete files of the new run only, and no manifest to trust."""
    sweep = ["sweep-eta", str(toy_dir), "--values", "0.0,1.0", *COMMON]
    out, whole = tmp_path / "out", tmp_path / "whole"
    assert main([*sweep, "--out", str(out)]) == 0
    assert main([*sweep, "--seed", "5", "--out", str(whole)]) == 0
    assert read(out / "sweep_eta.tsv") != read(whole / "sweep_eta.tsv")

    real, written = cli_mod.write_artifact, []

    def interrupted_after_first(path, text):
        if written:
            raise KeyboardInterrupt
        written.append(real(path, text))

    monkeypatch.setattr(cli_mod, "write_artifact", interrupted_after_first)
    assert main([*sweep, "--seed", "5", "--out", str(out)]) == 1
    assert written == [out / "sweep_eta.tsv"]
    assert sorted(p.name for p in out.iterdir()) == ["sweep_eta.tsv"]
    assert read(out / "sweep_eta.tsv") == read(whole / "sweep_eta.tsv")


def test_failed_artifact_write_keeps_the_old_file(tmp_path):
    path = cli_mod.write_artifact(tmp_path / "metrics.json", "{}\n")
    with pytest.raises(UnicodeEncodeError):
        cli_mod.write_artifact(path, "{\ud800")  # fails part-way through the write
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]
    assert path.read_text() == "{}\n"


def test_table_cells_are_written_by_str():
    # a float keeps its shortest round-tripping digits, and a numpy float reads as one
    text = cli_mod.render_table(["a", "b", "c"], [[np.float64(0.1), 0.1 + 0.2, "x"]])
    assert text == "a\tb\tc\n0.1\t0.30000000000000004\tx\n"


def assert_input_error(capsys, rc):
    """Exit 1 with a one-line `error:` message and no traceback; returns it."""
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def _no_training(*args, **kwargs):
    raise AssertionError("training started")


def _drop(*keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return edit


def _set(value, *keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("edit", [
    _set(1, "config", "bogus"),
    _drop("config", "epochs"),  # would otherwise rerun with the default of 100 epochs
    _drop("config", "feature_policy"),
    _set("x", "config", "epochs"),
    _set(True, "config", "epochs"),
    _set("0.5", "config", "label_ratio"),
    _drop("dataset"),
    _drop("dataset", "stats", "name"),
    _set("sweep-eta", "command"),  # no extra.values recorded
    _set("no-such-command", "command"),
    _set(NAN, "config", "eta"),  # json writes NaN and Infinity, and reads them back
    _set(INF, "config", "learning_rate"),
    _set(INF, "config", "alpha"),
    _set(NAN, "config", "temperature"),
], ids=[
    "unknown_key", "missing_epochs", "missing_policy", "str_epochs", "bool_epochs",
    "str_ratio", "missing_dataset", "missing_name", "sweep_without_values", "unknown_command",
    "nan_eta", "inf_lr", "inf_alpha", "nan_temperature",
])
def test_rerun_rejects_malformed_manifest(run_dir, tmp_path, capsys, edit):
    doc = json.loads((run_dir / "manifest.json").read_text())
    edit(doc)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, main(["rerun", str(path), "--out", str(tmp_path / "x")]))
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("field", ["hidden", "proj_dim", "depth"])
def test_model_size_below_one_exits_before_the_dataset_is_read(run_dir, tmp_path, capsys, field):
    absent = str(tmp_path / "absent")
    flag = "--" + field.replace("_", "-")
    err = assert_input_error(capsys, main(["run", absent, flag, "0", "--out", str(tmp_path / "r")]))
    assert f"{field} must be >= 1" in err
    doc = json.loads((run_dir / "manifest.json").read_text())
    doc["config"][field] = 0
    doc["dataset"]["path"] = absent
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    err = assert_input_error(capsys, main(["rerun", str(path), "--out", str(tmp_path / "x")]))
    assert f"{field} must be >= 1" in err


@pytest.mark.parametrize("command, values", [
    ("invariant-rate", None), ("invariant-rate", []), ("invariant-rate", ["a"]),
    ("invariant-rate", [True]), ("invariant-rate", [0.5, NAN]), ("invariant-rate", [0.5, 2.0]),
    ("sweep-eta", [10**400]),  # an int past float range, which TrainConfig cannot check
], ids=["missing", "empty", "string", "bool", "nan", "out_of_range", "past_float_range"])
def test_rerun_rejects_bad_study_values(run_dir, tmp_path, capsys, monkeypatch, command, values):
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)  # rejected before any variant
    doc = json.loads((run_dir / "manifest.json").read_text())
    doc["command"] = command
    doc["extra"] = {cli_mod.STUDIES[command].extra_key: values}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, main(["rerun", str(path), "--out", str(tmp_path / "x")]))


def test_rerun_rejects_json_list(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text("[]")
    assert_input_error(capsys, main(["rerun", str(path)]))


@pytest.mark.parametrize("command", [["rerun"], ["invariant-rate", "--from-run"]],
                         ids=["rerun", "from_run"])
def test_document_nested_too_deep_exits_one(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)  # deeper than the JSON decoder's recursion limit
    err = assert_input_error(capsys, main([*command, str(path)]))
    assert err.startswith("error: cannot read ") and "recursion" in err


def test_rerun_rejects_changed_dataset(toy_dir, tmp_path):
    assert main(["run", str(toy_dir), *COMMON, "--out", str(tmp_path / "orig")]) == 0
    doc = json.loads((tmp_path / "orig" / "manifest.json").read_text())
    doc["dataset"]["fingerprint"] = "0" * 64
    (tmp_path / "orig" / "manifest.json").write_text(json.dumps(doc))
    rc = main(["rerun", str(tmp_path / "orig" / "manifest.json"), "--out", str(tmp_path / "x")])
    assert rc == 1


def test_rerun_rejects_non_manifest(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"schema": "something-else"}')
    assert main(["rerun", str(p)]) == 1


def test_manifest_records_resolved_config(toy_dir, tmp_path):
    assert main(["run", str(toy_dir), *COMMON, "--out", str(tmp_path / "r")]) == 0
    doc = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert doc["command"] == "run"
    assert doc["config"]["strategy"] == "hardest"  # default materialized
    assert doc["config"]["epochs"] == 1
    assert doc["config"]["feature_policy"] == "one_hot_node_labels"
    assert doc["artifacts"] == ["metrics.json"]
    assert doc["dataset"]["path"] == str(toy_dir)


# ------------------------------------------------------------------ sweeps


def test_sweep_eta_rows_and_zero_rate(toy_dir, tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep-eta", str(toy_dir), "--values", "0.0,1.0", *COMMON, "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep_eta.tsv").read_text().splitlines()
    assert lines[0] == "eta\tmean_accuracy\tstd_accuracy\tmean_invariant_rate"
    assert len(lines) == 3  # header + one row per value
    zero_row = lines[1].split("\t")
    assert float(zero_row[0]) == 0.0
    assert zero_row[3] == "1.0"  # no displacement, rate exactly one
    doc = json.loads((out / "metrics.json").read_text())
    assert [r["eta"] for r in doc["runs"]] == [0.0, 1.0]


def test_ablate_strategy_rows_and_trends(toy_dir, tmp_path, capsys):
    out = tmp_path / "ab"
    rc = main(["ablate-strategy", str(toy_dir), *COMMON, "--out", str(out)])
    assert rc == 0  # trend failures warn, never fail
    lines = (out / "ablate_strategy.tsv").read_text().splitlines()
    assert len(lines) == 4
    assert [row.split("\t")[0] for row in lines[1:]] == ["hardest", "random", "easiest"]
    doc = json.loads((out / "metrics.json").read_text())
    assert {t["name"] for t in doc["trends"]} >= {"hardest_accuracy_at_least_easiest"}
    captured = capsys.readouterr()
    assert ("trend ok" in captured.out) or ("trend failed" in captured.err)


def test_ablate_negatives_paired(toy_dir, tmp_path, capsys):
    out = tmp_path / "an"
    rc = main(["ablate-negatives", str(toy_dir), *COMMON, "--out", str(out)])
    assert rc == 0
    assert "paired delta" in capsys.readouterr().out
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["extra"]["temperature"] == 0.5
    lines = (out / "ablate_negatives.tsv").read_text().splitlines()
    assert [row.split("\t")[0] for row in lines[1:]] == ["without_negatives", "with_negatives"]


def test_ablate_negatives_needs_batches(toy_dir, tmp_path):
    rc = main(["ablate-negatives", str(toy_dir), *COMMON[:-2], "--batch-size", "1",
               "--out", str(tmp_path / "r")])
    assert rc == 1


def test_invariant_rate_table_and_trend(toy_dir, tmp_path):
    out = tmp_path / "ir"
    rc = main(["invariant-rate", str(toy_dir), "--ratios", "0.4,0.8", *COMMON, "--out", str(out)])
    assert rc == 0
    lines = (out / "invariant_rate.tsv").read_text().splitlines()
    assert len(lines) == 3
    assert [float(r.split("\t")[0]) for r in lines[1:]] == [0.4, 0.8]
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["trends"][0]["name"] == "invariant_rate_nondecreasing_in_label_ratio"


def test_invariant_rate_single_ratio_has_no_trend(toy_dir, tmp_path, capsys):
    out = tmp_path / "ir"
    rc = main(["invariant-rate", str(toy_dir), "--ratios", "0.5", *COMMON, "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "trend" not in captured.out + captured.err
    assert "trends" not in json.loads((out / "metrics.json").read_text())


def test_failed_trend_warns_and_exits_zero(toy_dir, tmp_path, capsys, monkeypatch):
    study = dataclasses.replace(
        cli_mod.STUDIES["invariant-rate"],
        trends=lambda runs: [cli_mod.trend_report("forced", False, "made to fail")],
    )
    monkeypatch.setitem(cli_mod.STUDIES, "invariant-rate", study)
    out = tmp_path / "ir"
    rc = main(["invariant-rate", str(toy_dir), "--ratios", "0.5", *COMMON, "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == "warning: trend failed: forced (made to fail)\n"
    text = (out / "metrics.json").read_text()
    assert '"holds": false' in text
    trend = {"name": "forced", "holds": False, "detail": "made to fail"}
    assert json.loads(text)["trends"] == [trend]


def test_invariant_rate_from_run(toy_dir, tmp_path, capsys):
    assert main(["run", str(toy_dir), *COMMON, "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    rc = main(["invariant-rate", "--from-run", str(tmp_path / "r" / "metrics.json")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label_ratio\tmean_invariant_rate"
    assert float(lines[1].split("\t")[1]) <= 1.0


def test_invariant_rate_from_run_prints_the_recorded_summary(run_dir, tmp_path, capsys):
    """The rate printed is the document's `summary.mean_invariant_rate`, which
    glaug writes as the mean of its folds' rates; the reader takes no mean."""
    doc = json.loads((run_dir / "metrics.json").read_text())
    folds_mean = sum(f["label_invariant_rate"] for f in doc["folds"]) / len(doc["folds"])
    assert doc["summary"]["mean_invariant_rate"] == folds_mean
    ratio = doc["config"]["label_ratio"]
    for recorded in (folds_mean, 0.25 if folds_mean != 0.25 else 0.75):
        doc["summary"]["mean_invariant_rate"] = recorded
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["invariant-rate", "--from-run", str(path)]) == 0
        assert capsys.readouterr().out == f"label_ratio\tmean_invariant_rate\n{ratio}\t{recorded}\n"


def test_invariant_rate_from_run_rejects_sweep_doc(toy_dir, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep-eta", str(toy_dir), "--values", "1.0", *COMMON, "--out", str(out)]) == 0
    rc = main(["invariant-rate", "--from-run", str(out / "metrics.json")])
    assert rc == 1


@pytest.mark.parametrize("edit", [
    _set([], "folds"),
    _drop("folds"),
    _drop("config"),
    _set("x", "summary", "mean_invariant_rate"),
    lambda doc: doc.clear(),
], ids=["empty_folds", "missing_folds", "missing_config", "str_rate", "empty_object"])
def test_invariant_rate_from_run_rejects_malformed(run_dir, tmp_path, capsys, edit):
    doc = json.loads((run_dir / "metrics.json").read_text())
    edit(doc)
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, main(["invariant-rate", "--from-run", str(path)]))


def test_invariant_rate_from_run_rejects_json_list(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    path.write_text("[]")
    assert_input_error(capsys, main(["invariant-rate", "--from-run", str(path)]))


@pytest.mark.parametrize("given, named", [
    (["DATASET"], ["DATASET_PATH"]),
    (["--eta", "5", "--epochs", "7"], ["--eta", "--epochs"]),
    (["--hidden", "3"], ["--hidden"]),
    (["--eta", "1.0"], ["--eta"]),  # the default value, given: it would be ignored all the same
    (["--ratios", "0.1"], ["--ratios"]),
    (["--features", "constant_one"], ["--features"]),
    (["--name", "TOY"], ["--name"]),
    (["--out", "elsewhere"], ["--out"]),
    (["--parallel-folds", "2"], ["--parallel-folds"]),
], ids=["dataset", "eta_epochs", "hidden", "default_eta", "ratios", "features", "name", "out",
        "parallel_folds"])
def test_invariant_rate_from_run_rejects_what_it_ignores(run_dir, toy_dir, capsys, given, named):
    args = [str(toy_dir) if a == "DATASET" else a for a in given]
    rc = main(["invariant-rate", "--from-run", str(run_dir / "metrics.json"), *args])
    err = assert_input_error(capsys, rc)
    assert all(name in err for name in named), err


# ----------------------------------------------------------- text encoding


@pytest.mark.parametrize("suffix", ["A", "graph_indicator", "graph_labels", "node_labels"])
def test_non_ascii_dataset_byte_exits_one(toy_dir, tmp_path, capsys, monkeypatch, suffix):
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)
    data = tmp_path / "TOY"
    shutil.copytree(toy_dir, data)
    path = data / f"TOY_{suffix}.txt"
    lines = path.read_bytes().split(b"\n")
    lines[2] += b"\xc3\xa9"  # an e-acute in UTF-8
    path.write_bytes(b"\n".join(lines))
    err = assert_input_error(capsys, main(["run", str(data), "--out", str(tmp_path / "r")]))
    assert f"TOY_{suffix}.txt:3: not ASCII text" in err


@pytest.mark.parametrize("command, document", [
    (["rerun"], "manifest.json"),
    (["invariant-rate", "--from-run"], "metrics.json"),
], ids=["rerun", "from_run"])
def test_non_utf8_document_exits_one(run_dir, tmp_path, capsys, monkeypatch, command, document):
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)
    path = tmp_path / document
    path.write_bytes((run_dir / document).read_bytes().replace(b'"schema"', b'"sch\xffema"'))
    err = assert_input_error(capsys, main([*command, str(path)]))
    assert err.startswith("error: cannot read") and "utf-8" in err


# ------------------------------------------------------ read-back fuzz

CONFIG_READS = [("config",), ("config", "feature_policy"),
                *(("config", name) for name in sorted(cli_mod.CFG_FIELD_NAMES))]
MANIFEST_READS = [("schema",), ("command",), *CONFIG_READS, ("dataset",), ("dataset", "path"),
                  ("dataset", "stats"), ("dataset", "stats", "name"), ("dataset", "fingerprint")]
# (command, document, how the test derives it from a run's file, the paths its reader needs)
READERS = {
    "rerun": (["rerun"], "manifest.json", lambda doc: doc, MANIFEST_READS),
    "rerun_study": (
        ["rerun"], "manifest.json",
        lambda doc: dict(doc, command="sweep-eta", extra={"values": [0.0, 1.0]}),
        [*MANIFEST_READS, ("extra",), ("extra", "values")],
    ),
    "from_run": (
        ["invariant-rate", "--from-run"], "metrics.json", lambda doc: doc,
        [("schema",), *CONFIG_READS, ("folds",), ("summary",), ("summary", "mean_invariant_rate")],
    ),
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4,
)

# config keys a reader cannot know, with the characters that could break its one-line message
CONFIG_KEYS = st.text(st.characters() | st.sampled_from("\n\r\t'\"\\"))


def _json_kind(value):
    return "number" if type(value) in (int, float) else type(value)


def _base_document(run_dir, reader):
    command, name, derive, reads = READERS[reader]
    return command, derive(json.loads((run_dir / name).read_text())), reads


@pytest.mark.parametrize("reader", READERS)
def test_read_back_documents_are_accepted_unmutated(run_dir, tmp_path, monkeypatch, reader):
    # the fuzz below starts from documents its readers take whole
    reached = []
    monkeypatch.setattr(cli_mod, "_execute", lambda *args: reached.append(args))
    command, doc, _ = _base_document(run_dir, reader)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc, indent=2))
    assert main([*command, str(path)]) == 0
    assert len(reached) == (reader != "from_run")


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_read_back_document_exits_one(run_dir, tmp_path, capsys, monkeypatch, reader, data):
    """A truncated document, or one with a field the reader needs re-typed,
    dropped or made an over-long integer, or with an unknown config key, exits
    1 with one `error:` line before any training: never a traceback or exit 2."""
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)
    command, doc, reads = _base_document(run_dir, reader)
    text = json.dumps(doc, indent=2)
    mutation = data.draw(
        st.sampled_from(["truncate", "retype", "drop", "add", "renumber"]), label="mutation"
    )
    digits = None
    if mutation == "truncate":
        text = text[: data.draw(st.integers(0, len(text) - 1), label="length")]
    elif mutation == "add":
        key = data.draw(CONFIG_KEYS.filter(lambda k: k not in doc["config"]), label="key")
        doc["config"][key] = data.draw(JSON_VALUES, label="value")
    else:
        if mutation == "retype":
            paths = reads
        elif mutation == "drop":
            paths = [p for p in reads if isinstance(p[-1], str)]
        else:
            paths = [p for p in reads if _json_kind(functools.reduce(
                lambda value, key: value[key], p, doc)) == "number"]
        keys = data.draw(st.sampled_from(paths), label="path")
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        if mutation == "drop":
            del parent[keys[-1]]
        elif mutation == "retype":
            old = _json_kind(parent[keys[-1]])
            parent[keys[-1]] = data.draw(
                JSON_VALUES.filter(lambda v: _json_kind(v) != old), label="value"
            )
        else:
            # past the 4,300 digits `json` reads an integer in, or a float past float range;
            # not an integer field 400 digits long, which is valid (`epochs: 10**400`)
            digits = data.draw(st.sampled_from(
                [5000, 400] if type(parent[keys[-1]]) is float else [5000]
            ), label="digits")
            parent[keys[-1]] = "RENUMBERED"
    if mutation != "truncate":
        text = json.dumps(doc, indent=2)
    if digits is not None:  # json cannot write an integer this long
        text = text.replace('"RENUMBERED"', "1" + "0" * (digits - 1))
    path = tmp_path / "doc.json"
    path.write_text(text)
    out = [] if reader == "from_run" else ["--out", str(tmp_path / "x")]
    capsys.readouterr()
    assert_input_error(capsys, main([*command, *out, str(path)]))
    assert not (tmp_path / "x").exists()


# -------------------------------------------------------------- generation


def test_gen_synth_byte_deterministic(tmp_path):
    for sub in ("a", "b"):
        rc = main(["gen-synth", "--graphs", "10", "--seed", "5", "--out",
                   str(tmp_path / sub / "S"), "--name", "S"])
        assert rc == 0
    for f in sorted((tmp_path / "a" / "S").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / "S" / f.name).read_bytes()


def test_gen_synth_bad_sizes(tmp_path):
    assert main(["gen-synth", "--sizes", "8", "--out", str(tmp_path / "S")]) == 1


@pytest.mark.parametrize("args", [
    ["--graphs", "0"],
    ["--graphs", "-2"],
    ["--graphs", "3"],
    ["--graphs", "9"],
    ["--sizes", "1.5,3"],
    ["--sizes", "8,12.5"],
    ["--graphs", "12", "--sizes", "3,9223372036854775807"],
    ["--graphs", "12", "--sizes", "1e20,1e20"],
    ["--graphs", "12", "--sizes", "3,9223372036854774784"],
    ["--graphs", "12", "--sizes", "3000000000,3000000000"],
    ["--graphs", str(10**19)],
], ids=["graphs_0", "graphs_neg", "graphs_3", "graphs_9", "sizes_lo_fraction", "sizes_hi_fraction",
        "sizes_hi_past_int64", "sizes_past_int64", "sizes_edges_past_intp",
        "sizes_edge_bytes_past_intp", "graphs_past_intp"])
def test_gen_synth_rejects_unusable_dataset(tmp_path, capsys, args):
    # fewer graphs than folds, or fractional node counts, would give a dataset
    # every experiment command rejects (or one silently truncated)
    rc = main(["gen-synth", *args, "--out", str(tmp_path / "S")])
    assert_input_error(capsys, rc)
    assert not (tmp_path / "S").exists()


@pytest.mark.parametrize("name", ["", "a/b", "/SYNTH", "SYNTH/"],
                         ids=["empty", "dir_part", "absolute", "trailing_slash"])
def test_gen_synth_rejects_a_name_that_is_not_a_file_stem(tmp_path, capsys, name):
    # the name is the <name>_<kind>.txt stem; "" would write _A.txt, which no command reads back
    rc = main(["gen-synth", "--graphs", "10", "--name", name, "--out", str(tmp_path / "S")])
    assert "not a file-name stem" in assert_input_error(capsys, rc)
    assert not (tmp_path / "S").exists()


LONG = "x" * 300  # longer than a file name may be


@pytest.mark.parametrize("args", [
    lambda toy, tmp: ["gen-synth", "--graphs", "20", "--out", str(tmp / "o" / LONG)],
    lambda toy, tmp: ["run", str(toy), "--name", LONG, "--out", str(tmp / "r")],
    lambda toy, tmp: ["run", str(toy), *COMMON, "--out", str(tmp / "r" / LONG)],
    lambda toy, tmp: ["gen-synth", "--graphs", "20", "--name", LONG, "--out", str(tmp / "o")],
], ids=["gen_synth_out", "run_name", "run_out", "gen_synth_name"])
def test_os_error_exits_one(toy_dir, tmp_path, capsys, monkeypatch, args):
    # the system refuses the path, and no fold trains or directory is made first
    trained = []
    monkeypatch.setattr(training_mod, "train_fold", lambda *a: trained.append(a))
    err = assert_input_error(capsys, main(args(toy_dir, tmp_path)))
    assert "File name too long" in err
    assert trained == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    lambda toy, out: ["gen-synth", "--graphs", "20", "--out", str(out)],
    lambda toy, out: ["run", str(toy), *COMMON, "--out", str(out)],
], ids=["gen_synth", "run"])
def test_out_under_an_unwritable_directory_exits_one_before_training(
    toy_dir, tmp_path, capsys, monkeypatch, args
):
    # as root every directory is writable, so the refusal is os.access's alone
    locked, access = tmp_path / "locked", os.access
    locked.mkdir()
    monkeypatch.setattr(os, "access", lambda p, mode, **kw: Path(p) != locked and access(p, mode, **kw))
    trained = []
    monkeypatch.setattr(training_mod, "train_fold", lambda *a: trained.append(a))
    err = assert_input_error(capsys, main(args(toy_dir, locked / "a" / "b")))
    assert f"cannot write in {locked}" in err
    assert trained == [] and list(locked.iterdir()) == []


# --------------------------------------------------------------- gradcheck


def test_gradcheck_small_passes(capsys):
    assert main(["gradcheck", "--size", "small"]) == 0
    assert "all" in capsys.readouterr().out


def test_gradcheck_failure_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(cli_mod, "gradient_suite", lambda size: [("broken_op", 1.0)])
    rc = main(["gradcheck"])
    assert rc != 0
    assert "FAIL" in capsys.readouterr().out


# -------------------------------------------------------------- resolution


def test_data_dir_env_fallback(toy_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("GLAUG_DATA_DIR", str(toy_dir.parent))
    monkeypatch.chdir(tmp_path)
    rc = main(["run", "TOY", *COMMON, "--out", str(tmp_path / "r")])
    assert rc == 0
    doc = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert doc["dataset"]["path"] == "TOY"  # stored as typed, not resolved


@pytest.mark.parametrize("absolute", [True, False], ids=["absolute", "relative"])
def test_a_missing_data_set_names_each_place_looked_in_once(tmp_path, monkeypatch, capsys, absolute):
    """With $GLAUG_DATA_DIR set, an absolute path is looked for as given only,
    and a relative one also under the variable's directory."""
    monkeypatch.setenv("GLAUG_DATA_DIR", str(tmp_path / "data"))
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path / "empty") if absolute else "empty"
    assert main(["run", path, "--out", str(tmp_path / "r")]) == 1
    places = [path] if absolute else [path, str(tmp_path / "data" / "empty")]
    assert capsys.readouterr().err == f"error: no dataset named 'empty' at {' or '.join(places)}\n"


def test_explicit_feature_policy_recorded(toy_dir, tmp_path):
    rc = main(["run", str(toy_dir), "--features", "degree_one_hot:4", *COMMON,
               "--out", str(tmp_path / "r")])
    assert rc == 0
    doc = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert doc["config"]["feature_policy"] == "degree_one_hot:4"


@pytest.fixture(scope="module")
def bare_dir(toy_dir, tmp_path_factory):
    """TOY's files without its node-label file."""
    d = tmp_path_factory.mktemp("bare") / "TOY"
    shutil.copytree(toy_dir, d)
    (d / "TOY_node_labels.txt").unlink()
    return d


@pytest.mark.parametrize("bare, features, recorded", [
    (False, None, "one_hot_node_labels"),
    (True, None, "degree_one_hot:10"),
    (False, "one_hot_node_labels", "one_hot_node_labels"),
    (False, "degree_one_hot:4", "degree_one_hot:4"),
    (False, "degree_one_hot:010", "degree_one_hot:10"),
    (False, "constant_one", "constant_one"),
], ids=["default", "default_bare", "labels", "degree", "degree_unpadded", "constant"])
def test_documents_record_the_data_sets_policy(
    toy_dir, bare_dir, tmp_path, monkeypatch, bare, features, recorded
):
    trained = []
    real = cli_mod.run_experiment

    def recording(ds, cfgs, **kw):
        trained.append(ds)
        return real(ds, cfgs, **kw)

    monkeypatch.setattr(cli_mod, "run_experiment", recording)
    flags = ["--features", features] if features else []
    args = ["run", str(bare_dir if bare else toy_dir), *flags, *COMMON]
    assert main([*args, "--out", str(tmp_path / "r")]) == 0
    assert main(["rerun", str(tmp_path / "r" / "manifest.json"), "--out", str(tmp_path / "a")]) == 0
    assert [ds.feature_policy.spelled() for ds in trained] == [recorded] * 2
    for out, name in itertools.product(("r", "a"), ("metrics.json", "manifest.json")):
        assert json.loads(read(tmp_path / out / name))["config"]["feature_policy"] == recorded


def test_rerun_records_the_policy_built_not_its_spelling(toy_dir, tmp_path):
    # a hand-edited manifest's spelling is parsed; the documents record the policy built
    args = ["run", str(toy_dir), "--features", "degree_one_hot:10", *COMMON]
    assert main([*args, "--out", str(tmp_path / "r")]) == 0
    doc = json.loads(read(tmp_path / "r" / "manifest.json"))
    doc["config"]["feature_policy"] = "degree_one_hot:010"
    (tmp_path / "edited.json").write_text(json.dumps(doc))
    assert main(["rerun", str(tmp_path / "edited.json"), "--out", str(tmp_path / "a")]) == 0
    for name in ("metrics.json", "manifest.json"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "r" / name)
        assert json.loads(read(tmp_path / "a" / name))["config"]["feature_policy"] == (
            "degree_one_hot:10"
        )


def test_bad_feature_policy(toy_dir, tmp_path):
    rc = main(["run", str(toy_dir), "--features", "nonsense", "--out", str(tmp_path / "r")])
    assert rc == 1


@pytest.mark.parametrize("workers", ["2", "3"])
@pytest.mark.parametrize("command, table", [
    (["run"], None),
    (["ablate-strategy"], "ablate_strategy.tsv"),
    (["sweep-eta", "--values", "0.5,1.0"], "sweep_eta.tsv"),
], ids=["run", "ablate-strategy", "sweep-eta"])
def test_parallel_folds_match_sequential(toy_dir, tmp_path, command, table, workers):
    # with 3 workers, one pool holds folds of two of a study's variants at once
    args = [command[0], str(toy_dir), *command[1:], *COMMON]
    assert main([*args, "--out", str(tmp_path / "s")]) == 0
    assert main([*args, "--parallel-folds", workers, "--out", str(tmp_path / "p")]) == 0
    for name in ("metrics.json", "manifest.json", *([table] if table else [])):
        assert read(tmp_path / "s" / name) == read(tmp_path / "p" / name), name


@pytest.mark.parametrize(
    "command", ["run", "sweep-eta", "ablate-strategy", "ablate-negatives", "invariant-rate"]
)
def test_command_pins_blas_once_and_opens_one_pool(toy_dir, tmp_path, monkeypatch, command):
    pins, pools = [], []
    pin = training_mod._one_blas_thread

    def counted_pin():
        pins.append(1)
        return pin()

    class CountedPool(training_mod.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            pools.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(training_mod, "_one_blas_thread", counted_pin)
    monkeypatch.setattr(training_mod, "ProcessPoolExecutor", CountedPool)
    assert main([command, str(toy_dir), *COMMON, "--parallel-folds", "2",
                 "--out", str(tmp_path / "r")]) == 0
    assert (pins, pools) == ([1], [2])


@pytest.fixture(scope="module")
def mutag_shaped_dir(tmp_path_factory):
    """188 graphs of 10-28 nodes at densities 0.08 and 0.16, MUTAG's shape."""
    d = tmp_path_factory.mktemp("data188") / "SYNTH"
    assert main(["gen-synth", "--graphs", "188", "--sizes", "10,28", "--densities", "0.08,0.16",
                 "--seed", "1", "--out", str(d)]) == 0
    return d


def test_sequential_run_on_two_blas_threads_equals_parallel_folds(mutag_shaped_dir, tmp_path):
    # a process whose BLAS runs two threads: the default width takes the threaded gemm path
    src = str(Path(cli_mod.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
    for label, flags in (("s", []), ("p", ["--parallel-folds", "2"])):
        args = ["run", str(mutag_shaped_dir), "--epochs", "1", "--k", "3", *flags,
                "--out", str(tmp_path / label)]
        proc = subprocess.run([sys.executable, "-m", "glaug.cli", *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    assert read(tmp_path / "s" / "metrics.json") == read(tmp_path / "p" / "metrics.json")


@functools.wraps(training_mod.train_fold)
def train_fold_killed_on_fold_3(dataset, fold, cfg):
    """train_fold, except that the process running fold 3 is killed, as by the OOM killer."""
    if fold.fold_index == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return train_fold_killed_on_fold_3.__wrapped__(dataset, fold, cfg)


def test_killed_fold_worker_exits_one(toy_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(training_mod, "train_fold", train_fold_killed_on_fold_3)
    rc = main(["run", str(toy_dir), *COMMON, "--parallel-folds", "2",
               "--out", str(tmp_path / "r")])
    assert "terminated abruptly" in assert_input_error(capsys, rc)
    assert not (tmp_path / "r").exists()
    assert multiprocessing.active_children() == []  # the other worker is stopped and reaped


def _stat(path) -> list[str]:
    """The fields after the command name in a /proc stat file (state, ppid, ...), or [] once
    the process is gone."""
    try:
        return Path(path).read_text().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _alive(pid: int) -> bool:
    return _stat(f"/proc/{pid}/stat")[:1] not in ([], ["Z"])  # a zombie has ended


def _children(pid: int) -> list[int]:
    """The live processes whose parent is `pid`."""
    return [int(stat.parent.name) for stat in Path("/proc").glob("[0-9]*/stat")
            if _stat(stat)[1:2] == [str(pid)] and _alive(int(stat.parent.name))]


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc; the parent-death signal is Linux's")
def test_terminated_run_leaves_no_fold_worker(mutag_shaped_dir, tmp_path):
    src = str(Path(cli_mod.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    args = ["run", str(mutag_shaped_dir), "--parallel-folds", "2", "--out", str(tmp_path / "r")]
    # no pipes: a worker left behind would hold them open, and reading them would hang
    proc = subprocess.Popen([sys.executable, "-m", "glaug.cli", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _children(proc.pid)
        assert len(workers) == 2, workers
        proc.terminate()
        assert proc.wait(timeout=30) == -signal.SIGTERM
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _alive(pid)] == []
    finally:
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
            proc.wait()


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
def test_seed_outside_64_bits_exits_one(toy_dir, tmp_path, capsys, seed):
    for args in (["run", str(toy_dir), *COMMON], ["gen-synth", "--graphs", "10"]):
        rc = main([*args, "--seed", seed, "--out", str(tmp_path / "r")])
        assert f"seed must lie in [0, 2**64), got {seed}" in assert_input_error(capsys, rc)
        assert not (tmp_path / "r").exists()


def test_rerun_of_a_negative_seed_exits_one(run_dir, tmp_path, capsys):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    manifest["config"]["seed"] = -1
    edited = tmp_path / "manifest.json"
    edited.write_text(json.dumps(manifest))
    rc = main(["rerun", str(edited), "--out", str(tmp_path / "r")])
    assert "seed must lie in [0, 2**64), got -1" in assert_input_error(capsys, rc)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command, flags", [
    ("run", ["--eta", "nan"]),
    ("run", ["--eta", "inf"]),
    ("run", ["--lr", "nan"]),
    ("run", ["--lr", "inf"]),
    ("run", ["--alpha", "inf"]),
    ("run", ["--temperature", "nan"]),
    # 1 / T overflows to inf
    ("run", ["--negative-pairs", "--temperature", "1e-310"]),
    ("run", ["--negative-pairs", "--temperature", "1e-310", "--parallel-folds", "2"]),
    ("run", ["--negative-pairs", "--temperature", "1e-320"]),
    ("run", ["--negative-pairs", "--temperature", "1e-320", "--parallel-folds", "2"]),
    ("sweep-eta", ["--values", "0.5,nan"]),
    ("invariant-rate", ["--ratios", "0.5,inf"]),
], ids=["eta_nan", "eta_inf", "lr_nan", "lr_inf", "alpha_inf", "temperature_nan",
        "temperature_1e-310", "temperature_1e-310_parallel", "temperature_1e-320",
        "temperature_1e-320_parallel",
        "sweep_values_nan", "rate_ratios_inf"])
def test_non_finite_flag_exits_one(toy_dir, tmp_path, capsys, monkeypatch, command, flags):
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)
    rc = main([command, str(toy_dir), *COMMON, *flags, "--out", str(tmp_path / "r")])
    assert_input_error(capsys, rc)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("values, message", [
    ("abc", "--values: expected comma-separated numbers, got 'abc'"),
    (",", "--values: empty value list"),
], ids=["not_a_number", "empty"])
def test_sweep_eta_unreadable_values_exit_one(toy_dir, tmp_path, capsys, monkeypatch, values,
                                             message):
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)
    rc = main(["sweep-eta", str(toy_dir), *COMMON, "--values", values,
               "--out", str(tmp_path / "r")])
    assert assert_input_error(capsys, rc) == f"error: {message}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "command", ["run", "sweep-eta", "ablate-strategy", "ablate-negatives", "invariant-rate"]
)
def test_parallel_folds_below_one_exits_one(toy_dir, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)
    rc = main([command, str(toy_dir), *COMMON, "--parallel-folds", "0",
               "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "--parallel-folds" in capsys.readouterr().err


def test_rerun_parallel_folds_below_one_exits_one(run_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)
    rc = main(["rerun", str(run_dir / "manifest.json"), "--parallel-folds", "-1",
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "--parallel-folds" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", [
    "run", "sweep-eta", "ablate-strategy", "ablate-negatives", "invariant-rate", "rerun",
    "gen-synth",
])
def test_out_that_cannot_be_a_directory_exits_one(
    toy_dir, run_dir, tmp_path, capsys, monkeypatch, command, below
):
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)
    blocker = tmp_path / "F"
    blocker.write_text("keep")
    out = blocker / "x" if below else blocker
    if command == "rerun":
        args = ["rerun", str(run_dir / "manifest.json")]
    elif command == "gen-synth":
        args = ["gen-synth", "--graphs", "10"]
    else:
        args = [command, str(toy_dir), *COMMON]
    err = assert_input_error(capsys, main([*args, "--out", str(out)]))
    assert f"{blocker} is not a directory" in err
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("features", ["constant_one:7", "one_hot_node_labels:1"])
def test_feature_kind_without_argument_rejects_one(toy_dir, tmp_path, capsys, features):
    rc = main(["run", str(toy_dir), *COMMON, "--features", features,
               "--out", str(tmp_path / "r")])
    assert_input_error(capsys, rc)
    assert not (tmp_path / "r").exists()


def test_zero_degree_cap_exits_one(toy_dir, tmp_path, capsys):
    rc = main(["run", str(toy_dir), *COMMON, "--features", "degree_one_hot:0",
               "--out", str(tmp_path / "r")])
    assert "degree_cap" in assert_input_error(capsys, rc)
    assert not (tmp_path / "r").exists()
    # caps whose N x (cap + 1) float64 matrix has more bytes than intp can count
    for cap, workers in itertools.product([10**20, 2**63 - 2], ["1", "2"]):
        rc = main(["run", str(toy_dir), *COMMON, "--features", f"degree_one_hot:{cap}",
                   "--parallel-folds", workers, "--out", str(tmp_path / "r")])
        assert f"feature matrix of {cap + 1} columns" in assert_input_error(capsys, rc)
        assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("workers", ["1", "2"], ids=["sequential", "parallel"])
def test_candidate_block_past_memory_exits_one(tmp_path, capsys, workers):
    data = tmp_path / "SYNTH"
    assert main(["gen-synth", "--graphs", "12", "--out", str(data)]) == 0
    capsys.readouterr()
    # K x B x h float64 candidates: 728 PiB, past any 64-bit host's address space (at most 2**57
    # bytes), so the allocation is refused at once and touches no memory
    rc = main(["run", str(data), "--k", str(10**14), "--parallel-folds", workers,
               "--out", str(tmp_path / "r")])
    assert "Unable to allocate" in assert_input_error(capsys, rc)
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("workers", ["1", "2"], ids=["sequential", "parallel"])
def test_candidate_block_past_intp_exits_one(tmp_path, capsys, workers):
    data = tmp_path / "SYNTH"
    assert main(["gen-synth", "--graphs", "12", "--out", str(data)]) == 0
    capsys.readouterr()
    # K x B x h float64 candidates or model parameters whose byte count overflows intp: numpy
    # cannot even ask for them; or, for the deep encoder, 1.14 EiB, past any 64-bit host's
    # address space (at most 2**57 bytes), refused before any layer is drawn
    for flags, message in [
        (["--k", str(10**18)], "num_candidates 1000000000000000000"),
        (["--hidden", str(2**63 - 1)], "float64 parameters is too big"),
        (["--hidden", str(10**19)], "float64 parameters is too big"),
        (["--proj-dim", str(2**62)], "float64 parameters is too big"),
        (["--depth", str(10**13)], "Unable to allocate 1.14 EiB"),
    ]:
        rc = main(["run", str(data), *flags, "--parallel-folds", workers,
                   "--out", str(tmp_path / "r")])
        assert message in assert_input_error(capsys, rc)
        assert not (tmp_path / "r").exists()


@pytest.fixture(scope="module")
def synth40_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data40") / "SYNTH"
    assert main(["gen-synth", "--graphs", "40", "--out", str(d)]) == 0
    return d


@pytest.mark.parametrize("workers", ["1", "2"], ids=["sequential", "parallel"])
@pytest.mark.parametrize("flag, value", [
    ("--lr", "1e300"), ("--eta", "1e308"), ("--alpha", "1e308"),
], ids=["lr", "eta", "alpha"])
def test_diverging_run_exits_one(synth40_dir, tmp_path, capsys, flag, value, workers):
    rc = main(["run", str(synth40_dir), "--name", "SYNTH", "--epochs", "3", flag, value,
               "--hidden", "8", "--proj-dim", "8", "--parallel-folds", workers,
               "--out", str(tmp_path / "r")])
    err = assert_input_error(capsys, rc)
    assert re.search(r"fold \d+, epoch \d+: training diverged", err), err
    assert not (tmp_path / "r").exists()


def test_representations_diverging_after_the_last_step_exit_one(synth40_dir, tmp_path, capsys):
    # one step per fold: its parameters are finite, the rate pass's representations are not
    rc = main(["run", str(synth40_dir), "--name", "SYNTH", "--epochs", "1", "--batch-size", "64",
               "--lr", "1e300", "--hidden", "8", "--proj-dim", "8", "--out", str(tmp_path / "r")])
    err = assert_input_error(capsys, rc)
    assert "fold 0, invariance rate pass: training diverged" in err, err


# ------------------------------------------------------------ argument fuzz

BIG = {400: "1" + "0" * 399, 5000: "1" + "0" * 4999}  # int() reads neither past 4,300 digits
# none of these reads as a count of at least 1
NOT_A_COUNT = ["0", "-1", BIG[5000], "nan", "inf", "-0.0", "", "x"]
# these read as a size past the intp byte bound of every size option, or, for
# the Arabic-Indic digit three, which int() and float() read as 3, a small one
HOSTILE = [*NOT_A_COUNT, str(2**63), str(2**64), BIG[400], "٣"]
SMALL = st.integers(1, 8).map(str)
VALID = {  # option -> valid values, all cheap: sizes of at most 8, one or two epochs
    "label_ratio": st.sampled_from(["0.3", "1.0"]),
    "eta": st.sampled_from(["0.0", "1.0"]),
    "num_candidates": SMALL, "batch_size": SMALL, "hidden": SMALL, "proj_dim": SMALL,
    "depth": SMALL,
    "strategy": st.sampled_from(cli_mod.STRATEGIES),
    "alpha": st.sampled_from(["0.0", "1.0"]),
    "seed": st.integers(0, 2**64 - 1).map(str),
    "epochs": st.sampled_from(["1", "2"]),
    "dist_scope": st.sampled_from(cli_mod.DIST_SCOPES),
    "learning_rate": st.just("1e-2"),
    "temperature": st.just("0.5"),
    "features": st.sampled_from(["constant_one", "degree_one_hot:4", "one_hot_node_labels"]),
    "values": st.sampled_from(["0.5", "0.0,1.0"]),
    "ratios": st.sampled_from(["0.5", "0.3,0.7"]),
    "workers": st.just("1"),  # a fold worker's Adam steps would go uncounted
    "graphs": st.sampled_from(["10", "12"]),
    "classes": st.just("2"),
    "sizes": st.just("3,6"),
    "densities": st.just("0.2,0.6"),
    "size": st.just("small"),
    "name": st.just("D12"),
}
HOSTILE_OF = {  # option -> hostile values, where HOSTILE holds a valid or an expensive one
    "epochs": st.sampled_from(NOT_A_COUNT),
    "workers": st.sampled_from(NOT_A_COUNT),
    "features": st.sampled_from(HOSTILE).flatmap(
        lambda h: st.sampled_from([h, f"degree_one_hot:{h}"])),
    **{name: st.sampled_from(HOSTILE).flatmap(lambda h: st.sampled_from([h, f"3,{h}"]))
       for name in ("values", "ratios", "sizes", "densities")},
}
# options given whenever a command has them, so that a valid vector stays cheap
# and writes under its example's directory; arguments are always given too
ALWAYS = {"epochs", "num_candidates", "hidden", "proj_dim", "depth", "out"}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A 12-graph data set, and the manifest and metrics of one run on it."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["gen-synth", "--graphs", "12", "--name", "D12", "--out", str(root / "D12")]) == 0
    assert main(["run", str(root / "D12"), *COMMON, "--out", str(root / "run")]) == 0
    return {"dataset_path": str(root / "D12"), "manifest_path": str(root / "run/manifest.json"),
            "from_run": str(root / "run/metrics.json")}


@st.composite
def argument_vectors(draw, files, out):
    """A command and arguments drawn from its parameters: up to two of them
    hostile, the rest valid or, unless the command needs them to stay cheap or
    to run at all, left out. `invariant-rate --from-run` needs nothing else."""
    name = draw(st.sampled_from(sorted(cli_mod.cli.commands)), label="command")
    valid = dict(VALID, out=st.just(out), **{k: st.just(v) for k, v in files.items()})
    params = cli_mod.cli.commands[name].params
    from_run = any(p.name == "from_run" for p in params) and draw(st.booleans(), label="from_run")
    params = [p for p in params if p.name != "from_run" or from_run]
    hostile = draw(st.sets(st.sampled_from([p.name for p in params]), max_size=2), label="hostile")
    options, arguments = [], []
    for param in params:
        if getattr(param, "is_flag", False):
            options += param.opts if draw(st.booleans(), label=param.name) else []
            continue
        needed = isinstance(param, click.Argument) or param.name in ALWAYS
        if param.name in hostile:
            value = draw(HOSTILE_OF.get(param.name, st.sampled_from(HOSTILE)), label=param.name)
        elif (from_run or not needed) and draw(st.booleans(), label=f"no {param.name}"):
            continue
        else:
            value = draw(valid[param.name], label=param.name)
        if isinstance(param, click.Argument):
            arguments.append(value)
        else:
            options += [param.opts[0], value]
    return [name, *options, "--", *arguments]  # a path may start with "-"


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argument_vector_exits_zero_or_one(fuzz_files, tmp_path, capsys, data):
    """Every command, given valid and hostile values for its options, exits 0
    or 1 without a traceback; on exit 1 it leaves no --out, and no Adam step
    ran unless training diverged."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    out = work / "out"
    argv = data.draw(argument_vectors(fuzz_files, str(out)), label="argv")
    steps, adam_step = [], training_mod.adam_step

    def counted(*args, **kwargs):
        steps.append(args)
        return adam_step(*args, **kwargs)

    capsys.readouterr()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)  # a hostile path names nothing here
        mp.delenv(cli_mod.DATA_DIR_VAR, raising=False)
        mp.setattr(training_mod, "adam_step", counted)
        rc = main(argv)
    captured = capsys.readouterr()
    assert rc in (0, 1), captured.err
    assert "Traceback" not in captured.out + captured.err
    if rc == 1:
        assert not out.exists()
        assert not steps or "training diverged" in captured.err, captured.err


# ------------------------------------------------------------ data-set file fuzz

# tokens no writer of the format puts in a file: signs, an underscore int() reads, a value past
# int64, control and non-ASCII bytes, a digit int() reads as 3, and blanks
FILE_TOKENS = [b"-1", b"+3", b"1_0", b"9223372036854775808", b"\r", b"\x00", b"\xff",
               "\u0663".encode(), b" ", b"\n"]


@st.composite
def mutated_files(draw, files):
    """The data set's files, `{name: bytes}`, with one of them changed: a
    hostile token inserted, bytes deleted, the file cut short, its lines
    shuffled, or the file removed."""
    files = dict(files)
    name = draw(st.sampled_from(sorted(files)), label="file")
    data = files[name]
    mutation = draw(st.sampled_from(["insert", "delete", "truncate", "shuffle", "remove"]),
                    label="mutation")
    if mutation == "insert":
        at = draw(st.integers(0, len(data)), label="at")
        files[name] = data[:at] + draw(st.sampled_from(FILE_TOKENS), label="token") + data[at:]
    elif mutation == "delete":
        at = draw(st.integers(0, len(data) - 1), label="at")
        files[name] = data[:at] + data[at + draw(st.integers(1, 8), label="bytes"):]
    elif mutation == "truncate":
        files[name] = data[:draw(st.integers(0, len(data) - 1), label="length")]
    elif mutation == "shuffle":
        files[name] = b"".join(draw(st.permutations(data.splitlines(keepends=True)), label="lines"))
    else:
        del files[name]
    return files


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_mutated_data_set_exits_zero_or_one(fuzz_files, tmp_path, capsys, data):
    """`run` on the 12-graph data set's files, one of them malformed, exits 0
    or 1 without a traceback, and on exit 1 leaves no --out."""
    source = Path(fuzz_files["dataset_path"])
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    files = data.draw(mutated_files({p.name: p.read_bytes() for p in source.iterdir()}), label="files")
    (work / source.name).mkdir()
    for name, content in files.items():
        (work / source.name / name).write_bytes(content)
    flags = data.draw(st.sampled_from([[], ["--features", "degree_one_hot:3"]]), label="features")
    flags += data.draw(st.sampled_from([[], ["--negative-pairs"]]), label="negatives")
    out = work / "out"
    capsys.readouterr()
    rc = main(["run", str(work / source.name), *COMMON, *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc in (0, 1), captured.err
    assert "Traceback" not in captured.out + captured.err
    if rc == 1:
        assert not out.exists()
