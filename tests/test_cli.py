"""Command-line behavior: exit codes, artifacts, manifest reruns."""

import json
import re
import shutil
from pathlib import Path

import pytest

import glaug.cli as cli_mod
import glaug.data as data_mod
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
    ds, spelled = cli_mod._resolve_dataset(str(toy_dir), "TOY", "degree_one_hot:4")
    assert built == [policy]
    assert spelled == "degree_one_hot:4"
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


@pytest.mark.parametrize(
    "values", [None, [], ["a"], [True], [0.5, NAN], [0.5, 2.0]],
    ids=["missing", "empty", "string", "bool", "nan", "out_of_range"],
)
def test_rerun_rejects_bad_study_values(run_dir, tmp_path, capsys, monkeypatch, values):
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)  # rejected before any variant
    doc = json.loads((run_dir / "manifest.json").read_text())
    doc["command"] = "invariant-rate"
    doc["extra"] = {"ratios": values}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    assert_input_error(capsys, main(["rerun", str(path), "--out", str(tmp_path / "x")]))


def test_rerun_rejects_json_list(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text("[]")
    assert_input_error(capsys, main(["rerun", str(path)]))


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


def test_invariant_rate_from_run(toy_dir, tmp_path, capsys):
    assert main(["run", str(toy_dir), *COMMON, "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    rc = main(["invariant-rate", "--from-run", str(tmp_path / "r" / "metrics.json")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label_ratio\tmean_invariant_rate"
    assert float(lines[1].split("\t")[1]) <= 1.0


def test_invariant_rate_from_run_rejects_sweep_doc(toy_dir, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep-eta", str(toy_dir), "--values", "1.0", *COMMON, "--out", str(out)]) == 0
    rc = main(["invariant-rate", "--from-run", str(out / "metrics.json")])
    assert rc == 1


@pytest.mark.parametrize("edit", [
    _set([], "folds"),
    _drop("folds"),
    _drop("config"),
    _set("x", "folds", 0, "label_invariant_rate"),
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
], ids=["graphs_0", "graphs_neg", "graphs_3", "graphs_9", "sizes_lo_fraction", "sizes_hi_fraction"])
def test_gen_synth_rejects_unusable_dataset(tmp_path, capsys, args):
    # fewer graphs than folds, or fractional node counts, would give a dataset
    # every experiment command rejects (or one silently truncated)
    rc = main(["gen-synth", *args, "--out", str(tmp_path / "S")])
    assert_input_error(capsys, rc)
    assert not (tmp_path / "S").exists()


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


def test_explicit_feature_policy_recorded(toy_dir, tmp_path):
    rc = main(["run", str(toy_dir), "--features", "degree_one_hot:4", *COMMON,
               "--out", str(tmp_path / "r")])
    assert rc == 0
    doc = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert doc["config"]["feature_policy"] == "degree_one_hot:4"


def test_bad_feature_policy(toy_dir, tmp_path):
    rc = main(["run", str(toy_dir), "--features", "nonsense", "--out", str(tmp_path / "r")])
    assert rc == 1


def test_parallel_folds_match_sequential(toy_dir, tmp_path):
    assert main(["run", str(toy_dir), *COMMON, "--out", str(tmp_path / "s")]) == 0
    assert main(["run", str(toy_dir), *COMMON, "--parallel-folds", "2",
                 "--out", str(tmp_path / "p")]) == 0
    assert read(tmp_path / "s" / "metrics.json") == read(tmp_path / "p" / "metrics.json")


@pytest.mark.parametrize("command, flags", [
    ("run", ["--eta", "nan"]),
    ("run", ["--eta", "inf"]),
    ("run", ["--lr", "nan"]),
    ("run", ["--lr", "inf"]),
    ("run", ["--alpha", "inf"]),
    ("run", ["--temperature", "nan"]),
    ("sweep-eta", ["--values", "0.5,nan"]),
    ("invariant-rate", ["--ratios", "0.5,inf"]),
], ids=["eta_nan", "eta_inf", "lr_nan", "lr_inf", "alpha_inf", "temperature_nan",
        "sweep_values_nan", "rate_ratios_inf"])
def test_non_finite_flag_exits_one(toy_dir, tmp_path, capsys, monkeypatch, command, flags):
    monkeypatch.setattr(cli_mod, "run_experiment", _no_training)
    rc = main([command, str(toy_dir), *COMMON, *flags, "--out", str(tmp_path / "r")])
    assert_input_error(capsys, rc)
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
