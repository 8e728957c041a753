"""scripts/bench_pairs.py on canned result lines and stub bench scripts: no benchmark runs."""

import importlib.util
import json
import os
from functools import partial
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(graphs_per_s, peak_rss_mb, failed=0):
    return {
        "exit_code": 0, "correct": True, "attempted": 10, "failed": failed,
        "metrics": {"graphs_per_s": graphs_per_s, "peak_rss_mb": peak_rss_mb},
    }


# (pair, side) -> the run's result. graphs_per_s (higher is better): the
# change wins pair 0, loses pair 1 and ties pair 2. peak_rss_mb (lower is
# better): it ties pair 0, wins pair 1 and loses pair 2. The change's run of
# pair 3 exits 1, so pair 3 counts for neither metric.
CANNED = {
    (0, "parent"): result(100.0, 50.0),
    (0, "change"): result(110.0, 50.0),
    (1, "parent"): result(120.0, 50.0, failed=2),
    (1, "change"): result(110.0, 40.0),
    (2, "parent"): result(80.0, 50.0),
    (2, "change"): result(80.0, 60.0),
    (3, "parent"): result(140.0, 50.0),
    (3, "change"): {"exit_code": 1},
}


def test_summary_wins_and_failed_runs(tmp_path, monkeypatch, capsys):
    bench_pairs = load_script()
    roots = {}
    for side in ("parent", "change"):
        roots[side] = tmp_path / side
        (roots[side] / "bench").mkdir(parents=True)
        (roots[side] / "bench" / "run.py").write_text("")
    spec = {"end_to_end": [
        {"name": "graphs_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
    ]}
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps(spec))

    calls = []

    def canned_run(root, work, workload, seed, seconds):
        side = root.name
        calls.append((seed, side))
        assert (root, workload, seconds) == (roots[side].resolve(), "w", 10.0)
        return CANNED[seed - 100, side]

    monkeypatch.setattr(bench_pairs, "_run", canned_run)
    argv = [
        str(roots["parent"]), str(roots["change"]), "--workload", "w", "--pairs", "4",
        "--first-seed", "100", "--label", "t", "--out-dir", str(tmp_path / "out"),
    ]
    assert bench_pairs.main(argv) == 0
    doc = json.loads((tmp_path / "out" / "BENCH_t.json").read_text())

    # even pairs run the parent first, odd pairs the change first
    assert calls == [
        (100, "parent"), (100, "change"), (101, "change"), (101, "parent"),
        (102, "parent"), (102, "change"), (103, "change"), (103, "parent"),
    ]
    assert doc["seeds"] == [100, 103] and len(doc["runs"]) == 8
    assert doc["wins"] == {
        "graphs_per_s": {"won": 1, "pairs": 3}, "peak_rss_mb": {"won": 1, "pairs": 3},
    }
    parent, change = doc["sides"]["parent"], doc["sides"]["change"]
    # inclusive quartiles: parent 80, 100, 120, 140; change 110, 110, 80
    assert parent["metrics"]["graphs_per_s"] == {"median": 110.0, "q1": 95.0, "q3": 125.0}
    assert change["metrics"]["graphs_per_s"] == {"median": 110.0, "q1": 95.0, "q3": 110.0}
    assert change["metrics"]["peak_rss_mb"] == {"median": 50.0, "q1": 45.0, "q3": 55.0}
    assert (parent["runs"], parent["failed_runs"]) == (4, 0)
    assert (change["runs"], change["failed_runs"]) == (4, 1)
    assert (parent["attempted_operations"], parent["failed_operations"]) == (40, 2)
    assert (change["attempted_operations"], change["failed_operations"]) == (30, 0)
    # the change has a failed run and the parent none: every metric regresses
    assert doc["verdicts"] == {"graphs_per_s": "regression", "peak_rss_mb": "regression"}
    out = capsys.readouterr().out
    assert out.count("change better in 1/4 pairs: regression") == 2
    assert "change: 1 failed runs, 0/30 failed operations" in out
    assert "minor faults" not in out  # canned runs carry no page-fault counts


def test_runs_record_the_page_faults_and_system_time_of_their_process_tree(tmp_path, capsys):
    # a stub bench/run.py in each root: it prints one result line after another line
    line = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"graphs_per_s": {"value": 12.5}, "peak_rss_mb": {"value": 40.0}}}
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(
            f"print('a progress line')\nprint({json.dumps(json.dumps(line))})\n")
    spec = {"end_to_end": [{"name": "graphs_per_s", "better": "higher", "bound": 0.25}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "1",
            "--first-seed", "1", "--label", "t", "--seconds", "0.5", "--out-dir", str(tmp_path)]
    assert load_script().main(argv) == 0
    doc, out = json.loads((tmp_path / "BENCH_t.json").read_text()), capsys.readouterr().out
    for run in doc["runs"]:
        assert (run["exit_code"], run["attempted"], run["metrics"]) == (
            0, 3, {"graphs_per_s": 12.5, "peak_rss_mb": 40.0})
        assert run["minor_faults"] > 0 and run["system_s"] >= 0.0  # Python starting faults
    for side in ("parent", "change"):
        faults = doc["sides"][side]["minor_faults"]["median"]
        assert faults > 0 and doc["sides"][side]["system_s"]["median"] >= 0.0
        assert f"{side}: median {faults:.0f} minor faults and " in out


def test_both_sides_run_from_one_path_with_fresh_copies_of_their_own_trees(tmp_path, capsys):
    """Each run starts from the same emptied work path, holding that side's
    src/, bench/ and BENCHMARK.json with fresh modification times and no
    __pycache__; the path is gone after the series."""
    log, old = tmp_path / "log.jsonl", 946684800  # 2000-01-01, the sources' modification time
    line = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"graphs_per_s": {"value": 1.0}}}
    stub = f"""import json, os, pathlib
here = pathlib.Path(__file__).resolve()
root = here.parents[1]
with open({str(log)!r}, "a") as log:
    log.write(json.dumps({{
        "cwd": os.getcwd(), "root": str(root), "src": (root / "src" / "side.txt").read_text(),
        "spec": (root / "BENCHMARK.json").read_text(), "mtime": os.stat(here).st_mtime,
        "pycache": (root / "bench" / "__pycache__").exists(),
        "leftover": sorted(p.name for p in root.iterdir()),
    }}) + "\\n")
    (root / "left-by-the-run").touch()
print({json.dumps(json.dumps(line))})
"""
    spec = {"end_to_end": [{"name": "graphs_per_s", "better": "higher", "bound": 0.25}]}
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "bench" / "__pycache__").mkdir(parents=True)
        (root / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"stale")
        (root / "bench" / "run.py").write_text(stub)
        (root / "src").mkdir()
        (root / "src" / "side.txt").write_text(side)
        (root / "BENCHMARK.json").write_text(json.dumps(dict(spec, side=side)))
        for path in (root / "bench" / "run.py", root / "src" / "side.txt", root / "BENCHMARK.json"):
            os.utime(path, (old, old))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "2",
            "--first-seed", "1", "--label", "t", "--seconds", "0.5", "--out-dir", str(tmp_path)]
    assert load_script().main(argv) == 0
    seen = [json.loads(text) for text in log.read_text().splitlines()]
    assert [s["src"] for s in seen] == ["parent", "change", "change", "parent"]
    assert [json.loads(s["spec"])["side"] for s in seen] == [s["src"] for s in seen]
    work = {s["root"] for s in seen}
    assert len(work) == 1 and {s["cwd"] for s in seen} == work
    assert not any(Path(s["root"]).is_relative_to(tmp_path) for s in seen)
    assert all(s["mtime"] > old and not s["pycache"] for s in seen)
    assert all(s["leftover"] == ["BENCHMARK.json", "bench", "src"] for s in seen)
    assert not Path(work.pop()).exists()
    doc = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert all(run["exit_code"] == 0 and run["speedup"] > 0 for run in doc["runs"])
    out = capsys.readouterr().out
    for side in ("parent", "change"):
        speedup = doc["sides"][side]["speedup"]["median"]
        assert f"{side}: median two-process speedup {speedup:.2f} before a run" in out


PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]  # IQR 4.5


@pytest.mark.parametrize("change, won, better, bound, failing, want", [
    # better in every pair, median 10 past the parent's: a gain
    ([v + 10.0 for v in PARENT], 10, "higher", 0.25, False, "gain"),
    ([v - 10.0 for v in PARENT], 10, "lower", 0.15, False, "gain"),
    # 9 of 10 pairs is enough, 8 is not
    ([v + 10.0 for v in PARENT], 9, "higher", 0.25, False, "gain"),
    ([v + 10.0 for v in PARENT], 8, "higher", 0.25, False, "no change"),
    # every completed pair won, but the change's run failed in half of the 10
    ([v + 10.0 for v in PARENT[:5]], 5, "higher", 0.25, False, "no change"),
    # every pair won, but the change has more failed runs or failed operations
    ([v + 10.0 for v in PARENT], 10, "higher", 0.25, True, "regression"),
    # every pair won, but the medians differ by no more than the parent's IQR
    ([v + 4.5 for v in PARENT], 10, "higher", 0.25, False, "no change"),
    # the median worse by more than the bound
    ([v * 0.7 for v in PARENT], 0, "higher", 0.25, False, "regression"),
    ([v * 1.2 for v in PARENT], 0, "lower", 0.15, False, "regression"),
    # worse, but within the bound
    ([v * 0.8 for v in PARENT], 0, "higher", 0.25, False, "no change"),
    ([v * 1.1 for v in PARENT], 0, "lower", 0.15, False, "no change"),
    # a side with no completed run has no verdict
    ([], 0, "higher", 0.25, False, None),
])
def test_verdicts_on_a_narrow_parent(change, won, better, bound, failing, want):
    verdict = load_script().verdict
    assert verdict(PARENT, change, won, len(PARENT), better, bound, failing=failing) == want


@pytest.mark.parametrize("parent, change, want", [
    ((0, 2, 40), (0, 2, 40), False),
    ((0, 2, 40), (1, 0, 30), True),  # one more failed run
    ((0, 2, 40), (0, 2, 30), True),  # 2/30 operations failed against 2/40
    ((1, 2, 40), (0, 1, 30), False),
    ((0, 0, 0), (0, 0, 10), False),
])
def test_fails_more_compares_failed_runs_and_operation_shares(parent, change, want):
    fails_more = load_script().fails_more

    def side(runs, ops, attempted):
        return {"failed_runs": runs, "failed_operations": ops, "attempted_operations": attempted}

    assert fails_more(side(*parent), side(*change)) is want


def test_wide_parent_is_unresolved_unless_the_sides_separate():
    verdict = partial(load_script().verdict, failing=False)
    # inclusive quartiles 62.5 and 100 about a median of 100: the IQR is past 0.25 of it
    wide = [50.0, 50.0, 50.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 101.0]
    assert verdict(wide, [v + 1.0 for v in wide], 10, 10, "higher", 0.25) == "unresolved"
    assert verdict(wide, wide, 0, 10, "higher", 0.25) == "unresolved"
    # every change run better than every parent run resolves it
    assert verdict(wide, [102.0] * 10, 10, 10, "higher", 0.25) == "no change"
    assert verdict(wide, [140.0] * 10, 10, 10, "higher", 0.25) == "gain"
    # a regression is one whatever the spread
    assert verdict(wide, [70.0] * 10, 0, 10, "higher", 0.25) == "regression"
    # within the bound of a narrower metric the same spread is not unresolved
    assert verdict(wide, wide, 0, 10, "higher", 0.5) == "no change"
