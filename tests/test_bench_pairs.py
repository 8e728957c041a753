"""scripts/bench_pairs.py on canned result lines: no benchmark run starts."""

import importlib.util
import json
from pathlib import Path

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
        {"name": "graphs_per_s", "better": "higher"}, {"name": "peak_rss_mb", "better": "lower"},
    ]}
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps(spec))

    calls = []

    def canned_run(root, workload, seed, seconds):
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
    out = capsys.readouterr().out
    assert "change better in 1/3 pairs" in out
    assert "change: 1 failed runs, 0/30 failed operations" in out
