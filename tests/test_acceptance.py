"""Acceptance gate: one test per release criterion, one printed verdict each.

Criteria tied to the real MUTAG benchmark skip with an explicit reason when
the dataset directory is not present (this sandbox has no network access and
the tool deliberately does not download datasets). Synthetic witnesses cover
the same code paths in separate tests so the gate still exercises them.

Set GLAUG_DATA_DIR (or drop the files under ./data/MUTAG) to enable the
MUTAG-bound criteria.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from glaug.augment import augment, centroid_distance, snapshot_probs
from glaug.cli import main
from glaug.data import (
    FeaturePolicy,
    assign_labels,
    build_node_features,
    dataset_stats,
    generate_synthetic,
    make_folds,
    parse_tudataset,
    write_tudataset,
)
from glaug.model import ModelParams, normalize_adjacency
from glaug.seeding import seeded_rng
from glaug.training import TrainConfig, contrastive_loss, gradient_suite, train_fold
from glaug.autodiff import Tape


@pytest.fixture
def announce(capfd):
    """Print the verdict on the real terminal, past pytest's capture."""

    def _announce(num: int, verdict: str, text: str) -> None:
        with capfd.disabled():
            print(f"[criterion {num:02d}] {verdict}: {text}")

    return _announce


def _find_mutag() -> Path | None:
    candidates = []
    env = os.environ.get("GLAUG_DATA_DIR")
    if env:
        candidates.append(Path(env) / "MUTAG")
    candidates += [Path("data/MUTAG"), Path("datasets/MUTAG"), Path("/root/data/MUTAG")]
    for c in candidates:
        if (c / "MUTAG_A.txt").is_file():
            return c
    return None


MUTAG_DIR = _find_mutag()
NEEDS_MUTAG = "MUTAG files not present (no network, no downloader); see module docstring"


def small_synth(graphs=20, seed=3):
    return generate_synthetic(graphs, 2, (6, 9), (0.15, 0.75), seed)


def quick_cfg(**kw):
    base = dict(
        epochs=2, batch_size=8, hidden=8, proj_dim=6, depth=2,
        num_candidates=3, learning_rate=1e-2, seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------- 1


def test_criterion_01_gradient_suite(announce):
    start = time.perf_counter()
    checks = gradient_suite("full")
    elapsed = time.perf_counter() - start
    worst = max(err for _, err in checks)
    ok = worst < 1e-4 and elapsed < 60.0
    announce(1, "PASS" if ok else "FAIL",
             f"{len(checks)} gradient checks, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------- 2


def _dense_oracle(n, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    a += np.eye(n)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
    return d_inv_sqrt @ a @ d_inv_sqrt


def test_criterion_02_normalization_oracle(announce):
    rng = seeded_rng(11, "acceptance-norm")
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        edges = sorted(
            {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5}
        )
        dense = normalize_adjacency(n, np.array(edges, np.intp).reshape(-1, 2))
        worst = max(worst, float(np.max(np.abs(dense - _dense_oracle(n, edges)))))
    ok = worst <= 1e-12
    announce(2, "PASS" if ok else "FAIL",
             f"200 random graphs <=8 nodes, max deviation from dense oracle {worst:.2e}")
    assert worst <= 1e-12


# ---------------------------------------------------------------- 3


def test_criterion_03_parser(announce, tmp_path):
    if MUTAG_DIR is not None:
        ds = parse_tudataset(MUTAG_DIR, "MUTAG")
        stats = dataset_stats(ds)
        ok = (
            stats["num_graphs"] == 188
            and stats["num_classes"] == 2
            and abs(stats["mean_nodes"] - 17.93) <= 0.01
            and abs(stats["mean_edges"] - 19.79) <= 0.01
        )
        announce(3, "PASS" if ok else "FAIL",
                 f"MUTAG: {stats['num_graphs']} graphs, {stats['num_classes']} classes, "
                 f"{stats['mean_nodes']:.2f} nodes, {stats['mean_edges']:.2f} edges")
        assert ok
        return
    ds = small_synth(30)
    out = tmp_path / "roundtrip"
    write_tudataset(ds, out, ds.name)
    back = parse_tudataset(out, ds.name)
    exact = all(
        np.array_equal(getattr(back, c), getattr(ds, c)) for c in ("node_ptr", "edges", "edge_ptr")
    ) and back.labels.tolist() == ds.labels.tolist() and (
        back.node_labels.tolist() == ds.node_labels.tolist()
    )
    announce(3, "PASS" if exact else "FAIL",
             "MUTAG absent; synthetic write->parse round trip structurally exact")
    assert exact


# ---------------------------------------------------------------- 4


@pytest.mark.skipif(MUTAG_DIR is None, reason=NEEDS_MUTAG)
def test_criterion_04_invariance_on_mutag(announce):
    ds = parse_tudataset(MUTAG_DIR, "MUTAG")
    fold = assign_labels(make_folds(ds, 10, 0)[0], 0.5, 0)
    # augment() re-checks every chosen candidate online and raises on mismatch,
    # so a completed run IS the 100% agreement assertion
    result = train_fold(ds, fold, TrainConfig())
    non_fallback = sum(result.qualified_histogram[1:])
    announce(4, "PASS", f"MUTAG run complete, {non_fallback} selections re-checked online")
    assert non_fallback > 0


def test_criterion_04_witness_synthetic(announce):
    ds = small_synth()
    fold = assign_labels(make_folds(ds, 10, 1)[0], 0.5, 1)
    result = train_fold(ds, fold, quick_cfg(epochs=3))
    non_fallback = sum(result.qualified_histogram[1:])
    ok = non_fallback > 0 and result.fallback_rate < 1.0
    announce(4, "PASS" if ok else "FAIL",
             f"synthetic witness: {non_fallback} augmentations re-checked online "
             f"(MUTAG leg {'ran separately' if MUTAG_DIR else 'skipped: dataset absent'})")
    assert ok


# ---------------------------------------------------------------- 5


def test_criterion_05_strategy_ordering(announce):
    ds = small_synth()
    params = ModelParams.init(
        ds.feature_dim, ds.num_classes, hidden=12, proj_dim=8, depth=2,
        rng=seeded_rng(5, "acc5"),
    )
    from glaug.training import _representations

    frozen = params.bind()
    h = _representations(ds, frozen, range(len(ds)))
    d = centroid_distance(h)
    checked = 0
    for trial in range(80):
        row = h[trial % len(ds)][None, :]
        target = int(np.argmax(snapshot_probs(frozen, row)))
        chosen = {}
        qualified = None
        for strategy in ("hardest", "random", "easiest"):
            cfg = TrainConfig(
                eta=1.0, num_candidates=6, strategy=strategy, dist_scope="dataset"
            )
            rng = seeded_rng(900 + trial, "acc5-pool")  # identical pool per strategy
            out = augment(row, [target], frozen, cfg, d, [rng])
            chosen[strategy] = out.chosen[0]
            qualified = out.qualified_count
        if qualified is not None and qualified >= 2:
            checked += 1
            assert chosen["hardest"] <= chosen["random"] <= chosen["easiest"]
    ok = checked >= 20
    announce(5, "PASS" if ok else "FAIL",
             f"hardest <= random <= easiest held exactly on {checked} matched pools "
             f"with >=2 qualified candidates")
    assert ok


# ---------------------------------------------------------------- 6


@pytest.mark.skipif(MUTAG_DIR is None, reason=NEEDS_MUTAG)
def test_criterion_06_mutag_accuracy(announce):
    from glaug.training import run_experiment

    ds = parse_tudataset(MUTAG_DIR, "MUTAG")
    start = time.perf_counter()
    [result] = run_experiment(ds, [TrainConfig()])  # all defaults, 50% labels
    elapsed = time.perf_counter() - start
    ok = result.mean_accuracy >= 0.80 and elapsed < 1800
    announce(6, "PASS" if ok else "FAIL",
             f"MUTAG 50% labels: mean accuracy {result.mean_accuracy:.4f} "
             f"(gate 0.80) in {elapsed / 60:.1f} min")
    assert result.mean_accuracy >= 0.80
    assert elapsed < 1800


# ---------------------------------------------------------------- 7


def test_criterion_07_synthetic_separability(announce):
    # density signal lives in the degrees; the synthetic node labels are noise
    ds = generate_synthetic(60, 2, (8, 12), (0.1, 0.9), seed=7)
    ds = build_node_features(ds, FeaturePolicy("degree_one_hot", 10))
    cfg = TrainConfig(
        epochs=30, batch_size=16, hidden=32, proj_dim=32, depth=2,
        num_candidates=5, seed=0, learning_rate=1e-2,
    )
    fold = assign_labels(make_folds(ds, 10, 0)[0], 0.5, 0)
    result = train_fold(ds, fold, cfg)
    ok = result.test_accuracy >= 0.95
    announce(7, "PASS" if ok else "FAIL",
             f"synthetic 0.1/0.9 densities: test accuracy {result.test_accuracy:.3f} "
             f"within 30 epochs (gate 0.95)")
    assert ok


# ---------------------------------------------------------------- 8


def test_criterion_08_identity_limit(announce):
    ds = small_synth()
    fold = assign_labels(make_folds(ds, 10, 0)[0], 0.5, 0)
    result = train_fold(ds, fold, quick_cfg(eta=0.0))
    rate_exact = result.label_invariant_rate == 1.0
    loss_dev = max(abs(l + 1.0) for l in result.epoch_pair_losses)

    # per-pair statement, not just the epoch mean
    rng = seeded_rng(8, "acc8")
    per_pair_dev = 0.0
    for _ in range(20):
        tape = Tape()
        p = tape.constant(rng.normal(size=(1, 6)))
        per_pair_dev = max(per_pair_dev, abs(contrastive_loss(p, p).value[0, 0] + 1.0))

    ok = rate_exact and loss_dev <= 1e-12 and per_pair_dev <= 1e-12
    announce(8, "PASS" if ok else "FAIL",
             f"eta=0: invariant rate {result.label_invariant_rate} (exact), "
             f"pair loss within {max(loss_dev, per_pair_dev):.1e} of -1")
    assert rate_exact
    assert loss_dev <= 1e-12
    assert per_pair_dev <= 1e-12


# ---------------------------------------------------------------- 9


def test_criterion_09_byte_determinism(announce, tmp_path):
    data_dir = tmp_path / "SYNTH"
    assert main(["gen-synth", "--graphs", "16", "--seed", "3", "--out", str(data_dir),
                 "--name", "SYNTH"]) == 0
    tiny = ["--epochs", "1", "--k", "2", "--hidden", "6", "--proj-dim", "4",
            "--depth", "1", "--batch-size", "8"]
    identical = True
    for cmd, extra, files in (
        ("run", [], ["metrics.json", "manifest.json"]),
        ("sweep-eta", ["--values", "0.0,1.0"], ["metrics.json", "sweep_eta.tsv"]),
    ):
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{cmd}-{rep}"
            assert main([cmd, str(data_dir), *extra, *tiny, "--out", str(out)]) == 0
            outs.append(out)
        for f in files:
            identical &= (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
    announce(9, "PASS" if identical else "FAIL",
             "run and sweep-eta re-runs byte-identical (single-threaded)")
    assert identical


# ---------------------------------------------------------------- 10


def test_criterion_10_trend_reports(announce, tmp_path, capfd):
    data_dir = tmp_path / "SYNTH"
    assert main(["gen-synth", "--graphs", "16", "--seed", "3", "--out", str(data_dir),
                 "--name", "SYNTH"]) == 0
    tiny = ["--epochs", "1", "--k", "2", "--hidden", "6", "--proj-dim", "4",
            "--depth", "1", "--batch-size", "8"]
    rc1 = main(["ablate-strategy", str(data_dir), *tiny, "--out", str(tmp_path / "ab")])
    rc2 = main(["invariant-rate", str(data_dir), "--ratios", "0.4,0.8", *tiny,
                "--out", str(tmp_path / "ir")])
    captured = capfd.readouterr()
    emitted = ("trend" in captured.out) or ("trend" in captured.err)
    doc_ab = json.loads((tmp_path / "ab" / "metrics.json").read_text())
    doc_ir = json.loads((tmp_path / "ir" / "metrics.json").read_text())
    names = {t["name"] for t in doc_ab.get("trends", [])} | {
        t["name"] for t in doc_ir.get("trends", [])
    }
    # soft: commands must succeed and report, whichever way the trends fall
    ok = rc1 == 0 and rc2 == 0 and emitted and {
        "hardest_accuracy_at_least_easiest",
        "invariant_rate_nondecreasing_in_label_ratio",
    } <= names
    announce(10, "PASS" if ok else "FAIL",
             "trend reports emitted as warnings, never gating "
             f"(MUTAG directional legs {'ran separately' if MUTAG_DIR else 'skipped: dataset absent'})")
    assert ok


@pytest.mark.skipif(MUTAG_DIR is None, reason=NEEDS_MUTAG)
def test_criterion_10_mutag_directions(announce, tmp_path):
    # shortened epochs: this leg is soft/reporting, only criterion 6 pins defaults
    args = ["--epochs", "40", "--out"]
    rc1 = main(["ablate-strategy", str(MUTAG_DIR), *args, str(tmp_path / "ab")])
    rc2 = main(["invariant-rate", str(MUTAG_DIR), "--ratios", "0.3,0.5,0.7", *args,
                str(tmp_path / "ir")])
    announce(10, "PASS" if rc1 == 0 and rc2 == 0 else "FAIL",
             "MUTAG soft trends reported; see warnings above for direction")
    assert rc1 == 0 and rc2 == 0
