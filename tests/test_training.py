"""Training-loop tests: degenerate runs, separability, determinism, FD."""

import numpy as np
import pytest

from glaug import autodiff as ad
from glaug import training as tr
from glaug.augment import augment, target_class
from glaug.autodiff import grad_check
from glaug.data import (
    FeaturePolicy,
    FoldPlan,
    assign_labels,
    build_node_features,
    generate_synthetic,
    make_folds,
)
from glaug.model import ModelParams, classify, normalize_adjacency, project, represent
from glaug.seeding import seeded_rng


def quick_cfg(**kw):
    base = dict(
        epochs=3,
        batch_size=8,
        hidden=8,
        proj_dim=8,
        depth=2,
        num_candidates=4,
        seed=0,
    )
    base.update(kw)
    return tr.TrainConfig(**base)


def small_dataset(n=30, seed=1):
    return generate_synthetic(n, size_range=(5, 8), seed=seed)


def plan_for(ds, ratio=0.5, seed=0, fold=0):
    return assign_labels(make_folds(ds, 10, seed)[fold], ratio, seed)


# ------------------------------------------------------------- degenerate


def test_alpha_zero_no_labels_still_runs():
    ds = small_dataset(20)
    fold = make_folds(ds, 10, seed=0)[0]  # labeled_mask stays empty
    result = tr.train_fold(ds, fold, quick_cfg(alpha=0.0))
    assert len(result.validation_curve) == 3
    assert all(0.0 <= a <= 1.0 for a in result.validation_curve)
    assert result.epoch_cls_losses == (0.0, 0.0, 0.0)  # exactly zero, no labels
    assert 1 <= result.best_epoch <= 3


def test_eta_zero_training_pair_loss_is_minus_one():
    ds = small_dataset(20)
    result = tr.train_fold(ds, plan_for(ds), quick_cfg(eta=0.0, epochs=2))
    for lp in result.epoch_pair_losses:
        assert lp == pytest.approx(-1.0, abs=1e-12)
    assert result.label_invariant_rate == 1.0  # identity augmentation, exactly


def test_result_invariants_and_stats():
    ds = small_dataset(25)
    cfg = quick_cfg(epochs=2)
    result = tr.train_fold(ds, plan_for(ds), cfg)
    assert 0.0 <= result.test_accuracy <= 1.0
    assert 0.0 <= result.fallback_rate <= 1.0
    assert 0.0 <= result.label_invariant_rate <= 1.0
    n_train = len(plan_for(ds).train_indices)
    assert sum(result.qualified_histogram) == cfg.epochs * n_train
    assert len(result.qualified_histogram) == cfg.num_candidates + 1


def test_trailing_singleton_batch_merges():
    ds = small_dataset(23)  # train 17 = 8 + 8 + 1 -> merged into 8 + 9
    fold = plan_for(ds, ratio=0.5)
    assert len(fold.train_indices) == 17
    result = tr.train_fold(ds, fold, quick_cfg(negative_pairs=True, epochs=1))
    assert len(result.validation_curve) == 1  # ntxent would reject a 1-batch


def test_dataset_dist_scope_runs():
    ds = small_dataset(20)
    result = tr.train_fold(ds, plan_for(ds), quick_cfg(dist_scope="dataset", epochs=2))
    assert len(result.epoch_pair_losses) == 2


# ------------------------------------------------------------ determinism


def test_train_fold_bit_identical_reruns():
    ds = small_dataset(20)
    cfg = quick_cfg(epochs=2)
    a = tr.train_fold(ds, plan_for(ds), cfg)
    b = tr.train_fold(ds, plan_for(ds), cfg)
    assert a == b  # frozen dataclass equality covers every float exactly


def test_seed_changes_results():
    ds = small_dataset(20)
    a = tr.train_fold(ds, plan_for(ds), quick_cfg(epochs=2, seed=0))
    b = tr.train_fold(ds, plan_for(ds), quick_cfg(epochs=2, seed=1))
    assert a != b


def test_run_experiment_deterministic_and_std():
    ds = small_dataset(20)
    cfg = quick_cfg(epochs=1)
    r1 = tr.run_experiment(ds, cfg)
    r2 = tr.run_experiment(ds, cfg)
    assert r1 == r2
    accs = [f.test_accuracy for f in r1.folds]
    mean = sum(accs) / 10
    brute_std = (sum((a - mean) ** 2 for a in accs) / 9) ** 0.5  # n-1 denominator
    assert r1.std_accuracy == pytest.approx(brute_std, abs=1e-12)
    assert r1.mean_accuracy == pytest.approx(mean, abs=1e-12)


def test_parallel_folds_match_sequential():
    ds = small_dataset(20)
    cfg = quick_cfg(epochs=1)
    seq = tr.run_experiment(ds, cfg, workers=1)
    par = tr.run_experiment(ds, cfg, workers=2)
    assert seq == par


# ------------------------------------------------------------- learning


def test_synthetic_separable_reaches_95():
    # degree features carry the density signal; the synthetic node labels are
    # uniform noise and would starve the encoder of structure
    ds = generate_synthetic(60, size_range=(8, 12), edge_density_per_class=(0.1, 0.9), seed=7)
    ds = build_node_features(ds, FeaturePolicy("degree_one_hot", 10))
    cfg = tr.TrainConfig(
        epochs=30, batch_size=16, hidden=32, proj_dim=32, depth=2, num_candidates=5,
        seed=0, learning_rate=1e-2,
    )
    fold = assign_labels(make_folds(ds, 10, 0)[0], 0.5, 0)
    result = tr.train_fold(ds, fold, cfg)
    assert result.test_accuracy >= 0.95


def test_loss_decreases_on_synthetic():
    ds = small_dataset(30, seed=3)
    cfg = quick_cfg(epochs=16, hidden=16, proj_dim=16)
    result = tr.train_fold(ds, plan_for(ds, seed=3), cfg)
    total = [p + cfg.alpha * c for p, c in zip(result.epoch_pair_losses, result.epoch_cls_losses)]
    assert np.mean(total[-4:]) < np.mean(total[:4])


# --------------------------------------------------------- invariance rate


def test_easiest_rate_at_least_hardest_rate():
    ds = small_dataset(30, seed=5)
    fold = plan_for(ds, seed=5)
    base = tr.train_fold(ds, fold, quick_cfg(epochs=4, strategy="hardest", eta=2.0))
    # measure both strategies against the same trained model
    adjs = [normalize_adjacency(g) for g in ds.graphs]
    params = ModelParams.init(
        ds.feature_dim, ds.num_classes, hidden=8, proj_dim=8, depth=2,
        rng=seeded_rng(0, "init", fold.fold_index),
    )
    # retrace training to recover the best checkpoint is overkill here; the
    # ordering claim is about measurement, so any fixed params work
    hardest = tr.label_invariant_rate(
        params, ds, adjs, fold, quick_cfg(strategy="hardest", eta=2.0)
    )
    easiest = tr.label_invariant_rate(
        params, ds, adjs, fold, quick_cfg(strategy="easiest", eta=2.0)
    )
    assert easiest >= hardest
    assert 0.0 <= base.label_invariant_rate <= 1.0


# ------------------------------------------------------------- end-to-end FD


def margin_of(params, graphs, adjs, offsets):
    """min |relu preactivation| across both branches of a toy batch."""
    margin = np.inf
    arr = params.arrays
    for g, adj, off in zip(graphs, adjs, offsets):
        a_hat = adj.to_dense()
        out = g.node_features
        for layer in range(params.depth):
            z = a_hat @ out @ arr[f"enc{layer}"]
            margin = min(margin, float(np.abs(z).min()))
            new = np.maximum(0.0, z)
            if layer > 0 and new.shape == out.shape:
                new = new + out
            out = new
        h = np.sort(out, axis=0).sum(axis=0, keepdims=True)
        for branch in (h, h + off):
            for head in ("cls", "proj"):
                z1 = branch @ arr[f"{head}_w1"] + arr[f"{head}_b1"]
                margin = min(margin, float(np.abs(z1).min()))
    return margin


def test_full_objective_gradient_matches_fd():
    # two-graph batch, one labeled; selection frozen as in a real step
    for seed in range(60):
        rng = np.random.default_rng(seed)
        ds = generate_synthetic(2, size_range=(4, 5), seed=seed)
        graphs = list(ds.graphs)
        adjs = [normalize_adjacency(g) for g in graphs]
        params = ModelParams.init(ds.feature_dim, 2, hidden=5, proj_dim=4, depth=2, rng=rng)
        for a in params.arrays.values():
            a += rng.normal(scale=0.05, size=a.shape)

        # freeze the augmentation outcomes with the entering parameters
        frozen = params.bind()
        h_vals = [represent(None, g, adj, frozen) for g, adj in zip(graphs, adjs)]
        d = 1.0
        offsets = []
        for idx, (g, h) in enumerate(zip(graphs, h_vals)):
            from glaug.augment import snapshot_probs

            target = target_class(g.label if idx == 0 else None, snapshot_probs(params, h))
            out = augment(h, target, params, tr.TrainConfig(hidden=5).aug_config(), d,
                          seeded_rng(seed, "fd", idx))
            offsets.append(out.offset)

        if margin_of(params, graphs, adjs, offsets) <= 1e-3:
            continue

        def batch_loss(tape, bound):
            pair_terms, cls_terms = [], []
            for idx, (g, adj, off) in enumerate(zip(graphs, adjs, offsets)):
                h_o = represent(tape, g, adj, bound)
                h_a = ad.add(h_o, tape.constant(off))
                pair_terms.append(tr.contrastive_loss(project(h_o, bound), project(h_a, bound)))
                if idx == 0:
                    onehot = np.zeros((1, 2))
                    onehot[0, g.label] = 1.0
                    cls_terms.append(
                        tr.classification_loss(
                            classify(h_o, bound), classify(h_a, bound), tape.constant(onehot)
                        )
                    )
            return tr.total_loss(tr._mean(pair_terms), tr._mean(cls_terms), alpha=1.0)

        for name in params.arrays:
            def f(x, _name=name):
                tape = x.tape
                bound = {
                    k: (x if k == _name else tape.leaf(v, requires_grad=False))
                    for k, v in params.arrays.items()
                }
                return batch_loss(tape, bound)

            err = grad_check(f, params.arrays[name])
            assert err < 1e-4, f"{name}: {err:.2e} (seed {seed})"
        return
    raise AssertionError("no kink-free seed found")
