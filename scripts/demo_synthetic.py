"""End-to-end library walkthrough on a synthetic dataset.

Shows the Python API directly; the `glaug` CLI wraps the same calls. Runs in
a few seconds on one core.
"""

import numpy as np

from glaug.data import FeaturePolicy, assign_labels, build_node_features, generate_synthetic, make_folds
from glaug.training import TrainConfig, run_experiment, train_fold


def main() -> None:
    ds = generate_synthetic(60, 2, (8, 12), (0.1, 0.9), seed=7)
    ds = build_node_features(ds, FeaturePolicy("degree_one_hot", 10))
    cfg = TrainConfig(
        epochs=30, batch_size=16, hidden=32, proj_dim=32, depth=2,
        num_candidates=5, learning_rate=1e-2, seed=0,
    )

    fold = assign_labels(make_folds(ds, 10, cfg.seed)[0], cfg.label_ratio, cfg.seed)
    result = train_fold(ds, fold, cfg)
    print(f"single fold: test accuracy {result.test_accuracy:.3f}, "
          f"best epoch {result.best_epoch}, "
          f"invariant rate {result.label_invariant_rate:.3f}, "
          f"fallback rate {result.fallback_rate:.3f}")
    print("qualified-candidate histogram (0..K):", result.qualified_histogram)

    [full] = run_experiment(ds, [cfg])
    accs = [f.test_accuracy for f in full.folds]
    print(f"10-fold: mean {full.mean_accuracy:.3f} +/- {full.std_accuracy:.3f} "
          f"(min {min(accs):.3f}, max {max(accs):.3f})")
    print("per-fold:", np.round(accs, 3).tolist())


if __name__ == "__main__":
    main()
