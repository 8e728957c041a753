"""Augmentation tests: geometry oracles, gating, strategies, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glaug import augment as ga
from glaug.errors import InputError, InvariantViolation
from glaug.model import ModelParams
from glaug.seeding import seeded_rng


def brute_centroid_distance(rows):
    """Independent route: explicit loops, no vectorization."""
    n = len(rows)
    centroid = [sum(r[i] for r in rows) / n for i in range(len(rows[0]))]
    total = 0.0
    for r in rows:
        total += sum((r[i] - centroid[i]) ** 2 for i in range(len(r))) ** 0.5
    return total / n


def plain_classifier(hidden=2, classes=2):
    """Identity-ish head: logits equal relu(h), boundary at h0 = h1."""
    params = ModelParams.init(4, classes, hidden=hidden, proj_dim=3)
    params.arrays["cls_w1"] = np.eye(hidden)
    params.arrays["cls_b1"] = np.zeros((1, hidden))
    params.arrays["cls_w2"] = np.eye(hidden)[:, :classes]
    params.arrays["cls_b2"] = np.zeros((1, classes))
    return params


CFG = ga.AugmentationConfig  # short alias for test bodies


# -------------------------------------------------------- centroid distance


def test_identical_vectors_give_zero():
    assert ga.centroid_distance(np.ones((5, 3))) == 0.0


def test_hand_case_two_points():
    assert ga.centroid_distance(np.array([[0.0, 0.0], [2.0, 0.0]])) == 1.0


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        rows = rng.normal(size=(int(rng.integers(1, 12)), int(rng.integers(1, 6))))
        got = ga.centroid_distance(rows)
        want = brute_centroid_distance(rows.tolist())
        assert abs(got - want) < 1e-12


def test_empty_input_rejected():
    with pytest.raises(InputError):
        ga.centroid_distance(np.zeros((0, 4)))


# -------------------------------------------------------------- unit vector


def test_unit_norm():
    rng = np.random.default_rng(1)
    for dim in (1, 2, 7, 64):
        v = ga.sample_unit_vector(dim, rng)
        assert v.shape == (1, dim)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_dim_one_is_sign():
    rng = np.random.default_rng(2)
    values = {float(ga.sample_unit_vector(1, rng)[0, 0]) for _ in range(50)}
    assert values <= {1.0, -1.0} and len(values) == 2


def test_monte_carlo_coordinate_means_near_zero():
    rng = np.random.default_rng(3)
    total = np.zeros(5)
    n = 100_000
    for _ in range(n):
        total += ga.sample_unit_vector(5, rng)[0]
    assert np.all(np.abs(total / n) < 0.02)


def test_zero_draw_resampled():
    class StubRng:
        def __init__(self):
            self.calls = 0

        def standard_normal(self, shape):
            self.calls += 1
            if self.calls == 1:
                return np.zeros(shape)
            return np.ones(shape)

    v = ga.sample_unit_vector(3, StubRng())
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_bad_dim_rejected():
    with pytest.raises(InputError):
        ga.sample_unit_vector(0, np.random.default_rng(0))


# ------------------------------------------------------ perturbation offset


def test_eta_zero_is_identity():
    h = np.array([[1.0, 2.0, 3.0]])
    delta = ga.sample_unit_vector(3, np.random.default_rng(4))
    np.testing.assert_array_equal(h + ga.perturbation_offset(0.0, 5.0, delta), h)


def test_substitution_example():
    out = np.array([[0.0, 0.0]]) + ga.perturbation_offset(1.0, 1.0, np.array([[1.0, 0.0]]))
    np.testing.assert_array_equal(out, [[1.0, 0.0]])


def test_displacement_norm_is_eta_times_d():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = rng.normal(size=(1, 6))
        eta, d = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        out = h + ga.perturbation_offset(eta, d, ga.sample_unit_vector(6, rng))
        assert abs(np.linalg.norm(out - h) - eta * d) < 1e-12


# ------------------------------------------------------------- target class


def test_label_wins_over_prediction():
    assert ga.target_class(1, np.array([[0.9, 0.1]])) == 1


def test_unlabeled_uses_argmax():
    assert ga.target_class(None, np.array([[0.3, 0.7]])) == 1


def test_exact_tie_breaks_low():
    assert ga.target_class(None, np.array([[0.5, 0.5]])) == 0


# ------------------------------------------------------------------ augment


def test_single_qualified_candidate_chosen_for_every_strategy():
    params = plain_classifier()
    h = np.array([[5.0, 0.0]])  # far from the boundary: tiny nudges always qualify
    for strategy in ga.STRATEGIES:
        out = ga.augment(
            h, 0, params, CFG(eta=1.0, num_candidates=1, strategy=strategy), 0.01,
            seeded_rng(7, "aug", 0),
        )
        assert not out.fallback and out.qualified_count == 1
        np.testing.assert_array_equal(out.augmented, h + out.offset)


def test_zero_qualified_falls_back_to_identity():
    params = plain_classifier()
    h = np.array([[5.0, 0.0]])
    # target class 1 is unreachable from here with a small step
    out = ga.augment(h, 1, params, CFG(eta=1.0, num_candidates=8), 0.01, seeded_rng(8))
    assert out.fallback and out.qualified_count == 0
    assert out.chosen_target_prob is None
    np.testing.assert_array_equal(out.augmented, h)
    np.testing.assert_array_equal(out.offset, 0.0)


def test_strategy_ordering_on_matched_pools():
    params = plain_classifier()
    h = np.array([[1.0, 0.0]])  # close enough that candidates spread in prob
    checked = 0
    for seed in range(40):
        outs = {
            s: ga.augment(h, 0, params, CFG(eta=1.0, num_candidates=10, strategy=s), 0.8,
                          seeded_rng(seed, "aug"))
            for s in ga.STRATEGIES
        }
        if any(o.fallback for o in outs.values()):
            continue
        assert (
            outs["hardest"].chosen_target_prob
            <= outs["random"].chosen_target_prob
            <= outs["easiest"].chosen_target_prob
        )
        checked += 1
    assert checked >= 20  # the geometry must actually exercise the comparison


def test_hardest_and_easiest_are_pool_extremes():
    # replicate the candidate pool by redrawing the same directions
    params = plain_classifier()
    h = np.array([[1.0, 0.0]])
    cfg = CFG(eta=1.0, num_candidates=10, strategy="hardest")
    d = 0.8
    rng = seeded_rng(11, "aug")
    probs = []
    for _ in range(cfg.num_candidates):
        delta = ga.sample_unit_vector(2, rng)
        cand = h + ga.perturbation_offset(cfg.eta, d, delta)
        p = ga.snapshot_probs(params, cand)
        if int(np.argmax(p)) == 0:
            probs.append(float(p[0, 0]))
    hardest = ga.augment(h, 0, params, cfg, d, seeded_rng(11, "aug"))
    easiest = ga.augment(
        h, 0, params, CFG(eta=1.0, num_candidates=10, strategy="easiest"), d,
        seeded_rng(11, "aug"),
    )
    assert hardest.chosen_target_prob == min(probs)
    assert easiest.chosen_target_prob == max(probs)
    assert hardest.qualified_count == len(probs)


def test_augment_is_deterministic():
    params = plain_classifier()
    h = np.array([[1.0, 0.2]])
    cfg = CFG(eta=1.0, num_candidates=10, strategy="random")
    a = ga.augment(h, 0, params, cfg, 0.5, seeded_rng(21, "aug", 3))
    b = ga.augment(h, 0, params, cfg, 0.5, seeded_rng(21, "aug", 3))
    assert np.array_equal(a.augmented, b.augmented)
    assert a.chosen_target_prob == b.chosen_target_prob
    c = ga.augment(h, 0, params, cfg, 0.5, seeded_rng(22, "aug", 3))
    assert not np.array_equal(a.augmented, c.augmented)


def test_nonfallback_displacement_norm():
    params = plain_classifier()
    h = np.array([[3.0, 0.0]])
    out = ga.augment(h, 0, params, CFG(eta=0.7, num_candidates=5), 1.3, seeded_rng(31))
    assert not out.fallback
    assert abs(np.linalg.norm(out.augmented - h) - 0.7 * 1.3) < 1e-12


def test_snapshot_agreement_holds_under_random_params():
    rng = np.random.default_rng(41)
    for trial in range(30):
        params = ModelParams.init(4, 3, hidden=5, proj_dim=3, rng=rng)
        h = rng.normal(size=(1, 5)) * 2
        target = int(rng.integers(3))
        out = ga.augment(h, target, params, CFG(eta=1.0, num_candidates=6), 1.0,
                         seeded_rng(trial, "aug"))
        if out.fallback:
            np.testing.assert_array_equal(out.augmented, h)
        else:
            probs = ga.snapshot_probs(params, out.augmented)
            assert int(np.argmax(probs)) == out.target_class == target
            assert out.chosen_target_prob == pytest.approx(float(probs[0, target]), abs=0)
            assert 1 <= out.qualified_count <= 6


def test_eta_zero_candidates_equal_original():
    params = plain_classifier()
    h = np.array([[2.0, 1.0]])
    out = ga.augment(h, 0, params, CFG(eta=0.0, num_candidates=4), 1.0, seeded_rng(51))
    np.testing.assert_array_equal(out.augmented, h)
    assert not out.fallback and out.qualified_count == 4  # H^O itself qualifies


def test_negative_d_rejected():
    with pytest.raises(InputError):
        ga.augment(np.ones((1, 2)), 0, plain_classifier(), CFG(), -0.1, seeded_rng(0))


def test_config_validation():
    with pytest.raises(InputError):
        CFG(eta=-1.0)
    with pytest.raises(InputError):
        CFG(num_candidates=0)
    with pytest.raises(InputError):
        CFG(strategy="weirdest")
    with pytest.raises(InputError):
        CFG(dist_scope="global")


# --------------------------------------------------------------- properties


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_outcome_invariant_chain_with_positive_step(seed):
    rng = np.random.default_rng(seed)
    params = ModelParams.init(4, 2, hidden=4, proj_dim=3, rng=rng)
    h = rng.normal(size=(1, 4))
    out = ga.augment(h, int(rng.integers(2)), params, CFG(eta=1.0, num_candidates=5), 1.0,
                     seeded_rng(seed, "chain"))
    same = np.array_equal(out.augmented, h)
    assert out.fallback == (out.qualified_count == 0) == same
    assert (out.chosen_target_prob is None) == out.fallback
