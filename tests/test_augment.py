"""Augmentation tests: geometry oracles, gating, strategies, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glaug import augment as ga
from glaug.errors import InputError, InvariantViolation
from glaug.model import ModelParams
from glaug.seeding import seeded_rng
from glaug.training import TrainConfig


def brute_centroid_distance(rows):
    """Independent route: explicit loops, no vectorization."""
    n = len(rows)
    centroid = [sum(r[i] for r in rows) / n for i in range(len(rows[0]))]
    total = 0.0
    for r in rows:
        total += sum((r[i] - centroid[i]) ** 2 for i in range(len(r))) ** 0.5
    return total / n


def plain_classifier(hidden=2, classes=2):
    """Identity-ish head, bound frozen: logits equal relu(h), boundary at h0 = h1."""
    params = ModelParams.init(4, classes, hidden=hidden, proj_dim=3)
    params.arrays["cls_w1"] = np.eye(hidden)
    params.arrays["cls_b1"] = np.zeros((1, hidden))
    params.arrays["cls_w2"] = np.eye(hidden)[:, :classes]
    params.arrays["cls_b2"] = np.zeros((1, classes))
    return params.bind(prefix="cls")


CFG = TrainConfig  # short alias for test bodies


def single_direction(dim, rng):
    """One direction drawn the row-at-a-time way: a 1 x dim normal draw,
    resampled while all zeros, divided by its norm."""
    while True:
        v = rng.standard_normal((1, dim))
        norm = float(np.sqrt((v * v).sum()))
        if norm > 0.0:
            return v / norm


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
        v = ga.unit_directions(3, dim, rng)
        assert v.shape == (3, dim)
        assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) < 1e-12)


def test_dim_one_is_sign():
    rng = np.random.default_rng(2)
    values = {float(x) for x in ga.unit_directions(50, 1, rng)[:, 0]}
    assert values <= {1.0, -1.0} and len(values) == 2


def test_monte_carlo_coordinate_means_near_zero():
    rng = np.random.default_rng(3)
    n = 100_000
    total = ga.unit_directions(n, 5, rng).sum(axis=0)
    assert np.all(np.abs(total / n) < 0.02)


@pytest.mark.parametrize("count", [1, 10])
@pytest.mark.parametrize("dim", [1, 128])
def test_block_draw_equals_row_draws(count, dim):
    block_rng, row_rng = seeded_rng(61, "dir", dim), seeded_rng(61, "dir", dim)
    block = ga.unit_directions(count, dim, block_rng)
    rows = np.vstack([single_direction(dim, row_rng) for _ in range(count)])
    assert block.tobytes() == rows.tobytes()
    # the rng is left where K row draws leave it: a strategy's next draw is the same
    assert block_rng.integers(1 << 62) == row_rng.integers(1 << 62)


def test_zero_draw_resampled():
    class StubRng:
        def __init__(self):
            self.calls = 0

        def standard_normal(self, shape):
            self.calls += 1
            if self.calls == 1:
                out = np.ones(shape)
                out[1] = 0.0  # the middle row of the block is all zeros
                return out
            return np.full(shape, 2.0)

    v = ga.unit_directions(3, 4, StubRng())
    np.testing.assert_array_equal(v, np.full((3, 4), 0.5))


def test_bad_dim_rejected():
    with pytest.raises(InputError):
        ga.unit_directions(1, 0, np.random.default_rng(0))


# ------------------------------------------------------ perturbation offset


def test_eta_zero_is_identity():
    h = np.array([[1.0, 2.0, 3.0]])
    out = ga.augment(h, 2, plain_classifier(3, 3), CFG(eta=0.0, num_candidates=3), 5.0,
                     np.random.default_rng(4))
    np.testing.assert_array_equal(h + out.offset, h)


def test_substitution_example():
    class StubRng:
        def standard_normal(self, shape):
            return np.array([[1.0, 0.0]])

    h = np.array([[0.0, 0.0]])
    out = ga.augment(h, 0, plain_classifier(), CFG(eta=1.0, num_candidates=1), 1.0, StubRng())
    np.testing.assert_array_equal(h + out.offset, [[1.0, 0.0]])


def test_displacement_norm_is_eta_times_d():
    rng = np.random.default_rng(5)
    for _ in range(20):
        eta, d = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        offsets = (eta * d) * ga.unit_directions(4, 6, rng)
        assert np.all(np.abs(np.linalg.norm(offsets, axis=1) - eta * d) < 1e-12)


# ------------------------------------------------------------- target class


def test_label_wins_over_prediction():
    assert ga.target_class(1, np.array([[0.9, 0.1]])) == 1


def test_unlabeled_uses_argmax():
    assert ga.target_class(None, np.array([[0.3, 0.7]])) == 1


def test_exact_tie_breaks_low():
    assert ga.target_class(None, np.array([[0.5, 0.5]])) == 0


# ------------------------------------------------------------------ augment


def test_single_qualified_candidate_chosen_for_every_strategy():
    frozen = plain_classifier()
    h = np.array([[5.0, 0.0]])  # far from the boundary: tiny nudges always qualify
    for strategy in ga.STRATEGIES:
        out = ga.augment(
            h, 0, frozen, CFG(eta=1.0, num_candidates=1, strategy=strategy), 0.01,
            seeded_rng(7, "aug", 0),
        )
        assert not out.fallback and out.qualified_count == 1
        assert abs(np.linalg.norm(out.offset) - 1.0 * 0.01) < 1e-12


def test_zero_qualified_falls_back_to_identity():
    frozen = plain_classifier()
    h = np.array([[5.0, 0.0]])
    # target class 1 is unreachable from here with a small step
    out = ga.augment(h, 1, frozen, CFG(eta=1.0, num_candidates=8), 0.01, seeded_rng(8))
    assert out.fallback and out.qualified_count == 0
    assert out.chosen_target_prob is None
    np.testing.assert_array_equal(out.offset, 0.0)


def test_strategy_ordering_on_matched_pools():
    frozen = plain_classifier()
    h = np.array([[1.0, 0.0]])  # close enough that candidates spread in prob
    checked = 0
    for seed in range(40):
        outs = {
            s: ga.augment(h, 0, frozen, CFG(eta=1.0, num_candidates=10, strategy=s), 0.8,
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
    # replicate the candidate pool by redrawing the same directions one row at a time
    frozen = plain_classifier()
    h = np.array([[1.0, 0.0]])
    cfg = CFG(eta=1.0, num_candidates=10, strategy="hardest")
    d = 0.8
    rng = seeded_rng(11, "aug")
    probs = []
    for _ in range(cfg.num_candidates):
        p = ga.snapshot_probs(frozen, h + (cfg.eta * d) * single_direction(2, rng))
        if int(np.argmax(p)) == 0:
            probs.append(float(p[0, 0]))
    hardest = ga.augment(h, 0, frozen, cfg, d, seeded_rng(11, "aug"))
    easiest = ga.augment(
        h, 0, frozen, CFG(eta=1.0, num_candidates=10, strategy="easiest"), d,
        seeded_rng(11, "aug"),
    )
    assert hardest.chosen_target_prob == min(probs)
    assert easiest.chosen_target_prob == max(probs)
    assert hardest.qualified_count == len(probs)


def test_augment_is_deterministic():
    frozen = plain_classifier()
    h = np.array([[1.0, 0.2]])
    cfg = CFG(eta=1.0, num_candidates=10, strategy="random")
    a = ga.augment(h, 0, frozen, cfg, 0.5, seeded_rng(21, "aug", 3))
    b = ga.augment(h, 0, frozen, cfg, 0.5, seeded_rng(21, "aug", 3))
    assert np.array_equal(a.offset, b.offset)
    assert a.chosen_target_prob == b.chosen_target_prob
    c = ga.augment(h, 0, frozen, cfg, 0.5, seeded_rng(22, "aug", 3))
    assert not np.array_equal(a.offset, c.offset)


def test_nonfallback_displacement_norm():
    frozen = plain_classifier()
    h = np.array([[3.0, 0.0]])
    out = ga.augment(h, 0, frozen, CFG(eta=0.7, num_candidates=5), 1.3, seeded_rng(31))
    assert not out.fallback
    assert abs(np.linalg.norm(out.offset) - 0.7 * 1.3) < 1e-12


def test_snapshot_agreement_holds_under_random_params():
    rng = np.random.default_rng(41)
    for trial in range(30):
        frozen = ModelParams.init(4, 3, hidden=5, proj_dim=3, rng=rng).bind(prefix="cls")
        h = rng.normal(size=(1, 5)) * 2
        target = int(rng.integers(3))
        out = ga.augment(h, target, frozen, CFG(eta=1.0, num_candidates=6), 1.0,
                         seeded_rng(trial, "aug"))
        if out.fallback:
            np.testing.assert_array_equal(h + out.offset, h)
        else:
            probs = ga.snapshot_probs(frozen, h + out.offset)
            assert int(np.argmax(probs)) == out.target_class == target
            assert out.chosen_target_prob == pytest.approx(float(probs[0, target]), abs=0)
            assert 1 <= out.qualified_count <= 6


def test_eta_zero_candidates_equal_original():
    frozen = plain_classifier()
    h = np.array([[2.0, 1.0]])
    out = ga.augment(h, 0, frozen, CFG(eta=0.0, num_candidates=4), 1.0, seeded_rng(51))
    np.testing.assert_array_equal(h + out.offset, h)
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
    frozen = ModelParams.init(4, 2, hidden=4, proj_dim=3, rng=rng).bind(prefix="cls")
    h = rng.normal(size=(1, 4))
    out = ga.augment(h, int(rng.integers(2)), frozen, CFG(eta=1.0, num_candidates=5), 1.0,
                     seeded_rng(seed, "chain"))
    same = np.array_equal(h + out.offset, h)
    assert out.fallback == (out.qualified_count == 0) == same
    assert (out.chosen_target_prob is None) == out.fallback


def row_by_row_augment(h, target, frozen, cfg, d, rng):
    """The selection with each candidate built as h + its offset row and
    scored on its own, kept as the reference for the candidate block."""
    offsets = (cfg.eta * d) * ga.unit_directions(cfg.num_candidates, h.shape[1], rng)
    qualified = []
    for k in range(cfg.num_candidates):
        probs = ga.snapshot_probs(frozen, h + offsets[k : k + 1])
        if int(np.argmax(probs)) == target:
            qualified.append((k, float(probs[0, target])))
    if not qualified:
        return np.zeros_like(h), 0, None
    if cfg.strategy == "hardest":
        k, prob = min(qualified, key=lambda c: c[1])
    elif cfg.strategy == "easiest":
        k, prob = max(qualified, key=lambda c: c[1])
    else:
        k, prob = qualified[int(rng.integers(len(qualified)))]
    return offsets[k : k + 1], len(qualified), prob


@pytest.mark.parametrize("strategy", ga.STRATEGIES)
def test_candidate_block_equals_row_by_row_candidates(strategy):
    rng = np.random.default_rng(23)
    for trial in range(40):
        hidden, classes = (5, 3) if trial % 2 else (32, 2)
        frozen = ModelParams.init(4, classes, hidden=hidden, proj_dim=3, rng=rng).bind(prefix="cls")
        h = rng.normal(size=(1, hidden))
        cfg = CFG(strategy=strategy, num_candidates=1 + trial % 10, eta=float(rng.uniform(0, 3)))
        target = int(rng.integers(classes))
        got = ga.augment(h, target, frozen, cfg, 0.8, seeded_rng(5, "blk", trial))
        offset, count, prob = row_by_row_augment(h, target, frozen, cfg, 0.8, seeded_rng(5, "blk", trial))
        assert got.offset.tobytes() == offset.tobytes()
        assert (got.qualified_count, got.chosen_target_prob) == (count, prob)
