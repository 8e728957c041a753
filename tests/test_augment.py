"""Augmentation tests: geometry oracles, gating, strategies, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glaug import augment as ga
from glaug.errors import InputError, InvariantViolation
from glaug.model import ModelParams, classify
from glaug.seeding import seeded_rng
from glaug.training import TrainConfig, _select


def brute_centroid_distance(rows):
    """Independent route: explicit loops, no vectorization."""
    n = len(rows)
    centroid = [sum(r[i] for r in rows) / n for i in range(len(rows[0]))]
    total = 0.0
    for r in rows:
        total += sum((r[i] - centroid[i]) ** 2 for i in range(len(r))) ** 0.5
    return total / n


def plain_params(hidden=2, classes=2):
    """Parameters whose head is identity-ish: logits equal relu(h), boundary at h0 = h1."""
    params = ModelParams.init(
        4, classes, hidden=hidden, proj_dim=3, depth=3, rng=np.random.default_rng(0)
    )
    params.arrays["cls_w1"][...] = np.eye(hidden)
    params.arrays["cls_b1"][...] = 0.0
    params.arrays["cls_w2"][...] = np.eye(hidden)[:, :classes]
    params.arrays["cls_b2"][...] = 0.0
    return params


def plain_classifier(hidden=2, classes=2):
    """The `plain_params` head, bound frozen."""
    return plain_params(hidden, classes).bind()


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
    out = ga.augment(h, [2], plain_classifier(3, 3), CFG(eta=0.0, num_candidates=3), 5.0,
                     [np.random.default_rng(4)])
    np.testing.assert_array_equal(h + out.offsets, h)


def test_substitution_example():
    class StubRng:
        def standard_normal(self, shape):
            return np.array([[1.0, 0.0]])

    h = np.array([[0.0, 0.0]])
    out = ga.augment(h, [0], plain_classifier(), CFG(eta=1.0, num_candidates=1), 1.0, [StubRng()])
    np.testing.assert_array_equal(h + out.offsets, [[1.0, 0.0]])


def test_displacement_norm_is_eta_times_d():
    rng = np.random.default_rng(5)
    for _ in range(20):
        eta, d = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        offsets = (eta * d) * ga.unit_directions(4, 6, rng)
        assert np.all(np.abs(np.linalg.norm(offsets, axis=1) - eta * d) < 1e-12)


# ------------------------------------------------------------- target class


# Training's `_select` sets each row's target. At d = 0 every candidate is the
# row itself, so all K = 3 qualify when the target is the row's argmax under
# the plain head, and none do otherwise.


def select_at_zero(h, label, known):
    rngs = [seeded_rng(0, "target", 0)]
    cfg = CFG(num_candidates=3)
    return _select(np.array([h]), np.array([label]), np.array([known]), plain_classifier(), cfg,
                   0.0, rngs, "target test")


def test_label_wins_over_prediction():
    assert select_at_zero([0.9, 0.1], 1, True).counts.tolist() == [0]  # the argmax is 0
    assert select_at_zero([0.9, 0.1], 0, True).counts.tolist() == [3]


def test_unlabeled_uses_argmax():
    assert select_at_zero([0.3, 0.7], 0, False).counts.tolist() == [3]  # the label is unread


def test_exact_tie_breaks_low():
    got = select_at_zero([0.5, 0.5], 1, False)
    assert got.counts.tolist() == [3] and got.chosen.tolist() == [0.5]  # the target is class 0


# ------------------------------------------------------------------ augment


def test_single_qualified_candidate_chosen_for_every_strategy():
    frozen = plain_classifier()
    h = np.array([[5.0, 0.0]])  # far from the boundary: tiny nudges always qualify
    for strategy in ga.STRATEGIES:
        out = ga.augment(
            h, [0], frozen, CFG(eta=1.0, num_candidates=1, strategy=strategy), 0.01,
            [seeded_rng(7, "aug", 0)],
        )
        assert not out.fallback and out.qualified_count == 1
        assert abs(np.linalg.norm(out.offsets) - 1.0 * 0.01) < 1e-12


def test_zero_qualified_falls_back_to_identity():
    frozen = plain_classifier()
    h = np.array([[5.0, 0.0]])
    # target class 1 is unreachable from here with a small step
    out = ga.augment(h, [1], frozen, CFG(eta=1.0, num_candidates=8), 0.01, [seeded_rng(8)])
    assert out.fallback and out.qualified_count == 0
    assert np.isnan(out.chosen[0])
    np.testing.assert_array_equal(out.offsets, 0.0)


def test_strategy_ordering_on_matched_pools():
    frozen = plain_classifier()
    h = np.array([[1.0, 0.0]])  # close enough that candidates spread in prob
    checked = 0
    for seed in range(40):
        outs = {
            s: ga.augment(h, [0], frozen, CFG(eta=1.0, num_candidates=10, strategy=s), 0.8,
                          [seeded_rng(seed, "aug")])
            for s in ga.STRATEGIES
        }
        if any(o.fallback for o in outs.values()):
            continue
        assert outs["hardest"].chosen[0] <= outs["random"].chosen[0] <= outs["easiest"].chosen[0]
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
    hardest = ga.augment(h, [0], frozen, cfg, d, [seeded_rng(11, "aug")])
    easiest = ga.augment(
        h, [0], frozen, CFG(eta=1.0, num_candidates=10, strategy="easiest"), d,
        [seeded_rng(11, "aug")],
    )
    assert hardest.chosen[0] == min(probs)
    assert easiest.chosen[0] == max(probs)
    assert hardest.qualified_count == len(probs)


def test_augment_is_deterministic():
    frozen = plain_classifier()
    h = np.array([[1.0, 0.2]])
    cfg = CFG(eta=1.0, num_candidates=10, strategy="random")
    a = ga.augment(h, [0], frozen, cfg, 0.5, [seeded_rng(21, "aug", 3)])
    b = ga.augment(h, [0], frozen, cfg, 0.5, [seeded_rng(21, "aug", 3)])
    assert np.array_equal(a.offsets, b.offsets)
    assert a.chosen[0] == b.chosen[0]
    c = ga.augment(h, [0], frozen, cfg, 0.5, [seeded_rng(22, "aug", 3)])
    assert not np.array_equal(a.offsets, c.offsets)


def test_nonfallback_displacement_norm():
    frozen = plain_classifier()
    h = np.array([[3.0, 0.0]])
    out = ga.augment(h, [0], frozen, CFG(eta=0.7, num_candidates=5), 1.3, [seeded_rng(31)])
    assert not out.fallback
    assert abs(np.linalg.norm(out.offsets) - 0.7 * 1.3) < 1e-12


def test_snapshot_agreement_holds_under_random_params():
    rng = np.random.default_rng(41)
    for trial in range(30):
        frozen = ModelParams.init(4, 3, hidden=5, proj_dim=3, depth=3, rng=rng).bind()
        h = rng.normal(size=(1, 5)) * 2
        target = int(rng.integers(3))
        out = ga.augment(h, [target], frozen, CFG(eta=1.0, num_candidates=6), 1.0,
                         [seeded_rng(trial, "aug")])
        if out.fallback:
            np.testing.assert_array_equal(h + out.offsets, h)
        else:
            probs = ga.snapshot_probs(frozen, h + out.offsets)
            assert int(np.argmax(probs)) == target
            assert out.chosen[0] == pytest.approx(float(probs[0, target]), abs=0)
            assert 1 <= out.qualified_count <= 6


def test_eta_zero_candidates_equal_original():
    frozen = plain_classifier()
    h = np.array([[2.0, 1.0]])
    out = ga.augment(h, [0], frozen, CFG(eta=0.0, num_candidates=4), 1.0, [seeded_rng(51)])
    np.testing.assert_array_equal(h + out.offsets, h)
    assert not out.fallback and out.qualified_count == 4  # H^O itself qualifies


def test_negative_d_rejected():
    with pytest.raises(InputError):
        ga.augment(np.ones((1, 2)), [0], plain_classifier(), CFG(), -0.1, [seeded_rng(0)])


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
    frozen = ModelParams.init(4, 2, hidden=4, proj_dim=3, depth=3, rng=rng).bind()
    h = rng.normal(size=(1, 4))
    out = ga.augment(h, [int(rng.integers(2))], frozen, CFG(eta=1.0, num_candidates=5), 1.0,
                     [seeded_rng(seed, "chain")])
    same = np.array_equal(h + out.offsets, h)
    assert out.fallback == (out.qualified_count == 0) == same
    assert bool(np.isnan(out.chosen[0])) == out.fallback


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
        frozen = ModelParams.init(4, classes, hidden=hidden, proj_dim=3, depth=3, rng=rng).bind()
        h = rng.normal(size=(1, hidden))
        cfg = CFG(strategy=strategy, num_candidates=1 + trial % 10, eta=float(rng.uniform(0, 3)))
        target = int(rng.integers(classes))
        got = ga.augment(h, [target], frozen, cfg, 0.8, [seeded_rng(5, "blk", trial)])
        offset, count, prob = row_by_row_augment(h, target, frozen, cfg, 0.8, seeded_rng(5, "blk", trial))
        assert got.offsets.tobytes() == offset.tobytes()
        assert (got.qualified_count, None if got.fallback else got.chosen[0]) == (count, prob)


# ------------------------------------------------------- batched selection


@pytest.mark.parametrize("classes", [2, 3, 10])
@pytest.mark.parametrize("hidden", [1, 8, 32, 128])
def test_stacked_rows_keep_their_bits(classes, hidden):
    rng = np.random.default_rng(classes * 1000 + hidden)
    frozen = ModelParams.init(4, classes, hidden=hidden, proj_dim=3, depth=3, rng=rng).bind()
    k, b = 10, 32
    for height in (1, 2, k, b, b * k):
        stack = rng.normal(size=(height, hidden)) * 3.0
        got = ga.snapshot_probs(frozen, stack)
        assert got.shape == (height, classes)
        for i in range(height):  # each row scored on its own, on the 2-D product route
            want = classify(stack[i : i + 1], frozen)
            assert got[i : i + 1].tobytes() == want.tobytes(), (height, i)


def per_row_augment(h, target, frozen, cfg, d, rng):
    """One row's selection as it ran row by row: K single-row scores, the
    pick from a Python list, and its recheck. Returns (offset, qualified
    count, pick or None, chosen probability or None)."""
    offsets = (cfg.eta * d) * ga.unit_directions(cfg.num_candidates, h.shape[1], rng)
    candidates = h + offsets
    qualified = []
    for k in range(cfg.num_candidates):
        probs = classify(candidates[k : k + 1], frozen)
        if probs.argmax() == target:
            qualified.append((k, float(probs[0, target])))
    if not qualified:
        return np.zeros_like(h), 0, None, None
    if cfg.strategy == "hardest":
        k, prob = min(qualified, key=lambda c: c[1])
    elif cfg.strategy == "easiest":
        k, prob = max(qualified, key=lambda c: c[1])
    else:
        k, prob = qualified[int(rng.integers(len(qualified)))]
    assert classify(candidates[k : k + 1], frozen).argmax() == target
    return offsets[k : k + 1], len(qualified), k, prob


def unique_pick(offset, block):
    """The index of the one row of `block` equal to `offset`, or None when
    several are (width 1 draws only +1 and -1)."""
    same = np.flatnonzero((block == offset).all(axis=1))
    return int(same[0]) if len(same) == 1 else None


@pytest.mark.parametrize("strategy", ga.STRATEGIES)
def test_batch_augment_equals_per_row_augment(strategy):
    rng = np.random.default_rng(29)
    fallbacks = picked = 0
    for trial in range(36):
        hidden = (1, 5, 32, 128)[trial % 4]
        classes = (2, 3)[trial % 2]
        rows = 1 + trial % 9
        cfg = CFG(strategy=strategy, num_candidates=(1, 3, 10)[trial % 3],
                  eta=float(rng.uniform(0.1, 3.0)))
        frozen = ModelParams.init(4, classes, hidden=hidden, proj_dim=3, depth=3, rng=rng).bind()
        h = rng.normal(size=(rows, hidden))
        targets = rng.integers(classes, size=rows).tolist()
        batch_rngs = [seeded_rng(6, "batch", trial, b) for b in range(rows)]
        got = ga.augment(h, targets, frozen, cfg, 0.8, batch_rngs)
        assert got.offsets.shape == h.shape and got.counts.shape == got.chosen.shape == (rows,)
        for b in range(rows):
            row_rng = seeded_rng(6, "batch", trial, b)
            block = (cfg.eta * 0.8) * ga.unit_directions(
                cfg.num_candidates, hidden, seeded_rng(6, "batch", trial, b)
            )
            offset, count, k, prob = per_row_augment(
                h[b : b + 1], targets[b], frozen, cfg, 0.8, row_rng
            )
            assert got.offsets[b : b + 1].tobytes() == offset.tobytes()
            assert got.counts[b] == count
            if k is None:
                assert np.isnan(got.chosen[b])
                fallbacks += 1
            else:
                assert got.chosen[b] == prob
                assert unique_pick(got.offsets[b], block) == unique_pick(offset[0], block)
                picked += 1
            # each rng is left where the row-by-row selection leaves it
            assert batch_rngs[b].integers(1 << 62) == row_rng.integers(1 << 62)
        assert got.qualified_count == int(got.counts.sum())
        assert got.fallback == int((got.counts == 0).sum())
    assert fallbacks >= 5 and picked >= 20  # both kinds of row are exercised


def test_augment_scores_each_candidate_index_once(monkeypatch):
    calls = []
    real = ga.snapshot_probs

    def counting(frozen, rows):
        calls.append(rows.shape[0])
        return real(frozen, rows)

    monkeypatch.setattr(ga, "snapshot_probs", counting)
    rng = np.random.default_rng(3)
    frozen = ModelParams.init(4, 2, hidden=6, proj_dim=3, depth=3, rng=rng).bind()
    rows = 7
    ga.augment(rng.normal(size=(rows, 6)), [0] * rows, frozen, CFG(num_candidates=4), 0.5,
               [seeded_rng(1, b) for b in range(rows)])
    assert calls == [rows] * 4


def test_pick_that_fails_the_recheck_raises(monkeypatch):
    frozen = plain_classifier()
    h = np.array([[5.0, 0.0], [5.0, 0.0]])
    cfg = CFG(eta=1.0, num_candidates=3)
    # row 0's target 1 is out of reach, so every candidate of it falls back
    out = ga.augment(h, [1, 0], frozen, cfg, 0.01, [seeded_rng(9, b) for b in range(2)])
    assert out.counts.tolist() == [0, 3]
    real = ga.snapshot_probs

    def flipped(frozen, rows):
        probs = real(frozen, rows)
        probs[0] = probs[0, ::-1]  # row 0 now appears to keep class 1
        return probs

    monkeypatch.setattr(ga, "snapshot_probs", flipped)
    with pytest.raises(InvariantViolation):
        ga.augment(h, [1, 0], frozen, cfg, 0.01, [seeded_rng(9, b) for b in range(2)])
