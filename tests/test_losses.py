"""Loss tests: independent cosine oracle, closed forms, FD gradients, Adam."""

import math

import numpy as np
import pytest

from glaug import autodiff as ad
from glaug import training as tr
from glaug.autodiff import Tape, grad_check
from glaug.errors import InputError, InvariantViolation
from glaug.model import ModelParams


def cosine_oracle(a, b):
    """Independent route: plain Python sums, no engine."""
    num = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a)) or 1e-12
    nb = math.sqrt(sum(y * y for y in b)) or 1e-12
    return num / (na * nb)


# -------------------------------------------------------- contrastive loss


def test_identical_projections_give_minus_one():
    t = Tape()
    p = t.leaf([[0.3, -1.2, 2.0]])
    q = t.leaf([[0.3, -1.2, 2.0]])
    assert tr.contrastive_loss(p, q).value[0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_orthogonal_projections_give_zero():
    t = Tape()
    loss = tr.contrastive_loss(t.leaf([[1.0, 0.0]]), t.leaf([[0.0, 5.0]]))
    assert loss.value[0, 0] == 0.0


def test_matches_independent_cosine():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a, b = rng.normal(size=4), rng.normal(size=4)
        t = Tape()
        got = tr.contrastive_loss(t.leaf([a]), t.leaf([b])).value[0, 0]
        assert abs(got - (-cosine_oracle(a, b))) < 1e-12


def test_value_bounded_by_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = Tape()
        v = tr.contrastive_loss(
            t.leaf([rng.normal(size=6) * 100]), t.leaf([rng.normal(size=6) * 0.01])
        ).value[0, 0]
        assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


def test_zero_projection_guarded_not_nan():
    t = Tape()
    loss = tr.contrastive_loss(t.leaf([[0.0, 0.0]]), t.leaf([[1.0, 1.0]]))
    assert loss.value[0, 0] == 0.0  # dot is 0, clamped norms keep it finite


def test_contrastive_gradient_both_sides():
    rng = np.random.default_rng(2)
    other = rng.normal(size=(1, 5)) + 0.5

    def wrt_left(x):
        return tr.contrastive_loss(x, x.tape.constant(other))

    def wrt_right(x):
        return tr.contrastive_loss(x.tape.constant(other), x)

    x0 = rng.normal(size=(1, 5)) + 0.5  # norms well above 0.1
    assert grad_check(wrt_left, x0) < 1e-4
    assert grad_check(wrt_right, x0) < 1e-4


# ------------------------------------------------------------------ ntxent


def build_projections(t, rows_o, rows_a):
    return [t.leaf([r]) for r in rows_o], [t.leaf([r]) for r in rows_a]


def test_ntxent_closed_form_orthogonal_cross_terms():
    # batch 2, tau 1; cross cosines 0, own cosines s0 and s1
    t = Tape()
    p_os, p_as = build_projections(t, [[2.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 1.0]])
    got = tr.ntxent_with_negatives(p_os, p_as, 1.0).value[0, 0]
    want = np.mean(
        [-np.log(np.e**1.0 / (np.e**1.0 + 1.0)), -np.log(np.e**1.0 / (np.e**1.0 + 1.0))]
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_ntxent_identical_projections_is_log_batch():
    for batch in (2, 3, 5):
        t = Tape()
        rows = [[1.0, 1.0]] * batch
        p_os, p_as = build_projections(t, rows, rows)
        got = tr.ntxent_with_negatives(p_os, p_as, 0.7).value[0, 0]
        assert got == pytest.approx(np.log(batch), abs=1e-12)


def test_ntxent_brute_force_oracle():
    rng = np.random.default_rng(3)
    rows_o = rng.normal(size=(4, 3))
    rows_a = rng.normal(size=(4, 3))
    tau = 0.5
    t = Tape()
    p_os, p_as = build_projections(t, rows_o, rows_a)
    got = tr.ntxent_with_negatives(p_os, p_as, tau).value[0, 0]
    total = 0.0
    for i in range(4):
        sims = [cosine_oracle(rows_o[i], rows_a[j]) / tau for j in range(4)]
        total += -sims[i] + math.log(sum(math.exp(s) for s in sims))
    assert got == pytest.approx(total / 4, abs=1e-10)


def test_ntxent_rejects_singleton_and_bad_tau():
    t = Tape()
    p_os, p_as = build_projections(t, [[1.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(InputError, match="at least 2"):
        tr.ntxent_with_negatives(p_os, p_as, 1.0)
    t2 = Tape()
    p_os, p_as = build_projections(t2, [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError, match="temperature"):
        tr.ntxent_with_negatives(p_os, p_as, 0.0)


def test_ntxent_gradient_fd():
    rng = np.random.default_rng(4)
    others_o = rng.normal(size=(2, 4)) + 0.3
    others_a = rng.normal(size=(3, 4)) + 0.3

    def f(x):
        t = x.tape
        p_os = [x] + [t.constant([r]) for r in others_o]
        p_as = [t.constant([r]) for r in others_a]
        return tr.ntxent_with_negatives(p_os, p_as, 0.5)

    assert grad_check(f, rng.normal(size=(1, 4)) + 0.3) < 1e-4


# ----------------------------------------------------- classification loss


def softmax_row(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def test_perfect_one_hot_predictions_give_zero():
    t = Tape()
    y = t.constant([[0.0, 1.0]])
    c = t.leaf([[0.0, 1.0]])
    c2 = t.leaf([[0.0, 1.0]])
    # log(1) = 0 on the hot entry, y masks the clamped zeros elsewhere
    assert tr.classification_loss(c, c2, y).value[0, 0] == 0.0


def test_uniform_predictions_two_classes():
    t = Tape()
    y = t.constant([[1.0, 0.0]])
    c_o = t.leaf([[0.5, 0.5]])
    c_a = t.leaf([[0.5, 0.5]])
    got = tr.classification_loss(c_o, c_a, y).value[0, 0]
    assert got == pytest.approx(2 * np.log(2), abs=1e-12)


def test_classification_gradient_fd():
    rng = np.random.default_rng(5)
    y = np.zeros((1, 3))
    y[0, 1] = 1.0
    c_a = softmax_row(rng.normal(size=(1, 3)))

    def f(x):
        t = x.tape
        probs = ad.softmax_rows(x)  # keep FD inputs on logits, off the clamp edge
        return tr.classification_loss(probs, t.constant(c_a), t.constant(y))

    assert grad_check(f, rng.normal(size=(1, 3))) < 1e-4


# --------------------------------------------------------------- total loss


def test_alpha_zero_is_pair_loss_alone():
    t = Tape()
    l_p = t.leaf([[0.37]])
    l_c = t.leaf([[5.0]])
    assert tr.total_loss(l_p, l_c, 0.0).value[0, 0] == 0.37


def test_arithmetic_example():
    t = Tape()
    got = tr.total_loss(t.leaf([[-1.0]]), t.leaf([[2 * np.log(2)]]), 1.0).value[0, 0]
    assert got == pytest.approx(-1 + 2 * np.log(2), abs=1e-12)


def test_missing_classification_term_is_identity():
    t = Tape()
    l_p = t.leaf([[0.25]])
    assert tr.total_loss(l_p, None, 3.0) is l_p


# --------------------------------------------------------------------- adam


def tiny_params():
    return ModelParams({"w": np.array([[1.0, -2.0], [0.5, 3.0]])}, depth=0)


def test_zero_gradient_leaves_params_unchanged():
    params = tiny_params()
    before = params.arrays["w"].copy()
    tr.adam_step(params, {"w": np.zeros((2, 2))}, tr.AdamState(), 0.1)
    np.testing.assert_array_equal(params.arrays["w"], before)


def test_first_step_magnitude_is_lr():
    params = tiny_params()
    before = params.arrays["w"].copy()
    g = np.array([[1.0, -2.0], [0.5, 100.0]])
    tr.adam_step(params, {"w": g}, tr.AdamState(), lr=0.01)
    step = params.arrays["w"] - before
    # bias correction makes m_hat / sqrt(v_hat) = sign(g) up to eps
    np.testing.assert_allclose(step, -0.01 * np.sign(g), rtol=1e-6)


def test_adam_matches_reference_two_steps():
    # hand-rolled reference with the same constants, separate arithmetic path
    params = tiny_params()
    state = tr.AdamState()
    g1 = np.array([[0.3, -1.0], [2.0, 0.1]])
    g2 = np.array([[-0.2, 0.5], [1.0, -0.4]])
    w = params.arrays["w"].copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in ((1, g1), (2, g2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w = w - 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    tr.adam_step(params, {"w": g1}, state, 0.05)
    tr.adam_step(params, {"w": g2}, state, 0.05)
    np.testing.assert_allclose(params.arrays["w"], w, atol=1e-12)
    assert state.step == 2


def test_adam_is_deterministic():
    runs = []
    for _ in range(2):
        params = tiny_params()
        state = tr.AdamState()
        rng = np.random.default_rng(7)
        for _ in range(5):
            tr.adam_step(params, {"w": rng.normal(size=(2, 2))}, state, 0.01)
        runs.append(params.arrays["w"].copy())
    assert np.array_equal(runs[0], runs[1])


def test_adam_rejects_shape_mismatch():
    with pytest.raises(InvariantViolation):
        tr.adam_step(tiny_params(), {"w": np.zeros((3, 3))}, tr.AdamState(), 0.1)


# ---------------------------------------------------------------- config


def test_train_config_validation():
    with pytest.raises(InputError):
        tr.TrainConfig(alpha=-0.1)
    with pytest.raises(InputError):
        tr.TrainConfig(learning_rate=0.0)
    with pytest.raises(InputError):
        tr.TrainConfig(epochs=0)
    with pytest.raises(InputError):
        tr.TrainConfig(batch_size=0)
    with pytest.raises(InputError):
        tr.TrainConfig(negative_pairs=True, temperature=0.0)
    with pytest.raises(InputError):
        tr.TrainConfig(negative_pairs=True, batch_size=1)
    with pytest.raises(InputError):
        tr.TrainConfig(strategy="no-such")
    cfg = tr.TrainConfig()
    assert cfg.aug_config().eta == 1.0 and cfg.alpha == 1.0  # defaults under test
