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
    p = t.leaf([[0.3, -1.2, 2.0], [4.0, 0.5, -0.1]])
    q = t.leaf([[0.3, -1.2, 2.0], [4.0, 0.5, -0.1]])
    assert tr.contrastive_loss(p, q).value[0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_orthogonal_projections_give_zero():
    t = Tape()
    loss = tr.contrastive_loss(t.leaf([[1.0, 0.0], [0.0, 2.0]]), t.leaf([[0.0, 5.0], [3.0, 0.0]]))
    assert loss.value[0, 0] == 0.0


def test_matches_independent_cosine():
    rng = np.random.default_rng(0)
    for batch in range(1, 31):
        a, b = rng.normal(size=(batch, 4)), rng.normal(size=(batch, 4))
        t = Tape()
        got = tr.contrastive_loss(t.leaf(a), t.leaf(b)).value[0, 0]
        want = -sum(cosine_oracle(x, y) for x, y in zip(a, b)) / batch
        assert abs(got - want) < 1e-12


def test_value_bounded_by_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = Tape()
        v = tr.contrastive_loss(
            t.leaf(rng.normal(size=(5, 6)) * 100), t.leaf(rng.normal(size=(5, 6)) * 0.01)
        ).value[0, 0]
        assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


def test_zero_projection_guarded_not_nan():
    t = Tape()
    loss = tr.contrastive_loss(t.leaf([[0.0, 0.0], [1.0, 0.0]]), t.leaf([[1.0, 1.0], [0.0, 1.0]]))
    assert loss.value[0, 0] == 0.0  # dots are 0, clamped norms keep it finite


def test_contrastive_gradient_both_sides():
    rng = np.random.default_rng(2)
    other = rng.normal(size=(3, 5)) + 0.5

    def wrt_left(x):
        return tr.contrastive_loss(x, x.tape.constant(other))

    def wrt_right(x):
        return tr.contrastive_loss(x.tape.constant(other), x)

    x0 = rng.normal(size=(3, 5)) + 0.5  # norms well above 0.1
    assert grad_check(wrt_left, x0) < 1e-4
    assert grad_check(wrt_right, x0) < 1e-4


# ------------------------------------------------------------------ ntxent


def build_projections(t, rows_o, rows_a):
    return t.leaf(rows_o), t.leaf(rows_a)


def test_ntxent_closed_form_orthogonal_cross_terms():
    # batch 2, tau 1; cross cosines 0, own cosines s0 and s1
    t = Tape()
    p_o, p_a = build_projections(t, [[2.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 1.0]])
    got = tr.ntxent_with_negatives(p_o, p_a, 1.0).value[0, 0]
    want = np.mean(
        [-np.log(np.e**1.0 / (np.e**1.0 + 1.0)), -np.log(np.e**1.0 / (np.e**1.0 + 1.0))]
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_ntxent_identical_projections_is_log_batch():
    for batch in (2, 3, 5):
        t = Tape()
        rows = [[1.0, 1.0]] * batch
        p_o, p_a = build_projections(t, rows, rows)
        got = tr.ntxent_with_negatives(p_o, p_a, 0.7).value[0, 0]
        assert got == pytest.approx(np.log(batch), abs=1e-12)


def test_ntxent_brute_force_oracle():
    rng = np.random.default_rng(3)
    rows_o = rng.normal(size=(4, 3))
    rows_a = rng.normal(size=(4, 3))
    tau = 0.5
    t = Tape()
    p_o, p_a = build_projections(t, rows_o, rows_a)
    got = tr.ntxent_with_negatives(p_o, p_a, tau).value[0, 0]
    total = 0.0
    for i in range(4):
        sims = [cosine_oracle(rows_o[i], rows_a[j]) / tau for j in range(4)]
        total += -sims[i] + math.log(sum(math.exp(s) for s in sims))
    assert got == pytest.approx(total / 4, abs=1e-10)


def test_ntxent_rejects_singleton_and_bad_tau():
    t = Tape()
    p_o, p_a = build_projections(t, [[1.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(InputError, match="at least 2"):
        tr.ntxent_with_negatives(p_o, p_a, 1.0)
    t2 = Tape()
    p_o, p_a = build_projections(t2, [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError, match="temperature"):
        tr.ntxent_with_negatives(p_o, p_a, 0.0)
    with pytest.raises(InvariantViolation):
        tr.ntxent_with_negatives(p_o, Tape().leaf(np.ones((3, 2))), 1.0)


def test_ntxent_gradient_fd():
    rng = np.random.default_rng(4)
    others = rng.normal(size=(3, 4)) + 0.3

    def wrt_anchors(x):
        return tr.ntxent_with_negatives(x, x.tape.constant(others), 0.5)

    def wrt_augmented(x):
        return tr.ntxent_with_negatives(x.tape.constant(others), x, 0.5)

    x0 = rng.normal(size=(3, 4)) + 0.3
    assert grad_check(wrt_anchors, x0) < 1e-4
    assert grad_check(wrt_augmented, x0) < 1e-4


def anchor_loop_ntxent(p_os, p_as, temperature):
    """The per-anchor construction over 1 x p rows: B^2 scalar cosines."""
    batch = len(p_os)
    norms_o = [ad.l2_norm_rows(p) for p in p_os]
    norms_a = [ad.l2_norm_rows(p) for p in p_as]
    total = None
    for i in range(batch):
        sims = [
            ad.scale(
                ad.div(ad.dot(p_os[i], p_as[j]), ad.mul(norms_o[i], norms_a[j])), 1.0 / temperature
            )
            for j in range(batch)
        ]
        m_const = p_os[i].tape.constant([[max(float(s.value[0, 0]) for s in sims)]])
        exp_sum = None
        for s in sims:
            term = ad.exp(ad.sub(s, m_const))
            exp_sum = term if exp_sum is None else ad.add(exp_sum, term)
        anchor = ad.sub(ad.add(m_const, ad.log(exp_sum)), sims[i])
        total = anchor if total is None else ad.add(total, anchor)
    return ad.scale(total, 1.0 / batch)


def test_ntxent_matrix_matches_anchor_loop():
    rng = np.random.default_rng(6)
    for batch in range(2, 12):
        rows_o = rng.normal(size=(batch, 5)) * 3.0
        rows_a = rows_o + rng.normal(size=(batch, 5))
        tau = float(rng.uniform(0.1, 2.0))

        t = Tape()
        p_o, p_a = t.leaf(rows_o), t.leaf(rows_a)
        got = tr.ntxent_with_negatives(p_o, p_a, tau)
        ad.backward(got)

        t2 = Tape()
        p_os = [t2.leaf(r[None, :]) for r in rows_o]
        p_as = [t2.leaf(r[None, :]) for r in rows_a]
        want = anchor_loop_ntxent(p_os, p_as, tau)
        ad.backward(want)

        assert abs(got.value[0, 0] - want.value[0, 0]) < 1e-12
        np.testing.assert_allclose(p_o.grad, np.vstack([p.grad for p in p_os]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(p_a.grad, np.vstack([p.grad for p in p_as]), rtol=0, atol=1e-12)


# ----------------------------------------------------- classification loss


def softmax_row(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


def test_classification_zero_rows_for_unlabeled_graphs():
    rng = np.random.default_rng(7)
    c_o = softmax_row(rng.normal(size=(4, 3)))
    c_a = softmax_row(rng.normal(size=(4, 3)))
    labels = {0: 2, 3: 0}  # rows 1 and 2 are unlabeled
    y = np.zeros((4, 3))
    for row, label in labels.items():
        y[row, label] = 1.0
    want = -sum(math.log(c_o[r, k]) + math.log(c_a[r, k]) for r, k in labels.items()) / 2

    t = Tape()
    leaf_o = t.leaf(c_o)
    loss = tr.classification_loss(leaf_o, t.constant(c_a), t.constant(y))
    assert loss.value[0, 0] == pytest.approx(want, abs=1e-12)
    ad.backward(loss)
    assert np.array_equal(leaf_o.grad[1:3], np.zeros((2, 3)))  # unlabeled rows get nothing

    other = c_o.copy()
    other[1:3] = softmax_row(rng.normal(size=(2, 3)))
    t2 = Tape()
    same = tr.classification_loss(t2.leaf(other), t2.constant(c_a), t2.constant(y))
    assert same.value[0, 0] == loss.value[0, 0]

    t3 = Tape()
    with pytest.raises(InputError, match="labeled"):
        tr.classification_loss(t3.leaf(c_o), t3.leaf(c_a), t3.constant(np.zeros((4, 3))))


def test_classification_gradient_fd():
    rng = np.random.default_rng(5)
    y = np.zeros((3, 3))
    y[0, 1] = y[2, 2] = 1.0  # row 1 unlabeled
    c_a = softmax_row(rng.normal(size=(3, 3)))

    def f(x):
        t = x.tape
        probs = ad.softmax_rows(x)  # keep FD inputs on logits, off the clamp edge
        return tr.classification_loss(probs, t.constant(c_a), t.constant(y))

    assert grad_check(f, rng.normal(size=(3, 3))) < 1e-4


# ------------------------------------------------------------ batch objective


def batch_objective(onehot, alpha=1.0, uniform_classes=False):
    """`_batch_objective` of a 2-graph batch with zero offsets, so that each
    graph's twin is itself: (loss, pair loss, classification loss)."""
    params = ModelParams.init(1, 2, hidden=4, proj_dim=3, depth=1, rng=np.random.default_rng(0))
    if uniform_classes:  # zero logits: each class probability is exactly 1/2
        params.arrays["cls_w2"][...] = 0.0
    t = Tape()
    h_o = t.leaf(np.random.default_rng(1).normal(size=(2, 4)))
    return tr._batch_objective(
        params.bind(t), h_o, np.zeros((2, 4)), np.array(onehot, float), tr.TrainConfig(alpha=alpha)
    )


def test_alpha_zero_is_pair_loss_alone():
    loss, l_p, l_c = batch_objective([[1, 0], [0, 1]], alpha=0.0)
    assert l_c.value[0, 0] > 0
    assert loss.value[0, 0] == l_p.value[0, 0]


def test_arithmetic_example():
    # identical twins give L_pair -1; one labeled row at uniform probabilities, L_cls 2 log 2
    loss, _, _ = batch_objective([[1, 0], [0, 0]], uniform_classes=True)
    assert loss.value[0, 0] == pytest.approx(-1 + 2 * np.log(2), abs=1e-12)


def test_missing_classification_term_is_identity():
    loss, l_p, l_c = batch_objective([[0, 0], [0, 0]], alpha=3.0)
    assert l_c is None
    assert loss is l_p


# --------------------------------------------------------------------- adam


def params_of(arrays):
    """ModelParams laid out like `arrays`, name -> 2-D array, holding their values."""
    layout = [(name, values.shape) for name, values in arrays.items()]
    params = ModelParams.drawn(layout, np.random.default_rng(0))
    for name, values in arrays.items():
        params.arrays[name][...] = values
    return params


def tiny_params():
    return params_of({"w": np.array([[1.0, -2.0], [0.5, 3.0]])})


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


def test_adam_in_place_equals_formula_bitwise():
    # the expression form the in-place update must reproduce bit for bit
    rng = np.random.default_rng(5)
    shapes = {"w": (3, 4), "b": (1, 4), "s": (1, 1), "wide": (17, 33), "empty": (0, 2)}
    params = params_of({k: rng.normal(size=shape) for k, shape in shapes.items()})
    want = {k: arr.copy() for k, arr in params.arrays.items()}
    m = {k: np.zeros_like(arr) for k, arr in want.items()}
    v = {k: np.zeros_like(arr) for k, arr in want.items()}
    state = tr.AdamState()
    for t in range(1, 51):
        grads = {k: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4) for k, shape in shapes.items()}
        lr = float(rng.uniform(1e-4, 1e-1))
        tr.adam_step(params, grads, state, lr)
        for k, g in grads.items():
            m[k] *= tr.ADAM_BETA1
            m[k] += (1 - tr.ADAM_BETA1) * g
            v[k] *= tr.ADAM_BETA2
            v[k] += (1 - tr.ADAM_BETA2) * (g * g)
            m_hat = m[k] / (1 - tr.ADAM_BETA1**t)
            v_hat = v[k] / (1 - tr.ADAM_BETA2**t)
            want[k] -= lr * m_hat / (np.sqrt(v_hat) + tr.ADAM_EPS)
    state_m, state_v = params.views(state.vectors[0]), params.views(state.vectors[1])
    for k in shapes:
        assert np.array_equal(params.arrays[k], want[k])
        assert np.array_equal(state_m[k], m[k]) and np.array_equal(state_v[k], v[k])
    assert state.step == 50


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
    for name in ("alpha", "eta", "learning_rate", "temperature"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InputError, match="finite"):
                tr.TrainConfig(**{name: bad})
    for ratio in (0.0, 1.5, float("nan")):
        with pytest.raises(InputError, match="label ratio"):
            tr.TrainConfig(label_ratio=ratio)
    for name in ("hidden", "proj_dim", "depth"):
        with pytest.raises(InputError, match=f"{name} must be >= 1, got 0"):
            tr.TrainConfig(**{name: 0})
    cfg = tr.TrainConfig()
    assert cfg.eta == 1.0 and cfg.alpha == 1.0  # defaults under test


def per_array_adam(arrays, grads, m, v, t, lr):
    """The per-array in-place update, one array at a time, kept as the reference
    for the one pass over the flat vector."""
    b1, b2, eps = tr.ADAM_BETA1, tr.ADAM_BETA2, tr.ADAM_EPS
    for name, arr in arrays.items():
        g = grads[name]
        step, denom = np.empty_like(arr), np.empty_like(arr)
        m[name] *= b1
        m[name] += np.multiply(1 - b1, g, out=step)
        v[name] *= b2
        np.multiply(g, g, out=step)
        v[name] += np.multiply(1 - b2, step, out=step)
        np.divide(v[name], 1 - b2**t, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(m[name], 1 - b1**t, out=step)
        np.multiply(lr, step, out=step)
        step /= denom
        arr -= step


SURROGATE_SHAPES = {"cls_w1": (128, 128), "cls_b1": (1, 128), "cls_w2": (128, 2), "cls_b2": (1, 2)}


@pytest.mark.parametrize("which", ["surrogate", "full_model"])
def test_flat_adam_equals_per_array_adam_bitwise(which):
    rng = np.random.default_rng(11)
    if which == "surrogate":
        shapes = dict(SURROGATE_SHAPES)
    else:
        full = ModelParams.init(7, 3, hidden=128, proj_dim=128, depth=3, rng=rng)
        shapes = {k: a.shape for k, a in full.arrays.items()}
    shapes["empty"] = (0, 5)
    start = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    params = params_of(start)
    want = {k: a.copy() for k, a in start.items()}
    m = {k: np.zeros_like(a) for k, a in want.items()}
    v = {k: np.zeros_like(a) for k, a in want.items()}
    state = tr.AdamState()
    for t in range(1, 201):
        grads = {
            k: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4) for k, shape in shapes.items()
        }
        lr = float(rng.uniform(1e-4, 1e-1))
        tr.adam_step(params, grads, state, lr)
        per_array_adam(want, grads, m, v, t, lr)
    state_m, state_v = params.views(state.vectors[0]), params.views(state.vectors[1])
    for k in shapes:
        assert params.arrays[k].tobytes() == want[k].tobytes(), k
        assert state_m[k].tobytes() == m[k].tobytes() and state_v[k].tobytes() == v[k].tobytes()
    assert state.step == 200


def test_adam_rejects_shape_mismatch_before_updating():
    params = params_of({"a": np.ones((2, 2)), "b": np.ones((1, 3))})
    before = params.flat.copy()
    state = tr.AdamState()
    with pytest.raises(InvariantViolation, match=r"\(b\)"):
        tr.adam_step(params, {"a": np.ones((2, 2)), "b": np.ones((3, 1))}, state, 0.1)
    assert params.flat.tobytes() == before.tobytes() and state.step == 0
