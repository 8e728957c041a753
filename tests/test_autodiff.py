"""Engine tests: every VJP against central differences, plus tape semantics."""

import gc
import inspect
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glaug import autodiff as ad
from glaug.autodiff import (
    DiffValue,
    ShapeError,
    Tape,
    TapeError,
    backward,
    grad_check,
)

TOL = 1e-6  # well under the 1e-4 the op contracts promise


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- gradients


def check(f, x, tol=TOL):
    err = grad_check(f, x)
    assert err < tol, f"relative error {err:.3e}"


def test_grad_matmul_left():
    b = rng(1).normal(size=(4, 3))
    check(lambda x: ad.sum_all(ad.matmul(x, x.tape.constant(b))), rng(0).normal(size=(2, 4)))


def test_grad_matmul_right():
    a = rng(2).normal(size=(3, 5))
    check(lambda x: ad.sum_all(ad.matmul(x.tape.constant(a), x)), rng(3).normal(size=(5, 2)))


def test_grad_matmul_both_sides_same_leaf():
    # x appears twice: gradient must accumulate across both record entries
    check(lambda x: ad.sum_all(ad.matmul(x, x)), rng(4).normal(size=(3, 3)))


def test_grad_add_sub_mul():
    b = rng(5).normal(size=(3, 4))

    def f(x):
        c = x.tape.constant(b)
        return ad.sum_all(ad.mul(ad.add(x, c), ad.sub(x, c)))

    check(f, rng(6).normal(size=(3, 4)))


def test_grad_div():
    b = rng(7).normal(size=(2, 3)) + 3.0  # keep denominators away from 0
    check(lambda x: ad.sum_all(ad.div(x, x.tape.constant(b))), rng(8).normal(size=(2, 3)))


def test_grad_div_wrt_denominator():
    a = rng(9).normal(size=(2, 3))
    x0 = rng(10).normal(size=(2, 3)) + 3.0
    check(lambda x: ad.sum_all(ad.div(x.tape.constant(a), x)), x0)


def test_grad_scale():
    check(lambda x: ad.sum_all(ad.scale(x, -2.5)), rng(11).normal(size=(3, 2)))


def test_grad_add_rowvec_bias():
    a = rng(12).normal(size=(5, 3))
    check(lambda x: ad.sum_all(ad.add_rowvec(x.tape.constant(a), x)), rng(13).normal(size=(1, 3)))


def test_grad_relu_away_from_kink():
    x0 = rng(14).normal(size=(4, 4))
    x0[np.abs(x0) < 1e-2] = 0.5  # finite differences straddle the kink otherwise
    check(lambda x: ad.sum_all(ad.relu(x)), x0)


def test_grad_softmax_rows():
    def f(x):
        w = x.tape.constant(rng(15).normal(size=(3, 4)))
        return ad.sum_all(ad.mul(ad.softmax_rows(x), w))

    check(f, rng(16).normal(size=(3, 4)))


def test_grad_log():
    x0 = np.abs(rng(17).normal(size=(3, 3))) + 0.5
    check(lambda x: ad.sum_all(ad.log(x)), x0)


def test_grad_exp():
    check(lambda x: ad.sum_all(ad.exp(x)), rng(18).normal(size=(2, 4)))


def test_grad_clamp_interior_only():
    # keep every entry strictly inside or strictly outside the window
    x0 = rng(19).normal(size=(4, 4)) * 3
    x0[np.abs(np.abs(x0) - 1.0) < 0.05] = 0.0
    check(lambda x: ad.sum_all(ad.clamp(x, -1.0, 1.0)), x0)


def test_grad_column_sum():
    def f(x):
        w = x.tape.constant(rng(20).normal(size=(1, 3)))
        return ad.sum_all(ad.mul(ad.column_sum(x), w))

    check(f, rng(21).normal(size=(5, 3)))


def test_grad_column_sum_segments():
    w = rng(40).normal(size=(3, 3))
    check(
        lambda x: ad.sum_all(ad.mul(ad.column_sum(x, (0, 2, 3, 6)), x.tape.constant(w))),
        rng(41).normal(size=(6, 3)),
    )


def test_grad_row_sum():
    w = rng(42).normal(size=(4, 1))
    x0 = rng(43).normal(size=(4, 3))
    check(lambda x: ad.sum_all(ad.mul(ad.row_sum(x), x.tape.constant(w))), x0)


def test_grad_transpose():
    w = rng(44).normal(size=(3, 4))
    x0 = rng(45).normal(size=(4, 3))
    check(lambda x: ad.sum_all(ad.mul(ad.transpose(x), x.tape.constant(w))), x0)


def test_grad_propagate():
    blocks = [rng(46).normal(size=(2, 2)), rng(47).normal(size=(1, 1)), rng(48).normal(size=(3, 3))]
    w = rng(49).normal(size=(6, 4))
    check(
        lambda x: ad.sum_all(ad.mul(ad.propagate(blocks, x), x.tape.constant(w))),
        rng(50).normal(size=(6, 4)),
    )


def test_segment_and_block_ops_check_shapes():
    with pytest.raises(ShapeError, match="bounds"):
        ad.column_sum(np.ones((4, 2)), (0, 3))
    with pytest.raises(ShapeError, match="bounds"):
        ad.column_sum(np.ones((4, 2)), (0, 3, 2, 4))
    with pytest.raises(ShapeError, match="cover 3 rows"):
        ad.propagate([np.eye(2), np.eye(1)], np.ones((4, 2)))
    with pytest.raises(ShapeError, match="not square"):
        ad.propagate([np.ones((2, 3))], np.ones((2, 2)))


def test_grad_l2_norm_rows():
    x0 = rng(22).normal(size=(4, 3))
    check(lambda x: ad.sum_all(ad.l2_norm_rows(x)), x0)


def test_grad_dot():
    b = rng(23).normal(size=(3, 4))
    check(lambda x: ad.dot(x, x.tape.constant(b)), rng(24).normal(size=(3, 4)))


def test_grad_dot_self():
    check(lambda x: ad.dot(x, x), rng(25).normal(size=(2, 5)))


def test_grad_composite_mlp_like():
    # two-layer network shape: relu(x @ W1 + b1) @ W2, softmax, log-ish loss
    w1 = rng(26).normal(size=(4, 6))
    b1 = rng(27).normal(size=(1, 6))
    w2 = rng(28).normal(size=(6, 3))

    def f(x):
        t = x.tape
        h = ad.relu(ad.add_rowvec(ad.matmul(x, t.constant(w1)), t.constant(b1)))
        p = ad.softmax_rows(ad.matmul(h, t.constant(w2)))
        return ad.sum_all(ad.log(ad.clamp(p, 1e-12, 1.0)))

    check(f, rng(29).normal(size=(5, 4)), tol=1e-5)


# ------------------------------------------------------------- hand values


def test_softmax_hand_value():
    t = Tape()
    x = t.leaf([[0.0, np.log(3.0)]])
    y = ad.softmax_rows(x)
    np.testing.assert_allclose(y.value, [[0.25, 0.75]], atol=1e-12)


def test_l2_norm_rows_hand_value_and_floor():
    t = Tape()
    x = t.leaf([[3.0, 4.0], [0.0, 0.0]])
    n = ad.l2_norm_rows(x)
    np.testing.assert_allclose(n.value, [[5.0], [1e-12]])


def test_l2_norm_zero_row_gets_zero_grad():
    t = Tape()
    x = t.leaf([[3.0, 4.0], [0.0, 0.0]])
    backward(ad.sum_all(ad.l2_norm_rows(x)))
    np.testing.assert_allclose(x.grad[1], [0.0, 0.0])
    np.testing.assert_allclose(x.grad[0], [0.6, 0.8])


def test_relu_subgradient_zero_at_zero():
    t = Tape()
    x = t.leaf([[0.0, -1.0, 2.0]])
    backward(ad.sum_all(ad.relu(x)))
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_dot_hand_value():
    t = Tape()
    a = t.leaf([[1.0, 2.0], [3.0, 4.0]])
    b = t.leaf([[5.0, 6.0], [7.0, 8.0]])
    assert ad.dot(a, b).value[0, 0] == 5 + 12 + 21 + 32


def test_softmax_extreme_logits_stay_finite():
    t = Tape()
    y = ad.softmax_rows(t.leaf([[1000.0, 0.0, -1000.0]]))
    assert np.all(np.isfinite(y.value))
    np.testing.assert_allclose(y.value.sum(), 1.0)


# ----------------------------------------------------------- tape semantics


def test_backward_requires_scalar():
    t = Tape()
    x = t.leaf(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        backward(ad.relu(x))


def test_tape_single_use():
    t = Tape()
    x = t.leaf(np.ones((2, 2)))
    loss = ad.sum_all(x)
    backward(loss)
    with pytest.raises(TapeError):
        backward(loss)


def test_consumed_tape_rejects_new_ops():
    t = Tape()
    x = t.leaf(np.ones((2, 2)))
    backward(ad.sum_all(x))
    with pytest.raises(TapeError):
        ad.relu(x)


def test_cross_tape_operands_rejected():
    a = Tape().leaf(np.ones((2, 2)))
    b = Tape().leaf(np.ones((2, 2)))
    with pytest.raises(TapeError):
        ad.add(a, b)


def test_unreached_leaf_gets_zero_grad():
    t = Tape()
    x = t.leaf(np.ones((2, 3)))
    y = t.leaf(np.ones((2, 3)))
    backward(ad.sum_all(x))
    np.testing.assert_array_equal(y.grad, np.zeros((2, 3)))
    assert np.all(x.grad == 1.0)


def test_no_grad_leaf_stays_none():
    t = Tape()
    x = t.leaf(np.ones((2, 2)))
    c = t.constant(np.ones((2, 2)))
    backward(ad.sum_all(ad.mul(x, c)))
    assert c.grad is None
    assert x.grad is not None


def test_shape_mismatch_messages_name_both_shapes():
    t = Tape()
    a = t.leaf(np.ones((2, 3)))
    b = t.leaf(np.ones((3, 2)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
        ad.add(a, b)
    with pytest.raises(ShapeError):
        ad.matmul(a, t.leaf(np.ones((2, 2))))


def test_leaf_copies_input():
    raw = np.ones((2, 2))
    t = Tape()
    x = t.leaf(raw)
    raw[0, 0] = 99.0
    assert x.value[0, 0] == 1.0


def test_non_finite_input_rejected():
    t = Tape()
    with pytest.raises(ValueError):
        t.leaf([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        t.leaf([[np.inf, 0.0]])


def test_log_rejects_nonpositive():
    t = Tape()
    with pytest.raises(ValueError):
        ad.log(t.leaf([[0.0]]))


def test_backward_frees_the_tape_without_gc():
    gc.disable()
    try:
        t = Tape()
        x = t.leaf(rng(8).normal(size=(3, 4)))
        w = t.leaf(rng(9).normal(size=(4, 2)))
        hidden = ad.relu(ad.matmul(x, w))
        hidden_ref = weakref.ref(hidden)
        loss = ad.sum_all(ad.softmax_rows(hidden))
        backward(loss)
        del hidden, loss
        assert hidden_ref() is None  # no record outlives backward
        assert x.grad.shape == (3, 4) and w.grad.shape == (4, 2)
        tape_ref = weakref.ref(t)
        del t, x, w
        assert tape_ref() is None  # nor a leaf <-> tape cycle
    finally:
        gc.enable()


# ----------------------------------------------------------- no-record path


def _chain(a, b, row, other):
    z = ad.add(ad.add_rowvec(ad.matmul(a, b), row), other)
    return ad.column_sum(ad.softmax_rows(ad.relu(z)))


NOT_OPS = {"as_matrix", "matmul_rows", "backward", "grad_check"}  # public, but no tape op
ENGINE_OPS = {
    name for name, fn in vars(ad).items()
    if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_")
} - NOT_OPS


def _op_cases(r, n, k, d):
    """name -> (op, plain operands) for every engine op, on random n/k/d shapes.
    `column_sum` splits its rows in two segments; `_chain` sums whole columns."""
    x, y = r.normal(size=(n, d)), r.normal(size=(n, d))
    positive = np.abs(y) + 0.5
    cut = int(r.integers(0, n + 1))
    segments = (0, cut, n)  # the first may be empty
    blocks = [r.normal(size=(cut, cut)), r.normal(size=(n - cut, n - cut))]
    return {
        "matmul": (ad.matmul, (x, r.normal(size=(d, k)))),
        "add": (ad.add, (x, y)),
        "sub": (ad.sub, (x, y)),
        "mul": (ad.mul, (x, y)),
        "div": (ad.div, (x, positive)),
        "add_rowvec": (ad.add_rowvec, (x, r.normal(size=(1, d)))),
        "dot": (ad.dot, (x, y)),
        "scale": (lambda a: ad.scale(a, -1.7), (x,)),
        "relu": (ad.relu, (x,)),
        "softmax_rows": (ad.softmax_rows, (x,)),
        "log": (ad.log, (positive,)),
        "exp": (ad.exp, (x,)),
        "clamp": (lambda a: ad.clamp(a, -0.5, 0.5), (x,)),
        "sum_all": (ad.sum_all, (x,)),
        "column_sum": (lambda a: ad.column_sum(a, segments), (x,)),
        "row_sum": (ad.row_sum, (x,)),
        "transpose": (ad.transpose, (x,)),
        "propagate": (lambda a: ad.propagate(blocks, a), (x,)),
        "l2_norm_rows": (ad.l2_norm_rows, (x,)),
    }


def test_no_record_path_matches_recording_ops_bitwise():
    for seed in range(20):
        r = rng(100 + seed)
        n, k, d = (int(v) for v in r.integers(1, 40, size=3))
        x, w = r.normal(size=(n, k)), r.normal(size=(k, d))
        row, other = r.normal(size=(1, d)), r.normal(size=(n, d))
        t = Tape()
        taped = _chain(*(t.leaf(v) for v in (x, w, row, other)))
        plain = _chain(x, w, row, other)
        assert type(plain) is np.ndarray
        assert np.array_equal(plain, taped.value)

        cases = _op_cases(r, n, k, d)
        assert set(cases) == ENGINE_OPS
        for name, (op, operands) in cases.items():
            t = Tape()
            taped = op(*(t.leaf(v) for v in operands))
            plain = op(*operands)
            assert type(plain) is np.ndarray, name
            assert np.array_equal(plain, taped.value), name


def test_no_record_path_checks_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ShapeError):
        ad.add(np.ones((2, 3)), np.ones((3, 2)))
    with pytest.raises(ShapeError):
        ad.add_rowvec(np.ones((2, 3)), np.ones((2, 3)))


def test_mixing_diffvalue_and_plain_array_raises():
    binary = {name: case for name, case in _op_cases(rng(7), 3, 2, 4).items() if len(case[1]) == 2}
    assert {"matmul", "add", "dot"} <= set(binary)  # the operand-count filter found them
    for op, (a, b) in binary.values():
        t = Tape()
        with pytest.raises(TapeError, match="plain array"):
            op(t.leaf(a), b)
        with pytest.raises(TapeError, match="plain array"):
            op(a, t.leaf(b))
    # propagate's blocks are constants: a DiffValue there is refused too
    t = Tape()
    with pytest.raises(TapeError, match="plain array"):
        ad.propagate([t.leaf(np.eye(2))], t.leaf(np.ones((2, 3))))


# --------------------------------------------------------------- properties

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def small_matrix(draw, max_side=5):
    n = draw(st.integers(1, max_side))
    d = draw(st.integers(1, max_side))
    vals = draw(
        st.lists(st.lists(finite, min_size=d, max_size=d), min_size=n, max_size=n)
    )
    return np.array(vals)


@given(small_matrix())
@settings(max_examples=50, deadline=None)
def test_softmax_rows_are_distributions(x):
    t = Tape()
    y = ad.softmax_rows(t.leaf(x)).value
    assert np.all(y >= 0.0) and np.all(y <= 1.0)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)


@given(small_matrix())
@settings(max_examples=50, deadline=None)
def test_ops_preserve_finiteness(x):
    t = Tape()
    v = t.leaf(x)
    out = ad.sum_all(ad.relu(ad.softmax_rows(v)))
    assert np.isfinite(out.value[0, 0])
    backward(out)
    assert np.all(np.isfinite(v.grad))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_replay_is_bit_identical(seed):
    def run():
        g = np.random.default_rng(seed)
        t = Tape()
        x = t.leaf(g.normal(size=(3, 4)))
        w = t.constant(g.normal(size=(4, 2)))
        loss = ad.sum_all(ad.softmax_rows(ad.matmul(ad.relu(x), w)))
        backward(loss)
        return loss.value.copy(), x.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


def test_constant_aliases_a_finite_float64_matrix():
    t = Tape()
    raw = rng(30).normal(size=(4, 3))
    assert t.constant(raw).value is raw
    row = raw[1:2]  # a row view is C-ordered too
    assert t.constant(row).value is row
    assert not t.constant(raw).requires_grad


@pytest.mark.parametrize("given", [
    [[1.0, 2.0], [3.0, 4.0]],
    np.array([[1, 2], [3, 4]]),
    np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    np.arange(12.0).reshape(3, 4)[:, ::2],
], ids=["list", "int", "fortran", "strided"])
def test_constant_copies_what_it_must_convert(given):
    c = Tape().constant(given)
    assert c.value is not given
    assert c.value.dtype == np.float64 and c.value.flags.c_contiguous
    assert np.array_equal(c.value, np.asarray(given, dtype=np.float64))


def test_constant_rejects_non_finite_and_non_matrix():
    t = Tape()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="NaN or Inf"):
            t.constant(np.array([[0.0, bad]]))
    for shape in ((3,), (2, 2, 2)):
        with pytest.raises(ShapeError):
            t.constant(np.zeros(shape))
