"""Reverse-mode differentiation over dense 2-D float64 matrices.

The engine is deliberately small: exactly the operations the model needs, each
with a hand-written vector-Jacobian product. Values live in numpy arrays
(float64, C order); a `Tape` records one forward computation and is consumed
by a single `backward` call, which fills the gradient slot of every leaf that
requires a gradient and releases intermediate gradients as it walks the
recording in reverse. `backward` drops each record once it is used and the
tape's leaf list at the end, so no reference cycle outlives it: a step's
activations are freed by refcount, not by a later cyclic collection.

Frozen forwards need no tape. `matmul`, `add`, `add_rowvec`, `relu`,
`softmax_rows` and `column_sum` also take plain arrays: when no operand is a
`DiffValue` they return the plain ndarray, computed by the same expression as
the recording op, so a model forward is written once and serves both modes
with identical bits. Mixing a `DiffValue` with a plain array is a `TapeError`.

Conventions that matter downstream:
  * everything is a matrix; vectors are 1 x n rows,
  * ReLU's subgradient at 0 is 0,
  * softmax subtracts the row max before exponentiating,
  * `log` expects inputs already clamped away from 0 by the caller.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes; message names both."""


class TapeError(RuntimeError):
    """Tape lifecycle violation (e.g. backward run twice)."""


def as_matrix(values, copy: bool = True) -> np.ndarray:
    """Coerce to a 2-D float64 C-order array; reject non-finite input.

    The result is a fresh array unless `copy` is False, in which case an
    array that already has that layout is checked and returned as is.
    """
    arr = np.array(values, dtype=np.float64, order="C", copy=True if copy else None)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("matrix contains NaN or Inf")
    return arr


class Tape:
    """Recording of one forward pass, consumable by exactly one backward."""

    def __init__(self) -> None:
        self._records: list[tuple[int, Callable[[np.ndarray], Iterable]]] = []
        self._leaves: list[DiffValue] = []
        self._next_id = 0
        self._consumed = False

    def _new_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def leaf(self, values, requires_grad: bool = False) -> "DiffValue":
        """Register an input matrix. Only leaves can receive gradients."""
        dv = DiffValue(as_matrix(values), self, requires_grad)
        if requires_grad:
            self._leaves.append(dv)
        return dv

    def constant(self, values) -> "DiffValue":
        return self.leaf(values, requires_grad=False)

    def _record(self, out: "DiffValue", vjp: Callable[[np.ndarray], Iterable]) -> None:
        if self._consumed:
            raise TapeError("tape already consumed by backward; build a new one")
        self._records.append((out.node_id, vjp))

    @property
    def num_records(self) -> int:
        return len(self._records)


class DiffValue:
    """A matrix plus its position on a tape."""

    __slots__ = ("value", "tape", "node_id", "requires_grad", "grad", "__weakref__")

    def __init__(self, value: np.ndarray, tape: Tape, requires_grad: bool) -> None:
        self.value = value
        self.tape = tape
        self.node_id = tape._new_id()
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def __repr__(self) -> str:
        return f"DiffValue(shape={self.shape}, requires_grad={self.requires_grad})"


def _same_tape(*vals: DiffValue) -> Tape:
    if not all(isinstance(v, DiffValue) for v in vals):
        raise TapeError("expected DiffValue operands on one tape, got a plain array")
    tape = vals[0].tape
    for v in vals[1:]:
        if v.tape is not tape:
            raise TapeError("operands live on different tapes")
    return tape


def _same_shape(a, b, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _value(x) -> np.ndarray:
    """The matrix behind an operand: a DiffValue's value or the plain array."""
    return x.value if isinstance(x, DiffValue) else x


def _frozen(*operands) -> bool:
    """True when no operand is a DiffValue: the op returns a plain ndarray."""
    for x in operands:
        if isinstance(x, DiffValue):
            return False
    return True


def _unary(a: DiffValue, out_val: np.ndarray, make_vjp) -> DiffValue:
    out = DiffValue(out_val, a.tape, a.requires_grad)
    if a.requires_grad:
        vjp_fn = make_vjp()
        a.tape._record(out, lambda g: [(a, vjp_fn(g))])
    return out


def matmul(a: DiffValue, b: DiffValue) -> DiffValue:
    """Matrix product a @ b."""
    av, bv = _value(a), _value(b)
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: shapes {av.shape} and {bv.shape} do not chain")
    out_val = av @ bv
    if _frozen(a, b):
        return out_val
    _same_tape(a, b)
    out = DiffValue(out_val, a.tape, a.requires_grad or b.requires_grad)
    if out.requires_grad:
        need_a, need_b = a.requires_grad, b.requires_grad

        def vjp(g):
            pairs = []
            if need_a:
                pairs.append((a, g @ bv.T))
            if need_b:
                pairs.append((b, av.T @ g))
            return pairs

        a.tape._record(out, vjp)
    return out


def add(a: DiffValue, b: DiffValue) -> DiffValue:
    """Elementwise sum of two same-shape matrices."""
    _same_shape(a, b, "add")
    out_val = _value(a) + _value(b)
    if _frozen(a, b):
        return out_val
    _same_tape(a, b)
    out = DiffValue(out_val, a.tape, a.requires_grad or b.requires_grad)
    if out.requires_grad:
        need_a, need_b = a.requires_grad, b.requires_grad

        def vjp(g):
            pairs = []
            if need_a:
                pairs.append((a, g))
            if need_b:
                pairs.append((b, g))
            return pairs

        a.tape._record(out, vjp)
    return out


def sub(a: DiffValue, b: DiffValue) -> DiffValue:
    _same_tape(a, b)
    _same_shape(a, b, "sub")
    out = DiffValue(a.value - b.value, a.tape, a.requires_grad or b.requires_grad)
    if out.requires_grad:
        need_a, need_b = a.requires_grad, b.requires_grad

        def vjp(g):
            pairs = []
            if need_a:
                pairs.append((a, g))
            if need_b:
                pairs.append((b, -g))
            return pairs

        a.tape._record(out, vjp)
    return out


def mul(a: DiffValue, b: DiffValue) -> DiffValue:
    """Elementwise (Hadamard) product."""
    _same_tape(a, b)
    _same_shape(a, b, "mul")
    out = DiffValue(a.value * b.value, a.tape, a.requires_grad or b.requires_grad)
    if out.requires_grad:
        av, bv = a.value, b.value
        need_a, need_b = a.requires_grad, b.requires_grad

        def vjp(g):
            pairs = []
            if need_a:
                pairs.append((a, g * bv))
            if need_b:
                pairs.append((b, g * av))
            return pairs

        a.tape._record(out, vjp)
    return out


def div(a: DiffValue, b: DiffValue) -> DiffValue:
    """Elementwise quotient a / b."""
    _same_tape(a, b)
    _same_shape(a, b, "div")
    out_val = a.value / b.value
    out = DiffValue(out_val, a.tape, a.requires_grad or b.requires_grad)
    if out.requires_grad:
        av, bv = a.value, b.value
        need_a, need_b = a.requires_grad, b.requires_grad

        def vjp(g):
            pairs = []
            if need_a:
                pairs.append((a, g / bv))
            if need_b:
                pairs.append((b, -g * av / (bv * bv)))
            return pairs

        a.tape._record(out, vjp)
    return out


def scale(a: DiffValue, s: float) -> DiffValue:
    """Multiply by a python scalar (constant, no gradient of its own)."""
    s = float(s)
    return _unary(a, s * a.value, lambda: (lambda g: s * g))


def add_rowvec(a: DiffValue, b: DiffValue) -> DiffValue:
    """Add a 1 x d row vector to every row of an n x d matrix."""
    av, bv = _value(a), _value(b)
    if bv.shape[0] != 1 or bv.shape[1] != av.shape[1]:
        raise ShapeError(f"add_rowvec: {av.shape} plus row {bv.shape}")
    out_val = av + bv
    if _frozen(a, b):
        return out_val
    _same_tape(a, b)
    out = DiffValue(out_val, a.tape, a.requires_grad or b.requires_grad)
    if out.requires_grad:
        need_a, need_b = a.requires_grad, b.requires_grad

        def vjp(g):
            pairs = []
            if need_a:
                pairs.append((a, g))
            if need_b:
                pairs.append((b, g.sum(axis=0, keepdims=True)))
            return pairs

        a.tape._record(out, vjp)
    return out


def relu(a: DiffValue) -> DiffValue:
    """Elementwise max(0, x); subgradient at 0 is 0."""
    av = _value(a)
    out_val = np.maximum(0.0, av)
    if _frozen(a):
        return out_val
    return _unary(a, out_val, lambda: (lambda g: g * (av > 0.0)))


def softmax_rows(a: DiffValue) -> DiffValue:
    """Row-wise softmax with max subtraction for overflow safety."""
    av = _value(a)
    shifted = av - av.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    if _frozen(a):
        return y
    out = DiffValue(y, a.tape, a.requires_grad)
    if a.requires_grad:
        def vjp(g):
            inner = (g * y).sum(axis=1, keepdims=True)
            return [(a, y * (g - inner))]

        a.tape._record(out, vjp)
    return out


def log(a: DiffValue) -> DiffValue:
    """Elementwise natural log. Callers clamp away from 0 first."""
    av = a.value
    if np.any(av <= 0.0):
        raise ValueError("log: non-positive entry; clamp inputs first")
    return _unary(a, np.log(av), lambda: (lambda g: g / av))


def exp(a: DiffValue) -> DiffValue:
    out_val = np.exp(a.value)
    return _unary(a, out_val, lambda: (lambda g: g * out_val))


def clamp(a: DiffValue, lo: float, hi: float) -> DiffValue:
    """Clip entries to [lo, hi]; gradient passes only where unclipped."""
    av = a.value
    mask_fn = lambda: (lambda g: g * ((av >= lo) & (av <= hi)))
    return _unary(a, np.clip(av, lo, hi), mask_fn)


def sum_all(a: DiffValue) -> DiffValue:
    """Sum of all entries, as a 1 x 1 matrix."""
    n, d = a.shape
    out_val = np.array([[a.value.sum()]])
    return _unary(a, out_val, lambda: (lambda g: np.full((n, d), g[0, 0])))


def column_sum(a: DiffValue) -> DiffValue:
    """Column sums: n x d -> 1 x d.

    Each column is sorted before summing so the result depends only on the
    multiset of entries, never on row order; downstream pooling promises
    bit-identical output under node permutations. Sum gradients don't care
    about order, so the VJP is the plain broadcast.
    """
    av = _value(a)
    out_val = np.sort(av, axis=0).sum(axis=0, keepdims=True)
    if _frozen(a):
        return out_val
    n = av.shape[0]
    return _unary(a, out_val, lambda: (lambda g: np.tile(g, (n, 1))))


def l2_norm_rows(a: DiffValue, floor: float = 1e-12) -> DiffValue:
    """Per-row euclidean norm (n x d -> n x 1), clamped below by `floor`.

    Rows at the floor get zero gradient: the output is constant there.
    """
    av = a.value
    norms = np.sqrt((av * av).sum(axis=1, keepdims=True))
    clamped = np.maximum(norms, floor)
    out = DiffValue(clamped, a.tape, a.requires_grad)
    if a.requires_grad:
        def vjp(g):
            live = norms > floor
            return [(a, (g * live / clamped) * av)]

        a.tape._record(out, vjp)
    return out


def dot(a: DiffValue, b: DiffValue) -> DiffValue:
    """Sum of the elementwise product of two same-shape matrices (1 x 1)."""
    _same_tape(a, b)
    _same_shape(a, b, "dot")
    out_val = np.array([[float((a.value * b.value).sum())]])
    out = DiffValue(out_val, a.tape, a.requires_grad or b.requires_grad)
    if out.requires_grad:
        av, bv = a.value, b.value
        need_a, need_b = a.requires_grad, b.requires_grad

        def vjp(g):
            s = g[0, 0]
            pairs = []
            if need_a:
                pairs.append((a, s * bv))
            if need_b:
                pairs.append((b, s * av))
            return pairs

        a.tape._record(out, vjp)
    return out


def backward(loss: DiffValue) -> dict[DiffValue, np.ndarray]:
    """Fill `.grad` on every requires_grad leaf of the loss's tape.

    Returns the leaf -> gradient map. Intermediate gradients are dropped as
    soon as their producing record has been processed, and each record as
    soon as it is used, so its closure and the activations it holds are
    freed by refcount during the walk. The tape also lets go of its leaves;
    the caller's references to them keep their `.grad`. A tape supports one
    backward; further calls raise.
    """
    tape = loss.tape
    if tape._consumed:
        raise TapeError("backward already ran on this tape")
    if loss.shape != (1, 1):
        raise ShapeError(f"backward needs a 1 x 1 loss, got {loss.shape}")
    tape._consumed = True

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones((1, 1))}
    records = tape._records
    while records:
        out_id, vjp = records.pop()
        g = grads.pop(out_id, None)
        if g is None:
            continue
        for inp, contrib in vjp(g):
            if not inp.requires_grad:
                continue
            prev = grads.get(inp.node_id)
            grads[inp.node_id] = contrib if prev is None else prev + contrib

    result: dict[DiffValue, np.ndarray] = {}
    leaves, tape._leaves = tape._leaves, []
    for leaf in leaves:
        g = grads.get(leaf.node_id)
        if g is None:
            g = np.zeros_like(leaf.value)
        leaf.grad = g
        result[leaf] = g
    return result


def grad_check(
    f: Callable[[DiffValue], DiffValue],
    x: np.ndarray,
    step: float = 1e-5,
) -> float:
    """Max relative error between backward's gradient of f and central differences.

    `f` receives a leaf DiffValue and must return a 1 x 1 DiffValue built with
    engine ops on that leaf's tape. The relative error per entry is
    |a - n| / max(1e-8, |a| + |n|).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = as_matrix(x)

    tape = Tape()
    leaf = tape.leaf(x, requires_grad=True)
    out = f(leaf)
    if out.shape != (1, 1):
        raise ShapeError(f"grad_check needs a scalar-valued f, got {out.shape}")
    backward(out)
    analytic = leaf.grad
    assert analytic is not None

    def value_at(xv: np.ndarray) -> float:
        t = Tape()
        return float(f(t.leaf(xv, requires_grad=False)).value[0, 0])

    numeric = np.zeros_like(x)
    flat = x.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = value_at(x)
        flat[i] = orig - step
        lo = value_at(x)
        flat[i] = orig
        num_flat[i] = (hi - lo) / (2.0 * step)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    rel = np.abs(analytic - numeric) / denom
    return float(rel.max()) if rel.size else 0.0
