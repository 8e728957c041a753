"""Reverse-mode differentiation over dense 2-D float64 matrices.

The engine is deliberately small: exactly the operations the model needs, each
with a hand-written vector-Jacobian product. Values live in numpy arrays
(float64, C order); a `Tape` records one forward computation and is consumed
by a single `backward` call, which fills the gradient slot of every leaf that
requires a gradient and releases intermediate gradients as it walks the
recording in reverse. `backward` drops each record once it is used and the
tape's leaf list at the end, so no reference cycle outlives it: a step's
activations are freed by refcount, not by a later cyclic collection.

Every op has one shape: compute the value; return it as a plain ndarray when
no operand is a `DiffValue`; otherwise hand it to `_record` with one
(operand, vjp) pair per operand. Frozen forwards therefore need no tape, and a
model forward is written once and serves both modes with identical bits.
Mixing a `DiffValue` with a plain array is a `TapeError`.

The model runs a whole batch of graphs as one computation: `propagate`
applies each graph's constant adjacency block to its rows of the stacked node
matrix in one record, and `column_sum` pools every graph's row segment at
once, so a training step records the same ops whatever its batch size.

Conventions that matter downstream:
  * everything is a matrix; vectors are 1 x n rows (n x 1 for per-row values),
  * ReLU's subgradient at 0 is 0,
  * softmax subtracts the row max before exponentiating,
  * `log` expects inputs already clamped away from 0 by the caller.
"""

from __future__ import annotations

from typing import Callable

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
        # (output node id, [(operand node id, vjp), ...]) per op with a gradient to
        # pass back; ids, not operands, so a value no vjp reads is freed after use
        self._records: list[tuple[int, list[tuple[int, Callable]]]] = []
        self._leaves: list[DiffValue] = []
        self._next_id = 0
        self._consumed = False

    def _new_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def leaf(self, values, requires_grad: bool = False) -> "DiffValue":
        """Register an input matrix. Only leaves can receive gradients.

        The leaf holds a checked copy of `values`, so later changes to the
        caller's array (a parameter update, say) do not reach the tape.
        """
        dv = DiffValue(as_matrix(values), self, requires_grad)
        if requires_grad:
            self._leaves.append(dv)
        return dv

    def constant(self, values) -> "DiffValue":
        """A matrix that receives no gradient. An array that is already
        float64, C-ordered, 2-D and finite is kept as is, not copied, so the
        caller must not change it while the tape lives; anything else is
        coerced and checked like a leaf."""
        return DiffValue(as_matrix(values, copy=False), self, False)

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

    def __repr__(self) -> str:
        return f"DiffValue(shape={self.shape}, requires_grad={self.requires_grad})"


def _same_shape(av: np.ndarray, bv: np.ndarray, op: str) -> None:
    if av.shape != bv.shape:
        raise ShapeError(f"{op}: shapes {av.shape} and {bv.shape} differ")


def _record(out_val: np.ndarray, *pairs: tuple) -> DiffValue:
    """Wrap `out_val` as the result of an op over the operands in `pairs`.

    Each pair is (operand, vjp), where vjp maps the output's gradient to that
    operand's contribution. Every operand must be a DiffValue on one tape.
    Only the pairs whose operand requires a gradient are recorded, by the
    operand's node id: a record keeps alive only what its vjp reads. The output
    requires a gradient when any operand does.
    """
    tape = None
    for x, _ in pairs:
        if type(x) is not DiffValue:
            raise TapeError("expected DiffValue operands on one tape, got a plain array")
        if tape is None:
            tape = x.tape
        elif x.tape is not tape:
            raise TapeError("operands live on different tapes")
    if tape._consumed:
        raise TapeError("tape already consumed by backward; build a new one")
    live = [(x.node_id, vjp) for x, vjp in pairs if x.requires_grad]
    out = DiffValue(out_val, tape, bool(live))
    if live:
        tape._records.append((out.node_id, live))
    return out


# Every op first tests each operand once with `type(x) is DiffValue` and reads
# its matrix from that answer; when no operand is tracked it returns the plain
# result before touching the tape machinery.


def matmul(a: DiffValue, b: DiffValue) -> DiffValue:
    """Matrix product a @ b."""
    ta, tb = type(a) is DiffValue, type(b) is DiffValue
    av = a.value if ta else a
    bv = b.value if tb else b
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: shapes {av.shape} and {bv.shape} do not chain")
    out_val = av @ bv
    if not (ta or tb):
        return out_val
    return _record(out_val, (a, lambda g: g @ bv.T), (b, lambda g: av.T @ g))


def add(a: DiffValue, b: DiffValue) -> DiffValue:
    """Elementwise sum of two same-shape matrices."""
    ta, tb = type(a) is DiffValue, type(b) is DiffValue
    av = a.value if ta else a
    bv = b.value if tb else b
    _same_shape(av, bv, "add")
    out_val = av + bv
    if not (ta or tb):
        return out_val
    return _record(out_val, (a, lambda g: g), (b, lambda g: g))


def sub(a: DiffValue, b: DiffValue) -> DiffValue:
    ta, tb = type(a) is DiffValue, type(b) is DiffValue
    av = a.value if ta else a
    bv = b.value if tb else b
    _same_shape(av, bv, "sub")
    out_val = av - bv
    if not (ta or tb):
        return out_val
    return _record(out_val, (a, lambda g: g), (b, lambda g: -g))


def mul(a: DiffValue, b: DiffValue) -> DiffValue:
    """Elementwise (Hadamard) product."""
    ta, tb = type(a) is DiffValue, type(b) is DiffValue
    av = a.value if ta else a
    bv = b.value if tb else b
    _same_shape(av, bv, "mul")
    out_val = av * bv
    if not (ta or tb):
        return out_val
    return _record(out_val, (a, lambda g: g * bv), (b, lambda g: g * av))


def div(a: DiffValue, b: DiffValue) -> DiffValue:
    """Elementwise quotient a / b."""
    ta, tb = type(a) is DiffValue, type(b) is DiffValue
    av = a.value if ta else a
    bv = b.value if tb else b
    _same_shape(av, bv, "div")
    out_val = av / bv
    if not (ta or tb):
        return out_val
    return _record(out_val, (a, lambda g: g / bv), (b, lambda g: -g * av / (bv * bv)))


def scale(a: DiffValue, s: float) -> DiffValue:
    """Multiply by a python scalar (constant, no gradient of its own)."""
    ta = type(a) is DiffValue
    s = float(s)
    out_val = s * (a.value if ta else a)
    if not ta:
        return out_val
    return _record(out_val, (a, lambda g: s * g))


def add_rowvec(a: DiffValue, b: DiffValue) -> DiffValue:
    """Add a 1 x d row vector to every row of an n x d matrix."""
    ta, tb = type(a) is DiffValue, type(b) is DiffValue
    av = a.value if ta else a
    bv = b.value if tb else b
    if bv.shape[0] != 1 or bv.shape[1] != av.shape[1]:
        raise ShapeError(f"add_rowvec: {av.shape} plus row {bv.shape}")
    out_val = av + bv
    if not (ta or tb):
        return out_val
    return _record(out_val, (a, lambda g: g), (b, lambda g: g.sum(axis=0, keepdims=True)))


def relu(a: DiffValue) -> DiffValue:
    """Elementwise max(0, x); subgradient at 0 is 0."""
    ta = type(a) is DiffValue
    av = a.value if ta else a
    out_val = np.maximum(0.0, av)
    if not ta:
        return out_val
    mask = av > 0.0  # kept in place of the input, an eighth of its size
    return _record(out_val, (a, lambda g: g * mask))


def softmax_rows(a: DiffValue) -> DiffValue:
    """Row-wise softmax with max subtraction for overflow safety."""
    ta = type(a) is DiffValue
    av = a.value if ta else a
    shifted = av - av.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    if not ta:
        return y
    return _record(y, (a, lambda g: y * (g - (g * y).sum(axis=1, keepdims=True))))


def log(a: DiffValue) -> DiffValue:
    """Elementwise natural log. Callers clamp away from 0 first."""
    ta = type(a) is DiffValue
    av = a.value if ta else a
    if np.any(av <= 0.0):
        raise ValueError("log: non-positive entry; clamp inputs first")
    out_val = np.log(av)
    if not ta:
        return out_val
    return _record(out_val, (a, lambda g: g / av))


def exp(a: DiffValue) -> DiffValue:
    ta = type(a) is DiffValue
    out_val = np.exp(a.value if ta else a)
    if not ta:
        return out_val
    return _record(out_val, (a, lambda g: g * out_val))


def clamp(a: DiffValue, lo: float, hi: float) -> DiffValue:
    """Clip entries to [lo, hi]; gradient passes only where unclipped."""
    ta = type(a) is DiffValue
    av = a.value if ta else a
    out_val = np.clip(av, lo, hi)
    if not ta:
        return out_val
    return _record(out_val, (a, lambda g: g * ((av >= lo) & (av <= hi))))


def sum_all(a: DiffValue) -> DiffValue:
    """Sum of all entries, as a 1 x 1 matrix."""
    ta = type(a) is DiffValue
    av = a.value if ta else a
    out_val = np.array([[av.sum()]])
    if not ta:
        return out_val
    return _record(out_val, (a, lambda g: np.full(av.shape, g[0, 0])))


def column_sum(a: DiffValue, bounds=None) -> DiffValue:
    """Column sums per row segment: n x d -> B x d.

    Segment b is rows bounds[b]:bounds[b+1]; without `bounds` the whole matrix
    is one segment (1 x d). Each segment's columns are sorted before summing,
    so a row depends only on the multiset of its segment's entries, never on
    their order; downstream pooling promises bit-identical output under node
    permutations. Sum gradients don't care about order, so the VJP repeats
    each output row over its segment.
    """
    ta = type(a) is DiffValue
    av = a.value if ta else a
    rows = av.shape[0]
    b = np.asarray((0, rows) if bounds is None else bounds, dtype=np.intp).reshape(-1)
    if b.size < 2 or b[0] != 0 or b[-1] != rows or np.any(np.diff(b) < 0):
        raise ShapeError(f"column_sum: bounds {b.tolist()} do not split {rows} rows")
    out_val = np.vstack(
        [np.sort(av[s:e], axis=0).sum(axis=0, keepdims=True) for s, e in zip(b[:-1], b[1:])]
    )
    if not ta:
        return out_val
    counts = np.diff(b)
    return _record(out_val, (a, lambda g: np.repeat(g, counts, axis=0)))


def row_sum(a: DiffValue) -> DiffValue:
    """Row sums: n x d -> n x 1."""
    ta = type(a) is DiffValue
    av = a.value if ta else a
    out_val = av.sum(axis=1, keepdims=True)
    if not ta:
        return out_val
    return _record(out_val, (a, lambda g: np.repeat(g, av.shape[1], axis=1)))


def transpose(a: DiffValue) -> DiffValue:
    """a.T as a C-order matrix."""
    ta = type(a) is DiffValue
    out_val = np.ascontiguousarray((a.value if ta else a).T)
    if not ta:
        return out_val
    return _record(out_val, (a, lambda g: np.ascontiguousarray(g.T)))


def _block_products(blocks, x: np.ndarray) -> np.ndarray:
    """Rows of block b are blocks[b] @ x[s:e], for consecutive row ranges."""
    out = np.empty_like(x)
    s = 0
    for block in blocks:
        e = s + block.shape[0]
        np.matmul(block, x[s:e], out=out[s:e])
        s = e
    return out


def propagate(blocks, x: DiffValue) -> DiffValue:
    """Block-diagonal product diag(blocks) @ x, one record for all blocks.

    `blocks` are constant square arrays, one per consecutive row range of x;
    each range's rows are blocks[b] @ x[s:e], the same product as a per-block
    matmul, and its VJP is blocks[b].T @ g[s:e]. No n x n matrix of the whole
    stack is formed.
    """
    tx = type(x) is DiffValue
    xv = x.value if tx else x
    rows = 0
    for block in blocks:
        if type(block) is DiffValue:
            raise TapeError("propagate: blocks are constants; got a DiffValue, not a plain array")
        if block.ndim != 2 or block.shape[0] != block.shape[1]:
            raise ShapeError(f"propagate: block of shape {block.shape} is not square")
        rows += block.shape[0]
    if rows != xv.shape[0]:
        raise ShapeError(f"propagate: blocks cover {rows} rows, operand {xv.shape}")
    out_val = _block_products(blocks, xv)
    if not tx:
        return out_val
    return _record(out_val, (x, lambda g: _block_products([blk.T for blk in blocks], g)))


def l2_norm_rows(a: DiffValue, floor: float = 1e-12) -> DiffValue:
    """Per-row euclidean norm (n x d -> n x 1), clamped below by `floor`.

    Rows at the floor get zero gradient: the output is constant there.
    """
    ta = type(a) is DiffValue
    av = a.value if ta else a
    norms = np.sqrt((av * av).sum(axis=1, keepdims=True))
    clamped = np.maximum(norms, floor)
    if not ta:
        return clamped
    return _record(clamped, (a, lambda g: (g * (norms > floor) / clamped) * av))


def dot(a: DiffValue, b: DiffValue) -> DiffValue:
    """Sum of the elementwise product of two same-shape matrices (1 x 1)."""
    ta, tb = type(a) is DiffValue, type(b) is DiffValue
    av = a.value if ta else a
    bv = b.value if tb else b
    _same_shape(av, bv, "dot")
    out_val = np.array([[float((av * bv).sum())]])
    if not (ta or tb):
        return out_val
    return _record(out_val, (a, lambda g: g[0, 0] * bv), (b, lambda g: g[0, 0] * av))


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
        out_id, pairs = records.pop()
        g = grads.pop(out_id, None)
        if g is None:
            continue
        for inp_id, vjp in pairs:
            contrib = vjp(g)
            prev = grads.get(inp_id)
            grads[inp_id] = contrib if prev is None else prev + contrib

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
