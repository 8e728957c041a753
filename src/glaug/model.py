"""The differentiable model: residual GCN encoder, sum pooling, two heads.

Every forward runs on a `GraphBatch`, the disjoint union of B graphs: their
node rows stacked into one matrix and each graph's normalized adjacency kept
as its own dense n x n block, built by the caller for each forward and never
kept. A layer is one block-diagonal propagation and one X @ theta matmul over
all rows; pooling sums each graph's row segment, giving a B x h matrix H; the
heads map it row-wise. The adjacency is a constant of the computation, so it
never carries gradients.

Every forward is defined once and runs in two modes. Bound to a tape
(`params.bind(tape)`), it records for backward. Frozen (`params.bind()`,
`tape=None`), it runs the engine's no-record path on the parameter arrays
themselves and returns plain ndarrays with the same bits.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue, Tape
from .data import GraphInstance
from .errors import InputError


def normalize_adjacency(g: GraphInstance) -> np.ndarray:
    """Dense D^(-1/2) (A+I) D^(-1/2): weight(i, j) = 1 / sqrt(deg_i * deg_j),
    degrees counting the self-connection, so the diagonal is 1 / deg_i."""
    deg = (g.degrees() + 1).astype(np.float64)
    a_hat = np.diag(1.0 / deg)
    u, v = g.edges.T
    a_hat[u, v] = a_hat[v, u] = 1.0 / np.sqrt(deg[u] * deg[v])
    return a_hat


# -------------------------------------------------------------- parameters


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform fan_in x fan_out weights drawn from `rng`."""
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


class _Views(dict):
    """Name -> view of a parameter vector. Assigning to a name writes the
    values into its view, so the vector stays the only store."""

    def __setitem__(self, name: str, values) -> None:
        view = self[name]
        values = np.asarray(values, dtype=np.float64)
        if values.shape != view.shape:
            raise ad.ShapeError(f"{name}: shape {values.shape} does not fit {view.shape}")
        view[...] = values


class ModelParams:
    """All trainable arrays, keyed by name, plus the shape chain they satisfy.

    Encoder: enc0 (feature_dim x hidden), enc1..enc{L-1} (hidden x hidden),
    no biases. Heads: w1/b1 (hidden x hidden), w2/b2 to num_classes (cls_*)
    or proj_dim (proj_*).

    Every array lives in one contiguous float64 vector, `flat`, in key order;
    `arrays[name]` is a 2-D view of its part. `copy` is one copy of the
    vector and `adam_step` one pass over it. Updating a view in place, or
    assigning `arrays[name] = values` of the same shape, writes the vector.
    """

    def __init__(self, arrays: dict[str, np.ndarray], depth: int) -> None:
        for name, values in arrays.items():
            if np.ndim(values) != 2:
                raise ad.ShapeError(f"{name}: expected a 2-D matrix, got ndim={np.ndim(values)}")
        self._layout = tuple((name, np.shape(values)) for name, values in arrays.items())
        self.depth = depth
        self._place(np.empty(sum(math.prod(shape) for _, shape in self._layout)))
        for name, values in arrays.items():
            self.arrays[name] = values

    def views(self, vector: np.ndarray) -> _Views:
        """Name -> 2-D view of the part of `vector` (laid out like `flat`) that
        holds that array."""
        views, at = {}, 0
        for name, shape in self._layout:
            size = math.prod(shape)
            views[name] = vector[at : at + size].reshape(shape)
            at += size
        return _Views(views)

    def _place(self, flat: np.ndarray) -> None:
        self.flat = flat
        self.arrays = self.views(flat)

    @classmethod
    def init(
        cls,
        feature_dim: int,
        num_classes: int,
        hidden: int = 128,
        proj_dim: int = 128,
        depth: int = 3,
        rng: np.random.Generator | None = None,
    ) -> "ModelParams":
        """Glorot-uniform weights, zero biases."""
        if depth < 1:
            raise InputError("encoder depth must be >= 1")
        if min(feature_dim, num_classes, hidden, proj_dim) < 1:
            raise InputError("all model dimensions must be >= 1")
        rng = rng or np.random.default_rng(0)
        arrays: dict[str, np.ndarray] = {}
        arrays["enc0"] = glorot(rng, feature_dim, hidden)
        for layer in range(1, depth):
            arrays[f"enc{layer}"] = glorot(rng, hidden, hidden)
        for head, out_dim in (("cls", num_classes), ("proj", proj_dim)):
            arrays[f"{head}_w1"] = glorot(rng, hidden, hidden)
            arrays[f"{head}_b1"] = np.zeros((1, hidden))
            arrays[f"{head}_w2"] = glorot(rng, hidden, out_dim)
            arrays[f"{head}_b2"] = np.zeros((1, out_dim))
        return cls(arrays, depth)

    def copy(self) -> "ModelParams":
        """An independent copy: one copy of the parameter vector."""
        dup = copy.copy(self)
        dup._place(self.flat.copy())
        return dup

    def bind(self, tape: Tape | None = None, prefix: str = "") -> dict:
        """Name -> operand for the forward functions, for names starting with `prefix`.

        With a tape, every array becomes a leaf that requires a gradient and
        holds a checked copy of the array, so later updates to the parameters
        do not reach the tape. Without one the binding is frozen: the arrays
        themselves, each checked 2-D and finite here, once, and none copied.
        A frozen binding is only valid while the arrays are not updated, so
        bind once per pass.
        """
        if tape is None:
            return {
                k: ad.as_matrix(v, copy=False) for k, v in self.arrays.items() if k.startswith(prefix)
            }
        return {
            k: tape.leaf(v, requires_grad=True) for k, v in self.arrays.items() if k.startswith(prefix)
        }


# ------------------------------------------------------------------ forward


def _constant(tape: Tape | None, values) -> DiffValue | np.ndarray:
    if tape is None:
        return ad.as_matrix(values, copy=False)
    return tape.constant(values)


@dataclass(frozen=True)
class GraphBatch:
    """The disjoint union of B graphs, as one forward consumes it.

    Graph b owns rows bounds[b]:bounds[b+1] of `node_features`, and `blocks[b]`
    is its normalized adjacency. `node_count` is the total number of rows.
    """

    node_features: np.ndarray  # N x f
    blocks: tuple[np.ndarray, ...]
    bounds: np.ndarray  # B + 1 row offsets, from 0 to N

    @classmethod
    def of(cls, graphs, blocks) -> "GraphBatch":
        """Stack `graphs` in order; `blocks[b]` is `normalize_adjacency(graphs[b])`."""
        if any(g.node_count == 0 for g in graphs):
            raise InputError("cannot encode an empty graph")
        bounds = np.concatenate([[0], np.cumsum([g.node_count for g in graphs])])
        features = np.vstack([g.node_features for g in graphs])
        return cls(features, tuple(blocks), bounds.astype(np.intp))

    @property
    def node_count(self) -> int:
        return int(self.bounds[-1])


def encode(tape: Tape | None, batch: GraphBatch, bound: dict) -> DiffValue | np.ndarray:
    """L rounds of relu(A_hat @ G @ theta) over the batch's stacked node rows;
    identity residual from layer 1 on. A_hat is block diagonal, one block per
    graph, so no row mixes with another graph's.

    `tape=None` with a frozen binding records nothing and returns an ndarray.
    """
    out = _constant(tape, batch.node_features)
    layer = 0
    while f"enc{layer}" in bound:
        theta = bound[f"enc{layer}"]
        if layer == 0 and batch.node_features.shape[1] != theta.shape[0]:
            raise InputError(
                f"feature dim {batch.node_features.shape[1]} does not match "
                f"encoder input {theta.shape[0]}"
            )
        new = ad.relu(layer_input(batch, out, theta))
        if layer > 0 and new.shape == out.shape:
            new = ad.add(new, out)
        out = new
        layer += 1
    return out


def layer_input(batch: GraphBatch, out, theta):
    """The relu input of one encoder layer: A_hat @ G @ theta over the batch's rows."""
    return ad.matmul(ad.propagate(batch.blocks, out), theta)


def hidden_input(h, bound: dict, head: str):
    """The relu input of a head's hidden layer: h W1 + b1, for head "cls" or "proj"."""
    return ad.add_rowvec(ad.matmul(h, bound[f"{head}_w1"]), bound[f"{head}_b1"])


def pool(nodes: DiffValue, bounds=None) -> DiffValue:
    """Global sum pooling per graph: N x h -> B x h (1 x h without bounds)."""
    return ad.column_sum(nodes, bounds)


def classify(h: DiffValue, bound: dict) -> DiffValue:
    """Class probabilities: softmax(relu(h W1 + b1) W2 + b2), one row per row of h."""
    hidden = ad.relu(hidden_input(h, bound, "cls"))
    logits = ad.add_rowvec(ad.matmul(hidden, bound["cls_w2"]), bound["cls_b2"])
    return ad.softmax_rows(logits)


def project(h: DiffValue, bound: dict) -> DiffValue:
    """Contrastive projection: relu hidden, linear output, one row per row of h."""
    hidden = ad.relu(hidden_input(h, bound, "proj"))
    return ad.add_rowvec(ad.matmul(hidden, bound["proj_w2"]), bound["proj_b2"])


def represent(tape: Tape | None, batch: GraphBatch, bound: dict) -> DiffValue | np.ndarray:
    """Graph-level representations H = pool(encode(...)), one row per graph (B x h)."""
    return pool(encode(tape, batch, bound), batch.bounds)
