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
from types import MappingProxyType

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue, Tape
from .errors import InputError


def normalize_adjacency(node_count: int, edges: np.ndarray) -> np.ndarray:
    """Dense D^(-1/2) (A+I) D^(-1/2) of a graph's canonical local edges:
    weight(i, j) = 1 / sqrt(deg_i * deg_j), degrees counting the
    self-connection, so the diagonal is 1 / deg_i."""
    deg = (np.bincount(edges.ravel(), minlength=node_count) + 1).astype(np.float64)
    a_hat = np.diag(1.0 / deg)
    u, v = edges.T
    a_hat[u, v] = a_hat[v, u] = 1.0 / np.sqrt(deg[u] * deg[v])
    return a_hat


# -------------------------------------------------------------- parameters


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform fan_in x fan_out weights drawn from `rng`."""
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


def head_layout(head: str, hidden: int, out_dim: int) -> list:
    """The (name, shape) parts of a "cls" or "proj" head to `out_dim` columns."""
    return [(f"{head}_w1", (hidden, hidden)), (f"{head}_b1", (1, hidden)),
            (f"{head}_w2", (hidden, out_dim)), (f"{head}_b2", (1, out_dim))]


class ModelParams:
    """All trainable arrays, keyed by name, plus the shape chain they satisfy.

    Encoder: enc0 (feature_dim x hidden), enc1..enc{L-1} (hidden x hidden),
    no biases. Heads: w1/b1 (hidden x hidden), w2/b2 to num_classes (cls_*)
    or proj_dim (proj_*).

    Every array lives in one contiguous float64 vector, `flat`, in layout
    order; `arrays` is a read-only mapping of each name to a 2-D view of its
    part. `copy` is one copy of the vector and `adam_step` one pass over it.
    Writing into a view (`arrays[name][...] = values`) writes the vector;
    assigning `arrays[name] = values` raises.
    """

    @property
    def depth(self) -> int:
        """Encoder layers: the enc0, enc1, ... arrays."""
        return sum(name.startswith("enc") for name, _ in self._layout)

    def views(self, vector: np.ndarray) -> MappingProxyType:
        """Read-only name -> 2-D view of the part of `vector` (laid out like
        `flat`) that holds that array."""
        views, at = {}, 0
        for name, shape in self._layout:
            size = math.prod(shape)
            views[name] = vector[at : at + size].reshape(shape)
            at += size
        return MappingProxyType(views)

    def _place(self, flat: np.ndarray) -> None:
        self.flat = flat
        self.arrays = self.views(flat)

    @classmethod
    def drawn(cls, layout, rng) -> "ModelParams":
        """Parameters of `layout`, (name, shape) pairs, in a new vector: each
        weight drawn glorot from `rng` in layout order, each bias (a `_b`
        part) zero."""
        layout = tuple(layout)
        return cls._drawn_into(np.empty(sum(math.prod(shape) for _, shape in layout)), layout, rng)

    @classmethod
    def _drawn_into(cls, flat: np.ndarray, layout, rng) -> "ModelParams":
        """`drawn`, into `flat`, a vector already of the layout's size."""
        params = cls.__new__(cls)
        params._layout = tuple(layout)
        params._place(flat)
        for name, view in params.arrays.items():
            view[...] = 0.0 if "_b" in name else glorot(rng, *view.shape)
        return params

    @classmethod
    def init(cls, feature_dim: int, num_classes: int, hidden: int, proj_dim: int, depth: int,
             rng: np.random.Generator) -> "ModelParams":
        """Glorot-uniform weights drawn from `rng`, zero biases. The vector is
        sized and allocated before the layout lists the encoder's layers, so a
        model no array can hold fails before that list or any draw."""
        if depth < 1:
            raise InputError("encoder depth must be >= 1")
        if min(feature_dim, num_classes, hidden, proj_dim) < 1:
            raise InputError("all model dimensions must be >= 1")
        heads = (("cls", num_classes), ("proj", proj_dim))
        # a head is hidden x (hidden + out) weights and hidden + out biases
        size = hidden * (feature_dim + (depth - 1) * hidden)
        size += sum((hidden + 1) * (hidden + out) for _, out in heads)
        if 8 * size > np.iinfo(np.intp).max:  # its bytes overflow intp
            raise InputError(f"a model of {size} float64 parameters is too big")
        flat = np.empty(size)  # past the address space numpy fails here
        layout = [("enc0", (feature_dim, hidden))]
        layout += [(f"enc{layer}", (hidden, hidden)) for layer in range(1, depth)]
        layout += [part for head, out in heads for part in head_layout(head, hidden, out)]
        return cls._drawn_into(flat, layout, rng)

    def copy(self) -> "ModelParams":
        """An independent copy: one copy of the parameter vector."""
        dup = copy.copy(self)
        dup._place(self.flat.copy())
        return dup

    def bind(self, tape: Tape | None = None) -> dict:
        """Name -> operand for the forward functions, one per array.

        With a tape, every array becomes a leaf, which takes a gradient and
        holds a checked copy of the array, so later updates to the parameters
        do not reach the tape. Without one the binding is frozen: the arrays
        themselves, each checked 2-D and finite here, once, and none copied.
        A frozen binding is only valid while the arrays are not updated, so
        bind once per pass and hand that binding to every part of the pass.
        """
        if tape is None:
            return {k: ad.as_matrix(v, copy=False) for k, v in self.arrays.items()}
        return {k: tape.leaf(v) for k, v in self.arrays.items()}


# ------------------------------------------------------------------ forward


@dataclass(frozen=True)
class GraphBatch:
    """The disjoint union of B graphs, as one forward consumes it.

    Graph b owns rows bounds[b]:bounds[b+1] of `node_features`, copied from
    the data set's feature matrix, and `blocks[b]` is its normalized
    adjacency. `node_count` is the total number of rows.
    """

    node_features: np.ndarray  # N x f
    blocks: tuple[np.ndarray, ...]
    bounds: np.ndarray  # B + 1 row offsets, from 0 to N

    @classmethod
    def of(cls, features, blocks) -> "GraphBatch":
        """Stack B graphs: `features[b]` holds graph b's rows, `blocks[b]` its adjacency."""
        if any(len(x) == 0 for x in features):
            raise InputError("cannot encode an empty graph")
        bounds = np.concatenate([[0], np.cumsum([len(x) for x in features])])
        return cls(np.vstack(features), tuple(blocks), bounds.astype(np.intp))

    @property
    def node_count(self) -> int:
        return int(self.bounds[-1])


def encode(tape: Tape | None, batch: GraphBatch, bound: dict) -> DiffValue | np.ndarray:
    """L rounds of relu(A_hat @ G @ theta) over the batch's stacked node rows;
    identity residual from layer 1 on. A_hat is block diagonal, one block per
    graph, so no row mixes with another graph's.

    `tape=None` with a frozen binding records nothing and returns an ndarray.
    """
    x = batch.node_features
    out = ad.as_matrix(x, copy=False) if tape is None else tape.constant(x)
    layer = 0
    while f"enc{layer}" in bound:
        theta = bound[f"enc{layer}"]
        if layer == 0 and x.shape[1] != theta.shape[0]:
            raise InputError(f"feature dim {x.shape[1]} does not match encoder input {theta.shape[0]}")
        new = ad.relu(layer_input(batch, out, theta))
        if layer > 0 and new.shape == out.shape:
            new = ad.add(new, out)
        out = new
        layer += 1
    return out


def layer_input(batch: GraphBatch, out, theta):
    """The relu input of one encoder layer: A_hat @ G @ theta over the batch's rows."""
    return ad.matmul(ad.propagate(batch.blocks, out), theta)


def hidden_input(h, bound: dict, head: str, product=ad.matmul):
    """The relu input of a head's hidden layer: h W1 + b1, for head "cls" or "proj"."""
    return ad.add_rowvec(product(h, bound[f"{head}_w1"]), bound[f"{head}_b1"])


def classify(h: DiffValue, bound: dict, product=ad.matmul) -> DiffValue:
    """Class probabilities: softmax(relu(h W1 + b1) W2 + b2), one row per row of h.
    Frozen callers may pass `ad.matmul_rows` as both products' `product`."""
    hidden = ad.relu(hidden_input(h, bound, "cls", product))
    logits = ad.add_rowvec(product(hidden, bound["cls_w2"]), bound["cls_b2"])
    return ad.softmax_rows(logits)


def project(h: DiffValue, bound: dict) -> DiffValue:
    """Contrastive projection: relu hidden, linear output, one row per row of h."""
    hidden = ad.relu(hidden_input(h, bound, "proj"))
    return ad.add_rowvec(ad.matmul(hidden, bound["proj_w2"]), bound["proj_b2"])


def represent(tape: Tape | None, batch: GraphBatch, bound: dict) -> DiffValue | np.ndarray:
    """Graph-level representations H, one row per graph (B x h): global sum
    pooling of each graph's row segment of encode(...)."""
    return ad.column_sum(encode(tape, batch, bound), batch.bounds)
