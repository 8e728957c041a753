"""The differentiable model: residual GCN encoder, sum pooling, two heads.

Per-graph forward passes (no cross-graph batching): each graph is small and
the adjacency is materialized dense only for the tape's matmul. The adjacency
itself is a constant of the computation, so it never carries gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffValue, Tape
from .data import GraphInstance
from .errors import InputError


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Sparse symmetric-normalized adjacency with self-connections.

    entries hold (row, col, weight) for every nonzero of D^(-1/2) (A+I) D^(-1/2),
    diagonal included, sorted by (row, col).
    """

    node_count: int
    entries: tuple[tuple[int, int, float], ...]

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.node_count, self.node_count))
        for i, j, w in self.entries:
            m[i, j] = w
        return m


def normalize_adjacency(g: GraphInstance) -> NormalizedAdjacency:
    """weight(i, j) = 1 / sqrt(deg_i * deg_j) with self-loop degrees."""
    deg = (g.degrees() + 1).astype(np.float64)  # self-connection
    entries = [(i, i, float(1.0 / deg[i])) for i in range(g.node_count)]
    for u, v in g.edges:
        w = float(1.0 / np.sqrt(deg[u] * deg[v]))
        entries.append((u, v, w))
        entries.append((v, u, w))
    return NormalizedAdjacency(g.node_count, tuple(sorted(entries)))


# -------------------------------------------------------------- parameters


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform fan_in x fan_out weights drawn from `rng`."""
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


class ModelParams:
    """All trainable arrays, keyed by name, plus the shape chain they satisfy.

    Encoder: enc0 (feature_dim x hidden), enc1..enc{L-1} (hidden x hidden),
    no biases. Heads: w1/b1 (hidden x hidden), w2/b2 to num_classes (cls_*)
    or proj_dim (proj_*).
    """

    def __init__(self, arrays: dict[str, np.ndarray], depth: int) -> None:
        self.arrays = arrays
        self.depth = depth

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

    @property
    def hidden(self) -> int:
        return self.arrays["enc0"].shape[1]

    @property
    def num_classes(self) -> int:
        return self.arrays["cls_w2"].shape[1]

    @property
    def proj_dim(self) -> int:
        return self.arrays["proj_w2"].shape[1]

    @property
    def feature_dim(self) -> int:
        return self.arrays["enc0"].shape[0]

    def copy(self) -> "ModelParams":
        return ModelParams({k: v.copy() for k, v in self.arrays.items()}, self.depth)

    def bind(self, tape: Tape, requires_grad: bool = True) -> dict[str, DiffValue]:
        """Register every array as a leaf on `tape`.

        requires_grad=False gives the exact same forward computation with the
        tape recording suppressed, which is how no-grad snapshot scoring stays
        bit-identical to the training path.
        """
        return {k: tape.leaf(v, requires_grad=requires_grad) for k, v in self.arrays.items()}


# ------------------------------------------------------------------ forward


def encode(tape: Tape, g: GraphInstance, adj: NormalizedAdjacency, bound: dict) -> DiffValue:
    """L rounds of relu(A_hat @ G @ theta); identity residual from layer 1 on."""
    if g.node_count == 0:
        raise InputError("cannot encode an empty graph")
    a_hat = tape.constant(adj.to_dense())
    out = tape.constant(g.node_features)
    layer = 0
    while f"enc{layer}" in bound:
        theta = bound[f"enc{layer}"]
        if layer == 0 and g.node_features.shape[1] != theta.shape[0]:
            raise InputError(
                f"feature dim {g.node_features.shape[1]} does not match "
                f"encoder input {theta.shape[0]}"
            )
        new = ad.relu(ad.matmul(ad.matmul(a_hat, out), theta))
        if layer > 0 and new.shape == out.shape:
            new = ad.add(new, out)
        out = new
        layer += 1
    return out


def pool(nodes: DiffValue) -> DiffValue:
    """Global sum pooling: n x h -> 1 x h."""
    return ad.column_sum(nodes)


def classify(h: DiffValue, bound: dict) -> DiffValue:
    """Class probabilities: softmax(relu(h W1 + b1) W2 + b2), a 1 x c row."""
    hidden = ad.relu(ad.add_rowvec(ad.matmul(h, bound["cls_w1"]), bound["cls_b1"]))
    logits = ad.add_rowvec(ad.matmul(hidden, bound["cls_w2"]), bound["cls_b2"])
    return ad.softmax_rows(logits)


def project(h: DiffValue, bound: dict) -> DiffValue:
    """Contrastive projection: relu hidden, linear output, a 1 x p row."""
    hidden = ad.relu(ad.add_rowvec(ad.matmul(h, bound["proj_w1"]), bound["proj_b1"]))
    return ad.add_rowvec(ad.matmul(hidden, bound["proj_w2"]), bound["proj_b2"])


def represent(tape: Tape, g: GraphInstance, adj: NormalizedAdjacency, bound: dict) -> DiffValue:
    """Graph-level representation H = pool(encode(...)), a 1 x h row."""
    return pool(encode(tape, g, adj, bound))
