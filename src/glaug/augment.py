"""Label-preserving perturbations in representation space.

Instead of editing graphs, the positive pair for contrastive training is made
by nudging the pooled representation H along a random unit direction, scaled
by eta times the mean centroid distance of the current representations. A
candidate survives only if the classifier still puts its argmax on the target
class; the surviving set is then reduced to one pick per strategy. Selection
is a constant choice: gradients reach the encoder only through H itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .errors import InputError, InvariantViolation
from .model import classify

if TYPE_CHECKING:
    from .training import TrainConfig

STRATEGIES = ("hardest", "random", "easiest")
DIST_SCOPES = ("batch", "dataset")


@dataclass(frozen=True)
class Selection:
    """One selection pass over B rows, in row order. Row b's offset is its
    pick's eta * d * delta, or zeros where no candidate qualified (a fallback);
    training adds it to the tape-bound H as a constant."""

    offsets: np.ndarray  # B x h, augmented = original + offsets
    counts: np.ndarray  # B qualified counts, each 0..K
    chosen: np.ndarray  # B chosen target probabilities, NaN on fallback

    @property
    def qualified_count(self) -> int:  # over all rows
        return int(self.counts.sum())

    @property
    def fallback(self) -> int:  # the number of rows that fell back
        return int(np.count_nonzero(self.counts == 0))


def centroid_distance(reps: np.ndarray) -> float:
    """Mean euclidean distance from each representation row to their centroid.

    Treated as a constant for gradient purposes; callers pass plain values.
    """
    reps = np.asarray(reps, dtype=np.float64)
    if reps.ndim != 2 or reps.shape[0] == 0:
        raise InputError("centroid_distance needs a nonempty N x h matrix")
    centroid = reps.mean(axis=0, keepdims=True)
    return float(np.sqrt(((reps - centroid) ** 2).sum(axis=1)).mean())


def unit_directions(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """`count` uniform directions on the (dim-1)-sphere, as a count x dim block:
    one `standard_normal` draw, each row divided by its norm. A row drawn as
    all zeros (measure zero) is redrawn."""
    if dim < 1:
        raise InputError("dim must be >= 1")
    v = rng.standard_normal((count, dim))
    norms = np.sqrt((v * v).sum(axis=1, keepdims=True))
    while not norms.all():
        zero = norms[:, 0] == 0.0
        v[zero] = rng.standard_normal((int(zero.sum()), dim))
        norms = np.sqrt((v * v).sum(axis=1, keepdims=True))
    return v / norms


def snapshot_probs(frozen: dict, h_value: np.ndarray) -> np.ndarray:
    """Class probabilities from the frozen binding `frozen` of the classifier:
    `classify` with the row-exact product, so each row of the finite float64
    matrix `h_value` gets the bits it gets scored alone, in any stack."""
    return classify(h_value, frozen, product=ad.matmul_rows)


def augment(h: np.ndarray, targets, frozen: dict, cfg: TrainConfig, d: float, rngs) -> Selection:
    """Draw K candidates per row, keep the label-invariant ones, pick one per row.

    Row b of the B x h matrix `h` draws its K = `cfg.num_candidates` unit
    directions as one block from `rngs[b]`, before any strategy draw, so its
    pool is the same under every strategy; offsets are (cfg.eta * d) times
    them. One `snapshot_probs` call scores candidate k of every row (K calls).
    A candidate qualifies when its argmax is `targets[b]`. `hardest` and
    `easiest` pick the first minimal or maximal target probability in draw
    order, `random` the `rngs[b].integers(count)`-th qualified one. One row-exact
    `classify` call rechecks every pick at its single-row bits: a pick that loses
    the target is an InvariantViolation; a candidate block past numpy's array size, an InputError.
    """
    if d < 0:
        raise InputError(f"d must be >= 0, got {d}")
    h = np.asarray(h, dtype=np.float64)
    width, count = h.shape[1], cfg.num_candidates
    rows = np.arange(h.shape[0])
    if 8 * count * len(rows) * width > np.iinfo(np.intp).max:  # its bytes overflow intp
        raise InputError(f"num_candidates {count}: a K x {len(rows)} x {width} block is too big")
    targets = np.asarray(targets, dtype=np.intp)
    offsets = np.empty((count, len(rows), width))  # K x B x h
    for b, rng in enumerate(rngs):
        offsets[:, b] = unit_directions(count, width, rng)
    offsets *= cfg.eta * d
    # candidate k of every row, h + offsets[k], is built (and checked finite) as it is scored
    probs = np.stack([snapshot_probs(frozen, ad.as_matrix(h + step, copy=False)) for step in offsets])
    qualified = probs.argmax(axis=2) == targets  # K x B
    target_probs = probs[:, rows, targets]
    counts = qualified.sum(axis=0)
    if cfg.strategy == "random":
        drawn = [int(rng.integers(c)) if c else 0 for rng, c in zip(rngs, counts.tolist())]
        picks = (qualified.cumsum(axis=0) > drawn).argmax(axis=0)  # the drawn-th qualified
    elif cfg.strategy == "hardest":
        picks = np.where(qualified, target_probs, np.inf).argmin(axis=0)  # first minimal
    else:
        picks = np.where(qualified, target_probs, -np.inf).argmax(axis=0)  # first maximal

    kept = counts > 0
    recheck = classify(h[kept] + offsets[picks[kept], rows[kept]], frozen, ad.matmul_rows)
    if (recheck.argmax(axis=1) != targets[kept]).any():
        raise InvariantViolation("selected augmentation lost the target class under the same snapshot")
    return Selection(
        offsets=np.where(kept[:, None], offsets[picks, rows], 0.0),
        counts=counts,
        chosen=np.where(kept, target_probs[picks, rows], np.nan),
    )
