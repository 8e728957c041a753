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

from .autodiff import as_matrix
from .errors import InputError, InvariantViolation
from .model import classify

if TYPE_CHECKING:
    from .training import TrainConfig

STRATEGIES = ("hardest", "random", "easiest")
DIST_SCOPES = ("batch", "dataset")


@dataclass(frozen=True)
class AugmentationOutcome:
    """One graph's augmentation pick.

    `offset` is the picked candidate's eta * d * delta, or zeros on fallback
    (no candidate qualified). Training re-adds this constant to the tape-bound
    H, so the gradient of the augmented branch flows through H unchanged.
    """

    offset: np.ndarray  # 1 x h, augmented = original + offset
    target_class: int
    qualified_count: int
    chosen_target_prob: float | None

    @property
    def fallback(self) -> bool:
        return self.qualified_count == 0


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


def target_class(label: int | None, original_probs: np.ndarray) -> int:
    """Ground-truth label when known, else the classifier's own argmax.

    np.argmax resolves exact ties to the lowest index, which is the tie rule.
    """
    if label is not None:
        return int(label)
    return int(np.argmax(original_probs))


def snapshot_probs(frozen: dict, h_value: np.ndarray) -> np.ndarray:
    """Class probabilities from the classifier snapshot, no gradients recorded.

    The training path's classify() on its no-record route, so scores agree
    bit-for-bit with the tape forward. `frozen` is the classifier's frozen
    binding (`params.bind(prefix="cls")`), made once per selection pass, and
    `h_value` a finite 2-D float64 matrix: `augment` checks its whole block of
    candidates once, not each row it scores.
    """
    return classify(h_value, frozen)


def augment(
    h: np.ndarray, target: int, frozen: dict, cfg: TrainConfig, d: float, rng: np.random.Generator
) -> AugmentationOutcome:
    """Draw K candidates, keep the label-invariant ones, pick one per strategy.

    The K = `cfg.num_candidates` offsets are (cfg.eta * d) times one block of
    K unit directions, drawn before any strategy-specific rng use, so the
    candidate pool for a given rng state is identical across strategies.
    The candidates are one K x h block `h + offsets`. `frozen` is the
    classifier's frozen binding; it scores each candidate row, a view of the
    block, and rechecks the pick, one `snapshot_probs` call each.
    """
    if d < 0:
        raise InputError(f"d must be >= 0, got {d}")
    h = np.asarray(h, dtype=np.float64)
    offsets = (cfg.eta * d) * unit_directions(cfg.num_candidates, h.shape[1], rng)
    candidates = as_matrix(h + offsets, copy=False)

    qualified: list[tuple[int, float]] = []  # (draw index, target prob)
    for k in range(cfg.num_candidates):
        probs = snapshot_probs(frozen, candidates[k : k + 1])
        if probs.argmax() == target:
            qualified.append((k, float(probs[0, target])))

    offset, prob = np.zeros_like(h), None
    if qualified:
        if cfg.strategy == "hardest":
            k, prob = min(qualified, key=lambda c: c[1])  # first minimal: draw-order ties
        elif cfg.strategy == "easiest":
            k, prob = max(qualified, key=lambda c: c[1])  # first maximal
        else:
            k, prob = qualified[int(rng.integers(len(qualified)))]
        offset = offsets[k : k + 1]
        if snapshot_probs(frozen, candidates[k : k + 1]).argmax() != target:
            raise InvariantViolation(
                "selected augmentation lost the target class under the same snapshot"
            )
    return AugmentationOutcome(
        offset=offset, target_class=target, qualified_count=len(qualified), chosen_target_prob=prob
    )
