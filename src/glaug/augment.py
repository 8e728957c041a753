"""Label-preserving perturbations in representation space.

Instead of editing graphs, the positive pair for contrastive training is made
by nudging the pooled representation H along a random unit direction, scaled
by eta times the mean centroid distance of the current representations. A
candidate survives only if the classifier still puts its argmax on the target
class; the surviving set is then reduced to one pick per strategy. Selection
is a constant choice: gradients reach the encoder only through H itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import as_matrix
from .errors import InputError, InvariantViolation
from .model import classify

STRATEGIES = ("hardest", "random", "easiest")
DIST_SCOPES = ("batch", "dataset")


@dataclass(frozen=True)
class AugmentationConfig:
    eta: float = 1.0
    num_candidates: int = 10
    strategy: str = "hardest"
    dist_scope: str = "batch"

    def __post_init__(self):
        if not math.isfinite(self.eta):
            raise InputError(f"eta must be finite, got {self.eta}")
        if self.eta < 0:
            raise InputError(f"eta must be >= 0, got {self.eta}")
        if self.num_candidates < 1:
            raise InputError(f"num_candidates must be >= 1, got {self.num_candidates}")
        if self.strategy not in STRATEGIES:
            raise InputError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.dist_scope not in DIST_SCOPES:
            raise InputError(f"dist_scope must be one of {DIST_SCOPES}, got {self.dist_scope!r}")


@dataclass(frozen=True)
class AugmentationOutcome:
    """One graph's augmentation pick.

    `offset` is the constant additive term (zeros on fallback); the training
    loop re-adds it to the tape-bound representation so the gradient of the
    augmented branch flows through H unchanged.
    """

    augmented: np.ndarray  # 1 x h
    offset: np.ndarray  # 1 x h, augmented = original + offset
    target_class: int
    qualified_count: int
    chosen_target_prob: float | None
    fallback: bool


def centroid_distance(reps: np.ndarray) -> float:
    """Mean euclidean distance from each representation row to their centroid.

    Treated as a constant for gradient purposes; callers pass plain values.
    """
    reps = np.asarray(reps, dtype=np.float64)
    if reps.ndim != 2 or reps.shape[0] == 0:
        raise InputError("centroid_distance needs a nonempty N x h matrix")
    centroid = reps.mean(axis=0, keepdims=True)
    return float(np.sqrt(((reps - centroid) ** 2).sum(axis=1)).mean())


def sample_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the (dim-1)-sphere, as a 1 x dim row."""
    if dim < 1:
        raise InputError("dim must be >= 1")
    while True:
        v = rng.standard_normal((1, dim))
        norm = float(np.sqrt((v * v).sum()))
        if norm > 0.0:  # the all-zeros draw has measure zero; resample
            return v / norm


def perturbation_offset(eta: float, d: float, delta: np.ndarray) -> np.ndarray:
    """The additive term eta * d * delta, shared by every path that builds H^A."""
    return (eta * d) * delta


def target_class(label: int | None, original_probs: np.ndarray) -> int:
    """Ground-truth label when known, else the classifier's own argmax.

    np.argmax resolves exact ties to the lowest index, which is the tie rule.
    """
    if label is not None:
        return int(label)
    return int(np.argmax(original_probs))


def snapshot_probs(frozen: dict, h_value: np.ndarray) -> np.ndarray:
    """Class probabilities from the classifier snapshot, no gradients recorded.

    Runs the same classify() as the training path on its no-record route, so
    scores agree bit-for-bit with the tape forward and no tape is built.
    `frozen` is the classifier's frozen binding (`params.bind(prefix="cls")`),
    made once per selection pass.
    """
    return classify(as_matrix(h_value, copy=False), frozen)


def augment(
    h: np.ndarray,
    target: int,
    frozen: dict,
    cfg: AugmentationConfig,
    d: float,
    rng: np.random.Generator,
) -> AugmentationOutcome:
    """Draw K candidates, keep the label-invariant ones, pick one per strategy.

    All K directions are drawn before any strategy-specific rng use, so the
    candidate pool for a given rng state is identical across strategies.
    `frozen` is the classifier's frozen binding; it scores the K candidates
    and rechecks the pick, one `snapshot_probs` call each.
    """
    if d < 0:
        raise InputError(f"d must be >= 0, got {d}")
    h = np.asarray(h, dtype=np.float64)

    qualified: list[tuple[int, np.ndarray, float]] = []  # (draw index, offset, target prob)
    for k in range(cfg.num_candidates):
        delta = sample_unit_vector(h.shape[1], rng)
        offset = perturbation_offset(cfg.eta, d, delta)
        probs = snapshot_probs(frozen, h + offset)
        if int(np.argmax(probs)) == target:
            qualified.append((k, offset, float(probs[0, target])))

    if not qualified:
        return AugmentationOutcome(
            augmented=h.copy(),
            offset=np.zeros_like(h),
            target_class=target,
            qualified_count=0,
            chosen_target_prob=None,
            fallback=True,
        )

    if cfg.strategy == "hardest":
        pick = min(qualified, key=lambda c: c[2])  # first minimal: draw-order ties
    elif cfg.strategy == "easiest":
        pick = max(qualified, key=lambda c: c[2])  # first maximal
    else:
        pick = qualified[int(rng.integers(len(qualified)))]

    _, offset, prob = pick
    augmented = h + offset
    if int(np.argmax(snapshot_probs(frozen, augmented))) != target:
        raise InvariantViolation(
            "selected augmentation lost the target class under the same snapshot"
        )
    return AugmentationOutcome(
        augmented=augmented,
        offset=offset,
        target_class=target,
        qualified_count=len(qualified),
        chosen_target_prob=prob,
        fallback=False,
    )
