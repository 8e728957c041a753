"""Losses, Adam, the integrated semi-supervised loop, fold evaluation.

Training never has a separate pretrain phase: every step optimizes
L = L_pair + alpha * L_cls, where L_pair pulls each graph's projection toward
its augmented twin and L_cls is cross-entropy on the labeled subset, applied
to both the original and augmented predictions. Augmentation targets come
from ground truth when the graph is labeled and from the live classifier's
argmax otherwise, recomputed every step. One selection pass (`_select`)
picks the augmentations of a batch of rows; training, the invariance rate
and the objective's gradient check all use it.

A step is one computation over its batch of B graphs: one encoder forward on
their disjoint union gives the B x h matrix H, each head runs once on H and
once on H + offsets, and every loss reduces B-row matrices. Frozen passes run
the same forward on chunks of at most FROZEN_CHUNK graphs.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .augment import (
    DIST_SCOPES, STRATEGIES, AugmentationOutcome, augment, centroid_distance, target_class,
)
from .autodiff import DiffValue, Tape
from .data import FoldPlan, GraphDataset, assign_labels, generate_synthetic, make_folds
from .errors import InputError, InvariantViolation, TrainingDiverged
from .model import (
    GraphBatch,
    ModelParams,
    classify,
    encode,
    glorot,
    hidden_input,
    layer_input,
    normalize_adjacency,
    project,
    represent,
)
from .seeding import seeded_rng

NORM_FLOOR = 1e-12
PROB_FLOOR = 1e-12
SURROGATE_STEPS = 200
SURROGATE_LR = 1e-2
NUM_FOLDS = 10  # the cross-validation protocol every experiment runs
FROZEN_CHUNK = 32  # graphs per frozen forward: the default batch size


@dataclass(frozen=True)
class TrainConfig:
    label_ratio: float = 0.5
    alpha: float = 1.0
    eta: float = 1.0
    num_candidates: int = 10
    strategy: str = "hardest"
    dist_scope: str = "batch"
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    negative_pairs: bool = False
    temperature: float = 0.5
    hidden: int = 128
    proj_dim: int = 128
    depth: int = 3

    def __post_init__(self):
        for name in ("alpha", "learning_rate", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.label_ratio <= 1.0:
            raise InputError(f"label ratio must lie in (0, 1], got {self.label_ratio}")
        if self.alpha < 0:
            raise InputError(f"alpha must be >= 0, got {self.alpha}")
        if self.learning_rate <= 0:
            raise InputError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.negative_pairs and self.temperature <= 0:
            raise InputError(f"temperature must be > 0, got {self.temperature}")
        if self.negative_pairs and self.batch_size < 2:
            raise InputError(f"negative pairs need batch_size >= 2, got {self.batch_size}")
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
class FoldResult:
    fold_index: int
    best_epoch: int  # 1-based
    test_accuracy: float
    validation_curve: tuple[float, ...]
    label_invariant_rate: float
    fallback_rate: float
    epoch_pair_losses: tuple[float, ...]
    epoch_cls_losses: tuple[float, ...]
    qualified_histogram: tuple[int, ...]  # counts of qualified_count = 0..K
    mean_chosen_prob: float | None  # over non-fallback selections; None if all fell back


@dataclass(frozen=True)
class ExperimentResult:
    folds: tuple[FoldResult, ...]
    mean_accuracy: float
    std_accuracy: float  # sample std, n-1 denominator


# ------------------------------------------------------------------- losses


def contrastive_loss(p_o: DiffValue, p_a: DiffValue) -> DiffValue:
    """Mean over rows of the negative cosine similarity of each projection pair.

    `p_o` and `p_a` are B x p; row b of each belongs to graph b. Norms are
    clamped below by 1e-12 so zero projections yield 0, not NaN.
    """
    num = ad.row_sum(ad.mul(p_o, p_a))
    den = ad.mul(ad.l2_norm_rows(p_o, NORM_FLOOR), ad.l2_norm_rows(p_a, NORM_FLOOR))
    return ad.scale(ad.sum_all(ad.div(num, den)), -1.0 / p_o.shape[0])


def ntxent_with_negatives(p_o: DiffValue, p_a: DiffValue, temperature: float) -> DiffValue:
    """Temperature-scaled cross entropy where every other augmented projection
    in the batch is a negative; mean over anchors.

    Row i of the B x B matrix S holds the cosines of anchor p_o[i] with every
    p_a[j], over tau; its diagonal holds the positives. Each row's log-sum-exp
    is stabilized with the row's detached max, which is exact.
    """
    if p_o.shape != p_a.shape:
        raise InvariantViolation(f"projection matrices of shapes {p_o.shape} and {p_a.shape}")
    batch = p_o.shape[0]
    if batch < 2:
        raise InputError("negative-pair loss needs a batch of at least 2")
    if temperature <= 0:
        raise InputError(f"temperature must be > 0, got {temperature}")

    num = ad.matmul(p_o, ad.transpose(p_a))
    norms_a = ad.transpose(ad.l2_norm_rows(p_a, NORM_FLOOR))
    den = ad.matmul(ad.l2_norm_rows(p_o, NORM_FLOOR), norms_a)  # outer product of the norms
    sims = ad.scale(ad.div(num, den), 1.0 / temperature)
    tape = sims.tape
    row_max = sims.value.max(axis=1, keepdims=True)  # detached constant
    shifted = ad.sub(sims, tape.constant(np.repeat(row_max, batch, axis=1)))
    lse = ad.add(tape.constant(row_max), ad.log(ad.row_sum(ad.exp(shifted))))
    positives = ad.row_sum(ad.mul(sims, tape.constant(np.eye(batch))))
    return ad.scale(ad.sum_all(ad.sub(lse, positives)), 1.0 / batch)


def classification_loss(c_o: DiffValue, c_a: DiffValue | None, y: DiffValue) -> DiffValue:
    """Cross-entropy summed over both predictions, mean over labeled rows.

    `c_o` and `c_a` are B x c class probabilities, `c_a` None for a single
    prediction (the surrogate's); `y` is a B x c one-hot mask whose rows are
    zero for unlabeled graphs, which therefore add nothing.
    """
    labeled = int(np.count_nonzero(y.value.any(axis=1)))
    if labeled == 0:
        raise InputError("classification loss needs at least one labeled row")
    ce = ad.dot(y, ad.log(ad.clamp(c_o, PROB_FLOOR, 1.0)))
    if c_a is not None:
        ce = ad.add(ce, ad.dot(y, ad.log(ad.clamp(c_a, PROB_FLOOR, 1.0))))
    return ad.scale(ce, -1.0 / labeled)


def total_loss(l_p: DiffValue, l_c: DiffValue | None, alpha: float) -> DiffValue:
    """L_pair + alpha * L_cls; a missing classification term contributes exactly 0."""
    if l_c is None:
        return l_p
    return ad.add(l_p, ad.scale(l_c, alpha))


# --------------------------------------------------------------------- adam


@dataclass
class AdamState:
    """Adam's moments and step count. `m[name]` and `v[name]` are views of
    two vectors laid out like the parameters' `flat`, made at the first step."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # the m and v vectors, then two scratch vectors: the gradient, the step
    vectors: tuple[np.ndarray, ...] = field(default=(), repr=False)


def adam_step(
    params: ModelParams, grads: dict[str, np.ndarray], state: AdamState, lr: float
) -> None:
    """One bias-corrected Adam update, in place on params and state:
    m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) (g g);
    arr -= (lr (m / (1 - b1^t))) / (sqrt(v / (1 - b2^t)) + eps).
    The gradients are gathered into one vector laid out like `params.flat`,
    and the formula runs once over the whole vector (Kingma & Ba,
    arXiv:1412.6980). Each operation writes into one of two scratch vectors
    kept in `state`, in the order the expression evaluates; the update is
    elementwise, so the bits equal the expression's applied to each array on
    its own."""
    for name, arr in params.arrays.items():
        if grads[name].shape != arr.shape:
            raise InvariantViolation(
                f"gradient shape {grads[name].shape} != param {arr.shape} ({name})"
            )
    if not state.vectors:
        state.vectors = tuple(np.zeros_like(params.flat) for _ in range(4))
        state.m, state.v = params.views(state.vectors[0]), params.views(state.vectors[1])
    m, v, g, step = state.vectors
    np.concatenate([grads[name].ravel() for name in params.arrays], out=g)
    state.step += 1
    t = state.step
    m *= state.beta1
    m += np.multiply(1 - state.beta1, g, out=step)
    v *= state.beta2
    np.multiply(g, g, out=g)  # the gradient is not read again: g holds g g, then the denominator
    v += np.multiply(1 - state.beta2, g, out=g)
    denom = np.divide(v, 1 - state.beta2**t, out=g)
    np.sqrt(denom, out=denom)
    denom += state.eps
    np.divide(m, 1 - state.beta1**t, out=step)
    np.multiply(lr, step, out=step)
    step /= denom
    params.flat -= step


def _adam_finite(params: ModelParams, grads: dict, state: AdamState, lr: float, where: str) -> None:
    """`adam_step`, then a TrainingDiverged naming `where` if it left a
    parameter NaN or infinite."""
    adam_step(params, grads, state, lr)
    if not np.isfinite(params.flat).all():
        raise TrainingDiverged(f"{where}: training diverged, a parameter is not finite")


# ----------------------------------------------------------------- training


def _stack(dataset: GraphDataset, indices) -> GraphBatch:
    """The disjoint union of the given graphs, adjacency built for this forward."""
    graphs = [dataset.graphs[i] for i in indices]
    return GraphBatch.of(graphs, [normalize_adjacency(g) for g in graphs])


def _representations(dataset: GraphDataset, params: ModelParams, indices) -> np.ndarray:
    """Frozen H rows for the given graphs, stacked in index order."""
    frozen = params.bind()
    indices = list(indices)
    chunks = [indices[s : s + FROZEN_CHUNK] for s in range(0, len(indices), FROZEN_CHUNK)]
    return np.vstack([represent(None, _stack(dataset, chunk), frozen) for chunk in chunks])


def evaluate(dataset: GraphDataset, params: ModelParams, indices) -> float:
    """Accuracy of classify(H) argmax against ground truth over `indices`."""
    if len(indices) == 0:
        return 0.0
    probs = classify(_representations(dataset, params, indices), params.bind(prefix="cls"))
    labels = np.array([dataset.graphs[i].label for i in indices])
    return int((np.argmax(probs, axis=1) == labels).sum()) / len(indices)


def _batches(order: list[int], batch_size: int) -> list[list[int]]:
    """Consecutive slices; a trailing singleton is merged into the previous
    batch so pair losses over the batch are always defined."""
    chunks = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    if len(chunks) >= 2 and len(chunks[-1]) == 1:
        chunks[-2].extend(chunks.pop())
    return chunks


def _select(
    h: np.ndarray, labels: list, params: ModelParams, cfg: TrainConfig, d: float, rngs: list,
    where: str,
) -> tuple[np.ndarray, list[AugmentationOutcome]]:
    """The label-invariant selection of every row of the frozen B x h matrix `h`.

    Row b's target is `labels[b]`, or the classifier's argmax when that is
    None; one frozen `classify` scores all B rows for it. Row b then gets one
    `augment` call with rng `rngs[b]` and `cfg`'s eta, K and strategy, all
    sharing one classifier binding. Returns the B x h offsets and the B
    outcomes, in row order. An offset length eta * d that is not finite is a
    TrainingDiverged naming `where`, raised before any offset is drawn.
    """
    if not math.isfinite(cfg.eta * d):
        raise TrainingDiverged(
            f"{where}: training diverged, the offset length eta * d = {cfg.eta:g} * {d:g} "
            "is not finite"
        )
    frozen = params.bind(prefix="cls")
    probs = classify(h, frozen)
    outcomes = [
        augment(h[b : b + 1], target_class(label, probs[b]), frozen, cfg, d, rng)
        for b, (label, rng) in enumerate(zip(labels, rngs))
    ]
    return np.vstack([o.offset for o in outcomes]), outcomes


def _batch_objective(
    bound: dict,
    h_o: DiffValue,
    offsets: np.ndarray,
    onehot: np.ndarray,
    cfg: TrainConfig,
) -> tuple[DiffValue, DiffValue, DiffValue | None]:
    """The training objective of one batch: (loss, pair loss, classification loss).

    `h_o` is the batch's B x h representation on the step's tape, `offsets` the B x h
    augmentation offsets (constants: selection passes no gradient) and
    `onehot` the B x c label mask, zero rows for unlabeled graphs. The
    classification term is None when no graph of the batch is labeled.
    """
    tape = h_o.tape
    h_a = ad.add(h_o, tape.constant(offsets))
    p_o, p_a = project(h_o, bound), project(h_a, bound)
    if cfg.negative_pairs:
        l_p = ntxent_with_negatives(p_o, p_a, cfg.temperature)
    else:
        l_p = contrastive_loss(p_o, p_a)
    l_c = None
    if onehot.any():
        l_c = classification_loss(classify(h_o, bound), classify(h_a, bound), tape.constant(onehot))
    return total_loss(l_p, l_c, cfg.alpha), l_p, l_c


@np.errstate(over="ignore", invalid="ignore")  # divergence is reported as TrainingDiverged
def train_fold(dataset: GraphDataset, fold: FoldPlan, cfg: TrainConfig) -> FoldResult:
    """Train on one fold; returns the best-validation checkpoint's metrics.

    Training that leaves a parameter, an offset length or a representation
    NaN or infinite stops with a TrainingDiverged naming the fold and the
    epoch (or the rate pass); numpy's overflow warnings on the way are muted.
    """
    train = list(fold.train_indices)
    labeled = set(fold.labeled_mask)
    if cfg.negative_pairs and len(train) < 2:
        raise InputError("negative-pair training needs at least 2 training graphs")

    params = ModelParams.init(
        dataset.feature_dim,
        dataset.num_classes,
        hidden=cfg.hidden,
        proj_dim=cfg.proj_dim,
        depth=cfg.depth,
        rng=seeded_rng(cfg.seed, "init", fold.fold_index),
    )
    state = AdamState()

    best_val, best_epoch, best_params = -1.0, 0, params.copy()
    val_curve: list[float] = []
    pair_curve: list[float] = []
    cls_curve: list[float] = []
    selections: list[tuple[int, float | None]] = []  # (qualified count, chosen prob) per augment

    for epoch in range(1, cfg.epochs + 1):
        order = [train[i] for i in seeded_rng(cfg.seed, "shuffle", fold.fold_index, epoch).permutation(len(train))]

        epoch_d: float | None = None
        if cfg.dist_scope == "dataset":
            epoch_d = centroid_distance(_representations(dataset, params, train))

        pair_sum, pair_n = 0.0, 0
        cls_sum, cls_n = 0.0, 0
        where = f"fold {fold.fold_index}, epoch {epoch}"
        for batch in _batches(order, cfg.batch_size):
            tape = Tape()
            bound = params.bind(tape)
            h_o = represent(tape, _stack(dataset, batch), bound)
            h = h_o.value
            d = epoch_d if epoch_d is not None else centroid_distance(h)
            labels = [dataset.graphs[i].label if i in labeled else None for i in batch]
            rngs = [seeded_rng(cfg.seed, "aug", fold.fold_index, epoch, i) for i in batch]
            # selection is gated by the parameters entering this step
            offsets, chosen = _select(h, labels, params, cfg, d, rngs, where)
            selections += [(o.qualified_count, o.chosen_target_prob) for o in chosen]
            onehot = np.zeros((len(batch), dataset.num_classes))
            for pos, label in enumerate(labels):
                if label is not None:
                    onehot[pos, label] = 1.0

            loss, l_p, l_c = _batch_objective(bound, h_o, offsets, onehot, cfg)
            ad.backward(loss)
            grads = {name: leaf.grad for name, leaf in bound.items()}
            _adam_finite(params, grads, state, cfg.learning_rate, where)

            pair_sum += float(l_p.value[0, 0]) * len(batch)
            pair_n += len(batch)
            if l_c is not None:
                labeled_rows = int(onehot.sum())
                cls_sum += float(l_c.value[0, 0]) * labeled_rows
                cls_n += labeled_rows

        pair_curve.append(pair_sum / pair_n)
        cls_curve.append(cls_sum / cls_n if cls_n else 0.0)

        val_acc = evaluate(dataset, params, fold.valid_indices)
        val_curve.append(val_acc)
        if val_acc > best_val:
            best_val, best_epoch, best_params = val_acc, epoch, params.copy()

    test_acc = evaluate(dataset, best_params, fold.test_indices)
    rate = label_invariant_rate(best_params, dataset, fold, cfg)
    hist = np.bincount([q for q, _ in selections], minlength=cfg.num_candidates + 1)
    probs = [p for _, p in selections if p is not None]  # a fallback has no chosen prob
    return FoldResult(
        fold_index=fold.fold_index,
        best_epoch=best_epoch,
        test_accuracy=test_acc,
        validation_curve=tuple(val_curve),
        label_invariant_rate=rate,
        fallback_rate=(len(selections) - len(probs)) / len(selections),
        epoch_pair_losses=tuple(pair_curve),
        epoch_cls_losses=tuple(cls_curve),
        qualified_histogram=tuple(hist.tolist()),
        mean_chosen_prob=sum(probs) / len(probs) if probs else None,
    )


# --------------------------------------------------------- invariance rate


def _train_surrogate(
    h: np.ndarray, labels: np.ndarray, num_classes: int, rng, where: str
) -> ModelParams:
    """Fresh classifier head fit on frozen representations with full labels,
    by full-batch Adam on `classification_loss` of its single prediction.
    Every step's tape holds `h` and the one-hot mask as constants, not copies."""
    hidden = h.shape[1]
    head = ModelParams(
        {
            "cls_w1": glorot(rng, hidden, hidden),
            "cls_b1": np.zeros((1, hidden)),
            "cls_w2": glorot(rng, hidden, num_classes),
            "cls_b2": np.zeros((1, num_classes)),
        },
        depth=0,
    )
    onehot = np.eye(num_classes)[labels]
    state = AdamState()
    for _ in range(SURROGATE_STEPS):
        tape = Tape()
        bound = head.bind(tape)
        loss = classification_loss(classify(tape.constant(h), bound), None, tape.constant(onehot))
        ad.backward(loss)
        grads = {k: leaf.grad for k, leaf in bound.items()}
        _adam_finite(head, grads, state, SURROGATE_LR, where)
    return head


def label_invariant_rate(
    params: ModelParams,
    dataset: GraphDataset,
    fold: FoldPlan,
    cfg: TrainConfig,
) -> float:
    """Fraction of regenerated augmentations that keep their class under a
    surrogate classifier trained on the frozen encoder with full labels.

    Selection is still gated by the trained model's own classifier (the one
    that chose augmentations during training); the surrogate only measures,
    by one batch `classify` of the original rows and one of the augmented rows.
    """
    train = list(fold.train_indices)
    where = f"fold {fold.fold_index}, invariance rate pass"
    h = _representations(dataset, params, train)
    if not np.isfinite(h).all():
        raise TrainingDiverged(f"{where}: training diverged, a representation is not finite")
    labels = np.array([dataset.graphs[i].label for i in train])
    surrogate = _train_surrogate(
        h, labels, dataset.num_classes, seeded_rng(cfg.seed, "surrogate", fold.fold_index), where
    )

    labeled = set(fold.labeled_mask)
    known = [dataset.graphs[i].label if i in labeled else None for i in train]
    rngs = [seeded_rng(cfg.seed, "rate", fold.fold_index, i) for i in train]
    offsets, _ = _select(h, known, params, cfg, centroid_distance(h), rngs, where)
    probe = surrogate.bind()
    before = np.argmax(classify(h, probe), axis=1)
    after = np.argmax(classify(h + offsets, probe), axis=1)
    return int((before == after).sum()) / len(train)


# ----------------------------------------------------------- gradient suite


def _toy_batch_objective_check(rng_seed: int, num_nodes: int = 5) -> float | None:
    """FD error of `_batch_objective`, with and without negative pairs, on a
    toy batch of two graphs (one labeled); None near a relu kink."""
    rng = np.random.default_rng(rng_seed)
    ds = generate_synthetic(2, size_range=(num_nodes, num_nodes), seed=rng_seed)
    params = ModelParams.init(ds.feature_dim, 2, hidden=5, proj_dim=4, depth=2, rng=rng)
    for a in params.arrays.values():
        a += rng.normal(scale=0.05, size=a.shape)

    batch = _stack(ds, range(len(ds)))
    frozen = params.bind()
    h = represent(None, batch, frozen)
    label = ds.graphs[0].label  # the second graph is unlabeled: a zero row
    rngs = [seeded_rng(rng_seed, "fd", idx) for idx in range(len(ds))]
    offsets, _ = _select(h, [label, None], params, TrainConfig(), 1.0, rngs, "objective check")
    onehot = np.zeros((len(ds), 2))
    onehot[0, label] = 1.0
    # relu inputs: each encoder layer's (on the layers before it), each head's on both branches
    layers = [f"enc{layer}" for layer in range(params.depth)]
    relu_inputs = [
        layer_input(batch, encode(None, batch, {k: frozen[k] for k in layers[:at]}), frozen[name])
        for at, name in enumerate(layers)
    ]
    relu_inputs += [
        hidden_input(branch, frozen, head) for branch in (h, h + offsets) for head in ("cls", "proj")
    ]
    if min(float(np.abs(z).min()) for z in relu_inputs) <= 1e-3:
        return None

    worst = 0.0
    for cfg in (TrainConfig(), TrainConfig(negative_pairs=True)):
        for name in params.arrays:

            def f(x, _name=name, _cfg=cfg):
                tape = x.tape
                bound = {
                    k: (x if k == _name else tape.leaf(v, requires_grad=False))
                    for k, v in params.arrays.items()
                }
                h_o = represent(tape, batch, bound)
                return _batch_objective(bound, h_o, offsets, onehot, _cfg)[0]

            worst = max(worst, ad.grad_check(f, params.arrays[name]))
    return worst


def gradient_suite(size: str = "small") -> list[tuple[str, float]]:
    """(name, max relative FD error) for every engine op and the full objective.

    `full` repeats the op checks on larger shapes and more objective seeds.
    """
    if size not in ("small", "full"):
        raise InputError(f"size must be 'small' or 'full', got {size!r}")
    rng = np.random.default_rng(12345)
    n, m = (3, 4) if size == "small" else (6, 8)

    def mat(rows=n, cols=m, shift=0.0):
        return rng.normal(size=(rows, cols)) + shift

    checks: list[tuple[str, float]] = []

    def run(name, f, x):
        checks.append((name, ad.grad_check(f, x)))

    b = mat()
    mm_right = mat(m, n)  # constants must be fixed across FD evaluations
    div_den = mat(shift=4.0)
    rowvec_base = mat()
    run("matmul", lambda x: ad.sum_all(ad.matmul(x, x.tape.constant(mm_right))), mat())
    run("add", lambda x: ad.sum_all(ad.add(x, x.tape.constant(b))), mat())
    run("sub", lambda x: ad.sum_all(ad.sub(x, x.tape.constant(b))), mat())
    run("mul", lambda x: ad.sum_all(ad.mul(x, x.tape.constant(b))), mat())
    run("div", lambda x: ad.sum_all(ad.div(x, x.tape.constant(div_den))), mat())
    run("scale", lambda x: ad.sum_all(ad.scale(x, -1.7)), mat())
    run(
        "add_rowvec",
        lambda x: ad.sum_all(ad.add_rowvec(x.tape.constant(rowvec_base), x)),
        mat(1, m),
    )
    relu_x = mat()
    relu_x[np.abs(relu_x) < 1e-2] = 0.3
    run("relu", lambda x: ad.sum_all(ad.relu(x)), relu_x)
    w = mat()
    run("softmax_rows", lambda x: ad.sum_all(ad.mul(ad.softmax_rows(x), x.tape.constant(w))), mat())
    run("log", lambda x: ad.sum_all(ad.log(x)), np.abs(mat()) + 0.5)
    run("exp", lambda x: ad.sum_all(ad.exp(x)), mat())
    clamp_x = mat() * 3
    clamp_x[np.abs(np.abs(clamp_x) - 1.0) < 0.05] = 0.0
    run("clamp", lambda x: ad.sum_all(ad.clamp(x, -1.0, 1.0)), clamp_x)
    run("sum_all", lambda x: ad.sum_all(x), mat())
    wrow = mat(1, m)
    run(
        "column_sum",
        lambda x: ad.sum_all(ad.mul(ad.column_sum(x), x.tape.constant(wrow))),
        mat(),
    )
    bounds = (0, 1, n - 1, n)  # a one-row segment, a middle one and a one-row tail
    wseg = mat(3, m)
    run(
        "column_sum_segments",
        lambda x: ad.sum_all(ad.mul(ad.column_sum(x, bounds), x.tape.constant(wseg))),
        mat(),
    )
    wcol = mat(n, 1)
    run("row_sum", lambda x: ad.sum_all(ad.mul(ad.row_sum(x), x.tape.constant(wcol))), mat())
    wt = mat(m, n)
    run("transpose", lambda x: ad.sum_all(ad.mul(ad.transpose(x), x.tape.constant(wt))), mat())
    blocks = [mat(1, 1), mat(n - 1, n - 1)]
    run(
        "propagate",
        lambda x: ad.sum_all(ad.mul(ad.propagate(blocks, x), x.tape.constant(b))),
        mat(),
    )
    run("l2_norm_rows", lambda x: ad.sum_all(ad.l2_norm_rows(x)), mat())
    run("dot", lambda x: ad.dot(x, x.tape.constant(b)), mat())

    other = mat(shift=0.5)
    run("contrastive_loss", lambda x: contrastive_loss(x, x.tape.constant(other)), mat(shift=0.5))
    neg = mat(shift=0.3)
    run(
        "ntxent_with_negatives_anchors",
        lambda x: ntxent_with_negatives(x, x.tape.constant(neg), 0.5),
        mat(shift=0.3),
    )
    run(
        "ntxent_with_negatives_augmented",
        lambda x: ntxent_with_negatives(x.tape.constant(neg), x, 0.5),
        mat(shift=0.3),
    )
    y = np.zeros((n, m))
    y[0, 1] = y[n - 1, 0] = 1.0  # the rows in between are unlabeled
    ca = np.abs(mat()) + 0.1
    ca /= ca.sum(axis=1, keepdims=True)
    run(
        "classification_loss",
        lambda x: classification_loss(
            ad.softmax_rows(x), x.tape.constant(ca), x.tape.constant(y)
        ),
        mat(),
    )

    seeds = range(100) if size == "small" else range(300)
    wanted = 1 if size == "small" else 3
    found = 0
    for seed in seeds:
        err = _toy_batch_objective_check(seed)
        if err is not None:
            checks.append((f"full_objective_seed{seed}", err))
            found += 1
            if found == wanted:
                break
    if found < wanted:
        raise InvariantViolation("no kink-free toy batch found for the objective check")
    return checks


# --------------------------------------------------------------- experiment


def _run_fold_task(args) -> FoldResult:
    dataset, fold, cfg = args
    return train_fold(dataset, fold, cfg)


SET_BLAS_THREADS = "scipy_openblas_set_num_threads64_"


def _blas_function():
    """SET_BLAS_THREADS as exported by the BLAS library numpy loaded, typed
    for ctypes, or None.

    numpy's core extension links that library, and a symbol lookup through
    the extension's handle also searches the libraries it links.
    """
    try:
        from numpy._core import _multiarray_umath

        pin = getattr(ctypes.CDLL(_multiarray_umath.__file__), SET_BLAS_THREADS)
    except (ImportError, OSError, AttributeError):
        return None
    pin.argtypes, pin.restype = [ctypes.c_int], None
    return pin


def _pin_blas() -> None:
    """Pool initializer: this fold worker runs BLAS on one thread."""
    pin = _blas_function()
    if pin is not None:
        pin(1)


def _fold_pool(workers: int) -> ProcessPoolExecutor:
    """A fork pool of `workers` fold processes, each running BLAS on one
    thread, so N workers use N cores. Forked workers inherit the parent's
    state (the benchmark's tracer relies on it). Where numpy's BLAS exports no
    thread setter, the workers keep its thread count and one warning says so.
    """
    if _blas_function() is None:
        print(
            f"warning: numpy's BLAS has no {SET_BLAS_THREADS}; fold workers keep its thread count",
            file=sys.stderr,
        )
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"), initializer=_pin_blas
    )


def run_experiment(dataset: GraphDataset, cfg: TrainConfig, workers: int = 1) -> ExperimentResult:
    """Full 10-fold protocol; folds are independent, so workers > 1 shards
    them across processes without changing any result."""
    plans = [
        assign_labels(p, cfg.label_ratio, cfg.seed)
        for p in make_folds(dataset, NUM_FOLDS, cfg.seed)
    ]
    if workers > 1:
        # a fork pool starts every worker at the first submit, so open no more than there are folds
        with _fold_pool(min(workers, len(plans))) as pool:
            results = list(pool.map(_run_fold_task, [(dataset, p, cfg) for p in plans]))
    else:
        results = [train_fold(dataset, p, cfg) for p in plans]
    results.sort(key=lambda r: r.fold_index)
    accs = np.array([r.test_accuracy for r in results])
    return ExperimentResult(
        folds=tuple(results),
        mean_accuracy=float(accs.mean()),
        std_accuracy=float(accs.std(ddof=1)),
    )
