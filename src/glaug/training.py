"""Losses, Adam, the integrated semi-supervised loop, fold evaluation.

Training never has a separate pretrain phase: every step optimizes
L = L_pair + alpha * L_cls, where L_pair pulls each graph's projection toward
its augmented twin and L_cls is cross-entropy on the labeled subset, applied
to both the original and augmented predictions. Augmentation targets come
from ground truth when the graph is labeled and from the live classifier's
argmax otherwise, recomputed every step. One selection pass (`_select`)
picks the augmentations of a batch of rows with one `augment` call, which
returns the offsets, qualified counts and chosen probabilities as arrays;
training, the invariance rate and the objective's gradient check all use it.

A step is one computation over its batch of B graphs: one encoder forward on
their disjoint union gives the B x h matrix H, each head runs once on H and
once on H + offsets, and every loss reduces B-row matrices. Frozen passes run
the same forward on chunks of at most FROZEN_CHUNK graphs.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import platform
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .augment import DIST_SCOPES, STRATEGIES, Selection, augment, centroid_distance
from .autodiff import DiffValue, Tape
from .data import FoldPlan, GraphDataset, assign_labels, generate_synthetic, make_folds
from .errors import InputError, InvariantViolation, TrainingDiverged
from .model import (
    GraphBatch,
    ModelParams,
    classify,
    encode,
    head_layout,
    hidden_input,
    layer_input,
    normalize_adjacency,
    project,
    represent,
)
from .seeding import seeded_rng

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
        for name in ("alpha", "eta", "learning_rate", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("hidden", "proj_dim", "depth", "epochs", "batch_size", "num_candidates"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("alpha", "eta"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name, choices in (("strategy", STRATEGIES), ("dist_scope", DIST_SCOPES)):
            if getattr(self, name) not in choices:
                raise InputError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if not 0.0 < self.label_ratio <= 1.0:
            raise InputError(f"label ratio must lie in (0, 1], got {self.label_ratio}")
        if self.learning_rate <= 0:
            raise InputError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.negative_pairs and not (self.temperature > 0 and math.isfinite(1 / self.temperature)):
            raise InputError(f"temperature must be > 0 with a finite inverse, got {self.temperature}")
        if self.negative_pairs and self.batch_size < 2:
            raise InputError(f"negative pairs need batch_size >= 2, got {self.batch_size}")


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
    folds: tuple[FoldResult, ...]  # in fold order; every reported summary is a property

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([f.test_accuracy for f in self.folds]))

    @property
    def std_accuracy(self) -> float:  # sample std, n-1 denominator
        return float(np.std([f.test_accuracy for f in self.folds], ddof=1))

    @property
    def mean_invariant_rate(self) -> float:
        return sum(f.label_invariant_rate for f in self.folds) / len(self.folds)

    @property
    def mean_fallback_rate(self) -> float:
        return sum(f.fallback_rate for f in self.folds) / len(self.folds)

    @property
    def mean_chosen_prob(self) -> float:
        probs = [f.mean_chosen_prob for f in self.folds if f.mean_chosen_prob is not None]
        return sum(probs) / len(probs) if probs else float("nan")  # every selection fell back


# ------------------------------------------------------------------- losses


def contrastive_loss(p_o: DiffValue, p_a: DiffValue) -> DiffValue:
    """Mean over rows of the negative cosine similarity of each projection pair.

    `p_o` and `p_a` are B x p; row b of each belongs to graph b. Norms are
    clamped below by autodiff.NORM_FLOOR so zero projections yield 0, not NaN.
    """
    num = ad.row_sum(ad.mul(p_o, p_a))
    den = ad.mul(ad.l2_norm_rows(p_o), ad.l2_norm_rows(p_a))
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
    norms_a = ad.transpose(ad.l2_norm_rows(p_a))
    den = ad.matmul(ad.l2_norm_rows(p_o), norms_a)  # outer product of the norms
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


# --------------------------------------------------------------------- adam


ADAM_BETA1 = 0.9  # Kingma & Ba's defaults, the same for every optimizer here
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's moments and step count. The moments m and v are two vectors
    laid out like the parameters' `flat` (`params.views` names their parts),
    made at the first step."""

    step: int = 0
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
    m, v, g, step = state.vectors
    np.concatenate([grads[name].ravel() for name in params.arrays], out=g)
    state.step += 1
    t = state.step
    m *= ADAM_BETA1
    m += np.multiply(1 - ADAM_BETA1, g, out=step)
    v *= ADAM_BETA2
    np.multiply(g, g, out=g)  # the gradient is not read again: g holds g g, then the denominator
    v += np.multiply(1 - ADAM_BETA2, g, out=g)
    denom = np.divide(v, 1 - ADAM_BETA2**t, out=g)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1 - ADAM_BETA1**t, out=step)
    np.multiply(lr, step, out=step)
    step /= denom
    params.flat -= step


def _descend(
    loss: DiffValue, bound: dict, params: ModelParams, state: AdamState, lr: float, where: str
) -> None:
    """One descent step: backward over `loss`'s tape, `adam_step` on the gradients
    of the leaves `bound` binds (both looked up at call time, so wrappers see
    them), then a TrainingDiverged naming `where` if a parameter is not finite."""
    ad.backward(loss)
    adam_step(params, {name: leaf.grad for name, leaf in bound.items()}, state, lr)
    if not np.isfinite(params.flat).all():
        raise TrainingDiverged(f"{where}: training diverged, a parameter is not finite")


# ----------------------------------------------------------------- training


def _stack(dataset: GraphDataset, indices) -> GraphBatch:
    """The disjoint union of the given graphs, adjacency built for this forward."""
    features = [dataset.rows(i) for i in indices]
    return GraphBatch.of(features, [normalize_adjacency(*dataset.graph(i)) for i in indices])


def _representations(dataset: GraphDataset, frozen: dict, indices) -> np.ndarray:
    """H rows for the given graphs under the frozen binding `frozen`, stacked in index order."""
    indices = list(indices)
    chunks = [indices[s : s + FROZEN_CHUNK] for s in range(0, len(indices), FROZEN_CHUNK)]
    return np.vstack([represent(None, _stack(dataset, chunk), frozen) for chunk in chunks])


def evaluate(dataset: GraphDataset, params: ModelParams, indices) -> float:
    """Accuracy of classify(H) argmax over the non-empty `indices`, under one frozen binding."""
    frozen = params.bind()
    probs = classify(_representations(dataset, frozen, indices), frozen)
    return int((np.argmax(probs, axis=1) == dataset.labels[list(indices)]).sum()) / len(indices)


def _batches(order: list[int], batch_size: int) -> list[list[int]]:
    """Consecutive slices; a trailing singleton is merged into the previous
    batch so pair losses over the batch are always defined."""
    chunks = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    if len(chunks) >= 2 and len(chunks[-1]) == 1:
        chunks[-2].extend(chunks.pop())
    return chunks


def _select(
    h: np.ndarray, labels: np.ndarray, known: np.ndarray, frozen: dict, cfg: TrainConfig,
    d: float, rngs: list, where: str,
) -> Selection:
    """The label-invariant selection of every row of the frozen B x h matrix `h`,
    gated by the classifier of the binding `frozen`: one `augment` call, row b
    drawing from `rngs[b]`. Row b's target is `labels[b]` where `known[b]`, else
    the argmax of one `classify` of all B rows (np.argmax resolves exact ties to
    the lowest class). An offset length eta * d that is not finite is a
    TrainingDiverged naming `where`, raised before any offset is drawn."""
    if not math.isfinite(cfg.eta * d):
        raise TrainingDiverged(
            f"{where}: training diverged, the offset length eta * d = {cfg.eta:g} * {d:g} "
            "is not finite"
        )
    targets = np.where(known, labels, np.argmax(classify(h, frozen), axis=1))
    return augment(h, targets, frozen, cfg, d, rngs)


def _batch_objective(
    bound: dict,
    h_o: DiffValue,
    offsets: np.ndarray,
    onehot: np.ndarray,
    cfg: TrainConfig,
) -> tuple[DiffValue, DiffValue, DiffValue | None]:
    """The training objective of one batch: (L_pair + alpha * L_cls, L_pair, L_cls).

    `h_o` is the batch's B x h representation on the step's tape, `offsets` the B x h
    augmentation offsets (constants: selection passes no gradient) and
    `onehot` the B x c label mask, zero rows for unlabeled graphs. The
    classification term is None, and the loss the pair loss itself, when no
    graph of the batch is labeled."""
    tape = h_o.tape
    h_a = ad.add(h_o, tape.constant(offsets))
    p_o, p_a = project(h_o, bound), project(h_a, bound)
    if cfg.negative_pairs:
        l_p = ntxent_with_negatives(p_o, p_a, cfg.temperature)
    else:
        l_p = contrastive_loss(p_o, p_a)
    if not onehot.any():
        return l_p, l_p, None
    l_c = classification_loss(classify(h_o, bound), classify(h_a, bound), tape.constant(onehot))
    return ad.add(l_p, ad.scale(l_c, cfg.alpha)), l_p, l_c


def _keep_freed_heap() -> None:
    """Under glibc, fix malloc's thresholds where they would climb to, so a step's freed activations
    stay mapped for the next. Process-wide and permanent: glibc has no getter to restore them by."""
    if sys.platform == "linux" and platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD at glibc's 64-bit ceiling, mallopt(3)
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, which glibc keeps at twice it


@np.errstate(over="ignore", invalid="ignore")  # divergence is reported as TrainingDiverged
def train_fold(dataset: GraphDataset, fold: FoldPlan, cfg: TrainConfig) -> FoldResult:
    """Train on one fold; returns the best-validation checkpoint's metrics.

    Training that leaves a parameter, an offset length or a representation
    NaN or infinite stops with a TrainingDiverged naming the fold and the
    epoch (or the rate pass); numpy's overflow warnings on the way are muted.
    """
    _keep_freed_heap()
    train = list(fold.train_indices)
    labeled = np.isin(np.arange(len(dataset)), fold.labeled_mask)  # per graph of the data set
    labeled_train = int(labeled[train].sum())  # the labeled rows of an epoch's batches

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
    selections: list[tuple[np.ndarray, np.ndarray]] = []  # (counts, chosen probs) per pass

    for epoch in range(1, cfg.epochs + 1):
        order = [train[i] for i in seeded_rng(cfg.seed, "shuffle", fold.fold_index, epoch).permutation(len(train))]

        epoch_d: float | None = None
        if cfg.dist_scope == "dataset":
            epoch_d = centroid_distance(_representations(dataset, params.bind(), train))

        pair_sum = cls_sum = 0.0
        where = f"fold {fold.fold_index}, epoch {epoch}"
        for batch in _batches(order, cfg.batch_size):
            tape = Tape()
            bound = params.bind(tape)
            h_o = represent(tape, _stack(dataset, batch), bound)
            h = h_o.value
            d = epoch_d if epoch_d is not None else centroid_distance(h)
            labels, known = dataset.labels[batch], labeled[batch]
            rngs = [seeded_rng(cfg.seed, "aug", fold.fold_index, epoch, i) for i in batch]
            # selection is gated by the parameters entering this step: the leaves' checked copies
            selection = _select(h, labels, known, {k: v.value for k, v in bound.items()}, cfg, d, rngs, where)
            selections.append((selection.counts, selection.chosen))
            onehot = np.zeros((len(batch), dataset.num_classes))
            onehot[known, labels[known]] = 1.0

            loss, l_p, l_c = _batch_objective(bound, h_o, selection.offsets, onehot, cfg)
            _descend(loss, bound, params, state, cfg.learning_rate, where)

            pair_sum += float(l_p.value[0, 0]) * len(batch)
            if l_c is not None:
                cls_sum += float(l_c.value[0, 0]) * int(onehot.sum())

        pair_curve.append(pair_sum / len(train))
        cls_curve.append(cls_sum / labeled_train if labeled_train else 0.0)

        val_acc = evaluate(dataset, params, fold.valid_indices)
        val_curve.append(val_acc)
        if val_acc > best_val:
            best_val, best_epoch, best_params = val_acc, epoch, params.copy()

    test_acc = evaluate(dataset, best_params, fold.test_indices)
    rate = label_invariant_rate(best_params, dataset, fold, cfg)
    qualified, chosen = (np.concatenate(arrays) for arrays in zip(*selections))
    hist = np.bincount(qualified, minlength=cfg.num_candidates + 1)
    probs = chosen[qualified > 0].tolist()  # a fallback has no chosen prob
    return FoldResult(
        fold_index=fold.fold_index,
        best_epoch=best_epoch,
        test_accuracy=test_acc,
        validation_curve=tuple(val_curve),
        label_invariant_rate=rate,
        fallback_rate=(len(qualified) - len(probs)) / len(qualified),
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
    head = ModelParams.drawn(head_layout("cls", h.shape[1], num_classes), rng)
    onehot = np.eye(num_classes)[labels]
    state = AdamState()
    for _ in range(SURROGATE_STEPS):
        tape = Tape()
        bound = head.bind(tape)
        loss = classification_loss(classify(tape.constant(h), bound), None, tape.constant(onehot))
        _descend(loss, bound, head, state, SURROGATE_LR, where)
    return head


def label_invariant_rate(
    params: ModelParams,
    dataset: GraphDataset,
    fold: FoldPlan,
    cfg: TrainConfig,
) -> float:
    """Fraction of regenerated augmentations that keep their class under a
    surrogate classifier trained on the frozen encoder with full labels.

    One frozen binding of `params` gives the representations, and its classifier (the one
    that chose augmentations in training) still gates selection. The surrogate only
    measures, by one batch `classify` of the original rows and one of the augmented rows.
    """
    train = list(fold.train_indices)
    where = f"fold {fold.fold_index}, invariance rate pass"
    frozen = params.bind()
    h = _representations(dataset, frozen, train)
    if not np.isfinite(h).all():
        raise TrainingDiverged(f"{where}: training diverged, a representation is not finite")
    labels = dataset.labels[train]
    surrogate = _train_surrogate(
        h, labels, dataset.num_classes, seeded_rng(cfg.seed, "surrogate", fold.fold_index), where
    )

    known = np.isin(train, fold.labeled_mask)
    rngs = [seeded_rng(cfg.seed, "rate", fold.fold_index, i) for i in train]
    offsets = _select(h, labels, known, frozen, cfg, centroid_distance(h), rngs, where).offsets
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
    known = np.array([True, False])  # the second graph is unlabeled: a zero row
    rngs = [seeded_rng(rng_seed, "fd", idx) for idx in range(len(ds))]
    offsets = _select(h, ds.labels, known, frozen, TrainConfig(), 1.0, rngs, "objective check").offsets
    onehot = np.zeros((len(ds), 2))
    onehot[0, ds.labels[0]] = 1.0
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
                bound = {k: tape.constant(v) for k, v in params.arrays.items()}
                bound[_name] = x
                h_o = represent(tape, batch, bound)
                return _batch_objective(bound, h_o, offsets, onehot, _cfg)[0]

            worst = max(worst, ad.grad_check(f, params.arrays[name]))
    return worst


def gradient_suite(size: str) -> list[tuple[str, float]]:
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

    def weighted(v, w):  # sum(v * w) for a fixed w: a scalar that reads every entry of v
        return ad.sum_all(ad.mul(v, v.tape.constant(w)))

    b = mat()
    mm_right = mat(m, n)  # constants must be fixed across FD evaluations
    div_den = mat(shift=4.0)
    base = mat()
    run("matmul", lambda x: ad.sum_all(ad.matmul(x, x.tape.constant(mm_right))), mat())
    run("add", lambda x: ad.sum_all(ad.add(x, x.tape.constant(b))), mat())
    run("sub", lambda x: ad.sum_all(ad.sub(x, x.tape.constant(b))), mat())
    run("mul", lambda x: ad.sum_all(ad.mul(x, x.tape.constant(b))), mat())
    run("div", lambda x: ad.sum_all(ad.div(x, x.tape.constant(div_den))), mat())
    run("scale", lambda x: ad.sum_all(ad.scale(x, -1.7)), mat())
    run("add_rowvec", lambda x: ad.sum_all(ad.add_rowvec(x.tape.constant(base), x)), mat(1, m))
    relu_x = mat()
    relu_x[np.abs(relu_x) < 1e-2] = 0.3
    run("relu", lambda x: ad.sum_all(ad.relu(x)), relu_x)
    w = mat()
    run("softmax_rows", lambda x: weighted(ad.softmax_rows(x), w), mat())
    run("log", lambda x: ad.sum_all(ad.log(x)), np.abs(mat()) + 0.5)
    run("exp", lambda x: ad.sum_all(ad.exp(x)), mat())
    clamp_x = mat() * 3
    clamp_x[np.abs(np.abs(clamp_x) - 1.0) < 0.05] = 0.0
    run("clamp", lambda x: ad.sum_all(ad.clamp(x, -1.0, 1.0)), clamp_x)
    run("sum_all", lambda x: ad.sum_all(x), mat())
    wrow = mat(1, m)
    run("column_sum", lambda x: weighted(ad.column_sum(x), wrow), mat())
    bounds = (0, 1, n - 1, n)  # a one-row segment, a middle one and a one-row tail
    wseg = mat(3, m)
    run("column_sum_segments", lambda x: weighted(ad.column_sum(x, bounds), wseg), mat())
    wcol = mat(n, 1)
    run("row_sum", lambda x: weighted(ad.row_sum(x), wcol), mat())
    wt = mat(m, n)
    run("transpose", lambda x: weighted(ad.transpose(x), wt), mat())
    blocks = [mat(1, 1), mat(n - 1, n - 1)]
    run("propagate", lambda x: weighted(ad.propagate(blocks, x), b), mat())
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


def _blas_threads():
    """The (get, put) thread-count functions exported by the BLAS library
    numpy loaded, typed for ctypes, or None where it exports neither.

    numpy's core extension links that library, and a symbol lookup through
    the extension's handle also searches the libraries it links.
    """
    try:
        from numpy._core import _multiarray_umath

        blas = ctypes.CDLL(_multiarray_umath.__file__)
        get, put = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextmanager
def _one_blas_thread():
    """BLAS on one thread while the block runs, and the caller's count
    restored after. Fold workers forked inside the block inherit the count,
    so N workers use N cores and every fold gets the same bits whatever the
    caller's count. Where numpy's BLAS has no thread functions, the count
    stays as it is and one warning says so."""
    functions = _blas_threads()
    if functions is None:
        print("warning: numpy's BLAS exports no scipy_openblas thread functions; "
              "folds keep its thread count", file=sys.stderr)
        yield
        return
    get, put = functions
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _end_with_parent(parent: int) -> None:
    """Fold pool initializer: on Linux the kernel kills this worker when its
    parent ends, and a parent gone before this call is caught by its pid."""
    if sys.platform == "linux":
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG, prctl(2)
        if os.getppid() != parent:
            os._exit(1)


# run_experiment's data set: fold workers fork holding it, so only plans and configs cross
_fold_dataset: GraphDataset | None = None


def _train_task(fold: FoldPlan, cfg: TrainConfig) -> FoldResult:
    return train_fold(_fold_dataset, fold, cfg)


def run_experiment(dataset: GraphDataset, cfgs, workers: int = 1) -> list[ExperimentResult]:
    """The 10-fold protocol of each config, in config and fold order. All the
    folds run on one BLAS thread: in-process, or with `workers` > 1 through one
    fork pool, shut down with `_fold_dataset` cleared however the run ends."""
    global _fold_dataset
    tasks = [(assign_labels(p, cfg.label_ratio, cfg.seed), cfg)
             for cfg in cfgs for p in make_folds(dataset, NUM_FOLDS, cfg.seed)]
    _fold_dataset = dataset
    try:
        # a fork pool starts every worker at the first submit, so open no more than there are folds
        pool = ProcessPoolExecutor(
            min(workers, len(tasks)), mp_context=multiprocessing.get_context("fork"),
            initializer=_end_with_parent, initargs=(os.getpid(),)) if workers > 1 else None
        with _one_blas_thread(), pool or nullcontext():
            folds = list((pool.map if pool else map)(_train_task, *zip(*tasks)))  # in submission order
    finally:
        _fold_dataset = None
    return [ExperimentResult(tuple(folds[i:i + NUM_FOLDS])) for i in range(0, len(folds), NUM_FOLDS)]
