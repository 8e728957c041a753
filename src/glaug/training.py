"""Losses, Adam, the integrated semi-supervised loop, fold evaluation.

Training never has a separate pretrain phase: every step optimizes
L = L_pair + alpha * L_cls, where L_pair pulls each graph's projection toward
its augmented twin and L_cls is cross-entropy on the labeled subset, applied
to both the original and augmented predictions. Augmentation targets come
from ground truth when the graph is labeled and from the live classifier's
argmax otherwise, recomputed every step.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .augment import (
    AugmentationConfig,
    AugmentationOutcome,
    augment,
    centroid_distance,
    target_class,
)
from .autodiff import DiffValue, Tape
from .data import FoldPlan, GraphDataset, assign_labels, make_folds
from .errors import InputError, InvariantViolation
from .model import ModelParams, classify, glorot, normalize_adjacency, project, represent
from .seeding import seeded_rng

NORM_FLOOR = 1e-12
PROB_FLOOR = 1e-12
SURROGATE_STEPS = 200
SURROGATE_LR = 1e-2


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
        self.aug_config()  # validates eta/K/strategy/dist_scope

    def aug_config(self) -> AugmentationConfig:
        return AugmentationConfig(
            eta=self.eta,
            num_candidates=self.num_candidates,
            strategy=self.strategy,
            dist_scope=self.dist_scope,
        )


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
    """Negative cosine similarity of one projection pair (1 x 1).

    Norms are clamped below by 1e-12 so zero projections yield 0, not NaN.
    """
    num = ad.dot(p_o, p_a)
    den = ad.mul(ad.l2_norm_rows(p_o, NORM_FLOOR), ad.l2_norm_rows(p_a, NORM_FLOOR))
    return ad.scale(ad.div(num, den), -1.0)


def _cosine(p_o: DiffValue, p_a: DiffValue, no: DiffValue, na: DiffValue) -> DiffValue:
    return ad.div(ad.dot(p_o, p_a), ad.mul(no, na))


def ntxent_with_negatives(
    p_os: list[DiffValue], p_as: list[DiffValue], temperature: float
) -> DiffValue:
    """Temperature-scaled cross entropy where every other augmented projection
    in the batch is a negative; mean over anchors.

    Stabilized with the per-anchor detached max, which is exact for
    log-sum-exp. Anchors and negatives are cosine similarities over tau.
    """
    batch = len(p_os)
    if batch != len(p_as):
        raise InvariantViolation("projection lists of different lengths")
    if batch < 2:
        raise InputError("negative-pair loss needs a batch of at least 2")
    if temperature <= 0:
        raise InputError(f"temperature must be > 0, got {temperature}")

    norms_o = [ad.l2_norm_rows(p, NORM_FLOOR) for p in p_os]
    norms_a = [ad.l2_norm_rows(p, NORM_FLOOR) for p in p_as]
    inv_t = 1.0 / temperature

    total: DiffValue | None = None
    for i in range(batch):
        sims = [
            ad.scale(_cosine(p_os[i], p_as[j], norms_o[i], norms_a[j]), inv_t)
            for j in range(batch)
        ]
        m = max(float(s.value[0, 0]) for s in sims)  # detached constant
        tape = p_os[i].tape
        m_const = tape.constant([[m]])
        exp_sum: DiffValue | None = None
        for s in sims:
            term = ad.exp(ad.sub(s, m_const))
            exp_sum = term if exp_sum is None else ad.add(exp_sum, term)
        anchor = ad.sub(ad.add(m_const, ad.log(exp_sum)), sims[i])
        total = anchor if total is None else ad.add(total, anchor)
    return ad.scale(total, 1.0 / batch)


def classification_loss(c_o: DiffValue, c_a: DiffValue, y: DiffValue) -> DiffValue:
    """Cross-entropy of one labeled graph, summed over both predictions."""
    ce_o = ad.dot(y, ad.log(ad.clamp(c_o, PROB_FLOOR, 1.0)))
    ce_a = ad.dot(y, ad.log(ad.clamp(c_a, PROB_FLOOR, 1.0)))
    return ad.scale(ad.add(ce_o, ce_a), -1.0)


def total_loss(l_p: DiffValue, l_c: DiffValue | None, alpha: float) -> DiffValue:
    """L_pair + alpha * L_cls; a missing classification term contributes exactly 0."""
    if l_c is None:
        return l_p
    return ad.add(l_p, ad.scale(l_c, alpha))


def _mean(terms: list[DiffValue]) -> DiffValue:
    acc = terms[0]
    for t in terms[1:]:
        acc = ad.add(acc, t)
    return ad.scale(acc, 1.0 / len(terms))


# --------------------------------------------------------------------- adam


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_step(
    params: ModelParams, grads: dict[str, np.ndarray], state: AdamState, lr: float
) -> None:
    """One bias-corrected Adam update, in place on params and state."""
    state.step += 1
    t = state.step
    for name, arr in params.arrays.items():
        g = grads[name]
        if g.shape != arr.shape:
            raise InvariantViolation(f"gradient shape {g.shape} != param {arr.shape} ({name})")
        m = state.m.setdefault(name, np.zeros_like(arr))
        v = state.v.setdefault(name, np.zeros_like(arr))
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * (g * g)
        m_hat = m / (1 - state.beta1**t)
        v_hat = v / (1 - state.beta2**t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ----------------------------------------------------------------- training


def _adjacencies(dataset: GraphDataset) -> list:
    return [normalize_adjacency(g) for g in dataset.graphs]


def _representations(
    dataset: GraphDataset, adjs: list, params: ModelParams, indices
) -> np.ndarray:
    """Frozen H rows for the given graphs, stacked in index order."""
    rows = []
    for i in indices:
        t = Tape()
        bound = params.bind(t, requires_grad=False)
        rows.append(represent(t, dataset.graphs[i], adjs[i], bound).value[0])
    return np.array(rows)


def evaluate(dataset: GraphDataset, adjs: list, params: ModelParams, indices) -> float:
    """Accuracy of classify(H) argmax against ground truth over `indices`."""
    if len(indices) == 0:
        return 0.0
    hits = 0
    for i in indices:
        t = Tape()
        bound = params.bind(t, requires_grad=False)
        c = classify(represent(t, dataset.graphs[i], adjs[i], bound), bound)
        hits += int(np.argmax(c.value)) == dataset.graphs[i].label
    return hits / len(indices)


def _batches(order: list[int], batch_size: int) -> list[list[int]]:
    """Consecutive slices; a trailing singleton is merged into the previous
    batch so pair losses over the batch are always defined."""
    chunks = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    if len(chunks) >= 2 and len(chunks[-1]) == 1:
        chunks[-2].extend(chunks.pop())
    return chunks


def train_fold(dataset: GraphDataset, fold: FoldPlan, cfg: TrainConfig) -> FoldResult:
    """Train on one fold; returns the best-validation checkpoint's metrics."""
    adjs = _adjacencies(dataset)
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
    aug_cfg = cfg.aug_config()

    best_val, best_epoch, best_params = -1.0, 0, params.copy()
    val_curve: list[float] = []
    pair_curve: list[float] = []
    cls_curve: list[float] = []
    fallbacks = 0
    aug_calls = 0
    qualified_hist = [0] * (cfg.num_candidates + 1)
    chosen_prob_sum, chosen_prob_n = 0.0, 0

    for epoch in range(1, cfg.epochs + 1):
        order = [train[i] for i in seeded_rng(cfg.seed, "shuffle", fold.fold_index, epoch).permutation(len(train))]

        epoch_d: float | None = None
        if cfg.dist_scope == "dataset":
            epoch_d = centroid_distance(_representations(dataset, adjs, params, train))

        pair_sum, pair_n = 0.0, 0
        cls_sum, cls_n = 0.0, 0
        for batch in _batches(order, cfg.batch_size):
            tape = Tape()
            bound = params.bind(tape, requires_grad=True)
            h_os = [represent(tape, dataset.graphs[i], adjs[i], bound) for i in batch]

            d = epoch_d if epoch_d is not None else centroid_distance(
                np.vstack([h.value for h in h_os])
            )

            # selection is gated by the parameters entering this step
            pair_terms: list[DiffValue] = []
            cls_terms: list[DiffValue] = []
            p_os: list[DiffValue] = []
            p_as: list[DiffValue] = []
            for pos, i in enumerate(batch):
                g = dataset.graphs[i]
                h_o = h_os[pos]
                c_o = classify(h_o, bound)
                label = g.label if i in labeled else None
                target = target_class(label, c_o.value)
                outcome: AugmentationOutcome = augment(
                    h_o.value,
                    target,
                    params,
                    aug_cfg,
                    d,
                    seeded_rng(cfg.seed, "aug", fold.fold_index, epoch, i),
                )
                aug_calls += 1
                fallbacks += int(outcome.fallback)
                qualified_hist[outcome.qualified_count] += 1
                if outcome.chosen_target_prob is not None:
                    chosen_prob_sum += outcome.chosen_target_prob
                    chosen_prob_n += 1

                h_a = ad.add(h_o, tape.constant(outcome.offset))
                p_o, p_a = project(h_o, bound), project(h_a, bound)
                if cfg.negative_pairs:
                    p_os.append(p_o)
                    p_as.append(p_a)
                else:
                    pair_terms.append(contrastive_loss(p_o, p_a))
                if label is not None:
                    c_a = classify(h_a, bound)
                    onehot = np.zeros((1, dataset.num_classes))
                    onehot[0, label] = 1.0
                    cls_terms.append(classification_loss(c_o, c_a, tape.constant(onehot)))

            if cfg.negative_pairs:
                l_p = ntxent_with_negatives(p_os, p_as, cfg.temperature)
            else:
                l_p = _mean(pair_terms)
            l_c = _mean(cls_terms) if cls_terms else None
            loss = total_loss(l_p, l_c, cfg.alpha)
            ad.backward(loss)
            grads = {name: leaf.grad for name, leaf in bound.items()}
            adam_step(params, grads, state, cfg.learning_rate)

            pair_sum += float(l_p.value[0, 0]) * len(batch)
            pair_n += len(batch)
            if l_c is not None:
                cls_sum += float(l_c.value[0, 0]) * len(cls_terms)
                cls_n += len(cls_terms)

        pair_curve.append(pair_sum / pair_n)
        cls_curve.append(cls_sum / cls_n if cls_n else 0.0)

        val_acc = evaluate(dataset, adjs, params, fold.valid_indices)
        val_curve.append(val_acc)
        if val_acc > best_val:
            best_val, best_epoch, best_params = val_acc, epoch, params.copy()

    test_acc = evaluate(dataset, adjs, best_params, fold.test_indices)
    rate = label_invariant_rate(best_params, dataset, adjs, fold, cfg)
    return FoldResult(
        fold_index=fold.fold_index,
        best_epoch=best_epoch,
        test_accuracy=test_acc,
        validation_curve=tuple(val_curve),
        label_invariant_rate=rate,
        fallback_rate=fallbacks / aug_calls if aug_calls else 0.0,
        epoch_pair_losses=tuple(pair_curve),
        epoch_cls_losses=tuple(cls_curve),
        qualified_histogram=tuple(qualified_hist),
        mean_chosen_prob=chosen_prob_sum / chosen_prob_n if chosen_prob_n else None,
    )


# --------------------------------------------------------- invariance rate


def _train_surrogate(h: np.ndarray, labels: np.ndarray, num_classes: int, rng) -> ModelParams:
    """Fresh classifier head fit on frozen representations with full labels."""
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
    onehot = np.zeros((h.shape[0], num_classes))
    onehot[np.arange(h.shape[0]), labels] = 1.0
    state = AdamState()
    for _ in range(SURROGATE_STEPS):
        tape = Tape()
        bound = head.bind(tape, requires_grad=True)
        probs = classify(tape.constant(h), bound)
        ce = ad.dot(tape.constant(onehot), ad.log(ad.clamp(probs, PROB_FLOOR, 1.0)))
        loss = ad.scale(ce, -1.0 / h.shape[0])
        ad.backward(loss)
        adam_step(head, {k: leaf.grad for k, leaf in bound.items()}, state, SURROGATE_LR)
    return head


def label_invariant_rate(
    params: ModelParams,
    dataset: GraphDataset,
    adjs: list,
    fold: FoldPlan,
    cfg: TrainConfig,
) -> float:
    """Fraction of regenerated augmentations that keep their class under a
    surrogate classifier trained on the frozen encoder with full labels.

    Selection is still gated by the trained model's own classifier (the one
    that chose augmentations during training); the surrogate only measures.
    """
    from .augment import snapshot_probs  # local import keeps module load light

    train = list(fold.train_indices)
    h = _representations(dataset, adjs, params, train)
    labels = np.array([dataset.graphs[i].label for i in train])
    surrogate = _train_surrogate(
        h, labels, dataset.num_classes, seeded_rng(cfg.seed, "surrogate", fold.fold_index)
    )

    d = centroid_distance(h)
    labeled = set(fold.labeled_mask)
    aug_cfg = cfg.aug_config()
    agree = 0
    for row, i in enumerate(train):
        h_o = h[row : row + 1]
        c_o = snapshot_probs(params, h_o)
        label = dataset.graphs[i].label if i in labeled else None
        outcome = augment(
            h_o,
            target_class(label, c_o),
            params,
            aug_cfg,
            d,
            seeded_rng(cfg.seed, "rate", fold.fold_index, i),
        )
        before = int(np.argmax(snapshot_probs(surrogate, h_o)))
        after = int(np.argmax(snapshot_probs(surrogate, outcome.augmented)))
        agree += before == after
    return agree / len(train)


# ----------------------------------------------------------- gradient suite


def _toy_batch_objective_check(rng_seed: int, num_nodes: int = 5) -> float | None:
    """FD error of the full objective on a toy batch, or None near a relu kink."""
    from .data import generate_synthetic

    rng = np.random.default_rng(rng_seed)
    ds = generate_synthetic(2, size_range=(num_nodes, num_nodes), seed=rng_seed)
    graphs = list(ds.graphs)
    adjs = [normalize_adjacency(g) for g in graphs]
    params = ModelParams.init(ds.feature_dim, 2, hidden=5, proj_dim=4, depth=2, rng=rng)
    for a in params.arrays.values():
        a += rng.normal(scale=0.05, size=a.shape)

    from .augment import snapshot_probs

    t0 = Tape()
    bound0 = params.bind(t0, requires_grad=False)
    offsets = []
    margin = np.inf
    for idx, (g, adj) in enumerate(zip(graphs, adjs)):
        h = represent(t0, g, adj, bound0).value
        target = target_class(g.label if idx == 0 else None, snapshot_probs(params, h))
        out = augment(h, target, params, AugmentationConfig(), 1.0, seeded_rng(rng_seed, "fd", idx))
        offsets.append(out.offset)
        # relu margins along both branches
        arr = params.arrays
        cur = g.node_features
        a_hat = adj.to_dense()
        for layer in range(params.depth):
            z = a_hat @ cur @ arr[f"enc{layer}"]
            margin = min(margin, float(np.abs(z).min()))
            new = np.maximum(0.0, z)
            if layer > 0 and new.shape == cur.shape:
                new = new + cur
            cur = new
        pooled = np.sort(cur, axis=0).sum(axis=0, keepdims=True)
        for branch in (pooled, pooled + out.offset):
            for head in ("cls", "proj"):
                z1 = branch @ arr[f"{head}_w1"] + arr[f"{head}_b1"]
                margin = min(margin, float(np.abs(z1).min()))
    if margin <= 1e-3:
        return None

    def batch_loss(tape: Tape, bound: dict) -> DiffValue:
        pair_terms, cls_terms = [], []
        for idx, (g, adj, off) in enumerate(zip(graphs, adjs, offsets)):
            h_o = represent(tape, g, adj, bound)
            h_a = ad.add(h_o, tape.constant(off))
            pair_terms.append(contrastive_loss(project(h_o, bound), project(h_a, bound)))
            if idx == 0:
                onehot = np.zeros((1, 2))
                onehot[0, g.label] = 1.0
                cls_terms.append(
                    classification_loss(
                        classify(h_o, bound), classify(h_a, bound), tape.constant(onehot)
                    )
                )
        return total_loss(_mean(pair_terms), _mean(cls_terms), alpha=1.0)

    worst = 0.0
    for name in params.arrays:

        def f(x, _name=name):
            tape = x.tape
            bound = {
                k: (x if k == _name else tape.leaf(v, requires_grad=False))
                for k, v in params.arrays.items()
            }
            return batch_loss(tape, bound)

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
    run("l2_norm_rows", lambda x: ad.sum_all(ad.l2_norm_rows(x)), mat())
    run("dot", lambda x: ad.dot(x, x.tape.constant(b)), mat())

    other = mat(1, m, shift=0.5)
    run(
        "contrastive_loss",
        lambda x: contrastive_loss(x, x.tape.constant(other)),
        mat(1, m, shift=0.5),
    )
    neg_o = mat(2, m, shift=0.3)
    neg_a = mat(3, m, shift=0.3)
    run(
        "ntxent_with_negatives",
        lambda x: ntxent_with_negatives(
            [x] + [x.tape.constant([r]) for r in neg_o],
            [x.tape.constant([r]) for r in neg_a],
            0.5,
        ),
        mat(1, m, shift=0.3),
    )
    y = np.zeros((1, m))
    y[0, 1] = 1.0
    ca = np.abs(mat(1, m)) + 0.1
    ca /= ca.sum()
    run(
        "classification_loss",
        lambda x: classification_loss(
            ad.softmax_rows(x), x.tape.constant(ca), x.tape.constant(y)
        ),
        mat(1, m),
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


def run_experiment(dataset: GraphDataset, cfg: TrainConfig, workers: int = 1) -> ExperimentResult:
    """Full 10-fold protocol; folds are independent, so workers > 1 shards
    them across processes without changing any result."""
    plans = [
        assign_labels(p, cfg.label_ratio, cfg.seed) for p in make_folds(dataset, 10, cfg.seed)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
