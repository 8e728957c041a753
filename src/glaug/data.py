"""Graph collections: TUDataset-format parsing, node features, splits.

A graph is stored with canonical unordered edge pairs (u < v, no duplicates,
no self-loops); the symmetric adjacency is reconstructed where needed. Raw
class labels are remapped to contiguous 0-based indices in sorted raw-label
order so class ids are stable across runs.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError, InputError
from .seeding import seeded_rng

log = logging.getLogger("glaug.data")


@dataclass(frozen=True, eq=False)
class GraphInstance:
    node_count: int
    edges: tuple[tuple[int, int], ...]  # canonical: u < v, sorted, unique
    node_features: np.ndarray  # node_count x feature_dim
    label: int | None
    node_labels: tuple[int, ...] | None = None  # raw values from the file

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.node_count, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True, eq=False)
class GraphDataset:
    name: str
    graphs: tuple[GraphInstance, ...]
    num_classes: int
    feature_dim: int

    def __len__(self) -> int:
        return len(self.graphs)


@dataclass(frozen=True)
class FoldPlan:
    fold_index: int
    test_indices: tuple[int, ...]
    valid_indices: tuple[int, ...]
    train_indices: tuple[int, ...]
    labeled_mask: tuple[int, ...] = ()  # subset of train_indices


@dataclass(frozen=True)
class FeaturePolicy:
    """How node-feature rows are derived from graph structure.

    kind is one of one_hot_node_labels, degree_one_hot, constant_one;
    degree_cap only applies to degree_one_hot (dim = cap + 1, degrees at or
    above the cap share the last slot).
    """

    kind: str
    degree_cap: int = 10

    KINDS = ("one_hot_node_labels", "degree_one_hot", "constant_one")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InputError(f"unknown feature policy {self.kind!r}")
        if self.kind == "degree_one_hot" and self.degree_cap < 1:
            raise InputError("degree_cap must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "FeaturePolicy":
        """Parse CLI spellings: 'one_hot_node_labels', 'degree_one_hot:10', 'constant_one'."""
        if ":" in text:
            kind, _, arg = text.partition(":")
            try:
                cap = int(arg)
            except ValueError:
                raise InputError(f"bad feature policy argument {arg!r}") from None
            return cls(kind, cap)
        return cls(text)

    def spelled(self) -> str:
        if self.kind == "degree_one_hot":
            return f"{self.kind}:{self.degree_cap}"
        return self.kind


def default_policy(has_node_labels: bool) -> FeaturePolicy:
    if has_node_labels:
        return FeaturePolicy("one_hot_node_labels")
    return FeaturePolicy("degree_one_hot", 10)


# ------------------------------------------------------------------ parsing


def _read_int_lines(path: Path, fields: int):
    """Yield (lineno, tuple_of_ints); blank lines are skipped."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != fields:
                raise DatasetFormatError(
                    path, lineno, f"expected {fields} comma-separated fields, got {len(parts)}"
                )
            try:
                values = tuple(int(p) for p in parts)
            except ValueError:
                raise DatasetFormatError(path, lineno, f"not an integer record: {line!r}") from None
            yield lineno, values


def parse_tudataset(directory, name: str, policy: FeaturePolicy | None = None) -> GraphDataset:
    """Load `<name>_*.txt` files from `directory` into a GraphDataset.

    Node features are built once, under `policy`, or when it is None under
    the default policy (one-hot over node labels when
    `<name>_node_labels.txt` exists, degree one-hot otherwise).
    """
    directory = Path(directory)
    paths = {
        key: directory / f"{name}_{key}.txt"
        for key in ("A", "graph_indicator", "graph_labels", "node_labels")
    }
    for key in ("A", "graph_indicator", "graph_labels"):
        if not paths[key].is_file():
            raise InputError(f"missing mandatory dataset file: {paths[key]}")

    # graph_indicator: 1-based graph id per node, non-decreasing, no gaps
    node_graph: list[int] = []
    for lineno, (gid,) in _read_int_lines(paths["graph_indicator"], 1):
        if not node_graph:
            if gid != 1:
                raise DatasetFormatError(
                    paths["graph_indicator"], lineno, f"graph ids must start at 1, got {gid}"
                )
        else:
            prev = node_graph[-1]
            if gid < prev or gid > prev + 1:
                raise DatasetFormatError(
                    paths["graph_indicator"],
                    lineno,
                    f"graph ids must be non-decreasing without gaps (got {gid} after {prev})",
                )
        node_graph.append(gid)
    if not node_graph:
        raise DatasetFormatError(paths["graph_indicator"], 1, "no nodes declared")

    num_graphs = node_graph[-1]
    total_nodes = len(node_graph)
    node_graph_arr = np.asarray(node_graph)
    counts = np.bincount(node_graph_arr)[1:].tolist()
    first_node = np.concatenate([[0], np.cumsum(counts)[:-1]])  # global base per graph

    raw_labels: list[int] = []
    for _, (lab,) in _read_int_lines(paths["graph_labels"], 1):
        raw_labels.append(lab)
    if len(raw_labels) != num_graphs:
        raise DatasetFormatError(
            paths["graph_labels"],
            len(raw_labels) + 1,
            f"expected {num_graphs} labels, found {len(raw_labels)}",
        )

    node_labels: list[int] | None = None
    if paths["node_labels"].is_file():
        node_labels = []
        for _, (lab,) in _read_int_lines(paths["node_labels"], 1):
            node_labels.append(lab)
        if len(node_labels) != total_nodes:
            raise DatasetFormatError(
                paths["node_labels"],
                len(node_labels) + 1,
                f"expected {total_nodes} node labels, found {len(node_labels)}",
            )

    edge_sets: list[set[tuple[int, int]]] = [set() for _ in range(num_graphs)]
    seen_directed: set[tuple[int, int]] = set()
    dup_count = 0
    loop_count = 0
    for lineno, (u, v) in _read_int_lines(paths["A"], 2):
        for endpoint in (u, v):
            if not (1 <= endpoint <= total_nodes):
                raise DatasetFormatError(
                    paths["A"], lineno, f"edge references unknown node {endpoint}"
                )
        gu, gv = node_graph[u - 1], node_graph[v - 1]
        if gu != gv:
            raise DatasetFormatError(
                paths["A"], lineno, f"edge ({u}, {v}) spans graphs {gu} and {gv}"
            )
        if u == v:
            loop_count += 1
            continue
        if (u, v) in seen_directed:  # same ordered pair again; reverse listing is normal
            dup_count += 1
            continue
        seen_directed.add((u, v))
        g = gu - 1
        base = int(first_node[g])
        lu, lv = u - 1 - base, v - 1 - base
        edge_sets[g].add((min(lu, lv), max(lu, lv)))

    if loop_count:
        log.warning("%s: dropped %d self-loop edge(s)", paths["A"].name, loop_count)
    if dup_count:
        log.warning("%s: dropped %d duplicate edge(s)", paths["A"].name, dup_count)

    distinct = sorted(set(raw_labels))
    class_of = {raw: i for i, raw in enumerate(distinct)}

    graphs = []
    for g in range(num_graphs):
        n = counts[g]
        base = int(first_node[g])
        nl = tuple(node_labels[base : base + n]) if node_labels is not None else None
        graphs.append(
            GraphInstance(
                node_count=n,
                edges=tuple(sorted(edge_sets[g])),
                node_features=np.zeros((n, 0)),  # filled below
                label=class_of[raw_labels[g]],
                node_labels=nl,
            )
        )

    ds = GraphDataset(name=name, graphs=tuple(graphs), num_classes=len(distinct), feature_dim=0)
    return build_node_features(ds, policy or default_policy(node_labels is not None))


# ----------------------------------------------------------------- features


def build_node_features(dataset: GraphDataset, policy: FeaturePolicy) -> GraphDataset:
    """Rebuild every graph's feature matrix under `policy`."""
    if policy.kind == "one_hot_node_labels":
        if any(g.node_labels is None for g in dataset.graphs):
            raise InputError("one_hot_node_labels requires a node-label file")
        values = sorted({lab for g in dataset.graphs for lab in g.node_labels})
        index = {lab: i for i, lab in enumerate(values)}
        dim = len(values)

        def features(g: GraphInstance) -> np.ndarray:
            x = np.zeros((g.node_count, dim))
            for row, lab in enumerate(g.node_labels):
                x[row, index[lab]] = 1.0
            return x

    elif policy.kind == "degree_one_hot":
        dim = policy.degree_cap + 1

        def features(g: GraphInstance) -> np.ndarray:
            x = np.zeros((g.node_count, dim))
            for row, deg in enumerate(g.degrees()):
                x[row, min(int(deg), policy.degree_cap)] = 1.0
            return x

    else:  # constant_one
        dim = 1

        def features(g: GraphInstance) -> np.ndarray:
            return np.ones((g.node_count, 1))

    graphs = tuple(replace(g, node_features=features(g)) for g in dataset.graphs)
    return replace(dataset, graphs=graphs, feature_dim=dim)


# ---------------------------------------------------------------- synthetic


def generate_synthetic(
    num_graphs: int,
    classes: int = 2,
    size_range: tuple[int, int] = (8, 12),
    edge_density_per_class: tuple[float, ...] = (0.1, 0.9),
    seed: int = 0,
    name: str = "SYNTH",
) -> GraphDataset:
    """Erdos-Renyi-style fixture: class k draws edges at density[k].

    Classes are assigned round-robin so counts stay balanced. Node labels are
    drawn from {1, 2, 3} so the one-hot feature path gets exercised too.
    """
    if classes < 2:
        raise InputError("classes must be >= 2")
    if len(edge_density_per_class) != classes:
        raise InputError("need one edge density per class")
    if any(not (0.0 <= d <= 1.0) for d in edge_density_per_class):
        raise InputError("edge densities must lie in [0, 1]")
    lo, hi = size_range
    if lo < 1 or hi < lo:
        raise InputError(f"bad size_range {size_range}")

    graphs = []
    for j in range(num_graphs):
        rng = seeded_rng(seed, "synth", j)
        k = j % classes
        n = int(rng.integers(lo, hi + 1))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < edge_density_per_class[k]
        ]
        node_labels = tuple(int(x) for x in rng.integers(1, 4, size=n))
        graphs.append(
            GraphInstance(
                node_count=n,
                edges=tuple(edges),
                node_features=np.zeros((n, 0)),
                label=k,
                node_labels=node_labels,
            )
        )
    ds = GraphDataset(name=name, graphs=tuple(graphs), num_classes=classes, feature_dim=0)
    return build_node_features(ds, default_policy(True))


def write_tudataset(dataset: GraphDataset, directory, name: str | None = None) -> Path:
    """Emit the four-file TUDataset layout parse_tudataset reads.

    Each undirected edge is written in both directions, global 1-based ids.
    Output is byte-deterministic for a given dataset.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = name or dataset.name

    a_lines, ind_lines, lab_lines, nl_lines = [], [], [], []
    base = 0
    for gid, g in enumerate(dataset.graphs, start=1):
        ind_lines.extend([str(gid)] * g.node_count)
        lab_lines.append(str(g.label))
        if g.node_labels is not None:
            nl_lines.extend(str(x) for x in g.node_labels)
        for u, v in g.edges:
            gu, gv = base + u + 1, base + v + 1
            a_lines.append(f"{gu}, {gv}")
            a_lines.append(f"{gv}, {gu}")
        base += g.node_count

    def dump(suffix: str, lines: list[str]) -> None:
        (directory / f"{name}_{suffix}.txt").write_text("\n".join(lines) + "\n", encoding="ascii")

    dump("A", a_lines)
    dump("graph_indicator", ind_lines)
    dump("graph_labels", lab_lines)
    if len(nl_lines) == sum(g.node_count for g in dataset.graphs):
        dump("node_labels", nl_lines)
    return directory


# -------------------------------------------------------------------- folds


def make_folds(dataset: GraphDataset, k: int = 10, seed: int = 0) -> list[FoldPlan]:
    """One global shuffle, then fold i: test = part i, valid = part i+1 (mod k)."""
    n = len(dataset)
    if n < k:
        raise InputError(f"dataset of {n} graphs cannot be split into {k} folds")
    perm = seeded_rng(seed, "folds").permutation(n)
    parts = [tuple(int(i) for i in p) for p in np.array_split(perm, k)]
    plans = []
    for fold in range(k):
        test = parts[fold]
        valid = parts[(fold + 1) % k]
        train = tuple(
            i for j, part in enumerate(parts) if j not in (fold, (fold + 1) % k) for i in part
        )
        plans.append(FoldPlan(fold, test, valid, train))
    return plans


def assign_labels(plan: FoldPlan, ratio: float, seed: int) -> FoldPlan:
    """Mark round(ratio * |train|) training graphs as labeled, uniformly."""
    if not (0.0 < ratio <= 1.0):
        raise InputError(f"label ratio must lie in (0, 1], got {ratio}")
    count = int(np.floor(ratio * len(plan.train_indices) + 0.5))
    rng = seeded_rng(seed, "labels", plan.fold_index)
    chosen = rng.choice(len(plan.train_indices), size=count, replace=False)
    mask = tuple(sorted(plan.train_indices[i] for i in chosen))
    return replace(plan, labeled_mask=mask)


# ------------------------------------------------------------------ summary


def dataset_stats(dataset: GraphDataset) -> dict:
    nodes = [g.node_count for g in dataset.graphs]
    edges = [len(g.edges) for g in dataset.graphs]
    return {
        "name": dataset.name,
        "num_graphs": len(dataset),
        "num_classes": dataset.num_classes,
        "feature_dim": dataset.feature_dim,
        "mean_nodes": float(np.mean(nodes)) if nodes else 0.0,
        "mean_edges": float(np.mean(edges)) if edges else 0.0,
    }


def dataset_fingerprint(dataset: GraphDataset) -> str:
    """SHA-256 over the full structure and features; pins runs to their input."""
    h = hashlib.sha256()
    h.update(f"classes={dataset.num_classes};dim={dataset.feature_dim}".encode())
    for g in dataset.graphs:
        h.update(f"|n={g.node_count};y={g.label};e={g.edges}".encode())
        if g.node_labels is not None:
            h.update(f";nl={g.node_labels}".encode())
        h.update(np.ascontiguousarray(g.node_features).tobytes())
    return h.hexdigest()
