"""Graph collections: TUDataset-format parsing, node features, splits.

A graph holds arrays only. Its edges are an E x 2 intp array of canonical
unordered pairs (u < v, sorted, no duplicates, no self-loops); the symmetric
adjacency is reconstructed where needed. Its node labels, when the data set
has them, are an int64 array of the raw values. Its node features are its
rows of one N x dim matrix built for the whole data set. The parser's graphs
are views into its bulk arrays. Raw class labels are remapped to contiguous
0-based indices in sorted raw-label order so class ids are stable across
runs. The fingerprint hashes edges and node labels in their tuple text, so
it reads the same as when graphs stored tuples.
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
_UNSET = np.zeros((0, 0))  # every graph's features until build_node_features fills them


@dataclass(frozen=True, eq=False)
class GraphInstance:
    node_count: int
    edges: np.ndarray  # E x 2 intp, canonical: u < v, sorted, unique
    node_features: np.ndarray  # node_count x feature_dim
    label: int | None
    node_labels: np.ndarray | None = None  # int64 raw values from the file

    def __post_init__(self):
        """Store array-likes (tuples of pairs, lists) as the arrays above."""
        object.__setattr__(self, "edges", np.asarray(self.edges, np.intp).reshape(-1, 2))
        if self.node_labels is not None:
            object.__setattr__(self, "node_labels", np.asarray(self.node_labels, np.int64))

    def degrees(self) -> np.ndarray:
        """Edges incident to each node, as a length node_count integer array."""
        return np.bincount(self.edges.ravel(), minlength=self.node_count)


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
            if kind in cls.KINDS and kind != "degree_one_hot":
                raise InputError(f"feature policy {kind!r} takes no argument, got {text!r}")
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
#
# The record grammar is what Python's text-mode reader and int() accept:
# lines end at \n, \r\n or a lone \r; a line is stripped of ASCII
# whitespace (space, \t, \x0b, \x0c, \r, \x1c-\x1f) and skipped when nothing
# is left; the rest is comma-separated fields, each stripped and each an
# integer: [+-]?digits, single underscores allowed between digits. Every
# value must fit int64. Each file is decoded by array operations, with no
# loop over its lines.

# Byte classes. Every class from _DIGIT up belongs to a token, and every class
# from _SIGN up is rare in a well-formed file. A \r is whitespace, or a line
# end where no \n follows it.
_SPACE, _NEWLINE, _COMMA, _DIGIT, _SIGN, _UNDERSCORE, _OTHER, _HIGH = range(8)
_BYTE_CLASS = np.full(256, _OTHER, np.uint8)
_BYTE_CLASS[128:] = _HIGH
_BYTE_CLASS[list(b" \t\r\x0b\x0c\x1c\x1d\x1e\x1f")] = _SPACE
_BYTE_CLASS[list(b"0123456789")] = _DIGIT
_BYTE_CLASS[list(b"+-")] = _SIGN
_BYTE_CLASS[[ord("\n"), ord(","), ord("_")]] = [_NEWLINE, _COMMA, _UNDERSCORE]
_BYTE_CLASS.flags.writeable = False
_INT64_MAGNITUDE = np.uint64(2**63)


@dataclass(frozen=True)
class _Records:
    """The records of one file that precede its first malformed line."""

    path: Path
    values: np.ndarray  # records x fields, int64
    lines: np.ndarray  # 1-based line number of each record
    error: DatasetFormatError | None  # the first malformed line, if any

    def raise_first(self, bad: np.ndarray | None = None, message=None) -> None:
        """Raise for the first record flagged in `bad`, with text message(row);
        else for the first malformed line. Records all precede that line, so
        either way the error raised is the first in file order."""
        if bad is not None and bad.any():
            row = int(np.argmax(bad))
            raise DatasetFormatError(self.path, int(self.lines[row]), message(row))
        if self.error is not None:
            raise self.error


def _read_records(path: Path, fields: int) -> _Records:
    """Decode one file of `fields`-integer records with array operations.

    Temporaries the size of the file are deleted once spent: the A file is
    most of a data set's bytes, so its decoding sets the parser's peak memory."""
    raw = path.read_bytes()
    buf = np.frombuffer(raw, np.uint8)
    cls = _BYTE_CLASS[buf]
    cr = np.flatnonzero(buf == ord("\r"))
    cls[cr[buf[np.minimum(cr + 1, len(buf) - 1)] != ord("\n")]] = _NEWLINE

    # a field ends at each comma and line end; a last line may end at EOF
    seps = np.flatnonzero((cls == _NEWLINE) | (cls == _COMMA))
    at_end = cls[seps] == _NEWLINE
    if len(buf) and cls[-1] != _NEWLINE:
        seps = np.append(seps, len(buf))
        at_end = np.append(at_end, True)
    ends = seps[at_end]
    last_field = np.flatnonzero(at_end)  # of each line
    fields_per_line = np.diff(last_field, prepend=-1)

    # tokens: maximal runs of bytes that are neither whitespace, comma nor line end
    token = np.zeros(len(buf) + 2, bool)
    np.greater_equal(cls, _DIGIT, out=token[1:-1])
    starts = np.flatnonzero(token[1:] > token[:-1])
    stops = np.flatnonzero(token[1:] < token[:-1])
    del token
    tokens_per_field = np.bincount(np.searchsorted(seps, starts), minlength=len(seps))
    tokens_per_line = np.diff(np.cumsum(tokens_per_field)[last_field], prepend=0)
    blank = (fields_per_line == 1) & (tokens_per_line == 0)  # nothing left after stripping
    odd_field_lines = np.searchsorted(ends, seps[tokens_per_field != 1])
    del seps, tokens_per_field

    # bytes int() rejects: any other character, a sign that does not open a
    # token or is not followed by a digit, an underscore not between digits
    rare = np.flatnonzero(cls >= _SIGN)
    kind = cls[rare]
    before = np.where(rare > 0, cls[rare - 1], _SPACE)
    after = np.where(rare + 1 < len(buf), cls[np.minimum(rare + 1, len(buf) - 1)], _SPACE)
    del cls
    allowed = ((kind == _SIGN) & (before < _DIGIT) & (after == _DIGIT)) | (
        (kind == _UNDERSCORE) & (before == _DIGIT) & (after == _DIGIT)
    )
    not_ascii = np.zeros(len(ends), bool)
    not_ascii[np.searchsorted(ends, rare[kind == _HIGH])] = True
    not_int = np.zeros(len(ends), bool)
    not_int[np.searchsorted(ends, rare[~allowed])] = True
    not_int[odd_field_lines] = True
    wrong_count = fields_per_line != fields
    malformed = ~blank & (not_ascii | wrong_count | not_int)

    bad_line = int(np.argmax(malformed)) if malformed.any() else len(ends)
    record_lines = np.flatnonzero(~blank[:bad_line])
    count = len(record_lines) * fields  # the first tokens, one per field of each record
    values, outside = _token_values(buf, starts[:count], stops[:count])
    values = values.reshape(-1, fields)
    overflow = outside.any()
    if overflow:
        row = int(np.argmax(outside)) // fields
        bad_line, values, record_lines = int(record_lines[row]), values[:row], record_lines[:row]
    error = None
    if bad_line < len(ends):  # per-line text only for the one message
        start = int(ends[bad_line - 1]) + 1 if bad_line else 0
        line = raw[start : int(ends[bad_line])].decode("ascii", "surrogateescape").strip()
        if overflow:
            message = f"integer outside the int64 range: {line!r}"
        elif not_ascii[bad_line]:
            message = f"not ASCII text: {line!r}"
        elif wrong_count[bad_line]:
            message = f"expected {fields} comma-separated fields, got {fields_per_line[bad_line]}"
        else:
            message = f"not an integer record: {line!r}"
        error = DatasetFormatError(path, bad_line + 1, message)
    return _Records(path, values, record_lines + 1, error)


def _token_values(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """Values of well-formed integer tokens, and a mask of those outside int64.

    Horner's rule over one column of token bytes at a time, in place; signs
    and underscores are skipped. Only from the 19th byte on can a magnitude
    pass 2**63."""
    width = int((stops - starts).max(initial=0))
    negative = buf[starts] == ord("-")
    magnitude = np.zeros(len(starts), np.uint64)
    outside = np.zeros(len(starts), bool)
    digit = np.empty(len(starts), np.uint8)
    take = np.empty(len(starts), bool)
    at = starts.copy()
    for col in range(width):
        np.take(buf, at, out=digit, mode="clip")  # past a token's end is masked below
        digit -= ord("0")  # non-digits wrap above 9
        np.less(digit, 10, out=take)
        take &= at < stops
        if col >= 18:
            outside |= take & (magnitude > (_INT64_MAGNITUDE - digit) // np.uint64(10))
            take &= ~outside
        np.multiply(magnitude, 10, out=magnitude, where=take)
        np.add(magnitude, digit, out=magnitude, where=take)
        at += 1
    outside |= (magnitude == _INT64_MAGNITUDE) & ~negative
    values = magnitude.view(np.int64)  # 2**63 reads as -2**63, its own negation
    np.negative(values, out=values, where=negative)
    return values, outside


def _check_edges(records: _Records, node_graph: np.ndarray) -> None:
    """Every endpoint is a known node, and both lie in one graph."""
    total_nodes = len(node_graph)
    u, v = records.values.T
    u_unknown = (u < 1) | (u > total_nodes)
    v_unknown = (v < 1) | (v > total_nodes)
    gu = node_graph[np.clip(u, 1, total_nodes) - 1]
    gv = node_graph[np.clip(v, 1, total_nodes) - 1]

    def message(row: int) -> str:
        if u_unknown[row]:
            return f"edge references unknown node {u[row]}"
        if v_unknown[row]:
            return f"edge references unknown node {v[row]}"
        return f"edge ({u[row]}, {v[row]}) spans graphs {gu[row]} and {gv[row]}"

    records.raise_first(u_unknown | v_unknown | (gu != gv), message)


def _graph_edges(records: _Records, node_graph: np.ndarray, first_node: np.ndarray) -> list:
    """Each graph's canonical edges from checked A records: an E x 2 view of
    local (u, v) pairs, u < v, sorted and unique. Self-loops and repeated
    ordered pairs are dropped with a warning; a pair listed in both
    directions is one edge."""
    total_nodes = len(node_graph)
    u, v = records.values.T
    loop = u == v
    u, v = u[~loop] - 1, v[~loop] - 1
    # 0-based ids below total_nodes pack a pair into one int64 key (a node
    # file of 3 billion lines is far beyond what one process parses)
    directed = np.sort(u * total_nodes + v)
    duplicates = np.count_nonzero(directed[1:] == directed[:-1])
    del directed
    if loop.any():
        log.warning("%s: dropped %d self-loop edge(s)", records.path.name, loop.sum())
    if duplicates:
        log.warning("%s: dropped %d duplicate edge(s)", records.path.name, duplicates)

    # sorted keys order edges by graph, then local (lo, hi): each graph is one run
    key = np.sort(np.minimum(u, v) * total_nodes + np.maximum(u, v))
    del u, v
    lo, hi = np.divmod(key[np.diff(key, prepend=-1) != 0], total_nodes)
    del key
    graph = node_graph[lo] - 1
    base = first_node[graph]
    lo -= base
    hi -= base
    stops = np.cumsum(np.bincount(graph, minlength=len(first_node)))
    return np.split(np.stack([lo, hi], axis=1), stops[:-1])


def parse_tudataset(directory, name: str, policy: FeaturePolicy | None = None) -> GraphDataset:
    """Load `<name>_*.txt` files from `directory` into a GraphDataset.

    Node features are built once, under `policy`, or when it is None under
    the default policy (one-hot over node labels when
    `<name>_node_labels.txt` exists, degree one-hot otherwise). The files are
    read in the order graph_indicator, graph_labels, node_labels, A, and the
    error raised is the first problem in that order, line by line.
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
    indicator = _read_records(paths["graph_indicator"], 1)
    node_graph = indicator.values[:, 0]
    step = np.diff(node_graph)
    bad = np.concatenate([node_graph[:1] != 1, (step < 0) | (step > 1)])

    def indicator_message(row: int) -> str:
        if row == 0:
            return f"graph ids must start at 1, got {node_graph[0]}"
        return (
            "graph ids must be non-decreasing without gaps "
            f"(got {node_graph[row]} after {node_graph[row - 1]})"
        )

    indicator.raise_first(bad, indicator_message)
    if not len(node_graph):
        raise DatasetFormatError(paths["graph_indicator"], 1, "no nodes declared")

    num_graphs = int(node_graph[-1])
    total_nodes = len(node_graph)
    counts = np.bincount(node_graph)[1:]
    first_node = np.concatenate([[0], np.cumsum(counts)[:-1]])  # global base per graph

    labels = _read_records(paths["graph_labels"], 1)
    labels.raise_first()
    if len(labels.values) != num_graphs:
        raise DatasetFormatError(
            paths["graph_labels"],
            len(labels.values) + 1,
            f"expected {num_graphs} labels, found {len(labels.values)}",
        )

    node_labels: list | None = None  # each graph's view of the node-label records
    if paths["node_labels"].is_file():
        records = _read_records(paths["node_labels"], 1)
        records.raise_first()
        if len(records.values) != total_nodes:
            raise DatasetFormatError(
                paths["node_labels"],
                len(records.values) + 1,
                f"expected {total_nodes} node labels, found {len(records.values)}",
            )
        node_labels = np.split(records.values[:, 0], first_node[1:])

    edges = _read_records(paths["A"], 2)
    _check_edges(edges, node_graph)
    edge_arrays = _graph_edges(edges, node_graph, first_node)
    del edges
    distinct, class_of = np.unique(labels.values[:, 0], return_inverse=True)

    graphs = tuple(
        GraphInstance(n, e, _UNSET, y, nl)
        for n, e, y, nl in zip(
            counts.tolist(), edge_arrays, class_of.tolist(), node_labels or [None] * num_graphs
        )
    )
    ds = GraphDataset(name=name, graphs=graphs, num_classes=len(distinct), feature_dim=0)
    return build_node_features(ds, policy or default_policy(node_labels is not None))


# ----------------------------------------------------------------- features


def build_node_features(dataset: GraphDataset, policy: FeaturePolicy) -> GraphDataset:
    """Rebuild every graph's feature matrix under `policy`.

    Each node gets one hot column: its node label's rank among all distinct
    labels, its degree capped at degree_cap, or column 0. One N x dim matrix
    holds every node's row, and each graph's features are a view of its rows."""
    graphs = dataset.graphs
    counts = [g.node_count for g in graphs]
    if policy.kind == "one_hot_node_labels":
        if any(g.node_labels is None for g in graphs):
            raise InputError("one_hot_node_labels requires a node-label file")
        labels = np.concatenate([np.empty(0, np.int64), *(g.node_labels for g in graphs)])
        values, column = np.unique(labels, return_inverse=True)
        dim = len(values)
    elif policy.kind == "degree_one_hot":
        dim = policy.degree_cap + 1
        degrees = np.concatenate([np.empty(0, np.intp), *(g.degrees() for g in graphs)])
        column = np.minimum(degrees, policy.degree_cap)
    else:  # constant_one
        dim = 1
        column = np.zeros(sum(counts), np.intp)
    x = np.zeros((len(column), dim))
    x[np.arange(len(column)), column] = 1.0
    rows = np.split(x, np.cumsum(counts)[:-1])
    graphs = tuple(
        GraphInstance(g.node_count, g.edges, r, g.label, g.node_labels)
        for g, r in zip(graphs, rows)
    )
    return GraphDataset(dataset.name, graphs, dataset.num_classes, dim)


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
        # one uniform draw per candidate edge, in (u, v) order with u < v
        keep = rng.random(n * (n - 1) // 2) < edge_density_per_class[k]
        u, v = np.triu_indices(n, 1)
        edges = np.column_stack((u[keep], v[keep]))
        graphs.append(GraphInstance(n, edges, _UNSET, k, rng.integers(1, 4, size=n)))
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
            nl_lines.extend(map(str, g.node_labels.tolist()))
        for u, v in g.edges.tolist():
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
    for g in dataset.graphs:  # edges and node labels in their tuple text, as first hashed
        h.update(f"|n={g.node_count};y={g.label};e={tuple(map(tuple, g.edges.tolist()))}".encode())
        if g.node_labels is not None:
            h.update(f";nl={tuple(g.node_labels.tolist())}".encode())
        h.update(np.ascontiguousarray(g.node_features).tobytes())
    return h.hexdigest()
