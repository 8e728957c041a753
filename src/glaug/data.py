"""Graph collections: TUDataset-format parsing, node features, splits.

A data set is columns, one row per graph, node or edge. Its structure is an
E x 2 intp array of global 0-based node ids, each graph's canonical pairs
(u < v, sorted, unique, no self-loops) after the previous graph's, and B + 1
node and edge offsets: graph i owns nodes node_ptr[i]:node_ptr[i+1] and
edges edge_ptr[i]:edge_ptr[i+1]. Per graph there is a class id, per node a
feature row and, when the data set has them, a raw int64 node label. Raw
class labels are remapped to contiguous 0-based indices in sorted raw-label
order, so class ids are stable across runs. The fingerprint hashes each
graph's class id, local edges and node labels in their tuple text, so it
reads the same as when graphs stored tuples.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
from array import array
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError, InputError
from .seeding import seeded_rng

log = logging.getLogger("glaug.data")


Graph = namedtuple("Graph", "node_count edges")  # as GraphDataset.graph returns it


@dataclass(frozen=True, eq=False)
class GraphDataset:
    """Graphs as columns, laid out as the module docstring says, and the
    policy its features were built under (None for a matrix made by hand)."""

    name: str
    node_ptr: np.ndarray  # B + 1 node offsets, from 0 to N
    edges: np.ndarray  # E x 2 intp global ids, graph by graph, each graph's canonical
    edge_ptr: np.ndarray  # B + 1 edge offsets, from 0 to E
    num_classes: int
    labels: np.ndarray  # one class id per graph
    node_features: np.ndarray  # N x dim; graph i's rows follow graph i-1's
    node_labels: np.ndarray | None = None  # N raw int64 values, rows as node_features
    feature_policy: FeaturePolicy | None = None  # set by build_node_features

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]

    @property
    def graphs(self) -> tuple[Graph, ...]:
        """Every graph's structure, built on each read; the parse probe of
        bench/spans.py counts nodes through it."""
        return tuple(map(self.graph, range(len(self))))

    def graph(self, i: int) -> Graph:
        """Graph i's node count and its edges in local ids, a new array."""
        start, stop = self.node_ptr.item(i), self.node_ptr.item(i + 1)
        edges = self.edges[self.edge_ptr.item(i) : self.edge_ptr.item(i + 1)]
        return Graph(stop - start, edges - start)

    def rows(self, i: int) -> np.ndarray:
        """Graph i's node-feature rows, a view of `node_features`."""
        return self.node_features[self.node_ptr.item(i) : self.node_ptr.item(i + 1)]


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
    return FeaturePolicy("degree_one_hot")


# ------------------------------------------------------------------ parsing
#
# The record grammar is what Python's text-mode reader and int() accept:
# lines end at \n, \r\n or a lone \r; a line is stripped of ASCII
# whitespace (space, \t, \x0b, \x0c, \r, \x1c-\x1f) and skipped when nothing
# is left; the rest is comma-separated fields, each stripped and each an
# integer: [+-]?digits, single underscores allowed between digits. Every
# value must fit int64. Each file, whatever its line ends, is decoded in
# line-aligned chunks. A plain chunk (digits, commas, spaces, tabs and \n or
# \r\n line ends only, one integer in every field, the right field count on
# every line, no blank line, no value at or past INT64_MAX) is parsed by one
# np.fromstring call; every other chunk, and so every malformed line, goes to
# _decode, which is this grammar written out one line at a time. No record
# carries its line number: an error looks it up in the file (_line_of).

CHUNK_BYTES = 1 << 18  # bytes per read and chunk; two in flight take temporaries of 9-12 times that
WRITE_ROWS = 1 << 16  # records formatted per write by write_tudataset
_INTEGER = re.compile(r"[+-]?[0-9]+(?:_[0-9]+)*")
_NOT_SEPARATORS = b"0123456789 \t"
_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class _Records:
    """The records of one file that precede its first malformed line."""

    path: Path
    values: np.ndarray  # records x fields, int64
    error: str | None  # the first malformed line's message, if any

    def raise_first(self, bad: np.ndarray | None = None, message=None) -> None:
        """Raise for the first record flagged in `bad`, with text message(row);
        else for the first malformed line. Records all precede that line, so
        either way the error raised is the first in file order."""
        if bad is not None and bad.any():
            row = int(np.argmax(bad))
            raise DatasetFormatError(self.path, _line_of(self.path, row), message(row))
        if self.error is not None:
            raise DatasetFormatError(self.path, _line_of(self.path, len(self.values)), self.error)


def _line_of(path: Path, row: int) -> int:
    """The 1-based line number of record `row` of `path`, or of its first
    malformed line when `row` is the record count: the row-th line, from 0,
    with anything left after strip(). Python's text-mode reader splits the
    lines, as the record grammar defines them."""
    with open(path, encoding="ascii", errors="surrogateescape") as f:
        filled = (number for number, line in enumerate(f, 1) if line.strip())
        return next(islice(filled, row, None))


def _read_records(path: Path, fields: int) -> _Records:
    """Decode one file of `fields`-integer records, about CHUNK_BYTES at a time.

    A first pass counts the line ends, which size one array for the records.
    Chunks hold whole lines (_line_chunks) and are decoded two at a time: on
    more than one CPU, a helper thread tries the first of each two by
    _fast_decode (np.fromstring frees the GIL) while this one tries the
    second, and the helper ends with the call.
    _decode then takes each chunk that is not plain, alone. Records are in
    file order and decoding stops at the first malformed chunk, so records
    and errors do not depend on which path ran. No warning filter is set (the
    filters are process-wide). Memory is the records and two chunks'
    temporaries: no line numbers are kept; only an error needs one (_line_of)."""
    row, error = 0, None
    with open(path, "rb") as f:
        ends = 0  # \n, \r\n or a lone \r; a \r\n split between two reads counts twice
        while block := f.read(CHUNK_BYTES):
            ends += np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))
            if b"\r" in block:  # one memchr; counting b"\r\n" scans more slowly
                ends += block.count(b"\r") - block.count(b"\r\n")
        values = np.empty((ends + 1, fields), np.int64)  # a last line may have no end
        threaded = len(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()) > 1
        f.seek(0)
        chunks = _line_chunks(f)
        with ThreadPoolExecutor(1) as helper:  # its thread starts at the first submit
            while error is None and (pair := list(islice(chunks, 2))):
                # the helper tries the first of two chunks while this thread tries the second
                ahead = threaded and pair[1:] and helper.submit(_fast_decode, pair[0], fields)
                fast = [_fast_decode(chunk, fields) for chunk in pair[bool(ahead) :]]
                for chunk, done in zip(pair, [ahead.result(), *fast] if ahead else fast):
                    chunk_values, error = done or _decode(chunk, fields)  # the helper is idle
                    values[row : row + len(chunk_values)] = chunk_values
                    row += len(chunk_values)
                    if error is not None:
                        break
    values.resize((row, fields), refcheck=False)  # no view of `values` exists
    return _Records(path, values, error)


def _line_chunks(f):
    """The lines of binary file `f` in chunks: each ends after the last \\n of
    its read, or, in a read with no \\n, after its last \\r that is not the
    read's final byte, which may be the first half of a \\r\\n. The partial
    line after the cut goes into the next chunk."""
    pending = bytearray()  # a partial line, carried into the next chunk
    while block := f.read(CHUNK_BYTES):
        if cut := block.rfind(b"\n") + 1 or block.rfind(b"\r", 0, -1) + 1:
            yield pending + memoryview(block)[:cut]
            pending = bytearray(memoryview(block)[cut:])
        else:
            pending += block
    if pending:
        yield pending


def _fast_decode(raw: bytes, fields: int):
    """What _decode returns for a plain chunk, by one C-level integer parse;
    None when `raw` is not plain. np.fromstring raises ValueError where a
    field holds two tokens or is empty, but reads a field of spaces as 0 and
    clamps an overflow to INT64_MAX, so the chunk's tokens are counted first
    and INT64_MAX is refused. A CRLF line end is one line end either way."""
    if b"\r" in raw:  # one memchr; a search for b"\r\n" scans far more slowly
        raw = raw.replace(b"\r\n", b"\n")
    separators = raw.translate(None, _NOT_SEPARATORS)
    if not raw.endswith(b"\n"):
        separators += b"\n"  # the last line ends at EOF
    line_count = len(separators) // fields
    # only digits, blanks and separators, and `fields` fields on every line
    if separators != (b"," * (fields - 1) + b"\n") * line_count:
        return None
    codes = np.frombuffer(raw, np.uint8)
    digit = codes >= ord("0")  # only digits, of the bytes left
    tokens = np.count_nonzero(digit[1:] > digit[:-1]) + digit[:1].sum()
    text = np.equal(codes, ord("\n"), out=digit).view(np.uint8)  # digit's buffer, reused
    text *= ord("\n") ^ ord(",")
    text ^= codes  # line feeds to commas; numpy frees the GIL, bytes.translate does not
    text = text.tobytes()
    del digit  # the buffer, freed before the parse
    try:
        values = np.fromstring(text, np.int64, sep=",")
    except ValueError:
        return None
    # one value per token and one token per field; INT64_MAX may be a clamp
    if not tokens == len(values) == line_count * fields or values.max() == _INT64_MAX:
        return None
    return values.reshape(-1, fields), None


def _decode(raw: bytes, fields: int):
    """The records of `raw`, whole lines of a file, and the message of its
    first malformed line, or None; the record grammar read one line at a
    time. A line's first failing check names the error: not ASCII, the field
    count, a field not an integer, a value outside int64."""
    text = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").decode("ascii", "surrogateescape")
    values, error = array("q"), None  # 8 bytes a value, not 36
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if not line.isascii():  # a non-ASCII byte decodes to a lone surrogate; name the byte
            error = f"not ASCII text: {repr(line.encode('ascii', 'surrogateescape'))[1:]}"
        elif len(parts) != fields:
            error = f"expected {fields} comma-separated fields, got {len(parts)}"
        else:
            try:
                record = list(map(int, parts))
            except ValueError:
                record = _grammar_record(parts)
            if record is None:
                error = f"not an integer record: {line!r}"
            elif -(2**63) <= min(record) and max(record) < 2**63:
                values.extend(record)
                continue
            else:
                error = f"integer outside the int64 range: {line!r}"
        break
    return np.array(values, np.int64).reshape(-1, fields), error


def _grammar_record(parts: list[str]) -> list[int] | None:
    """The values of a record that int() refused, or None when a field is not
    an integer. int() strips less whitespace than str.strip (not \\x1c-\\x1f)
    and refuses more than 4,300 digits, so each field is stripped and matched,
    and its magnitude read without leading zeros; one of over 20 digits is
    read as its first 20, which is outside int64 too."""
    fields = [part.strip() for part in parts]
    if not all(map(_INTEGER.fullmatch, fields)):
        return None
    magnitudes = [int(f.lstrip("+-0_").replace("_", "")[:20] or "0") for f in fields]
    return [-m if f[0] == "-" else m for f, m in zip(fields, magnitudes)]


def _graph_edges(records: _Records, node_graph: np.ndarray, node_ptr: np.ndarray):
    """The edges column and edge offsets from the A records, checked in the
    same pass: global 0-based (u, v) pairs, u < v, sorted and unique. The
    first record with an unknown first node, else second node, else nodes in
    two graphs, is an error. Self-loops and repeated ordered pairs are
    dropped with a warning; a pair listed in both directions is one edge.
    The caller passes the only reference to `records`, freed once keyed."""
    total_nodes, path = len(node_graph), records.path
    u, v = records.values.T
    # each endpoint's graph id by node id; an unknown id clips to a 0 at either end
    graph = np.concatenate([[0], node_graph, [0]], dtype=np.int32).take(records.values, mode="clip")

    def message(row: int) -> str:
        for node, graph_id in zip(records.values[row], graph[row]):  # first node first
            if not graph_id:
                return f"edge references unknown node {node}"
        return f"edge ({u[row]}, {v[row]}) spans graphs {graph[row, 0]} and {graph[row, 1]}"

    records.raise_first((graph[:, 0] != graph[:, 1]) | (graph[:, 0] == 0), message)
    del graph
    # One int64 key per record, (lo * (N + 1) + hi) * 2 + (u > v) in 1-based
    # ids, for fewer than 2**31 nodes; written lo * N + u + v, numpy reuses one
    # temporary. Sorted keys run graph by graph, in local (lo, hi) order.
    key = (np.minimum(u, v) * total_nodes + u + v) * 2 + (u > v)
    key[u == v] = _INT64_MAX  # self-loops sort last, and are cut
    del records, u, v
    key.sort()
    kept = np.searchsorted(key, _INT64_MAX)
    loops, key = len(key) - kept, key[:kept]
    duplicates = np.count_nonzero(key[1:] == key[:-1])  # repeated ordered pairs
    for dropped, what in ((loops, "self-loop"), (duplicates, "duplicate")):
        if dropped:
            log.warning("%s: dropped %d %s edge(s)", path.name, dropped, what)

    key >>= 1
    key = np.concatenate([key[:1], key[1:][key[1:] != key[:-1]]])  # each run's first key
    edge_ptr = np.searchsorted(key, (node_ptr + 1) * (total_nodes + 1))  # each graph's first key
    pairs = np.stack(np.divmod(key, total_nodes + 1), axis=1)
    pairs -= 1  # 0-based ids
    return pairs, edge_ptr


def _counted_column(path: Path, count: int, what: str) -> np.ndarray:
    """The one-integer records of `path`, which must number `count`: the
    first malformed line, else a count mismatch, is a DatasetFormatError."""
    records = _read_records(path, 1)
    records.raise_first()
    found = len(records.values)
    if found != count:
        raise DatasetFormatError(path, found + 1, f"expected {count} {what}, found {found}")
    return records.values[:, 0]


def parse_tudataset(directory, name: str, policy: FeaturePolicy | None = None) -> GraphDataset:
    """Load `<name>_*.txt` files from `directory` into a GraphDataset.

    Node features are built once, under `policy`, or when it is None under
    the default policy (one-hot over node labels when
    `<name>_node_labels.txt` exists, degree one-hot otherwise). The files are
    read in the order graph_indicator, graph_labels, node_labels, A, and the
    error raised is the first problem in that order, line by line. The
    edges column is built once from the decoded A records, the node labels
    are the decoded column itself, and build_node_features then builds the
    data set's feature matrix and records its policy.
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

    total_nodes = len(node_graph)
    node_ptr = np.concatenate([[0], np.cumsum(np.bincount(node_graph)[1:])])

    labels = _counted_column(paths["graph_labels"], int(node_graph[-1]), "labels")
    node_labels = None
    if paths["node_labels"].is_file():
        node_labels = _counted_column(paths["node_labels"], total_nodes, "node labels")

    edges, edge_ptr = _graph_edges(_read_records(paths["A"], 2), node_graph, node_ptr)
    distinct, class_of = np.unique(labels, return_inverse=True)

    x = np.zeros((total_nodes, 0))
    ds = GraphDataset(name, node_ptr, edges, edge_ptr, len(distinct), class_of, x, node_labels)
    return build_node_features(ds, policy or default_policy(node_labels is not None))


# ----------------------------------------------------------------- features


def build_node_features(dataset: GraphDataset, policy: FeaturePolicy) -> GraphDataset:
    """The data set, its other columns shared, with its feature matrix rebuilt
    under `policy`, which it records as its `feature_policy`. Each node gets
    one hot column: its node label's rank among all distinct labels, its
    degree capped at degree_cap, or column 0."""
    total_nodes = int(dataset.node_ptr[-1])
    if policy.kind == "one_hot_node_labels":
        if dataset.node_labels is None:
            raise InputError("one_hot_node_labels requires a node-label file")
        values, column = np.unique(dataset.node_labels, return_inverse=True)
        dim = len(values)
    elif policy.kind == "degree_one_hot":
        dim = policy.degree_cap + 1
        if 8 * total_nodes * dim > np.iinfo(np.intp).max:  # its bytes overflow intp
            raise InputError(f"{policy.spelled()}: a feature matrix of {dim} columns is too big")
        degrees = np.bincount(dataset.edges.ravel(), minlength=total_nodes)
        column = np.minimum(degrees, policy.degree_cap)
    else:  # constant_one
        dim = 1
        column = np.zeros(total_nodes, np.intp)
    x = np.zeros((len(column), dim))
    x[np.arange(len(column)), column] = 1.0
    return replace(dataset, node_features=x, feature_policy=policy)


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

    edges, node_labels, node_ptr, edge_ptr = array("q"), array("q"), [0], [0]
    labels = np.arange(num_graphs) % classes
    for j, k in enumerate(labels.tolist()):
        rng = seeded_rng(seed, "synth", j)
        n = int(rng.integers(lo, hi + 1))
        # one uniform draw per candidate edge, in (u, v) order with u < v
        keep = rng.random(n * (n - 1) // 2) < edge_density_per_class[k]
        u, v = np.triu_indices(n, 1)
        edges.frombytes((np.column_stack((u[keep], v[keep])) + node_ptr[-1]).tobytes())  # global
        node_labels.frombytes(rng.integers(1, 4, size=n).tobytes())
        node_ptr.append(node_ptr[-1] + n)
        edge_ptr.append(len(edges) // 2)
    # edges and node labels grow in place, with no array per graph kept, and are viewed as they are
    columns = np.array(node_ptr), np.frombuffer(edges, np.intp).reshape(-1, 2), np.array(edge_ptr)
    x = np.zeros((node_ptr[-1], 0))
    ds = GraphDataset(name, *columns, classes, labels, x, np.frombuffer(node_labels, np.int64))
    return build_node_features(ds, default_policy(True))


def write_tudataset(dataset: GraphDataset, directory, name: str) -> Path:
    """Emit the four-file TUDataset layout parse_tudataset reads, as
    `<name>_<kind>.txt` files in `directory`; `name`, which may differ from
    the data set's own, must be a file-name stem, or nothing is created.

    Each undirected edge is written in both directions, global 1-based ids.
    The node-label file is written when the data set has node labels. Each
    file is one integer array, formatted WRITE_ROWS records per write; a file
    of no records is one blank line. Output is byte-deterministic for a given
    dataset.
    """
    if not name or "/" in name:  # empty, or with a directory part
        raise InputError(f"data set name {name!r} is not a file-name stem")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def dump(suffix: str, values: np.ndarray, line: str = "%d\n") -> None:
        with open(directory / f"{name}_{suffix}.txt", "w", encoding="ascii") as f:
            for rows in np.split(values, range(WRITE_ROWS, len(values), WRITE_ROWS)):
                f.write((line * len(rows)) % tuple(rows.ravel().tolist()) or "\n")

    dump("graph_labels", dataset.labels)
    if dataset.node_labels is not None:
        dump("node_labels", dataset.node_labels)
    edges = dataset.edges + 1  # 1-based ids
    dump("A", np.stack([edges, edges[:, ::-1]], axis=1).reshape(-1, 2), "%d, %d\n")
    dump("graph_indicator", np.repeat(np.arange(1, len(dataset) + 1), np.diff(dataset.node_ptr)))
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
        held_out = (fold, (fold + 1) % k)  # test, valid
        train = tuple(i for j, part in enumerate(parts) if j not in held_out for i in part)
        plans.append(FoldPlan(fold, *(parts[j] for j in held_out), train))
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
    graphs = max(len(dataset), 1)  # no graphs: means of 0
    return {
        "name": dataset.name,
        "num_graphs": len(dataset),
        "num_classes": dataset.num_classes,
        "feature_dim": dataset.feature_dim,
        "mean_nodes": float(dataset.node_ptr[-1] / graphs),
        "mean_edges": float(dataset.edge_ptr[-1] / graphs),
    }


def _tuple_template(count: int, item: str) -> str:
    """The %-template of a tuple of `count` items: `(a, b)`, `(a,)` or `()`."""
    return f"({item},)" if count == 1 else "(" + ", ".join([item] * count) + ")"


def dataset_fingerprint(dataset: GraphDataset) -> str:
    """SHA-256 over the full structure and features; pins runs to their input.

    A graph's edges and node labels are hashed as the text of their tuples,
    as first hashed; one %-format over the graph's integers writes it."""
    h = hashlib.sha256()
    h.update(f"classes={dataset.num_classes};dim={dataset.feature_dim}".encode())
    node_ptr, node_labels = dataset.node_ptr, dataset.node_labels
    for i, label in enumerate(dataset.labels.tolist()):
        n, edges = dataset.graph(i)
        text = f"|n={n};y={label};e={_tuple_template(len(edges), '(%d, %d)')}"
        ints = edges.ravel().tolist()
        if node_labels is not None:
            text += f";nl={_tuple_template(n, '%d')}"
            ints += node_labels[node_ptr[i] : node_ptr[i + 1]].tolist()
        h.update((text % tuple(ints)).encode())
        h.update(np.ascontiguousarray(dataset.rows(i)))
    return h.hexdigest()
