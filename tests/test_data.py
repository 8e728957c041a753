"""Dataset parsing, features, synthetic round-trips, fold plans."""

import contextlib
import hashlib
import io
import logging
import re
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import glaug.cli as cli_mod
from glaug import data as gd
from glaug.cli import main
from glaug.errors import DatasetFormatError, InputError
from glaug.seeding import seeded_rng


def graphs_of(dataset):
    """Each graph's (node_count, local edges), read through `graph(i)`."""
    return [dataset.graph(i) for i in range(len(dataset))]


def columns(graphs) -> tuple:
    """The node offsets, global edges and edge offsets of (node_count, local
    E x 2 edges) pairs, laid out graph by graph as a GraphDataset holds them.
    The ids are shifted with int64 wraparound, which `graph(i)` undoes."""
    node_ptr = np.cumsum([0, *(n for n, _ in graphs)])
    edge_ptr = np.cumsum([0, *(len(e) for _, e in graphs)])
    shifted = [np.asarray(e, np.intp).reshape(-1, 2) + s for (_, e), s in zip(graphs, node_ptr)]
    return node_ptr, np.concatenate([np.empty((0, 2), np.intp), *shifted]), edge_ptr


def error_line(exc: DatasetFormatError, path) -> int:
    """The line number a DatasetFormatError's message gives after the file's path."""
    return int(str(exc).removeprefix(f"{path}:").partition(":")[0])


def write_files(tmp_path, name="TINY", **contents):
    for suffix, text in contents.items():
        (tmp_path / f"{name}_{suffix}.txt").write_text(text)
    return tmp_path


MINIMAL = dict(
    A="1, 2\n2, 1\n",
    graph_indicator="1\n1\n",
    graph_labels="1\n",
)


# ------------------------------------------------------------------ parsing


def test_parse_minimal_single_graph(tmp_path):
    ds = gd.parse_tudataset(write_files(tmp_path, **MINIMAL), "TINY")
    assert len(ds) == 1 and ds.num_classes == 1
    g = ds.graph(0)
    assert g.node_count == 2
    assert g.edges.tolist() == [[0, 1]]
    assert ds.labels.tolist() == [0]
    assert ds.node_labels is None


def test_parse_two_graphs_local_ids(tmp_path):
    files = dict(
        A="1, 2\n2, 1\n3, 5\n5, 3\n4, 5\n5, 4\n",
        graph_indicator="1\n1\n2\n2\n2\n",
        graph_labels="3\n7\n",
    )
    ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert [g.node_count for g in graphs_of(ds)] == [2, 3]
    assert ds.graph(1).edges.tolist() == [[0, 2], [1, 2]]
    # raw labels 3, 7 remapped in sorted order
    assert ds.labels.tolist() == [0, 1]


def test_parse_is_deterministic(tmp_path):
    write_files(tmp_path, **MINIMAL)
    a = gd.parse_tudataset(tmp_path, "TINY")
    b = gd.parse_tudataset(tmp_path, "TINY")
    assert gd.dataset_fingerprint(a) == gd.dataset_fingerprint(b)


def test_parse_drops_self_loops_with_warning(tmp_path, caplog):
    files = dict(MINIMAL, A="1, 2\n2, 1\n1, 1\n")
    with caplog.at_level(logging.WARNING, logger="glaug.data"):
        ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert ds.graph(0).edges.tolist() == [[0, 1]]
    assert any("self-loop" in r.message for r in caplog.records)


def test_parse_drops_repeated_directed_edges_with_warning(tmp_path, caplog):
    files = dict(MINIMAL, A="1, 2\n2, 1\n1, 2\n")
    with caplog.at_level(logging.WARNING, logger="glaug.data"):
        ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert ds.graph(0).edges.tolist() == [[0, 1]]
    assert any("duplicate" in r.message for r in caplog.records)


def test_both_direction_listing_is_not_a_duplicate(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="glaug.data"):
        gd.parse_tudataset(write_files(tmp_path, **MINIMAL), "TINY")
    assert not caplog.records


def test_missing_mandatory_file(tmp_path):
    write_files(tmp_path, A=MINIMAL["A"], graph_indicator=MINIMAL["graph_indicator"])
    with pytest.raises(InputError, match="graph_labels"):
        gd.parse_tudataset(tmp_path, "TINY")


def test_edge_to_unknown_node_reports_file_and_line(tmp_path):
    files = dict(MINIMAL, A="1, 2\n2, 1\n1, 9\n")
    with pytest.raises(DatasetFormatError, match=r"TINY_A\.txt:3.*unknown node 9"):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")


def test_edge_from_unknown_node_names_the_first_endpoint(tmp_path):
    files = dict(MINIMAL, A="1, 2\n2, 1\n9, 7\n")
    with pytest.raises(DatasetFormatError, match=r"TINY_A\.txt:3: edge references unknown node 9$"):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")


def test_edge_across_graphs_rejected(tmp_path):
    files = dict(
        A="1, 3\n",
        graph_indicator="1\n1\n2\n",
        graph_labels="1\n2\n",
    )
    with pytest.raises(DatasetFormatError, match="spans graphs"):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")


# graphs {1, 2} and {3, 4}; every A file below has a bad record, and some a
# malformed line after it
TWO_PAIRS = dict(graph_indicator="1\n1\n2\n2\n", graph_labels="1\n2\n")


@pytest.mark.parametrize(
    "edges, chunk, line, message",
    [
        ("1, 2\n1, 3\n9, 1\n", None, 2, "edge (1, 3) spans graphs 1 and 2"),
        ("1, 2\n2, 9\n1, 3\n", None, 2, "edge references unknown node 9"),
        ("1, 2\n7, -1\n", None, 2, "edge references unknown node 7"),
        ("3, 9\n", None, 1, "edge references unknown node 9"),
        ("0, 2\n", None, 1, "edge references unknown node 0"),
        ("1, 2\n" * 5 + "3, 1\n" + "1, 2\n" * 5 + "1, x\n", 8, 6, "edge (3, 1) spans graphs 2 and 1"),
        ("\n1, +2\n\n2, 1\n1, 2\n4, 1\n1, x\n", 6, 6, "edge (4, 1) spans graphs 2 and 1"),
        ("1, 2\n1, x\n3, 1\n", 5, 2, "not an integer record: '1, x'"),
    ],
    ids=[
        "cross_then_unknown", "unknown_then_cross", "both_unknown", "second_unknown", "node_zero",
        "bad_edge_then_malformed_chunk", "after_blank_and_signed_lines", "malformed_first",
    ],
)
def test_first_bad_edge_in_file_order_names_the_error(tmp_path, edges, chunk, line, message):
    """The first bad A record in file order is the error: an unknown first
    endpoint, else an unknown second endpoint, else endpoints in two graphs;
    a malformed line after it, in a later chunk, is not reached, and one
    before it is the error. Line numbers count blank lines and chunks that
    are not plain."""
    directory = write_files(tmp_path, A=edges, **TWO_PAIRS)
    with mock.patch.object(gd, "CHUNK_BYTES", chunk or gd.CHUNK_BYTES):
        with pytest.raises(DatasetFormatError) as caught:
            gd.parse_tudataset(directory, "TINY")
    assert str(caught.value) == f"{directory / 'TINY_A.txt'}:{line}: {message}"
    assert error_line(caught.value, directory / "TINY_A.txt") == line


def test_indicator_must_start_at_one(tmp_path):
    files = dict(MINIMAL, graph_indicator="2\n2\n")
    with pytest.raises(DatasetFormatError, match="start at 1"):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")


def test_indicator_gap_rejected(tmp_path):
    files = dict(
        A="1, 2\n",
        graph_indicator="1\n1\n3\n",
        graph_labels="1\n2\n3\n",
    )
    with pytest.raises(DatasetFormatError, match="without gaps"):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")


def test_indicator_decrease_rejected(tmp_path):
    files = dict(MINIMAL, graph_indicator="1\n2\n1\n")
    with pytest.raises(DatasetFormatError):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")


def test_non_integer_line_reports_position(tmp_path):
    files = dict(MINIMAL, graph_labels="abc\n")
    with pytest.raises(DatasetFormatError, match=r"graph_labels\.txt:1"):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")


@pytest.mark.parametrize("line, shown", [
    (b"1\xff", r"'1\xff'"),
    (b"1, \xc3\xa9'", "\"1, \\xc3\\xa9'\""),  # quoted as a str's repr quotes it
])
def test_non_ascii_line_is_shown_by_the_bytes_it_holds(tmp_path, line, shown):
    path = tmp_path / "TINY_graph_labels.txt"
    write_files(tmp_path, **MINIMAL)
    path.write_bytes(b"\n" + line + b"\n")
    with pytest.raises(DatasetFormatError) as caught:
        gd.parse_tudataset(tmp_path, "TINY")
    assert str(caught.value) == f"{path}:2: not ASCII text: {shown}"


def test_wrong_field_count_rejected(tmp_path):
    files = dict(MINIMAL, A="1, 2, 3\n")
    with pytest.raises(DatasetFormatError, match="2 comma-separated fields"):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")


def test_label_count_mismatch(tmp_path):
    files = dict(MINIMAL, graph_labels="1\n2\n")
    with pytest.raises(DatasetFormatError, match="expected 1 labels"):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")


def test_node_label_count_mismatch(tmp_path):
    files = dict(MINIMAL, node_labels="5\n")
    with pytest.raises(DatasetFormatError, match="expected 2 node labels"):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")


def test_trailing_whitespace_tolerated(tmp_path):
    # int() alone would refuse \x1c-\x1f, which str.strip strips
    files = dict(A="1,\x1c2 \n2\x1f, 1\n\n", graph_indicator="1 \n1\n", graph_labels="1\n")
    ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert ds.graph(0).edges.tolist() == [[0, 1]]


def test_int64_range_edges_accepted_and_beyond_rejected(tmp_path):
    files = dict(MINIMAL, graph_labels="-9_223_372_036_854_775_808\n")
    assert gd.parse_tudataset(write_files(tmp_path, **files), "TINY").num_classes == 1
    files = dict(MINIMAL, node_labels="9223372036854775807\n+0009223372036854775807\n")
    ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert ds.node_labels.tolist() == [2**63 - 1, 2**63 - 1]
    # int() alone would refuse more than 4,300 digits, leading zeros included
    files = dict(MINIMAL, node_labels="0" * 5000 + "7\n-" + "0_" * 30 + "9223372036854775808\n")
    ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert ds.node_labels.tolist() == [7, -(2**63)]


@pytest.mark.parametrize("text, line", [
    ("9223372036854775808\n", 1),
    ("9999999999999999999\n", 1),
    ("1\n18446744073709551617\n", 2),  # 2**64 + 1
    ("\n1\n-9223372036854775809\n", 3),
    ("1\n" + "9" * 5000 + "\n", 2),
    ("1\n-" + "0" * 20 + "1" + "0" * 19 + "\n", 2),
    ("1" + "_0" * 19 + "\n", 1),
])
def test_integer_outside_int64_names_file_and_line(tmp_path, text, line):
    files = dict(MINIMAL, node_labels=text)
    with pytest.raises(DatasetFormatError) as info:
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert str(info.value).startswith(f"{tmp_path / 'TINY_node_labels.txt'}:{line}: integer outside")


def test_integer_outside_int64_exits_one_through_cli(tmp_path, capsys):
    files = dict(MINIMAL, graph_labels="1_000_000_000_000_000_000_000\n")
    (tmp_path / "TINY").mkdir()
    rc = main(["run", str(write_files(tmp_path / "TINY", **files)), "--out", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith("error: ") and "TINY_graph_labels.txt:1: integer outside" in err


@pytest.mark.parametrize("ending", ["crlf", "cr", "no_final_newline", "trailing_blank_lines"])
def test_line_ends_parse_as_text_mode_reads_them(tmp_path, ending):
    src = gd.generate_synthetic(6, size_range=(1, 6), seed=21)
    gd.write_tudataset(src, tmp_path, "LE")
    for path in tmp_path.glob("LE_*.txt"):
        text = path.read_bytes()
        text = {
            "crlf": text.replace(b"\n", b"\r\n"),
            "cr": text.replace(b"\n", b"\r"),
            "no_final_newline": text.rstrip(b"\n"),
            "trailing_blank_lines": text + b"\n \r\n\t\n\x0c\x1c\n\n",
        }[ending]
        path.write_bytes(text)
    got = gd.parse_tudataset(tmp_path, "LE")
    assert gd.dataset_fingerprint(got) == gd.dataset_fingerprint(src)
    assert gd.dataset_fingerprint(got) == gd.dataset_fingerprint(reference_parse(tmp_path, "LE"))


def test_first_error_in_file_order_wins(tmp_path):
    # a range error two lines above a syntax error, and the other way round
    files = dict(MINIMAL, A="1, 2\n1, 9\n2, 1\n1, x\n")
    with pytest.raises(DatasetFormatError, match=r"TINY_A\.txt:2: edge references unknown node 9"):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    files = dict(MINIMAL, A="1, 2\n1, x\n1, 9\n")
    with pytest.raises(DatasetFormatError, match=r"TINY_A\.txt:2: not an integer record"):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")


# -------------------------------------------------------- differential fuzz
#
# reference_parse is the per-line parser the bulk reader replaced, kept as an
# independent reference: text-mode lines, str.strip, int() per field.


@contextlib.contextmanager
def unlimited_int_digits():
    """int() without the interpreter's limit on digits (4,300 from Python
    3.11 on), so a long zero-padded field reads as its value."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _reference_int_lines(path: Path, fields: int):
    """Yield (lineno, tuple_of_ints); blank lines are skipped."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if not line.isascii():  # named by its bytes: a lone surrogate is no byte of the file
                text = repr(line.encode("ascii", "surrogateescape"))[1:]
                raise DatasetFormatError(path, lineno, f"not ASCII text: {text}")
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != fields:
                raise DatasetFormatError(
                    path, lineno, f"expected {fields} comma-separated fields, got {len(parts)}"
                )
            try:
                with unlimited_int_digits():
                    values = tuple(int(p) for p in parts)
            except ValueError:
                raise DatasetFormatError(path, lineno, f"not an integer record: {line!r}") from None
            if not all(-(2**63) <= value < 2**63 for value in values):
                raise DatasetFormatError(
                    path, lineno, f"integer outside the int64 range: {line!r}"
                )
            yield lineno, values


def reference_parse(directory, name: str) -> gd.GraphDataset:
    directory = Path(directory)
    paths = {
        key: directory / f"{name}_{key}.txt"
        for key in ("A", "graph_indicator", "graph_labels", "node_labels")
    }
    for key in ("A", "graph_indicator", "graph_labels"):
        if not paths[key].is_file():
            raise InputError(f"missing mandatory dataset file: {paths[key]}")

    node_graph: list[int] = []
    for lineno, (gid,) in _reference_int_lines(paths["graph_indicator"], 1):
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
    counts = np.bincount(np.asarray(node_graph))[1:].tolist()
    first_node = np.concatenate([[0], np.cumsum(counts)[:-1]])

    raw_labels = [lab for _, (lab,) in _reference_int_lines(paths["graph_labels"], 1)]
    if len(raw_labels) != num_graphs:
        raise DatasetFormatError(
            paths["graph_labels"],
            len(raw_labels) + 1,
            f"expected {num_graphs} labels, found {len(raw_labels)}",
        )

    node_labels = None
    if paths["node_labels"].is_file():
        node_labels = [lab for _, (lab,) in _reference_int_lines(paths["node_labels"], 1)]
        if len(node_labels) != total_nodes:
            raise DatasetFormatError(
                paths["node_labels"],
                len(node_labels) + 1,
                f"expected {total_nodes} node labels, found {len(node_labels)}",
            )

    edge_sets = [set() for _ in range(num_graphs)]
    seen_directed = set()
    dup_count = 0
    loop_count = 0
    for lineno, (u, v) in _reference_int_lines(paths["A"], 2):
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
        if (u, v) in seen_directed:
            dup_count += 1
            continue
        seen_directed.add((u, v))
        g = gu - 1
        base = int(first_node[g])
        lu, lv = u - 1 - base, v - 1 - base
        edge_sets[g].add((min(lu, lv), max(lu, lv)))

    if loop_count:
        gd.log.warning("%s: dropped %d self-loop edge(s)", paths["A"].name, loop_count)
    if dup_count:
        gd.log.warning("%s: dropped %d duplicate edge(s)", paths["A"].name, dup_count)

    class_of = {raw: i for i, raw in enumerate(sorted(set(raw_labels)))}
    graphs = [(counts[g], sorted(edge_sets[g])) for g in range(num_graphs)]
    labels = np.array([class_of[raw] for raw in raw_labels])
    nl = None if node_labels is None else np.array(node_labels, np.int64)
    x = np.zeros((total_nodes, 0))
    ds = gd.GraphDataset(name, *columns(graphs), len(class_of), labels, x, nl)
    return gd.build_node_features(ds, gd.default_policy(node_labels is not None))


@contextlib.contextmanager
def logged_warnings():
    """Collect the messages logged to glaug.data at WARNING and above."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("glaug.data")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def outcome(parse, directory):
    """('accept', fingerprint) or ('reject', error type, text), and the warnings."""
    with logged_warnings() as messages:
        try:
            result = ("accept", gd.dataset_fingerprint(parse(directory, "FZ")))
        except InputError as exc:
            result = ("reject", type(exc).__name__, str(exc))
    return result, messages


FUZZ_FILES = ("A", "graph_indicator", "graph_labels", "node_labels")
# bytes and strings at the edges of the grammar: separators, every ASCII
# whitespace str.strip removes (bytes.strip does not remove \x1c-\x1f),
# signs, leading zeros, underscores, non-integers and non-ASCII bytes
FUZZ_PIECES = [
    b",", b" ", b"\t", b"\r", b"\n", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
    b"\x1f", b"+", b"-", b"_", b"0", b"1", b"7", b"+5", b"-2", b"007", b"1_0", b"1__0", b"_1",
    b"x", b"1e3", b"0x1", b"\x00", b"\x7f", b"\xff", b"\xc3\xa9", b"\x85", b"\xa0", b" , ", b"3, 3",
]
FUZZ_OPS = (
    "insert", "delete", "replace_line", "bump", "drop_line", "dup_line", "swap_lines",
    "truncate", "crlf", "lone_cr", "self_loop", "remove",
)


def mutate(content: bytes, op: str, at: int, piece: bytes, delta: int) -> bytes | None:
    """One edit of a file's bytes; None deletes the file."""
    lines = content.split(b"\n")
    row = at % len(lines)
    if op == "insert":
        pos = at % (len(content) + 1)
        return content[:pos] + piece + content[pos:]
    if op == "delete":
        pos = at % (len(content) + 1)
        return content[:pos] + content[pos + 1 + abs(delta):]
    if op == "replace_line":
        lines[row] = piece
    elif op == "bump":  # counts, gaps, decreases, cross-graph and unknown endpoints
        lines[row] = re.sub(rb"\d+", lambda m: str(max(int(m[0]) + delta, 0)).encode(), lines[row], 1)
    elif op == "drop_line":
        del lines[row]
    elif op == "dup_line":
        lines.insert(row, lines[row])
    elif op == "swap_lines":
        other = (row + delta) % len(lines)
        lines[row], lines[other] = lines[other], lines[row]
    elif op == "truncate":  # possibly mid-line
        return content[: at % (len(content) + 1)]
    elif op == "crlf":
        return content.replace(b"\n", b"\r\n")
    elif op == "lone_cr":
        return content.replace(b"\n", b"\r")
    elif op == "self_loop":
        node = re.match(rb"\s*(\d+)", lines[row])
        lines.insert(row, node[1] + b", " + node[1] if node else b"1, 1")
    elif op == "remove":
        return None
    return b"\n".join(lines)


FUZZ_EDITS = st.lists(
    st.tuples(
        st.sampled_from(FUZZ_FILES),
        st.sampled_from(FUZZ_OPS),
        st.integers(0, 10**6),
        st.sampled_from(FUZZ_PIECES),
        st.integers(-3, 3),
    ),
    min_size=1,
    max_size=4,
)


def fuzzed_files(src: gd.GraphDataset, tmp: Path, edits) -> Path:
    """`src` written as FZ under `tmp`, then edited; returns its directory."""
    directory = gd.write_tudataset(src, tmp / "FZ", "FZ")
    for suffix, op, at, piece, delta in edits:
        path = directory / f"FZ_{suffix}.txt"
        if path.is_file():
            content = mutate(path.read_bytes(), op, at, piece, delta)
            if content is not None:
                path.write_bytes(content)
            elif suffix == "node_labels":  # the one optional file
                path.unlink()
    return directory


@given(
    graphs=st.integers(1, 4),
    seed=st.integers(0, 50),
    edits=FUZZ_EDITS,
)
@settings(max_examples=600, deadline=None)
# a valid field past int()'s 4,300-digit limit, and one past it outside int64
@example(1, 0, [("node_labels", "replace_line", 0, b"0" * 5000 + b"7", 0)])
@example(1, 0, [("node_labels", "replace_line", 0, b"9" * 5000, 0)])
def test_bulk_reader_matches_per_line_reference(graphs, seed, edits):
    src = gd.generate_synthetic(graphs, size_range=(1, 5), seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        directory = fuzzed_files(src, Path(tmp), edits)

        want, want_warnings = outcome(reference_parse, directory)
        got, got_warnings = outcome(gd.parse_tudataset, directory)
        assert got == want
        if want[0] == "accept":
            assert got_warnings == want_warnings
            return

        # a rejected input exits 1 through the CLI, with one error line
        stderr = io.StringIO()
        with mock.patch.object(cli_mod, "run_experiment", side_effect=AssertionError):
            with contextlib.redirect_stderr(stderr):
                rc = main(["run", str(directory), "--out", str(Path(tmp) / "run")])
        err = stderr.getvalue()
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        if want[1] == "DatasetFormatError":  # the CLI reports a missing A file itself
            assert err == f"error: {want[2]}\n"


@given(chunk=st.integers(1, 64), graphs=st.integers(1, 4), seed=st.integers(0, 50), edits=FUZZ_EDITS)
@settings(max_examples=300, deadline=None)
def test_small_chunks_match_per_line_reference(chunk, graphs, seed, edits):
    """The fuzz above, with lines cut across many small chunks."""
    with mock.patch.object(gd, "CHUNK_BYTES", chunk):
        test_bulk_reader_matches_per_line_reference.hypothesis.inner_test(graphs, seed, edits)


# ------------------------------------------------------------ chunk boundaries


def summary(records: gd._Records):
    """The records, and the error they raise (type, text and line) or None."""
    try:
        records.raise_first()
        error = None
    except DatasetFormatError as exc:
        error = (type(exc).__name__, str(exc), error_line(exc, records.path))
    values = records.values
    return values.shape, values.dtype, values.tolist(), error


def decoded(path: Path, fields: int, chunk: int | None = None):
    """What _read_records makes of `path`, read `chunk` bytes at a time."""
    with mock.patch.object(gd, "CHUNK_BYTES", chunk or gd.CHUNK_BYTES):
        return summary(gd._read_records(path, fields))


@pytest.mark.parametrize(
    "content, chunk",
    [
        (b"1, 2\r\n3, 4\r\n5, 6\r\n", 5),  # the first \r\n is split across two reads
        (b"1, 2\r\n3, x\r\n5, 6\r\n", 11),  # and a bad line after the split
        (b"1, 2\r3, 4\r\r5, 6\r", 2),  # lone \r ends, cut after a \r of each read
        (b"1, 2\r3, 4\r5, 6\r", 10),  # a read ends in \r, so it is cut after the one before
        (b"1,     22222222\r\n3, 4\r\n", 4),  # a CRLF line longer than the chunk: a read of \r, no \n
        (b"1, 2\n3, 4", 3),  # no final newline
        (b"1, 2\n3, 4\r", 4),  # a lone \r ends the file
        (b"1,          " + b"2" * 18 + b"\n3, 4\n", 4),  # a line longer than the chunk
        (b"1, 2\n\n \n\t\n\r\n\x0c\n\n3, 4\n\n\n", 2),  # blank lines across chunks
        (b"\n\n\n1, 2\n7, 99999999999999999999\n", 3),  # an overflow in a later chunk
        (b"1, 2\n" * 7 + b"1, \xc3\xa9\n", 5),  # not ASCII in a later chunk
        (b"1, 2\n" * 7 + b"1, 2, 3\n1, x\n", 1),  # a wrong field count in a later chunk
        (b"", 1),
        (b"\n \n", 1),
    ],
)
def test_chunk_boundaries_decode_as_one_chunk(tmp_path, content, chunk):
    path = tmp_path / "X_A.txt"
    path.write_bytes(content)
    assert len(content) <= gd.CHUNK_BYTES  # the default reads it as one chunk
    for fields in (1, 2):
        assert decoded(path, fields, chunk) == decoded(path, fields)


@given(chunk=st.integers(1, 64), graphs=st.integers(1, 4), seed=st.integers(0, 50), edits=FUZZ_EDITS)
@settings(max_examples=300, deadline=None)
def test_any_chunk_size_decodes_like_the_default(chunk, graphs, seed, edits):
    """Records and errors do not depend on the chunk size, and _line_of finds
    each record, and the malformed line after them, at the line the per-line
    reference reads it from."""
    src = gd.generate_synthetic(graphs, size_range=(1, 5), seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        directory = fuzzed_files(src, Path(tmp), edits)
        for path in sorted(directory.iterdir()):
            fields, want = (2 if path.name == "FZ_A.txt" else 1), []
            assert decoded(path, fields, chunk) == decoded(path, fields)
            try:
                want.extend(lineno for lineno, _ in _reference_int_lines(path, fields))
            except DatasetFormatError as exc:
                want.append(error_line(exc, path))
            records = gd._read_records(path, fields)
            rows = len(records.values) + (records.error is not None)
            assert [gd._line_of(path, row) for row in range(rows)] == want


# ------------------------------------------------------------ threaded decode
#
# A file of two or more chunks is decoded two chunks at a time, by a helper
# thread and the calling one, when the process may run on more than one CPU.
# The tests set the CPUs the process may run on, so either path runs on any
# host.


@contextlib.contextmanager
def thread_starts():
    """The names of the threads started meanwhile."""
    started, start = [], threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    with mock.patch.object(threading.Thread, "start", counted):
        yield started


def decoded_on(cpus: int, path: Path, fields: int, chunk: int):
    """decoded(path, fields, chunk) where the process may run on `cpus` CPUs,
    and the names of the threads it started. The interpreter switches threads
    every 10 us meanwhile, not every 5 ms, so the two threads interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(gd.os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True):
            with thread_starts() as started:
                return decoded(path, fields, chunk), started
    finally:
        sys.setswitchinterval(interval)


RECORD_FORMS = {  # a file's form -> (its record of 1 field, of 2 fields)
    "plain": (b"%d\n", b"%d, %d\n"),
    "crlf": (b"%d\r\n", b"%d, %d\r\n"),
    "lone-cr": (b"%d\r", b"%d, %d\r"),
    "signed": (b"+%d\n", b"+%d, +%d\n"),
}


@pytest.mark.parametrize("form", RECORD_FORMS)
@pytest.mark.parametrize("bad", [None, 2, 150, 297])  # none; in the first, a middle, the last chunk
@pytest.mark.parametrize("fields", [1, 2])
def test_threaded_decode_equals_one_thread(tmp_path, form, bad, fields):
    """Records and the first error (path, line and message) are those of the
    one-thread path, wherever the malformed line is, whatever the line ends;
    each form's file is several chunks, so it starts one thread."""
    record = RECORD_FORMS[form][fields - 1]
    lines = [record % (i, i + 1)[:fields] for i in range(300)]
    if bad is not None:
        lines[bad] = record.replace(b"%d", b"x")  # not an integer record, in the file's form
    path = tmp_path / "X_A.txt"
    path.write_bytes(b"".join(lines))
    chunk = 128
    assert len(path.read_bytes()) > 8 * chunk
    one, one_started = decoded_on(1, path, fields, chunk)
    two, two_started = decoded_on(2, path, fields, chunk)
    assert two == one and one_started == []
    assert len(two_started) == 1
    assert (one[3] is None) == (bad is None)
    if bad is not None:
        assert one[3][2] == bad + 1  # the line of the malformed record


@pytest.mark.parametrize("size_in_chunks, cpus, threads", [
    (1, 2, 0), (2, 2, 1), (3, 2, 1), (3, 1, 0), (40, 1, 0), (40, 2, 1),
])
def test_only_a_file_of_more_than_two_chunks_on_two_cpus_starts_a_thread(
    tmp_path, size_in_chunks, cpus, threads
):
    """On two CPUs a file of two or more chunks starts one thread; on one
    CPU no file starts one."""
    path = tmp_path / "X_graph_labels.txt"
    path.write_bytes(b"1234567\n" * (8 * size_in_chunks))  # chunks of 64 bytes, 8 records each
    (shape, *_), started = decoded_on(cpus, path, 1, 64)
    assert shape == (8 * size_in_chunks, 1)
    assert len(started) == threads


def test_per_line_decoding_runs_alone(tmp_path):
    """Two chunks are in flight, but _decode never runs beside another
    chunk's decoding, so the per-line path's temporaries are one chunk's."""
    decode, active, overlaps, lock = gd._decode, [], [], threading.Lock()

    def tracked(function):
        def run(raw, fields):
            with lock:
                if decode in active or (function is decode and active):
                    overlaps.append(function.__name__)
                active.append(function)
            try:
                time.sleep(0.001)  # frees the GIL, so the other thread's calls run meanwhile
                return function(raw, fields)
            finally:
                with lock:
                    active.remove(function)

        return run

    path = tmp_path / "X_A.txt"  # runs of plain and signed lines, so both paths alternate
    lines = (b"%d, %d\n" % (i, i) if i // 20 % 3 else b"+1, +2\n" for i in range(600))
    path.write_bytes(b"".join(lines))
    with mock.patch.object(gd, "_decode", tracked(gd._decode)):
        with mock.patch.object(gd, "_fast_decode", tracked(gd._fast_decode)):
            (shape, *_), started = decoded_on(2, path, 2, 128)
    assert shape == (600, 2) and started and overlaps == []


def test_warning_filters_are_as_before_after_a_threaded_parse(tmp_path):
    """A threaded parse sets no warning filter, as the filters are global:
    under the caller's filter that makes every warning an error, a file with
    a two-token field late in it raises nothing, the filters are unchanged,
    and records and error are the one-thread path's."""
    path = tmp_path / "X_A.txt"
    lines = [b"%d, %d\n" % (i, i + 1) for i in range(600)]
    lines[450] = b"1 2, 3\n"  # np.fromstring raises ValueError on this chunk
    path.write_bytes(b"".join(lines))
    want = decoded_on(1, path, 2, 128)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        before = list(warnings.filters)
        got, started = decoded_on(2, path, 2, 128)
        assert warnings.filters == before
    assert got == want and started and want[3][2] == 451


def test_no_thread_outlives_a_parse(tmp_path):
    """After a load that succeeds, one with a malformed line in a late chunk
    and one whose helper raises, the same threads are running as before."""
    src = gd.generate_synthetic(60, size_range=(5, 20), seed=4)
    good = gd.write_tudataset(src, tmp_path / "G", "G")
    bad = gd.write_tudataset(src, tmp_path / "B", "B")
    edges = (bad / "B_A.txt").read_bytes().splitlines(keepends=True)
    edges[-3] = b"1, x\n"
    (bad / "B_A.txt").write_bytes(b"".join(edges))
    running = threading.active_count()
    decode = gd._fast_decode

    def fail_in_helper(raw, fields):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("decoding failed")
        return decode(raw, fields)

    with mock.patch.object(gd.os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
        with mock.patch.object(gd, "CHUNK_BYTES", 256), thread_starts() as started:
            parsed = gd.parse_tudataset(good, "G")
            assert threading.active_count() == running and started
            with pytest.raises(DatasetFormatError, match=f"B_A.txt:{len(edges) - 2}: not an integer"):
                gd.parse_tudataset(bad, "B")
            assert threading.active_count() == running
            with mock.patch.object(gd, "_fast_decode", fail_in_helper):
                with pytest.raises(RuntimeError, match="decoding failed"):
                    gd.parse_tudataset(good, "G")
            assert threading.active_count() == running
    assert gd.dataset_fingerprint(parsed) == gd.dataset_fingerprint(src)


def traced_peak(function, *args):
    """function(*args), and the peak of the memory tracemalloc traced meanwhile."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_decoding_memory_is_bounded_by_chunk_and_records(tmp_path):
    """A few MiB of A records decode within the records' array and a few
    chunks' temporaries, not in temporaries the size of the file, on either
    decoding path: plain records with LF or CRLF line ends, and records with
    lone \\r line ends or a sign before every value, which are not plain. No
    chunk keeps line numbers, and a CRLF line end counts once when the
    records' array is sized. One chunk's per-line decoding takes about 10
    times the chunk."""
    pairs = np.random.default_rng(0).integers(1, 10**6, size=(250_000, 2))
    path = tmp_path / "M_A.txt"
    chunk = 64 << 10
    forms = ("%d, %d\n", True), ("%d, %d\r\n", True), ("%d, %d\r", False), ("+%d, +%d\n", False)
    for record, plain in forms:
        path.write_bytes("".join(map(record.__mod__, map(tuple, pairs.tolist()))).encode())
        raw = path.read_bytes()
        assert (gd._fast_decode(raw, 2) is not None) == plain
        with mock.patch.object(gd, "CHUNK_BYTES", chunk):
            records, peak = traced_peak(gd._read_records, path, 2)
        assert records.error is None and np.array_equal(records.values, pairs)
        assert len(raw) > 3 << 20
        assert peak <= records.values.nbytes + 16 * chunk, peak
    piece = raw[: raw.rfind(b"\n", 0, chunk) + 1]
    assert traced_peak(gd._decode, piece, 2)[1] <= 16 * len(piece)


def test_load_memory_is_bounded_by_edge_records(tmp_path):
    """A whole load of 3,000 graphs shaped like the parse_12k bench workload
    (10-28 nodes, densities 0.1 and 0.3, about 3.5 MiB of A records) peaks
    within 2.5 times its A records' bytes: the records once, the edge pass's
    graph ids and sort keys, and the node columns. Measured: 2.10 times, and
    4.26 times when the records were held twice and the edge check and the
    edge build each made their own per-record copies."""
    src = gd.generate_synthetic(3000, 2, (10, 28), (0.1, 0.3), seed=5, name="L")
    directory = gd.write_tudataset(src, tmp_path / "L", "L")
    records = gd._read_records(directory / "L_A.txt", 2).values.nbytes
    parsed, peak = traced_peak(gd.parse_tudataset, directory, "L")
    assert gd.dataset_fingerprint(parsed) == gd.dataset_fingerprint(src)
    assert peak <= 2.5 * records, peak / records


# ------------------------------------------------------------ plain fast path


def exact(path: Path, fields: int):
    """What _decode alone makes of `path`, read as one chunk."""
    return summary(gd._Records(path, *gd._decode(path.read_bytes(), fields)))


@pytest.mark.parametrize(
    "content, fields, taken",
    [
        (b"1, , 3\n", 3, False),  # fromstring reads the empty field as 0
        (b"1, 2\n3,", 2, False),  # a trailing comma at EOF, no line feed
        (b"1, 2\n3, ", 2, False),  # and a field of spaces at EOF
        (b"1, 2\n   \n3, 4\n", 2, False),  # a whitespace-only line
        (b"1, 2\n\n3, 4\n\n", 2, False),  # blank lines
        (b"1\n\n2\n", 1, False),
        (b"1, 2\n  ", 2, False),  # a whitespace-only last line counts as a line
        (b"1 2, 3\n", 2, False),  # two tokens in one field
        (b"9223372036854775807, 1\n", 2, False),  # INT64_MAX, which _decode accepts
        (b"9223372036854775808, 1\n", 2, False),  # fromstring clamps it to INT64_MAX
        (b"1, 99999999999999999999999\n", 2, False),
        (b"0000000000000000000000007, 0000000000000000000000012\n", 2, True),
        (b"010, 2\n", 2, True),  # decimal, never octal
        (b"1, 2\r\n3, 4\r\n", 2, True),  # \r\n is one line end either way
        (b"1,\t2\n\t3\t,4\t\r\n", 2, True),  # tabs are blanks, as spaces are
        (b"1,\t\n", 2, False),  # a field of tabs, which fromstring reads as 0
        (b"1, 2\r3, 4\r", 2, False),  # lone \r line ends
        (b"1, 2\r\n3, 4\r5, 6\r\n", 2, False),  # \r\n mixed with a lone \r
        (b"1, 2\r\n\r\n3, 4\r\n", 2, False),  # a blank line
        (b"1, " + b"9" * 5000 + b"\n", 2, False),  # past int()'s 4,300-digit limit
        (b" 1 ,2 \n3,  4", 2, True),
    ],
)
def test_fast_path_decodes_like_the_exact_decoder(tmp_path, content, fields, taken):
    path = tmp_path / "X_A.txt"
    path.write_bytes(content)
    want = exact(path, fields)
    assert decoded(path, fields) == want
    fast = gd._fast_decode(content, fields)
    assert (fast is not None) == taken
    if taken:
        assert summary(gd._Records(path, *fast)) == want


# any string over the plain alphabet, or lines of fields that are mostly
# integers padded with blanks, with empty, blank, two-token and int64-edge
# fields, lines ending at \n or \r\n
PLAIN_PIECES = [bytes([c]) for c in b"0123456789, \t\n"] + [b"\r\n"]
PLAIN_TEXT = st.lists(st.sampled_from(PLAIN_PIECES), min_size=1, max_size=80).map(b"".join)
PADDING = st.sampled_from([b"", b"", b" ", b"  ", b"\t", b" \t"])
LINE_END = st.sampled_from([b"\n", b"\n", b"\r\n"])
INTEGER_FIELD = st.tuples(PADDING, st.sampled_from([b"", b"0", b"00"]), st.integers(0, 10**12), PADDING)
ODD_FIELD = st.sampled_from(
    [b"", b" ", b"1 2", b"9223372036854775806", b"9223372036854775807", b"9223372036854775808",
     b"99999999999999999999999", b"0" * 25 + b"9"]
)
FIELD = st.one_of(INTEGER_FIELD.map(lambda t: t[0] + t[1] + b"%d" % t[2] + t[3]), ODD_FIELD)


@st.composite
def plain_chunks(draw, fields):
    if draw(st.integers(0, 3)) == 0:
        return draw(PLAIN_TEXT)
    width = st.sampled_from([fields] * 8 + [1, 3])  # now and then a wrong field count
    lines = draw(st.lists(width.flatmap(lambda n: st.lists(FIELD, min_size=n, max_size=n)),
                          min_size=1, max_size=6))
    ends = draw(st.lists(LINE_END, min_size=len(lines), max_size=len(lines)))
    text = b"".join(b",".join(line) + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.removesuffix(ends[-1])


FIELDS_AND_PLAIN_CHUNK = st.sampled_from([1, 2]).flatmap(lambda f: st.tuples(st.just(f), plain_chunks(f)))


@given(fields_and_raw=FIELDS_AND_PLAIN_CHUNK)
@settings(max_examples=1000, deadline=None)
def test_fast_path_declines_or_equals_the_exact_decoder(fields_and_raw):
    fields, raw = fields_and_raw
    fast = gd._fast_decode(raw, fields)
    if fast is not None:
        (values, error), (want, want_error) = fast, gd._decode(raw, fields)
        assert error is want_error is None
        assert (values.shape, values.dtype, values.tolist()) == (want.shape, want.dtype, want.tolist())


@given(fields_and_raw=FIELDS_AND_PLAIN_CHUNK)
@settings(max_examples=1000, deadline=None)
def test_fast_path_emits_no_warning(fields_and_raw):
    """_read_records sets no warning filter, so np.fromstring must refuse
    what it cannot read by raising, on every chunk, never by warning."""
    fields, raw = fields_and_raw
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gd._fast_decode(raw, fields)
    assert caught == []


def test_written_files_never_reach_the_exact_decoder(tmp_path):
    """Every file write_tudataset writes is plain, at any chunk size, and so
    are its copies with CRLF line ends or a tab after each comma."""
    src = gd.generate_synthetic(40, size_range=(5, 20), seed=3)
    directory = gd.write_tudataset(src, tmp_path / "W", "W")
    written = {path: path.read_bytes() for path in directory.iterdir()}
    for line_end, separator in ((b"\n", b", "), (b"\r\n", b", "), (b"\n", b",\t")):
        for path, content in written.items():
            path.write_bytes(content.replace(b"\n", line_end).replace(b", ", separator))
        for chunk in (gd.CHUNK_BYTES, 64, 7):
            with mock.patch.object(gd, "CHUNK_BYTES", chunk):
                with mock.patch.object(gd, "_decode", wraps=gd._decode) as exact_decoder:
                    parsed = gd.parse_tudataset(directory, "W")
            assert exact_decoder.call_count == 0
            assert gd.dataset_fingerprint(parsed) == gd.dataset_fingerprint(src)


def test_two_tokens_in_a_field_emit_no_warning(tmp_path):
    path = tmp_path / "X_A.txt"
    path.write_bytes(b"1 2, 3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        error = summary(gd._read_records(path, 2))[3]
    assert caught == []
    assert error == ("DatasetFormatError", f"{path}:1: not an integer record: '1 2, 3'", 1)


# ----------------------------------------------------------------- features


def graph_node_labels(dataset):
    """Each graph's node labels, as a list, cut from the data set's column."""
    column, ptr = dataset.node_labels.tolist(), dataset.node_ptr.tolist()
    for start, stop in zip(ptr[:-1], ptr[1:]):
        yield column[start:stop]


def test_default_features_use_node_labels_when_present(tmp_path):
    files = dict(MINIMAL, node_labels="7\n9\n")
    ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert ds.feature_dim == 2
    np.testing.assert_array_equal(ds.rows(0), [[1, 0], [0, 1]])


def test_degree_one_hot_on_path_graph(tmp_path):
    ds = gd.parse_tudataset(write_files(tmp_path, **MINIMAL), "TINY")
    ds = gd.build_node_features(ds, gd.FeaturePolicy("degree_one_hot", 3))
    assert ds.feature_dim == 4
    np.testing.assert_array_equal(ds.rows(0), [[0, 1, 0, 0], [0, 1, 0, 0]])


def test_degree_cap_maps_to_last_slot():
    star = (5, [(0, v) for v in range(1, 5)])
    ds = gd.GraphDataset("S", *columns([star]), 1, np.zeros(1, np.intp), np.zeros((5, 0)))
    ds = gd.build_node_features(ds, gd.FeaturePolicy("degree_one_hot", 2))
    hub = ds.rows(0)[0]
    np.testing.assert_array_equal(hub, [0, 0, 1])  # degree 4 >= cap 2


@pytest.mark.parametrize("policy", [
    gd.FeaturePolicy("one_hot_node_labels"), gd.FeaturePolicy("degree_one_hot", 3),
    gd.FeaturePolicy("constant_one"),
])
def test_one_hot_features_match_row_loop(policy):
    # sizes from 1 node up, so isolated nodes and edgeless graphs occur
    ds = gd.generate_synthetic(30, size_range=(1, 9), seed=4)
    values = sorted(set(ds.node_labels.tolist()))
    built = gd.build_node_features(ds, policy)
    for i, (g, node_labels) in enumerate(zip(graphs_of(built), graph_node_labels(ds))):
        want = np.zeros_like(built.rows(i))
        for row in range(g.node_count):
            if policy.kind == "one_hot_node_labels":
                want[row, values.index(node_labels[row])] = 1.0
            elif policy.kind == "degree_one_hot":
                want[row, min(sum(row in e for e in g.edges.tolist()), policy.degree_cap)] = 1.0
            else:
                want[row, 0] = 1.0
        assert np.array_equal(built.rows(i), want)


def test_constant_one_features(tmp_path):
    ds = gd.parse_tudataset(write_files(tmp_path, **MINIMAL), "TINY")
    ds = gd.build_node_features(ds, gd.FeaturePolicy("constant_one"))
    assert ds.feature_dim == 1
    np.testing.assert_array_equal(ds.rows(0), [[1.0], [1.0]])


def test_one_hot_without_node_labels_rejected(tmp_path):
    ds = gd.parse_tudataset(write_files(tmp_path, **MINIMAL), "TINY")
    with pytest.raises(InputError, match="node-label"):
        gd.build_node_features(ds, gd.FeaturePolicy("one_hot_node_labels"))


def test_feature_matrices_finite_and_sized():
    ds = gd.generate_synthetic(12, seed=3)
    for i, g in enumerate(graphs_of(ds)):
        assert ds.rows(i).shape == (g.node_count, ds.feature_dim)
        assert np.all(np.isfinite(ds.rows(i)))


@pytest.mark.parametrize("spelling", ["one_hot_node_labels", "degree_one_hot:3", "constant_one"])
def test_feature_dim_is_the_matrix_width(spelling):
    ds = gd.build_node_features(gd.generate_synthetic(8, seed=6), gd.FeaturePolicy.parse(spelling))
    assert ds.feature_dim == ds.node_features.shape[1]
    assert ds.node_features.shape[0] == sum(g.node_count for g in graphs_of(ds))


def test_build_node_features_shares_the_graphs():
    ds = gd.generate_synthetic(8, seed=6)
    built = gd.build_node_features(ds, gd.FeaturePolicy("constant_one"))
    assert all(getattr(built, c) is getattr(ds, c) for c in ("node_ptr", "edges", "edge_ptr"))


def test_policy_parse_spellings():
    assert gd.FeaturePolicy.parse("degree_one_hot:7").degree_cap == 7
    assert gd.FeaturePolicy.parse("constant_one").kind == "constant_one"
    with pytest.raises(InputError):
        gd.FeaturePolicy.parse("degree_one_hot:x")
    with pytest.raises(InputError):
        gd.FeaturePolicy.parse("nonsense")
    assert gd.FeaturePolicy.parse("degree_one_hot:7").spelled() == "degree_one_hot:7"


# ---------------------------------------------------------------- synthetic


# SHA-256 digests recorded from the tuple-storing implementation. Every
# manifest's `rerun` compares against this text, so it must never change.
HAND = dict(  # a one-edge graph, an isolated-node graph, a star with an isolated node
    A="1, 2\n2, 1\n4, 5\n5, 4\n4, 6\n6, 4\n4, 7\n7, 4\n5, 6\n6, 5\n",
    graph_indicator="1\n1\n2\n3\n3\n3\n3\n3\n4\n4\n4\n",  # graph 4 is edgeless
    graph_labels="1\n-1\n1\n4\n",
    node_labels="3\n1\n7\n1\n3\n7\n7\n0\n3\n-2\n1\n",
)
GOLDEN = {
    ("hand", "one_hot_node_labels"):
        "431a0fdd3195fba3320c1f4fc147546b78660c887cdac3fff181be508b77582b",
    ("hand", "degree_one_hot:2"):
        "b353a8737bf379610b955b574084983011b640ab0a17f2b5ef0e32a84a0693f0",
    ("hand", "constant_one"):
        "5281f1dac53fa597a3179c5cea77db006a3190b090fd61e5f08b76f24927f7f7",
    ("synth", "one_hot_node_labels"):
        "07e8219e2903118baf9cf1547ac00d15973299a62ac7c3fc88cf244d3bd35bd9",
    ("synth", "degree_one_hot:2"):
        "cc61637281bfa2bb1d01506cb7014b1a14d5b067811447b5646e9af70c9c2c24",
    ("synth", "constant_one"):
        "2c549d45a8b4faadcfb798f2177cb53e16c3449d1c0bc40c8438e959c067a056",
}


@pytest.mark.parametrize("source, spelling", sorted(GOLDEN))
def test_fingerprint_matches_recorded_digest(source, spelling, tmp_path):
    policy = gd.FeaturePolicy.parse(spelling)
    if source == "hand":
        ds = gd.parse_tudataset(write_files(tmp_path, "HAND", **HAND), "HAND", policy)
    else:
        synth = gd.generate_synthetic(12, 3, (1, 6), (0.2, 0.5, 0.8), seed=5)
        ds = gd.build_node_features(synth, policy)
    assert gd.dataset_fingerprint(ds) == GOLDEN[source, spelling]


def tuple_text_fingerprint(dataset):
    """The fingerprint as first written: each graph's class id, then its edges
    and node labels formatted as Python tuple text, one graph and one update
    at a time; the class ids and node labels are read from their columns."""
    h = hashlib.sha256()
    h.update(f"classes={dataset.num_classes};dim={dataset.feature_dim}".encode())
    start = 0
    for g, label in zip(graphs_of(dataset), dataset.labels.tolist()):
        h.update(f"|n={g.node_count};y={label};e={tuple(map(tuple, g.edges.tolist()))}".encode())
        if dataset.node_labels is not None:
            nl = dataset.node_labels[start : start + g.node_count]
            h.update(f";nl={tuple(nl.tolist())}".encode())
        rows = dataset.node_features[start : start + g.node_count]
        h.update(np.ascontiguousarray(rows).tobytes())
        start += g.node_count
    return h.hexdigest()


INT64 = st.integers(-(2**63), 2**63 - 1)
# a float whose eight bytes are all "%", the template's escape character
PERCENT = float(np.frombuffer(b"%" * 8, np.float64)[0])


@st.composite
def fingerprint_graph(draw):
    nodes = draw(st.integers(0, 4))
    edges = draw(st.lists(st.tuples(INT64, INT64), max_size=4))  # 0, 1 and several pairs
    return nodes, edges


def int64_column(draw, size: int) -> np.ndarray:
    return np.array(draw(st.lists(INT64, min_size=size, max_size=size)), np.int64)


@st.composite
def fingerprint_dataset(draw):
    dim = draw(st.integers(0, 3))
    graphs = draw(st.lists(fingerprint_graph(), max_size=7))
    nodes = sum(n for n, _ in graphs)
    values = st.floats(allow_nan=True, allow_infinity=True) | st.just(PERCENT) | st.just(-0.0)
    features = np.array(draw(st.lists(values, min_size=nodes * dim, max_size=nodes * dim)))
    features = features.reshape(dim, nodes).T if draw(st.booleans()) else features.reshape(nodes, dim)
    labels = int64_column(draw, len(graphs))
    node_labels = int64_column(draw, nodes) if draw(st.booleans()) else None  # all graphs or none
    return gd.GraphDataset(
        "FP", *columns(graphs), draw(st.integers(1, 4)), labels, features, node_labels
    )


@given(fingerprint_dataset())
@settings(max_examples=300, deadline=None)
def test_fingerprint_equals_tuple_text_route(dataset):
    assert gd.dataset_fingerprint(dataset) == tuple_text_fingerprint(dataset)


def test_fingerprint_equals_tuple_text_route_on_synthetic_sets():
    for seed, (low, high) in ((1, (1, 6)), (2, (10, 28))):
        ds = gd.generate_synthetic(600, 3, (low, high), (0.1, 0.3, 0.9), seed=seed)
        assert gd.dataset_fingerprint(ds) == tuple_text_fingerprint(ds)


def test_generate_is_deterministic():
    a = gd.generate_synthetic(20, seed=42)
    b = gd.generate_synthetic(20, seed=42)
    assert gd.dataset_fingerprint(a) == gd.dataset_fingerprint(b)
    c = gd.generate_synthetic(20, seed=43)
    assert gd.dataset_fingerprint(a) != gd.dataset_fingerprint(c)


def scalar_synthetic(num_graphs, n, density, seed):
    """Each graph's edges drawn the scalar way, one `rng.random()` per
    candidate edge in (u, v) order, then its node labels: the reference for
    the block draw. Returns (edges, node labels, the next integers draw)."""
    out = []
    for j in range(num_graphs):
        rng = seeded_rng(seed, "synth", j)
        size = int(rng.integers(n, n + 1))
        edges = [(u, v) for u in range(size) for v in range(u + 1, size) if rng.random() < density]
        out.append((edges, rng.integers(1, 4, size=size).tolist(), int(rng.integers(1 << 62))))
    return out


@pytest.mark.parametrize("n", [1, 2, 28])
@pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
def test_block_edge_draw_equals_scalar_draws(n, density):
    want = scalar_synthetic(6, n, density, seed=17)
    ds = gd.generate_synthetic(6, size_range=(n, n), edge_density_per_class=(density, density),
                               seed=17)
    for g, drawn, (edges, node_labels, _) in zip(graphs_of(ds), graph_node_labels(ds), want):
        assert g.edges.tolist() == [list(e) for e in edges]
        assert drawn == node_labels  # the integers draw after the edges
    # the block leaves the generator where the scalar draws leave it
    for j, (_, node_labels, after) in enumerate(want):
        rng = seeded_rng(17, "synth", j)
        rng.integers(n, n + 1)
        rng.random(n * (n - 1) // 2)
        assert rng.integers(1, 4, size=n).tolist() == node_labels
        assert int(rng.integers(1 << 62)) == after


def test_density_separates_classes():
    ds = gd.generate_synthetic(40, edge_density_per_class=(0.1, 0.9), seed=0)
    mean_deg = [[], []]
    for g, label in zip(graphs_of(ds), ds.labels.tolist()):
        mean_deg[label].append(np.bincount(g.edges.ravel(), minlength=g.node_count).mean())
    assert np.mean(mean_deg[1]) > np.mean(mean_deg[0])


def test_generate_validates_inputs():
    with pytest.raises(InputError):
        gd.generate_synthetic(10, classes=1, edge_density_per_class=(0.5,))
    with pytest.raises(InputError):
        gd.generate_synthetic(10, edge_density_per_class=(0.1, 1.5))
    with pytest.raises(InputError):
        gd.generate_synthetic(10, edge_density_per_class=(0.1,))
    with pytest.raises(InputError):
        gd.generate_synthetic(10, size_range=(5, 3))


def test_write_parse_round_trip(tmp_path):
    labeled = gd.generate_synthetic(15, seed=11)
    # without node labels, with the features a parse of such files builds by default
    bare = gd.build_node_features(replace(labeled, node_labels=None), gd.default_policy(False))
    for src in (labeled, bare):
        out = tmp_path / str(src.node_labels is None)
        gd.write_tudataset(src, out, "RT")
        assert (out / "RT_node_labels.txt").is_file() == (src is labeled)
        back = gd.parse_tudataset(out, "RT")
        assert len(back) == len(src)
        for a, b in zip(graphs_of(src), graphs_of(back)):
            assert a.node_count == b.node_count
            assert a.edges.tolist() == b.edges.tolist()
        assert back.labels.tolist() == src.labels.tolist()
        if src is labeled:
            assert back.node_labels.tolist() == src.node_labels.tolist()
        else:
            assert back.node_labels is None
        assert gd.dataset_fingerprint(src) == gd.dataset_fingerprint(back)


def assert_canonical_columns(ds):
    """The offsets run from 0 to N and to E, and each graph's edges lie in its
    own node range, each pair u < v, sorted and unique."""
    node_ptr, edges, edge_ptr = ds.node_ptr, ds.edges, ds.edge_ptr
    assert len(node_ptr) == len(edge_ptr) == len(ds) + 1
    assert node_ptr[0] == 0 and node_ptr[-1] == len(ds.node_features)
    assert edge_ptr[0] == 0 and edge_ptr[-1] == len(edges)
    assert edges.dtype == np.intp and edges.shape == (len(edges), 2)
    assert (np.diff(node_ptr) >= 0).all() and (np.diff(edge_ptr) >= 0).all()
    for i in range(len(ds)):
        pairs = edges[edge_ptr[i] : edge_ptr[i + 1]].tolist()
        assert all(node_ptr[i] <= u < v < node_ptr[i + 1] for u, v in pairs)
        assert [list(p) for p in sorted(set(map(tuple, pairs)))] == pairs


UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@given(num_graphs=st.integers(0, 12), lo=st.integers(1, 4), span=st.integers(0, 5),
       densities=st.tuples(UNIT, UNIT), seed=st.integers(0, 2**64 - 1))
@example(num_graphs=4, lo=1, span=0, densities=(0.0, 1.0), seed=0)  # 1-node graphs
@example(num_graphs=4, lo=1, span=4, densities=(0.0, 0.0), seed=3)  # no graph has an edge
@settings(max_examples=60, deadline=None)
def test_columns_survive_a_write_parse_round_trip(num_graphs, lo, span, densities, seed):
    ds = gd.generate_synthetic(num_graphs, 2, (lo, lo + span), densities, seed)
    assert_canonical_columns(ds)
    if not num_graphs:  # files of no node do not parse
        return
    with tempfile.TemporaryDirectory() as tmp:
        back = gd.parse_tudataset(gd.write_tudataset(ds, tmp, "RT"), "RT")
    assert_canonical_columns(back)
    for column in ("node_ptr", "edges", "edge_ptr"):
        assert np.array_equal(getattr(back, column), getattr(ds, column)), column


def test_parsed_node_counts_match_indicator_loop(tmp_path):
    src = gd.generate_synthetic(40, size_range=(1, 9), seed=12)
    gd.write_tudataset(src, tmp_path, "NC")
    back = gd.parse_tudataset(tmp_path, "NC")
    indicator = np.loadtxt(tmp_path / "NC_graph_indicator.txt", dtype=np.int64)
    reference = [int((indicator == g).sum()) for g in range(1, len(src) + 1)]
    assert [g.node_count for g in graphs_of(back)] == reference
    assert reference == [g.node_count for g in graphs_of(src)]


def test_parse_with_policy_equals_rebuilt_features(tmp_path):
    src = gd.generate_synthetic(12, seed=13)
    gd.write_tudataset(src, tmp_path, "PF")
    for spelling in ("degree_one_hot:3", "constant_one", "one_hot_node_labels"):
        policy = gd.FeaturePolicy.parse(spelling)
        once = gd.parse_tudataset(tmp_path, "PF", policy)
        rebuilt = gd.build_node_features(gd.parse_tudataset(tmp_path, "PF"), policy)
        assert once.feature_dim == rebuilt.feature_dim
        assert gd.dataset_fingerprint(once) == gd.dataset_fingerprint(rebuilt)
        for i in range(len(once)):
            assert np.array_equal(once.rows(i), rebuilt.rows(i))


@pytest.mark.parametrize("node_labels, spelling, recorded", [
    (True, None, "one_hot_node_labels"),
    (False, None, "degree_one_hot:10"),
    (True, "degree_one_hot:3", "degree_one_hot:3"),
    (True, "degree_one_hot:03", "degree_one_hot:3"),
    (False, "constant_one", "constant_one"),
], ids=["default_labels", "default_no_labels", "explicit", "explicit_unpadded", "explicit_bare"])
def test_parsed_data_set_records_its_feature_policy(tmp_path, node_labels, spelling, recorded):
    src = gd.generate_synthetic(12, seed=13)
    gd.write_tudataset(src if node_labels else replace(src, node_labels=None), tmp_path, "FP")
    ds = gd.parse_tudataset(tmp_path, "FP", spelling and gd.FeaturePolicy.parse(spelling))
    assert ds.feature_policy == gd.FeaturePolicy.parse(recorded)
    assert ds.feature_policy.spelled() == recorded
    # the recorded policy is the one the matrix was built under
    assert np.array_equal(gd.build_node_features(ds, ds.feature_policy).node_features,
                          ds.node_features)


def test_synthetic_data_set_records_its_feature_policy():
    ds = gd.generate_synthetic(8, seed=6)
    assert ds.feature_policy == gd.FeaturePolicy("one_hot_node_labels")


@pytest.mark.parametrize("spelling", ["one_hot_node_labels", "degree_one_hot:3", "constant_one"])
def test_build_node_features_records_its_policy(spelling):
    policy = gd.FeaturePolicy.parse(spelling)
    ds = gd.generate_synthetic(8, seed=6)
    assert gd.build_node_features(ds, policy).feature_policy == policy
    columns = ds.node_ptr, ds.edges, ds.edge_ptr, 2, ds.labels, ds.node_features, ds.node_labels
    bare = gd.GraphDataset("B", *columns)
    assert bare.feature_policy is None  # a matrix made by hand records none
    assert gd.build_node_features(bare, policy).feature_policy == policy


def test_writer_is_byte_deterministic(tmp_path):
    ds = gd.generate_synthetic(6, seed=5)
    gd.write_tudataset(ds, tmp_path / "x", "D")
    gd.write_tudataset(ds, tmp_path / "y", "D")
    for suffix in ("A", "graph_indicator", "graph_labels", "node_labels"):
        fx = (tmp_path / "x" / f"D_{suffix}.txt").read_bytes()
        fy = (tmp_path / "y" / f"D_{suffix}.txt").read_bytes()
        assert fx == fy


def per_record_write(dataset, directory, name):
    """The writer as first written, one Python string per record: the reference."""
    directory.mkdir(parents=True)

    def dump(suffix, lines):
        (directory / f"{name}_{suffix}.txt").write_text("\n".join(lines) + "\n", encoding="ascii")

    dump("graph_labels", map(str, dataset.labels.tolist()))
    if dataset.node_labels is not None:
        dump("node_labels", map(str, dataset.node_labels.tolist()))
    a_lines, ind_lines, base = [], [], 0
    for gid, g in enumerate(graphs_of(dataset), start=1):
        ind_lines.extend([str(gid)] * g.node_count)
        for u, v in g.edges.tolist():
            a_lines += [f"{base + u + 1}, {base + v + 1}", f"{base + v + 1}, {base + u + 1}"]
        base += g.node_count
    dump("A", a_lines)
    dump("graph_indicator", ind_lines)


@pytest.mark.parametrize("write_rows", [gd.WRITE_ROWS, 7, 1])
def test_writer_equals_per_record_reference(tmp_path, monkeypatch, write_rows):
    monkeypatch.setattr(gd, "WRITE_ROWS", write_rows)  # one chunk, several with a tail, one a row
    labeled = gd.generate_synthetic(30, 3, edge_density_per_class=(0.0, 0.4, 1.0), seed=4)
    parsed_dir = gd.write_tudataset(gd.generate_synthetic(12, seed=9), tmp_path / "P", "P")
    # more A records than one write formats at the default WRITE_ROWS
    large = gd.generate_synthetic(300, 2, (20, 28), (0.3, 0.6), seed=8)
    assert 2 * len(large.edges) > gd.WRITE_ROWS
    sets = {
        "zero_density_class": labeled,
        "no_node_labels": replace(labeled, node_labels=None),
        "large": large,
        "edgeless": gd.generate_synthetic(12, edge_density_per_class=(0.0, 0.0), seed=2),
        "parsed": gd.parse_tudataset(parsed_dir, "P"),
        "empty": gd.generate_synthetic(0),
    }
    assert all(len(g.edges) == 0 for g in graphs_of(labeled)[::3])  # class 0, drawn at density 0
    for label, ds in sets.items():
        gd.write_tudataset(ds, tmp_path / "new" / label, "W")
        per_record_write(ds, tmp_path / "ref" / label, "W")
        new, ref = (sorted((tmp_path / side / label).iterdir()) for side in ("new", "ref"))
        assert [f.name for f in new] == [f.name for f in ref], label
        for a, b in zip(new, ref):
            assert a.read_bytes() == b.read_bytes(), (label, a.name)
    assert (tmp_path / "new" / "edgeless" / "W_A.txt").read_bytes() == b"\n"


# -------------------------------------------------------------------- folds


def synth(n=100):
    return gd.generate_synthetic(n, seed=1)


def test_fold_sizes_for_even_split():
    plans = gd.make_folds(synth(100), k=10, seed=0)
    assert len(plans) == 10
    for p in plans:
        assert len(p.test_indices) == 10
        assert len(p.valid_indices) == 10
        assert len(p.train_indices) == 80


def test_fold_partition_is_exact():
    plans = gd.make_folds(synth(53), k=10, seed=2)
    everything = set(range(53))
    for p in plans:
        te, va, tr = set(p.test_indices), set(p.valid_indices), set(p.train_indices)
        assert te | va | tr == everything
        assert not (te & va) and not (te & tr) and not (va & tr)


def test_validation_part_follows_test_part():
    plans = gd.make_folds(synth(40), k=10, seed=7)
    # fold i's valid part equals fold i+1's test part
    for i in range(10):
        assert plans[i].valid_indices == plans[(i + 1) % 10].test_indices


def test_folds_deterministic():
    assert gd.make_folds(synth(30), seed=9) == gd.make_folds(synth(30), seed=9)
    assert gd.make_folds(synth(30), seed=9) != gd.make_folds(synth(30), seed=10)


def test_too_few_graphs_rejected():
    with pytest.raises(InputError, match="folds"):
        gd.make_folds(synth(9), k=10, seed=0)


def test_assign_labels_count_and_subset():
    plan = gd.make_folds(synth(100), seed=0)[0]
    got = gd.assign_labels(plan, 0.5, seed=0)
    assert len(got.labeled_mask) == 40
    assert set(got.labeled_mask) <= set(got.train_indices)


def test_assign_labels_rounds_half_up():
    plan = gd.FoldPlan(0, (0,), (1,), (2, 3, 4, 5, 6))
    assert len(gd.assign_labels(plan, 0.5, seed=0).labeled_mask) == 3  # 2.5 -> 3


def test_assign_labels_full_ratio():
    plan = gd.make_folds(synth(20), seed=0)[3]
    got = gd.assign_labels(plan, 1.0, seed=0)
    assert sorted(got.labeled_mask) == sorted(got.train_indices)


def test_assign_labels_deterministic_and_validated():
    plan = gd.make_folds(synth(50), seed=4)[2]
    assert gd.assign_labels(plan, 0.3, seed=8) == gd.assign_labels(plan, 0.3, seed=8)
    with pytest.raises(InputError):
        gd.assign_labels(plan, 0.0, seed=0)
    with pytest.raises(InputError):
        gd.assign_labels(plan, 1.2, seed=0)


# --------------------------------------------------------------- properties


@given(n=st.integers(10, 60), k=st.integers(2, 10), seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_fold_partition_property(n, k, seed):
    plans = gd.make_folds(synth_cached(n), k=k, seed=seed)
    for p in plans:
        te, va, tr = set(p.test_indices), set(p.valid_indices), set(p.train_indices)
        assert te | va | tr == set(range(n))
        assert len(te) + len(va) + len(tr) == n


_cache = {}


def synth_cached(n):
    if n not in _cache:
        _cache[n] = gd.generate_synthetic(n, seed=99)
    return _cache[n]


def test_stats_shape():
    s = gd.dataset_stats(synth(12))
    assert s["num_graphs"] == 12 and s["num_classes"] == 2
    assert s["mean_nodes"] > 0 and s["mean_edges"] > 0
