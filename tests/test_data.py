"""Dataset parsing, features, synthetic round-trips, fold plans."""

import contextlib
import io
import logging
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glaug.cli as cli_mod
from glaug import data as gd
from glaug.cli import main
from glaug.errors import DatasetFormatError, InputError
from glaug.seeding import seeded_rng


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
    g = ds.graphs[0]
    assert g.node_count == 2
    assert g.edges.tolist() == [[0, 1]]
    assert g.label == 0


def test_parse_two_graphs_local_ids(tmp_path):
    files = dict(
        A="1, 2\n2, 1\n3, 5\n5, 3\n4, 5\n5, 4\n",
        graph_indicator="1\n1\n2\n2\n2\n",
        graph_labels="3\n7\n",
    )
    ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert [g.node_count for g in ds.graphs] == [2, 3]
    assert ds.graphs[1].edges.tolist() == [[0, 2], [1, 2]]
    # raw labels 3, 7 remapped in sorted order
    assert [g.label for g in ds.graphs] == [0, 1]


def test_parse_is_deterministic(tmp_path):
    write_files(tmp_path, **MINIMAL)
    a = gd.parse_tudataset(tmp_path, "TINY")
    b = gd.parse_tudataset(tmp_path, "TINY")
    assert gd.dataset_fingerprint(a) == gd.dataset_fingerprint(b)


def test_parse_drops_self_loops_with_warning(tmp_path, caplog):
    files = dict(MINIMAL, A="1, 2\n2, 1\n1, 1\n")
    with caplog.at_level(logging.WARNING, logger="glaug.data"):
        ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert ds.graphs[0].edges.tolist() == [[0, 1]]
    assert any("self-loop" in r.message for r in caplog.records)


def test_parse_drops_repeated_directed_edges_with_warning(tmp_path, caplog):
    files = dict(MINIMAL, A="1, 2\n2, 1\n1, 2\n")
    with caplog.at_level(logging.WARNING, logger="glaug.data"):
        ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert ds.graphs[0].edges.tolist() == [[0, 1]]
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


def test_edge_across_graphs_rejected(tmp_path):
    files = dict(
        A="1, 3\n",
        graph_indicator="1\n1\n2\n",
        graph_labels="1\n2\n",
    )
    with pytest.raises(DatasetFormatError, match="spans graphs"):
        gd.parse_tudataset(write_files(tmp_path, **files), "TINY")


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
    files = dict(A="1, 2 \n2, 1\n\n", graph_indicator="1 \n1\n", graph_labels="1\n")
    ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert ds.graphs[0].edges.tolist() == [[0, 1]]


def test_int64_range_edges_accepted_and_beyond_rejected(tmp_path):
    files = dict(MINIMAL, graph_labels="-9_223_372_036_854_775_808\n")
    assert gd.parse_tudataset(write_files(tmp_path, **files), "TINY").num_classes == 1
    files = dict(MINIMAL, node_labels="9223372036854775807\n+0009223372036854775807\n")
    ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert ds.graphs[0].node_labels.tolist() == [2**63 - 1, 2**63 - 1]


@pytest.mark.parametrize("text, line", [
    ("9223372036854775808\n", 1),
    ("9999999999999999999\n", 1),
    ("1\n18446744073709551617\n", 2),  # 2**64 + 1
    ("\n1\n-9223372036854775809\n", 3),
    ("1\n" + "9" * 5000 + "\n", 2),
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


def _reference_int_lines(path: Path, fields: int):
    """Yield (lineno, tuple_of_ints); blank lines are skipped."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if not line.isascii():  # a non-ASCII byte decodes to a lone surrogate
                raise DatasetFormatError(path, lineno, f"not ASCII text: {line!r}")
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
    graphs = []
    for g in range(num_graphs):
        n = counts[g]
        base = int(first_node[g])
        nl = tuple(node_labels[base : base + n]) if node_labels is not None else None
        graphs.append(gd.GraphInstance(
            node_count=n,
            edges=tuple(sorted(edge_sets[g])),
            node_features=np.zeros((n, 0)),
            label=class_of[raw_labels[g]],
            node_labels=nl,
        ))
    ds = gd.GraphDataset(name=name, graphs=tuple(graphs), num_classes=len(class_of), feature_dim=0)
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


@given(
    graphs=st.integers(1, 4),
    seed=st.integers(0, 50),
    edits=st.lists(
        st.tuples(
            st.sampled_from(FUZZ_FILES),
            st.sampled_from(FUZZ_OPS),
            st.integers(0, 10**6),
            st.sampled_from(FUZZ_PIECES),
            st.integers(-3, 3),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=600, deadline=None)
def test_bulk_reader_matches_per_line_reference(graphs, seed, edits):
    src = gd.generate_synthetic(graphs, size_range=(1, 5), seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        directory = gd.write_tudataset(src, Path(tmp) / "FZ", "FZ")
        for suffix, op, at, piece, delta in edits:
            path = directory / f"FZ_{suffix}.txt"
            if path.is_file():
                content = mutate(path.read_bytes(), op, at, piece, delta)
                if content is not None:
                    path.write_bytes(content)
                elif suffix == "node_labels":  # the one optional file
                    path.unlink()

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


# ----------------------------------------------------------------- features


def test_default_features_use_node_labels_when_present(tmp_path):
    files = dict(MINIMAL, node_labels="7\n9\n")
    ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert ds.feature_dim == 2
    np.testing.assert_array_equal(ds.graphs[0].node_features, [[1, 0], [0, 1]])


def test_degree_one_hot_on_path_graph(tmp_path):
    ds = gd.parse_tudataset(write_files(tmp_path, **MINIMAL), "TINY")
    ds = gd.build_node_features(ds, gd.FeaturePolicy("degree_one_hot", 3))
    assert ds.feature_dim == 4
    np.testing.assert_array_equal(ds.graphs[0].node_features, [[0, 1, 0, 0], [0, 1, 0, 0]])


def test_degree_cap_maps_to_last_slot():
    star = gd.GraphInstance(
        node_count=5,
        edges=tuple((0, v) for v in range(1, 5)),
        node_features=np.zeros((5, 0)),
        label=0,
    )
    ds = gd.GraphDataset("S", (star,), 1, 0)
    ds = gd.build_node_features(ds, gd.FeaturePolicy("degree_one_hot", 2))
    hub = ds.graphs[0].node_features[0]
    np.testing.assert_array_equal(hub, [0, 0, 1])  # degree 4 >= cap 2


@pytest.mark.parametrize("policy", [
    gd.FeaturePolicy("one_hot_node_labels"), gd.FeaturePolicy("degree_one_hot", 3),
    gd.FeaturePolicy("constant_one"),
])
def test_one_hot_features_match_row_loop(policy):
    # sizes from 1 node up, so isolated nodes and edgeless graphs occur
    ds = gd.generate_synthetic(30, size_range=(1, 9), seed=4)
    values = sorted({lab for g in ds.graphs for lab in g.node_labels.tolist()})
    for g in gd.build_node_features(ds, policy).graphs:
        want = np.zeros_like(g.node_features)
        for row in range(g.node_count):
            if policy.kind == "one_hot_node_labels":
                want[row, values.index(g.node_labels[row])] = 1.0
            elif policy.kind == "degree_one_hot":
                want[row, min(sum(row in e for e in g.edges.tolist()), policy.degree_cap)] = 1.0
            else:
                want[row, 0] = 1.0
        assert np.array_equal(g.node_features, want)


def test_constant_one_features(tmp_path):
    ds = gd.parse_tudataset(write_files(tmp_path, **MINIMAL), "TINY")
    ds = gd.build_node_features(ds, gd.FeaturePolicy("constant_one"))
    assert ds.feature_dim == 1
    np.testing.assert_array_equal(ds.graphs[0].node_features, [[1.0], [1.0]])


def test_one_hot_without_node_labels_rejected(tmp_path):
    ds = gd.parse_tudataset(write_files(tmp_path, **MINIMAL), "TINY")
    with pytest.raises(InputError, match="node-label"):
        gd.build_node_features(ds, gd.FeaturePolicy("one_hot_node_labels"))


def test_feature_matrices_finite_and_sized():
    ds = gd.generate_synthetic(12, seed=3)
    for g in ds.graphs:
        assert g.node_features.shape == (g.node_count, ds.feature_dim)
        assert np.all(np.isfinite(g.node_features))


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


def test_fingerprint_same_for_tuple_and_array_graphs():
    def dataset(edges, node_labels):
        g = gd.GraphInstance(4, edges, np.ones((4, 1)), 1, node_labels)
        return gd.GraphDataset("T", (g,), 2, 1)

    from_tuples = dataset(((0, 1), (1, 3)), (5, -2, 5, 0))
    from_arrays = dataset(np.array([[0, 1], [1, 3]]), np.array([5, -2, 5, 0]))
    assert gd.dataset_fingerprint(from_tuples) == gd.dataset_fingerprint(from_arrays)
    assert gd.dataset_fingerprint(dataset((), None)) == gd.dataset_fingerprint(
        dataset(np.empty((0, 2), np.intp), None)
    )


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
    for g, (edges, node_labels, _) in zip(ds.graphs, want):
        assert g.edges.tolist() == [list(e) for e in edges]
        assert g.node_labels.tolist() == node_labels  # the integers draw after the edges
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
    for g in ds.graphs:
        mean_deg[g.label].append(g.degrees().mean())
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
    src = gd.generate_synthetic(15, seed=11)
    gd.write_tudataset(src, tmp_path, "RT")
    back = gd.parse_tudataset(tmp_path, "RT")
    assert len(back) == len(src)
    for a, b in zip(src.graphs, back.graphs):
        assert a.node_count == b.node_count
        assert a.edges.tolist() == b.edges.tolist()
        assert a.label == b.label
        assert a.node_labels.tolist() == b.node_labels.tolist()
    assert gd.dataset_fingerprint(src) == gd.dataset_fingerprint(back)


def test_parsed_node_counts_match_indicator_loop(tmp_path):
    src = gd.generate_synthetic(40, size_range=(1, 9), seed=12)
    gd.write_tudataset(src, tmp_path, "NC")
    back = gd.parse_tudataset(tmp_path, "NC")
    indicator = np.loadtxt(tmp_path / "NC_graph_indicator.txt", dtype=np.int64)
    reference = [int((indicator == g).sum()) for g in range(1, len(src) + 1)]
    assert [g.node_count for g in back.graphs] == reference
    assert reference == [g.node_count for g in src.graphs]


def test_parse_with_policy_equals_rebuilt_features(tmp_path):
    src = gd.generate_synthetic(12, seed=13)
    gd.write_tudataset(src, tmp_path, "PF")
    for spelling in ("degree_one_hot:3", "constant_one", "one_hot_node_labels"):
        policy = gd.FeaturePolicy.parse(spelling)
        once = gd.parse_tudataset(tmp_path, "PF", policy)
        rebuilt = gd.build_node_features(gd.parse_tudataset(tmp_path, "PF"), policy)
        assert once.feature_dim == rebuilt.feature_dim
        assert gd.dataset_fingerprint(once) == gd.dataset_fingerprint(rebuilt)
        for a, b in zip(once.graphs, rebuilt.graphs):
            assert np.array_equal(a.node_features, b.node_features)


def test_writer_is_byte_deterministic(tmp_path):
    ds = gd.generate_synthetic(6, seed=5)
    gd.write_tudataset(ds, tmp_path / "x", "D")
    gd.write_tudataset(ds, tmp_path / "y", "D")
    for suffix in ("A", "graph_indicator", "graph_labels", "node_labels"):
        fx = (tmp_path / "x" / f"D_{suffix}.txt").read_bytes()
        fy = (tmp_path / "y" / f"D_{suffix}.txt").read_bytes()
        assert fx == fy


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
