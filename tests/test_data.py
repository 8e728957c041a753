"""Dataset parsing, features, synthetic round-trips, fold plans."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glaug import data as gd
from glaug.errors import DatasetFormatError, InputError


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
    assert g.edges == ((0, 1),)
    assert g.label == 0


def test_parse_two_graphs_local_ids(tmp_path):
    files = dict(
        A="1, 2\n2, 1\n3, 5\n5, 3\n4, 5\n5, 4\n",
        graph_indicator="1\n1\n2\n2\n2\n",
        graph_labels="3\n7\n",
    )
    ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert [g.node_count for g in ds.graphs] == [2, 3]
    assert ds.graphs[1].edges == ((0, 2), (1, 2))
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
    assert ds.graphs[0].edges == ((0, 1),)
    assert any("self-loop" in r.message for r in caplog.records)


def test_parse_drops_repeated_directed_edges_with_warning(tmp_path, caplog):
    files = dict(MINIMAL, A="1, 2\n2, 1\n1, 2\n")
    with caplog.at_level(logging.WARNING, logger="glaug.data"):
        ds = gd.parse_tudataset(write_files(tmp_path, **files), "TINY")
    assert ds.graphs[0].edges == ((0, 1),)
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
    assert ds.graphs[0].edges == ((0, 1),)


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
])
def test_one_hot_features_match_row_loop(policy):
    # sizes from 1 node up, so isolated nodes and edgeless graphs occur
    ds = gd.generate_synthetic(30, size_range=(1, 9), seed=4)
    values = sorted({lab for g in ds.graphs for lab in g.node_labels})
    for g in gd.build_node_features(ds, policy).graphs:
        want = np.zeros_like(g.node_features)
        for row in range(g.node_count):
            if policy.kind == "one_hot_node_labels":
                want[row, values.index(g.node_labels[row])] = 1.0
            else:
                want[row, min(sum(row in e for e in g.edges), policy.degree_cap)] = 1.0
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


def test_generate_is_deterministic():
    a = gd.generate_synthetic(20, seed=42)
    b = gd.generate_synthetic(20, seed=42)
    assert gd.dataset_fingerprint(a) == gd.dataset_fingerprint(b)
    c = gd.generate_synthetic(20, seed=43)
    assert gd.dataset_fingerprint(a) != gd.dataset_fingerprint(c)


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
        assert a.edges == b.edges
        assert a.label == b.label
        assert a.node_labels == b.node_labels
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
