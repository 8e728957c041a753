"""Model tests: dense adjacency oracle, numpy forward oracle, FD gradients."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glaug import autodiff as ad
from glaug import model as gm
from glaug.autodiff import Tape, grad_check
from glaug.data import FeaturePolicy, GraphDataset, build_node_features
from glaug.errors import InputError


@dataclass(frozen=True, eq=False)
class FeaturedGraph:
    """A graph with its feature rows, as a data set's graph(i) and rows(i)."""

    node_count: int
    edges: np.ndarray  # E x 2 intp local ids, canonical
    node_features: np.ndarray


def graph(n, edges, features):
    """A graph of `n` nodes; `edges` are canonical (u, v) pairs."""
    return FeaturedGraph(n, np.array(edges, np.intp).reshape(-1, 2), features)


def adjacency(g: FeaturedGraph) -> np.ndarray:
    return gm.normalize_adjacency(g.node_count, g.edges)


def batch_of(*graphs):
    """The disjoint union the model consumes, each block from `normalize_adjacency`."""
    features = [g.node_features for g in graphs]
    return gm.GraphBatch.of(features, [adjacency(g) for g in graphs])


def dataset_of(graphs) -> GraphDataset:
    """The graphs as data-set columns: global edge ids and node and edge offsets."""
    node_ptr = np.cumsum([0, *(g.node_count for g in graphs)])
    edge_ptr = np.cumsum([0, *(len(g.edges) for g in graphs)])
    edges = np.concatenate([g.edges + s for g, s in zip(graphs, node_ptr)]).reshape(-1, 2)
    x = np.zeros((node_ptr[-1], 0))
    return GraphDataset("G", node_ptr, edges, edge_ptr, 1, np.zeros(len(graphs), np.intp), x)


def random_graph(rng, max_nodes=8, feature_dim=4):
    n = int(rng.integers(1, max_nodes + 1))
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
    )
    return graph(n, edges, rng.normal(size=(n, feature_dim)))


# -------------------------------------------------- adjacency normalization


def dense_oracle(g: FeaturedGraph) -> np.ndarray:
    """Brute force D^(-1/2) (A + I) D^(-1/2), the independent route."""
    a = np.eye(g.node_count)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    d_inv_sqrt = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
    return d_inv_sqrt @ a @ d_inv_sqrt


def loop_degrees(g: FeaturedGraph) -> np.ndarray:
    """Edge endpoints counted one edge at a time, the independent route."""
    deg = np.zeros(g.node_count, dtype=np.int64)
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def entry_loop(g: FeaturedGraph) -> np.ndarray:
    """The sparse (row, col, weight) construction, filled into a dense array."""
    deg = (loop_degrees(g) + 1).astype(np.float64)
    entries = [(i, i, float(1.0 / deg[i])) for i in range(g.node_count)]
    for u, v in g.edges:
        w = float(1.0 / np.sqrt(deg[u] * deg[v]))
        entries.append((u, v, w))
        entries.append((v, u, w))
    m = np.zeros((g.node_count, g.node_count))
    for i, j, w in sorted(entries):
        m[i, j] = w
    return m


def test_degrees_match_edge_loop():
    """The degree features count each node's edges in the data set's edge column."""
    rng = np.random.default_rng(3)
    graphs = [random_graph(rng, max_nodes=30) for _ in range(40)]
    graphs.append(graph(4, ((0, 1), (1, 2)), np.ones((4, 1))))  # node 3 isolated
    graphs.append(graph(5, (), np.ones((5, 1))))  # no edges
    ds = build_node_features(dataset_of(graphs), FeaturePolicy("degree_one_hot", 30))
    for i, g in enumerate(graphs):  # a cap of 30 caps no degree of 30 or fewer nodes
        got = ds.rows(i).argmax(axis=1)
        assert got.shape == (g.node_count,) and got.dtype.kind == "i"
        assert np.array_equal(got, loop_degrees(g))


def test_single_isolated_node():
    g = graph(1, (), np.ones((1, 2)))
    assert np.array_equal(adjacency(g), [[1.0]])


def test_two_nodes_one_edge_all_half():
    g = graph(2, ((0, 1),), np.ones((2, 2)))
    assert np.array_equal(adjacency(g), np.full((2, 2), 0.5))


def test_matches_dense_oracle_on_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(60):
        g = random_graph(rng)
        got = adjacency(g)
        np.testing.assert_allclose(got, dense_oracle(g), atol=1e-12)


def test_normalize_adjacency_matches_entry_loop_bitwise():
    rng = np.random.default_rng(2)
    graphs = [random_graph(rng, max_nodes=30) for _ in range(60)]
    graphs.append(graph(4, ((0, 1), (1, 2)), np.ones((4, 1))))  # node 3 isolated
    graphs.append(graph(5, (), np.ones((5, 1))))  # no edges
    for g in graphs:
        got = adjacency(g)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, entry_loop(g))


def test_adjacency_invariants():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_graph(rng)
        adj = adjacency(g)
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) > 0.0)
        nonzero = {(int(i), int(j)) for i, j in zip(*np.nonzero(adj))}
        expected = {(i, i) for i in range(g.node_count)}
        expected |= {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
        assert nonzero == expected
        assert np.all(adj[adj != 0.0] <= 1.0)


# ----------------------------------------------------------- numpy forward


def numpy_forward(g, params):
    """Second route through the whole model, plus the min |preactivation|.

    The margin tells FD tests whether any relu input sits near the kink.
    """
    a_hat = dense_oracle(g)
    arr = params.arrays
    out = g.node_features
    margin = np.inf
    for layer in range(params.depth):
        z = a_hat @ out @ arr[f"enc{layer}"]
        margin = min(margin, float(np.abs(z).min()))
        new = np.maximum(0.0, z)
        if layer > 0 and new.shape == out.shape:
            new = new + out
        out = new
    h = np.sort(out, axis=0).sum(axis=0, keepdims=True)
    heads = {}
    for head in ("cls", "proj"):
        z1 = h @ arr[f"{head}_w1"] + arr[f"{head}_b1"]
        margin = min(margin, float(np.abs(z1).min()))
        a1 = np.maximum(0.0, z1)
        heads[head] = a1 @ arr[f"{head}_w2"] + arr[f"{head}_b2"]
    logits = heads["cls"]
    e = np.exp(logits - logits.max())
    return h, e / e.sum(), heads["proj"], margin


def clean_case(seed0=0, feature_dim=4, **kw):
    """First (graph, params) pair whose preactivations stay off the relu kink."""
    for seed in range(seed0, seed0 + 200):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, max_nodes=6, feature_dim=feature_dim)
        params = gm.ModelParams.init(
            feature_dim, num_classes=3, hidden=5, proj_dim=4, depth=kw.get("depth", 3), rng=rng
        )
        for a in params.arrays.values():  # nonzero biases exercise their gradients
            a += rng.normal(scale=0.05, size=a.shape)
        if numpy_forward(g, params)[3] > 1e-3:
            return g, params
    raise AssertionError("no kink-free case found")


def test_engine_forward_matches_numpy_route():
    g, params = clean_case(0)
    t = Tape()
    bound = params.bind(t)
    h = gm.represent(t, batch_of(g), bound)
    c = gm.classify(h, bound)
    p = gm.project(h, bound)
    h2, c2, p2, _ = numpy_forward(g, params)
    np.testing.assert_allclose(h.value, h2, atol=1e-12)
    np.testing.assert_allclose(c.value, c2, atol=1e-12)
    np.testing.assert_allclose(p.value, p2, atol=1e-12)


# ------------------------------------------------------------------- encode


def fd_wrt(params, name, build_loss):
    """grad_check over one named array, all others held constant."""

    def f(x):
        t = x.tape
        bound = {k: t.constant(v) for k, v in params.arrays.items()}
        bound[name] = x
        return build_loss(t, bound)

    return grad_check(f, params.arrays[name])


def test_encode_gradients_every_layer():
    g, params = clean_case(10)
    batch = batch_of(g)

    def loss(t, bound):
        return ad.sum_all(gm.encode(t, batch, bound))

    for layer in range(params.depth):
        err = fd_wrt(params, f"enc{layer}", loss)
        assert err < 1e-4, f"enc{layer}: {err:.2e}"


def test_zero_weights_give_zero_encoding():
    g, params = clean_case(20)
    for name in params.arrays:
        if name.startswith("enc"):
            params.arrays[name][...] = 0.0
    out = gm.encode(None, batch_of(g), params.bind())
    np.testing.assert_array_equal(out, 0.0)


def test_residual_skips_zeroed_upper_layer():
    g, params = clean_case(30)
    first = gm.encode(None, batch_of(g), params.bind())
    zeroed = params.copy()
    for layer in range(1, params.depth):
        zeroed.arrays[f"enc{layer}"][...] = 0.0
    bound = {k: v for k, v in zeroed.bind().items() if not k.startswith("enc") or k == "enc0"}
    layer0 = gm.encode(None, batch_of(g), bound)
    full = gm.encode(None, batch_of(g), zeroed.bind())
    # relu(0) = 0 at layers >= 1, residual carries layer 0 through unchanged
    np.testing.assert_array_equal(full, layer0)
    assert not np.array_equal(full, np.zeros_like(full)) or first is None


def test_feature_dim_mismatch_rejected():
    g, params = clean_case(40, feature_dim=4)
    bad = graph(g.node_count, g.edges, np.ones((g.node_count, 7)))
    t = Tape()
    with pytest.raises(InputError, match="feature dim"):
        gm.encode(t, batch_of(bad), params.bind(t))


def test_empty_graph_rejected():
    _, params = clean_case(50)
    g = graph(0, (), np.zeros((0, 4)))
    t = Tape()
    with pytest.raises(InputError, match="empty"):
        gm.encode(t, gm.GraphBatch.of([g.node_features], [np.zeros((0, 0))]), params.bind(t))


# --------------------------------------------------------------------- pool


def test_pool_hand_value():
    t = Tape()
    h = ad.column_sum(t.leaf([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(h.value, [[4.0, 6.0]])


def test_pool_single_node_is_identity():
    t = Tape()
    h = ad.column_sum(t.leaf([[7.0, -2.0, 0.5]]))
    np.testing.assert_array_equal(h.value, [[7.0, -2.0, 0.5]])


def test_pool_permutation_bit_identical_adversarial():
    # catastrophic-cancellation rows: naive left-to-right sums would disagree
    rows = np.array([[1e16], [1.0], [-1e16], [2.0]])
    perms = [rows[p] for p in ([0, 1, 2, 3], [2, 0, 3, 1], [3, 2, 1, 0])]
    sums = []
    for m in perms:
        t = Tape()
        sums.append(ad.column_sum(t.leaf(m)).value.copy())
    assert all(np.array_equal(sums[0], s) for s in sums[1:])


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_pool_permutation_bit_identical_random(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-8, 9)
    p = rng.permutation(6)
    t1, t2 = Tape(), Tape()
    assert np.array_equal(ad.column_sum(t1.leaf(m)).value, ad.column_sum(t2.leaf(m[p])).value)


def test_segment_pool_rows_equal_column_sum_of_slices():
    rng = np.random.default_rng(11)
    for _ in range(30):
        counts = rng.integers(1, 9, size=int(rng.integers(1, 6)))
        bounds = np.concatenate([[0], np.cumsum(counts)])
        m = rng.normal(size=(int(bounds[-1]), 5)) * 10.0 ** rng.integers(-8, 9)
        pooled = ad.column_sum(m, bounds)
        assert pooled.shape == (len(counts), 5)
        for b in range(len(counts)):
            assert np.array_equal(pooled[b : b + 1], ad.column_sum(m[bounds[b] : bounds[b + 1]]))


def test_segment_pool_permutation_bit_identical_adversarial():
    # the adversarial column twice over, each segment permuted on its own
    rows = np.array([[1e16], [1.0], [-1e16], [2.0]])
    stacked = np.vstack([rows, rows[::-1] * 3.0])
    bounds = (0, 4, 8)
    want = ad.column_sum(stacked, bounds)
    for p, q in (([2, 0, 3, 1], [1, 3, 0, 2]), ([3, 2, 1, 0], [0, 1, 2, 3])):
        permuted = np.vstack([stacked[:4][p], stacked[4:][q]])
        t = Tape()
        assert np.array_equal(ad.column_sum(t.leaf(permuted), bounds).value, want)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_segment_pool_permutation_bit_identical_random(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 7, size=int(rng.integers(1, 5)))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    m = rng.normal(size=(int(bounds[-1]), 3)) * 10.0 ** rng.integers(-8, 9)
    within = np.concatenate(
        [s + rng.permutation(e - s) for s, e in zip(bounds[:-1], bounds[1:])]
    )
    assert np.array_equal(ad.column_sum(m, bounds), ad.column_sum(m[within], bounds))


# ------------------------------------------------------------------ batches


def test_propagate_equals_per_graph_products_bitwise():
    rng = np.random.default_rng(12)
    for _ in range(30):
        graphs = [random_graph(rng, max_nodes=30) for _ in range(int(rng.integers(1, 6)))]
        batch = batch_of(*graphs)
        assert batch.node_count == sum(g.node_count for g in graphs)  # total node rows
        x = rng.normal(size=(batch.node_count, int(rng.integers(1, 40))))
        out = ad.propagate(batch.blocks, x)
        for g, s, e in zip(graphs, batch.bounds[:-1], batch.bounds[1:]):
            assert np.array_equal(out[s:e], adjacency(g) @ x[s:e])


def test_batched_forward_matches_numpy_route_per_graph():
    rng = np.random.default_rng(13)
    graphs = [random_graph(rng, max_nodes=10) for _ in range(6)]
    params = gm.ModelParams.init(4, num_classes=3, hidden=7, proj_dim=5, depth=3, rng=rng)
    for a in params.arrays.values():
        a += rng.normal(scale=0.05, size=a.shape)
    frozen = params.bind()
    h = gm.represent(None, batch_of(*graphs), frozen)
    c, p = gm.classify(h, frozen), gm.project(h, frozen)
    assert h.shape == (6, 7) and c.shape == (6, 3) and p.shape == (6, 5)
    for b, g in enumerate(graphs):  # no row sees another graph's nodes
        h2, c2, p2, _ = numpy_forward(g, params)
        np.testing.assert_allclose(h[b : b + 1], h2, atol=1e-12)
        np.testing.assert_allclose(c[b : b + 1], c2, atol=1e-12)
        np.testing.assert_allclose(p[b : b + 1], p2, atol=1e-12)


# -------------------------------------------------------------------- heads


def test_classify_zero_params_is_uniform():
    params = gm.ModelParams.init(
        4, num_classes=5, hidden=6, proj_dim=3, depth=3, rng=np.random.default_rng(0)
    )
    for name in params.arrays:
        if name.startswith("cls"):
            params.arrays[name][...] = 0.0
    c = gm.classify(np.random.default_rng(0).normal(size=(1, 6)), params.bind())
    np.testing.assert_allclose(c, np.full((1, 5), 0.2), atol=1e-15)


def test_classify_is_distribution_for_random_params():
    rng = np.random.default_rng(3)
    for _ in range(10):
        params = gm.ModelParams.init(4, 3, hidden=6, proj_dim=4, depth=3, rng=rng)
        c = gm.classify(rng.normal(size=(1, 6)) * 50, params.bind())
        assert np.all(c >= 0) and np.all(c <= 1)
        np.testing.assert_allclose(c.sum(), 1.0, atol=1e-12)


def test_project_zero_params_is_zero():
    params = gm.ModelParams.init(4, 3, hidden=6, proj_dim=4, depth=3, rng=np.random.default_rng(0))
    for name in params.arrays:
        if name.startswith("proj"):
            params.arrays[name][...] = 0.0
    p = gm.project(np.ones((1, 6)), params.bind())
    np.testing.assert_array_equal(p, np.zeros((1, 4)))


def test_head_gradients_match_fd():
    g, params = clean_case(60)
    batch = batch_of(g)
    onehot = np.zeros((1, params.arrays["cls_w2"].shape[1]))
    onehot[0, 1] = 1.0

    def ce_loss(t, bound):
        h = gm.represent(t, batch, bound)
        c = gm.classify(h, bound)
        y = t.constant(onehot)
        return ad.scale(ad.dot(y, ad.log(ad.clamp(c, 1e-12, 1.0))), -1.0)

    def proj_loss(t, bound):
        h = gm.represent(t, batch, bound)
        p = gm.project(h, bound)
        return ad.dot(p, p)

    for name in ("cls_w1", "cls_b1", "cls_w2", "cls_b2"):
        assert fd_wrt(params, name, ce_loss) < 1e-4, name
    for name in ("proj_w1", "proj_b1", "proj_w2", "proj_b2"):
        assert fd_wrt(params, name, proj_loss) < 1e-4, name


def test_end_to_end_gradient_every_parameter():
    # combined loss through encoder, both heads; every matrix FD-checked
    g, params = clean_case(70)
    batch = batch_of(g)
    onehot = np.zeros((1, params.arrays["cls_w2"].shape[1]))
    onehot[0, 0] = 1.0

    def loss(t, bound):
        h = gm.represent(t, batch, bound)
        c = gm.classify(h, bound)
        p = gm.project(h, bound)
        ce = ad.scale(ad.dot(t.constant(onehot), ad.log(ad.clamp(c, 1e-12, 1.0))), -1.0)
        return ad.add(ce, ad.dot(p, p))

    for name in params.arrays:
        err = fd_wrt(params, name, loss)
        assert err < 1e-4, f"{name}: {err:.2e}"


# --------------------------------------------------------------- parameters


def test_init_shape_chain():
    params = gm.ModelParams.init(
        7, num_classes=3, hidden=16, proj_dim=9, depth=4, rng=np.random.default_rng(0)
    )
    assert params.arrays["enc0"].shape == (7, 16)
    for layer in range(1, 4):
        assert params.arrays[f"enc{layer}"].shape == (16, 16)
    assert params.arrays["cls_w2"].shape == (16, 3)
    assert params.arrays["proj_w2"].shape == (16, 9)
    assert params.arrays["cls_b1"].shape == (1, 16)


def test_init_validates_dims():
    with pytest.raises(InputError):
        gm.ModelParams.init(4, 2, hidden=128, proj_dim=128, depth=0, rng=np.random.default_rng(0))
    with pytest.raises(InputError):
        gm.ModelParams.init(0, 2, hidden=128, proj_dim=128, depth=3, rng=np.random.default_rng(0))


def test_glorot_bounds_and_zero_biases():
    params = gm.ModelParams.init(10, 2, hidden=8, proj_dim=8, depth=3, rng=np.random.default_rng(5))
    w = params.arrays["enc0"]
    bound = np.sqrt(6.0 / (10 + 8))
    assert np.all(np.abs(w) <= bound) and np.std(w) > 0
    np.testing.assert_array_equal(params.arrays["cls_b1"], 0.0)


def test_copy_is_independent():
    params = gm.ModelParams.init(4, 2, hidden=4, proj_dim=4, depth=3, rng=np.random.default_rng(0))
    dup = params.copy()
    dup.arrays["enc0"][0, 0] += 1.0
    assert params.arrays["enc0"][0, 0] != dup.arrays["enc0"][0, 0]


def test_bind_without_grad_records_nothing():
    g, params = clean_case(80)
    bound = params.bind()
    h = gm.represent(None, batch_of(g), bound)
    c = gm.classify(h, bound)
    # snapshot scoring costs no tape: frozen forwards return plain arrays
    assert type(h) is np.ndarray and type(c) is np.ndarray


# ---------------------------------------------------------- frozen forwards


@pytest.mark.parametrize("depth", [1, 3])
def test_frozen_forward_equals_tape_bitwise(depth):
    rng = np.random.default_rng(90 + depth)
    for trial in range(30):
        hidden = (6, 32)[trial % 2]
        # one graph, then batches of up to five
        graphs = [random_graph(rng, max_nodes=12, feature_dim=4) for _ in range(1 + trial % 5)]
        params = gm.ModelParams.init(
            4, num_classes=3, hidden=hidden, proj_dim=5, depth=depth, rng=rng
        )
        for a in params.arrays.values():  # nonzero biases
            a += rng.normal(scale=0.05, size=a.shape)
        batch = batch_of(*graphs)
        t = Tape()
        bound = params.bind(t)
        h = gm.represent(t, batch, bound)
        frozen = params.bind()
        h_frozen = gm.represent(None, batch, frozen)
        assert h_frozen.shape == (len(graphs), hidden)
        assert np.array_equal(h_frozen, h.value)
        assert np.array_equal(gm.classify(h_frozen, frozen), gm.classify(h, bound).value)
        assert np.array_equal(gm.project(h_frozen, frozen), gm.project(h, bound).value)


def test_frozen_forward_keeps_input_errors():
    g, params = clean_case(40, feature_dim=4)
    bad = graph(g.node_count, g.edges, np.ones((g.node_count, 7)))
    with pytest.raises(InputError, match="feature dim"):
        gm.encode(None, batch_of(bad), params.bind())
    empty = graph(0, (), np.zeros((0, 4)))
    with pytest.raises(InputError, match="empty"):
        features = [g.node_features, empty.node_features]
        gm.GraphBatch.of(features, [adjacency(g), np.zeros((0, 0))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_frozen_bind_rejects_non_finite(bad):
    params = gm.ModelParams.init(4, 2, hidden=5, proj_dim=3, depth=3, rng=np.random.default_rng(0))
    params.arrays["cls_w2"][1, 0] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        params.bind()


def test_frozen_bind_copies_nothing():
    params = gm.ModelParams.init(4, 2, hidden=5, proj_dim=3, depth=3, rng=np.random.default_rng(0))
    frozen = params.bind()
    assert frozen.keys() == params.arrays.keys()
    assert all(frozen[k] is v for k, v in params.arrays.items())


# ------------------------------------------------------- parameter vector


def noisy_params(seed=0):
    rng = np.random.default_rng(seed)
    params = gm.ModelParams.init(4, 3, hidden=5, proj_dim=3, depth=2, rng=rng)
    for a in params.arrays.values():
        a += rng.normal(scale=0.1, size=a.shape)
    return params


def test_arrays_are_views_of_one_vector():
    params = noisy_params()
    assert params.flat.ndim == 1 and params.flat.flags.c_contiguous
    assert params.flat.size == sum(a.size for a in params.arrays.values())
    at = 0
    for a in params.arrays.values():  # back to back, in key order
        assert a.flags.c_contiguous and np.shares_memory(a, params.flat)
        assert a.ravel().tobytes() == params.flat[at : at + a.size].tobytes()
        at += a.size


def test_depth_counts_the_encoder_arrays():
    params = gm.ModelParams.init(4, 3, hidden=5, proj_dim=3, depth=3, rng=np.random.default_rng(0))
    assert params.depth == 3
    rng = np.random.default_rng(0)
    assert gm.ModelParams.drawn([("enc0", (2, 2)), ("enc1", (2, 2))], rng).depth == 2
    assert gm.ModelParams.drawn(gm.head_layout("cls", 2, 2), rng).depth == 0


def test_copy_is_independent_of_the_original_bitwise():
    params = noisy_params(1)
    want = {k: v.copy() for k, v in params.arrays.items()}  # the array-by-array copy
    dup = params.copy()
    assert dup.depth == params.depth and list(dup.arrays) == list(params.arrays)
    assert not np.shares_memory(dup.flat, params.flat)
    assert all(np.shares_memory(a, dup.flat) for a in dup.arrays.values())
    params.flat += 1.0
    params.arrays["enc0"][0, 0] = 7.0
    assert all(dup.arrays[k].tobytes() == want[k].tobytes() for k in want)
    dup.arrays["cls_w2"][...] = 0.0
    assert params.arrays["cls_w2"].tobytes() == (want["cls_w2"] + 1.0).tobytes()


def test_tape_leaves_do_not_follow_later_updates():
    from glaug.training import AdamState, adam_step

    params = noisy_params(2)
    g = random_graph(np.random.default_rng(2), max_nodes=6)
    t = Tape()
    bound = params.bind(t)
    # the reference binding: every array copied into a leaf of its own
    ref_tape = Tape()
    ref = {k: ref_tape.leaf(v.copy()) for k, v in params.arrays.items()}
    grads = {k: np.ones_like(v) for k, v in params.arrays.items()}
    adam_step(params, grads, AdamState(), 0.5)
    params.arrays["cls_b1"][...] = 3.0
    for k, leaf in bound.items():
        assert not np.shares_memory(leaf.value, params.flat)
        assert leaf.value.tobytes() == ref[k].value.tobytes(), k

    def loss(tape, b):
        return ad.sum_all(gm.classify(gm.represent(tape, batch_of(g), b), b))

    got, want = loss(t, bound), loss(ref_tape, ref)
    assert got.value.tobytes() == want.value.tobytes()
    ad.backward(got)
    ad.backward(want)
    assert all(bound[k].grad.tobytes() == ref[k].grad.tobytes() for k in bound)


def test_arrays_are_read_only_and_views_write_the_vector():
    params = noisy_params(3)
    before = params.arrays["cls_b1"]
    with pytest.raises(TypeError):
        params.arrays["cls_b1"] = np.full((1, 5), 2.5)
    with pytest.raises(TypeError):
        del params.arrays["cls_b1"]
    assert params.arrays["cls_b1"] is before
    with pytest.raises(TypeError):
        params.views(np.zeros_like(params.flat))["enc0"] = np.ones((4, 5))
    params.arrays["cls_b1"][...] = 2.5
    assert np.shares_memory(params.arrays["cls_b1"], params.flat)
    assert np.count_nonzero(params.flat == 2.5) >= 5
    assert params.bind()["cls_b1"].tolist() == [[2.5] * 5]
    params.arrays["enc0"][1, 2] = 7.0
    assert params.flat[1 * 5 + 2] == 7.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tape_bind_rejects_non_finite(bad):
    params = noisy_params(4)
    params.arrays["proj_b2"][0, 1] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        params.bind(Tape())
