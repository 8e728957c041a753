"""Model tests: dense adjacency oracle, numpy forward oracle, FD gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glaug import autodiff as ad
from glaug import model as gm
from glaug.autodiff import Tape, grad_check
from glaug.data import GraphInstance
from glaug.errors import InputError


def random_graph(rng, max_nodes=8, feature_dim=4):
    n = int(rng.integers(1, max_nodes + 1))
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
    )
    return GraphInstance(n, edges, rng.normal(size=(n, feature_dim)), label=0)


# -------------------------------------------------- adjacency normalization


def dense_oracle(g: GraphInstance) -> np.ndarray:
    """Brute force D^(-1/2) (A + I) D^(-1/2), the independent route."""
    a = np.eye(g.node_count)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    d_inv_sqrt = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
    return d_inv_sqrt @ a @ d_inv_sqrt


def test_single_isolated_node():
    g = GraphInstance(1, (), np.ones((1, 2)), label=0)
    assert gm.normalize_adjacency(g).entries == ((0, 0, 1.0),)


def test_two_nodes_one_edge_all_half():
    g = GraphInstance(2, ((0, 1),), np.ones((2, 2)), label=0)
    adj = gm.normalize_adjacency(g)
    assert set(adj.entries) == {(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.5), (1, 1, 0.5)}


def test_matches_dense_oracle_on_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(60):
        g = random_graph(rng)
        got = gm.normalize_adjacency(g).to_dense()
        np.testing.assert_allclose(got, dense_oracle(g), atol=1e-12)


def test_adjacency_invariants():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_graph(rng)
        adj = gm.normalize_adjacency(g)
        entry_set = set(adj.entries)
        diag = {i for i, j, _ in entry_set if i == j}
        assert diag == set(range(g.node_count))
        for i, j, w in entry_set:
            assert (j, i, w) in entry_set
            assert 0.0 < w <= 1.0


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
    adj = gm.normalize_adjacency(g)
    t = Tape()
    bound = params.bind(t, requires_grad=False)
    h = gm.represent(t, g, adj, bound)
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
        bound = {
            k: (x if k == name else t.leaf(v, requires_grad=False))
            for k, v in params.arrays.items()
        }
        return build_loss(t, bound)

    return grad_check(f, params.arrays[name])


def test_encode_gradients_every_layer():
    g, params = clean_case(10)
    adj = gm.normalize_adjacency(g)

    def loss(t, bound):
        return ad.sum_all(gm.encode(t, g, adj, bound))

    for layer in range(params.depth):
        err = fd_wrt(params, f"enc{layer}", loss)
        assert err < 1e-4, f"enc{layer}: {err:.2e}"


def test_zero_weights_give_zero_encoding():
    g, params = clean_case(20)
    for name in list(params.arrays):
        if name.startswith("enc"):
            params.arrays[name] = np.zeros_like(params.arrays[name])
    t = Tape()
    out = gm.encode(t, g, gm.normalize_adjacency(g), params.bind(t, requires_grad=False))
    np.testing.assert_array_equal(out.value, 0.0)


def test_residual_skips_zeroed_upper_layer():
    g, params = clean_case(30)
    t = Tape()
    first = gm.encode(t, g, gm.normalize_adjacency(g), params.bind(t, False))
    zeroed = params.copy()
    for layer in range(1, params.depth):
        zeroed.arrays[f"enc{layer}"] = np.zeros_like(zeroed.arrays[f"enc{layer}"])
    t2 = Tape()
    only_first = {
        k: v for k, v in zeroed.arrays.items() if not k.startswith("enc") or k == "enc0"
    }
    bound = gm.ModelParams(only_first, 1).bind(t2, False)
    layer0 = gm.encode(t2, g, gm.normalize_adjacency(g), bound)
    t3 = Tape()
    full = gm.encode(t3, g, gm.normalize_adjacency(g), zeroed.bind(t3, False))
    # relu(0) = 0 at layers >= 1, residual carries layer 0 through unchanged
    np.testing.assert_array_equal(full.value, layer0.value)
    assert not np.array_equal(full.value, np.zeros_like(full.value)) or first is None


def test_feature_dim_mismatch_rejected():
    g, params = clean_case(40, feature_dim=4)
    bad = GraphInstance(g.node_count, g.edges, np.ones((g.node_count, 7)), label=0)
    t = Tape()
    with pytest.raises(InputError, match="feature dim"):
        gm.encode(t, bad, gm.normalize_adjacency(bad), params.bind(t))


def test_empty_graph_rejected():
    _, params = clean_case(50)
    g = GraphInstance(0, (), np.zeros((0, 4)), label=0)
    t = Tape()
    with pytest.raises(InputError, match="empty"):
        gm.encode(t, g, gm.NormalizedAdjacency(0, ()), params.bind(t))


# --------------------------------------------------------------------- pool


def test_pool_hand_value():
    t = Tape()
    h = gm.pool(t.leaf([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(h.value, [[4.0, 6.0]])


def test_pool_single_node_is_identity():
    t = Tape()
    h = gm.pool(t.leaf([[7.0, -2.0, 0.5]]))
    np.testing.assert_array_equal(h.value, [[7.0, -2.0, 0.5]])


def test_pool_permutation_bit_identical_adversarial():
    # catastrophic-cancellation rows: naive left-to-right sums would disagree
    rows = np.array([[1e16], [1.0], [-1e16], [2.0]])
    perms = [rows[p] for p in ([0, 1, 2, 3], [2, 0, 3, 1], [3, 2, 1, 0])]
    sums = []
    for m in perms:
        t = Tape()
        sums.append(gm.pool(t.leaf(m)).value.copy())
    assert all(np.array_equal(sums[0], s) for s in sums[1:])


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_pool_permutation_bit_identical_random(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(6, 3)) * 10.0 ** rng.integers(-8, 9)
    p = rng.permutation(6)
    t1, t2 = Tape(), Tape()
    assert np.array_equal(gm.pool(t1.leaf(m)).value, gm.pool(t2.leaf(m[p])).value)


# -------------------------------------------------------------------- heads


def test_classify_zero_params_is_uniform():
    params = gm.ModelParams.init(4, num_classes=5, hidden=6, proj_dim=3)
    for name in params.arrays:
        if name.startswith("cls"):
            params.arrays[name] = np.zeros_like(params.arrays[name])
    t = Tape()
    c = gm.classify(t.leaf(np.random.default_rng(0).normal(size=(1, 6))), params.bind(t, False))
    np.testing.assert_allclose(c.value, np.full((1, 5), 0.2), atol=1e-15)


def test_classify_is_distribution_for_random_params():
    rng = np.random.default_rng(3)
    for _ in range(10):
        params = gm.ModelParams.init(4, 3, hidden=6, proj_dim=4, rng=rng)
        t = Tape()
        c = gm.classify(t.leaf(rng.normal(size=(1, 6)) * 50), params.bind(t, False))
        assert np.all(c.value >= 0) and np.all(c.value <= 1)
        np.testing.assert_allclose(c.value.sum(), 1.0, atol=1e-12)


def test_project_zero_params_is_zero():
    params = gm.ModelParams.init(4, 3, hidden=6, proj_dim=4)
    for name in params.arrays:
        if name.startswith("proj"):
            params.arrays[name] = np.zeros_like(params.arrays[name])
    t = Tape()
    p = gm.project(t.leaf(np.ones((1, 6))), params.bind(t, False))
    np.testing.assert_array_equal(p.value, np.zeros((1, 4)))


def test_head_gradients_match_fd():
    g, params = clean_case(60)
    adj = gm.normalize_adjacency(g)
    onehot = np.zeros((1, params.num_classes))
    onehot[0, 1] = 1.0

    def ce_loss(t, bound):
        h = gm.represent(t, g, adj, bound)
        c = gm.classify(h, bound)
        y = t.constant(onehot)
        return ad.scale(ad.dot(y, ad.log(ad.clamp(c, 1e-12, 1.0))), -1.0)

    def proj_loss(t, bound):
        h = gm.represent(t, g, adj, bound)
        p = gm.project(h, bound)
        return ad.dot(p, p)

    for name in ("cls_w1", "cls_b1", "cls_w2", "cls_b2"):
        assert fd_wrt(params, name, ce_loss) < 1e-4, name
    for name in ("proj_w1", "proj_b1", "proj_w2", "proj_b2"):
        assert fd_wrt(params, name, proj_loss) < 1e-4, name


def test_end_to_end_gradient_every_parameter():
    # combined loss through encoder, both heads; every matrix FD-checked
    g, params = clean_case(70)
    adj = gm.normalize_adjacency(g)
    onehot = np.zeros((1, params.num_classes))
    onehot[0, 0] = 1.0

    def loss(t, bound):
        h = gm.represent(t, g, adj, bound)
        c = gm.classify(h, bound)
        p = gm.project(h, bound)
        ce = ad.scale(ad.dot(t.constant(onehot), ad.log(ad.clamp(c, 1e-12, 1.0))), -1.0)
        return ad.add(ce, ad.dot(p, p))

    for name in params.arrays:
        err = fd_wrt(params, name, loss)
        assert err < 1e-4, f"{name}: {err:.2e}"


# --------------------------------------------------------------- parameters


def test_init_shape_chain():
    params = gm.ModelParams.init(7, num_classes=3, hidden=16, proj_dim=9, depth=4)
    assert params.arrays["enc0"].shape == (7, 16)
    for layer in range(1, 4):
        assert params.arrays[f"enc{layer}"].shape == (16, 16)
    assert params.arrays["cls_w2"].shape == (16, 3)
    assert params.arrays["proj_w2"].shape == (16, 9)
    assert params.arrays["cls_b1"].shape == (1, 16)
    assert (params.hidden, params.num_classes, params.proj_dim, params.feature_dim) == (
        16,
        3,
        9,
        7,
    )


def test_init_validates_dims():
    with pytest.raises(InputError):
        gm.ModelParams.init(4, 2, depth=0)
    with pytest.raises(InputError):
        gm.ModelParams.init(0, 2)


def test_glorot_bounds_and_zero_biases():
    params = gm.ModelParams.init(10, 2, hidden=8, proj_dim=8, rng=np.random.default_rng(5))
    w = params.arrays["enc0"]
    bound = np.sqrt(6.0 / (10 + 8))
    assert np.all(np.abs(w) <= bound) and np.std(w) > 0
    np.testing.assert_array_equal(params.arrays["cls_b1"], 0.0)


def test_copy_is_independent():
    params = gm.ModelParams.init(4, 2, hidden=4, proj_dim=4)
    dup = params.copy()
    dup.arrays["enc0"][0, 0] += 1.0
    assert params.arrays["enc0"][0, 0] != dup.arrays["enc0"][0, 0]


def test_bind_without_grad_records_nothing():
    g, params = clean_case(80)
    t = Tape()
    bound = params.bind(t, requires_grad=False)
    h = gm.represent(t, g, gm.normalize_adjacency(g), bound)
    gm.classify(h, bound)
    assert t.num_records == 0  # snapshot scoring costs no tape
