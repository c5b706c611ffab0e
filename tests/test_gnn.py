"""Architecture tests.

The dense forward pass at the top recomputes everything with plain numpy
matrices (adjacency-masked softmax, elementwise min, explicit concatenation)
and is the reference the sparse implementation is checked against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_bundle
from ttgad import diffkernel as dk
from ttgad import gnn, losses
from ttgad.errors import ConfigError, ShapeError
from ttgad.graphstore import SyntheticSpec, build_graph, generate_synthetic


# ---------------------------------------------------------------------------
# Dense reference forward


def dense_adjacency(graph):
    adj = np.zeros((graph.num_nodes, graph.num_nodes), dtype=bool)
    adj[graph.slot_src, graph.indices] = True
    return adj


def dense_attention(layer, h, adj):
    """Masked row softmax of relu(hU) dot products, then elementwise min."""
    z = np.maximum(h @ layer.U.values, 0.0)
    scores = z @ z.T
    n = h.shape[0]
    a = np.zeros((n, n))
    for v in range(n):
        nb = np.flatnonzero(adj[v])
        if nb.size:
            e = np.exp(scores[v, nb] - scores[v, nb].max())
            a[v, nb] = e / e.sum()
    return a, np.minimum(a, a.T)


def dense_forward(bundle, graph, domain="source"):
    enc = (bundle.source_encoder if domain == "source"
           else bundle.target_encoder)
    h = graph.features.copy()
    if enc.weight is not None:
        h = h @ enc.weight.values.T
    adj = dense_adjacency(graph)
    for layer in bundle.layers:
        if bundle.nsaw_enabled:
            _, sym = dense_attention(layer, h, adj)
            msg = sym @ h
        else:
            deg = adj.sum(axis=1, keepdims=True)
            msg = (adj @ h) / np.maximum(deg, 1)
        pre = np.hstack([msg, h]) @ layer.W.values.T + layer.b.values
        h = np.maximum(pre, 0.0)
    return h


def dense_predict(bundle, h):
    p = bundle.predictor
    hidden = np.maximum(h @ p.w_hidden.values.T + p.b_hidden.values, 0.0)
    logits = hidden @ p.w_out.values.T + p.b_out.values
    return 1.0 / (1.0 + np.exp(-logits))


def random_graph(rng, n, dim=3, edge_prob=0.35):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = rng.random(len(pairs)) < edge_prob
    edges = [p for p, k in zip(pairs, keep) if k]
    feats = rng.standard_normal((n, dim))
    return build_graph("rand", n, edges or np.zeros((0, 2), dtype=np.int64),
                       feats)


# ---------------------------------------------------------------------------
# Encoders and initialization


def test_identity_projection():
    enc = gnn.ProjectionEncoder(None, "source")
    x = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(enc.project(x).values, x)


def test_zero_projection():
    enc = gnn.ProjectionEncoder(dk.Tensor(np.zeros((2, 3))), "source")
    out = enc.project(np.ones((4, 3)))
    assert np.array_equal(out.values, np.zeros((4, 2)))


def test_projection_matches_per_row_multiply():
    rng = np.random.default_rng(1)
    weight = rng.standard_normal((3, 5))
    x = rng.standard_normal((6, 5))
    enc = gnn.ProjectionEncoder(dk.Tensor(weight), "source")
    out = enc.project(x).values
    for i in range(6):
        np.testing.assert_allclose(out[i], weight @ x[i], rtol=1e-12)


def test_projection_dimension_mismatch():
    enc = gnn.ProjectionEncoder(dk.Tensor(np.zeros((2, 3))), "target")
    with pytest.raises(ShapeError, match="target encoder"):
        enc.project(np.ones((4, 4)))


def test_init_bundle_deterministic_per_seed():
    a = small_bundle(5, seed=12)
    b = small_bundle(5, seed=12)
    c = small_bundle(5, seed=13)
    for (name_a, ta), (name_b, tb) in zip(a.parameter_items(),
                                          b.parameter_items()):
        assert name_a == name_b
        assert np.array_equal(ta.values, tb.values)
    diffs = [not np.array_equal(ta.values, tc.values)
             for (_, ta), (_, tc) in zip(a.parameter_items(),
                                         c.parameter_items())
             if ta.values.size and ta.values.any()]
    assert any(diffs)


def test_init_bundle_shapes():
    bundle = gnn.init_bundle(np.random.default_rng(0), feature_dim=7, p=4,
                             hidden_dim=5, attn_dim=3, num_layers=2)
    assert bundle.source_encoder.weight.shape == (4, 7)
    assert bundle.layers[0].W.shape == (5, 8)
    assert bundle.layers[0].U.shape == (4, 3)
    assert bundle.layers[1].W.shape == (5, 10)
    assert bundle.predictor.w_out.shape == (1, 5)
    assert bundle.embedding_dim == 5


@pytest.mark.parametrize("identity", [False, True])
@pytest.mark.parametrize("nsaw", [True, False])
@pytest.mark.parametrize("target_cols", [None, 9])
def test_parameter_shapes_match_init_bundle(identity, nsaw, target_cols):
    rng = np.random.default_rng(0)
    bundle = gnn.init_bundle(rng, feature_dim=7, p=4, hidden_dim=5, attn_dim=3,
                             num_layers=3, nsaw_enabled=nsaw, identity_encoder=identity)
    if target_cols is not None:
        bundle.target_encoder = gnn.init_encoder(rng, bundle.layers[0].in_dim,
                                                 target_cols, "target")
    want = [(name, t.shape) for name, t in bundle.parameter_items()]
    assert gnn.parameter_shapes(7, 4, 5, 3, 3, identity, target_cols) == want


def test_trainable_parameter_lists():
    bundle = small_bundle(4, num_layers=2)
    names = [n for n, _ in bundle.parameter_items()]
    assert names[0] == "source_encoder.weight"
    assert "layers.0.U" in names and "layers.1.U" in names
    assert names[-4:] == ["predictor.w_hidden", "predictor.b_hidden",
                          "predictor.w_out", "predictor.b_out"]
    assert all(t.requires_grad for _, t in bundle.parameter_items())

    # Without attention U is still stored, but frozen: nothing else is.
    plain = small_bundle(4, num_layers=2, nsaw_enabled=False)
    assert [n for n, _ in plain.parameter_items()] == names
    frozen = [n for n, t in plain.parameter_items() if not t.requires_grad]
    assert frozen == ["layers.0.U", "layers.1.U"]


def test_encoder_for_requires_target(path3):
    bundle = small_bundle(path3.feature_dim)
    with pytest.raises(ConfigError, match="target encoder"):
        bundle.encoder_for("target")
    assert bundle.encoder_for("source") is bundle.source_encoder


# ---------------------------------------------------------------------------
# Attention contract


def test_attention_rows_sum_to_one(triangle_iso):
    bundle = small_bundle(triangle_iso.feature_dim, seed=2)
    layer = bundle.layers[0]
    h = bundle.source_encoder.project(triangle_iso.features)
    att = gnn.compute_attention(layer, h, triangle_iso)
    sums = np.add.reduceat(att.values[:, 0], triangle_iso.indptr[:-1][
        np.diff(triangle_iso.indptr) > 0])
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)
    assert np.all(att.values >= 0) and np.all(att.values <= 1)


def test_symmetrize_takes_pairwise_minimum(path3):
    # Slots are (0->1, 1->0, 1->2, 2->1); min(0.8, 0.2) = 0.2 per pair.
    att = dk.Tensor(np.array([[0.8], [0.2], [0.6], [0.7]]))
    sym = gnn.symmetrize_attention(att, path3)
    np.testing.assert_array_equal(sym.values[:, 0], [0.2, 0.2, 0.6, 0.6])


def test_symmetrized_attention_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 12)
    bundle = small_bundle(g.feature_dim, seed=3)
    h = bundle.source_encoder.project(g.features)
    pre = gnn.compute_attention(bundle.layers[0], h, g)
    sym = gnn.symmetrize_attention(pre, g)
    flat = sym.values[:, 0]
    assert np.array_equal(flat, flat[g.reverse_slot])
    assert np.all(flat <= pre.values[:, 0] + 0.0)


def test_attention_matches_dense_reference():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 9)
    bundle = small_bundle(g.feature_dim, seed=8)
    layer = bundle.layers[0]
    h = bundle.source_encoder.project(g.features)
    pre = gnn.compute_attention(layer, h, g)
    sym = gnn.symmetrize_attention(pre, g)
    a_ref, sym_ref = dense_attention(layer, h.values, dense_adjacency(g))
    dense_pre = np.zeros_like(a_ref)
    dense_sym = np.zeros_like(a_ref)
    dense_pre[g.slot_src, g.indices] = pre.values[:, 0]
    dense_sym[g.slot_src, g.indices] = sym.values[:, 0]
    np.testing.assert_allclose(dense_pre, a_ref, atol=1e-12)
    np.testing.assert_allclose(dense_sym, sym_ref, atol=1e-12)
    # Everything off the adjacency pattern is structurally zero.
    assert np.all(dense_sym[~dense_adjacency(g)] == 0.0)


def test_masked_attention_entries_get_zero_gradient():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 7)
    bundle = small_bundle(g.feature_dim, seed=5)
    point = bundle.layers[0].U
    with dk.Tape() as tape:
        h = bundle.source_encoder.project(g.features)
        pre = gnn.compute_attention(bundle.layers[0], h, g)
        sym = gnn.symmetrize_attention(pre, g)
        loss = dk.sum(sym)
    grads = tape.backward(loss)
    assert grads[point].shape == point.values.shape
    # Gradient exists through the slot path only; off-adjacency pairs never
    # enter the computation, which the dense comparison above pins down.
    assert np.any(grads[point] != 0.0)


# ---------------------------------------------------------------------------
# Layer behavior


def test_plain_mode_is_neighbor_mean(path3):
    # W = [I | 0], b = 0 turns the layer into relu(neighbor mean).
    w = np.hstack([np.eye(2), np.zeros((2, 2))])
    layer = gnn.NsawLayer(W=dk.Tensor(w), b=dk.Tensor(np.zeros((1, 2))),
                          U=dk.Tensor(np.zeros((2, 2))))
    h = dk.Tensor(path3.features)
    out = gnn.nsaw_layer_forward(layer, h, path3, mode="plain")
    means = np.array([[1.0, 1.0], [0.5, 0.5], [1.0, 1.0]])
    np.testing.assert_allclose(out.values, means, atol=1e-15)


def test_isolated_node_aggregates_zero_message(triangle_iso):
    w = np.hstack([np.eye(2), np.zeros((2, 2))])
    layer = gnn.NsawLayer(W=dk.Tensor(w), b=dk.Tensor(np.zeros((1, 2))),
                          U=dk.Tensor(np.ones((2, 2))))
    h = dk.Tensor(triangle_iso.features)
    for mode in ("plain", "nsaw"):
        out = gnn.nsaw_layer_forward(layer, h, triangle_iso, mode=mode)
        np.testing.assert_array_equal(out.values[3], [0.0, 0.0])


def test_layer_rejects_mismatched_width(path3):
    layer = gnn.init_layer(np.random.default_rng(0), in_dim=5, out_dim=3,
                           attn_dim=2)
    with pytest.raises(ShapeError, match="width"):
        gnn.nsaw_layer_forward(layer, dk.Tensor(path3.features), path3)


def test_layer_rejects_unknown_mode(path3):
    layer = gnn.init_layer(np.random.default_rng(0), in_dim=2, out_dim=2,
                           attn_dim=2)
    with pytest.raises(ConfigError, match="aggregation mode"):
        gnn.nsaw_layer_forward(layer, dk.Tensor(path3.features), path3,
                               mode="max")


# ---------------------------------------------------------------------------
# Full forward


@pytest.mark.parametrize("nsaw", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_matches_dense_reference(seed, nsaw):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    g = random_graph(rng, n)
    bundle = small_bundle(g.feature_dim, width=5, seed=seed + 20,
                          nsaw_enabled=nsaw)
    h, att = gnn.forward_embeddings(bundle, g, "source")
    np.testing.assert_allclose(h.values, dense_forward(bundle, g),
                               atol=1e-10, rtol=0)
    probs = gnn.predict(bundle, h)
    np.testing.assert_allclose(probs.values, dense_predict(bundle, h.values),
                               atol=1e-12)
    assert len(att.layers) == (len(bundle.layers) if nsaw else 0)


def test_forward_eval_mode_is_deterministic(star5):
    bundle = small_bundle(star5.feature_dim, seed=9)
    a, _ = gnn.forward_embeddings(bundle, star5, "source")
    b, _ = gnn.forward_embeddings(bundle, star5, "source")
    assert np.array_equal(a.values, b.values)


def test_forward_training_mode_needs_rng(star5):
    bundle = small_bundle(star5.feature_dim)
    with pytest.raises(ConfigError, match="rng"):
        gnn.forward_embeddings(bundle, star5, "source", training=True,
                               dropout_rate=0.5)


def test_forward_training_dropout_changes_output(star5):
    bundle = small_bundle(star5.feature_dim, seed=10)
    plain, _ = gnn.forward_embeddings(bundle, star5, "source")
    dropped, _ = gnn.forward_embeddings(bundle, star5, "source",
                                        training=True,
                                        rng=np.random.default_rng(0),
                                        dropout_rate=0.6)
    assert not np.array_equal(plain.values, dropped.values)


def test_predict_zero_weights_gives_half(star5):
    bundle = small_bundle(star5.feature_dim, seed=11)
    for _, tensor in bundle.parameter_items():
        if tensor.values.size:
            tensor.values[...] = 0.0
    h, _ = gnn.forward_embeddings(bundle, star5, "source")
    probs = gnn.predict(bundle, h)
    np.testing.assert_array_equal(probs.values, np.full((5, 1), 0.5))


def test_attention_dense_views(path3):
    bundle = small_bundle(path3.feature_dim, seed=6)
    _, att = gnn.forward_embeddings(bundle, path3, "source")
    pre = att.layers[0].dense_pre()
    sym = att.layers[0].dense_sym()
    assert pre.shape == (3, 3)
    assert np.array_equal(sym, sym.T)
    assert pre[0, 2] == 0.0 and pre[2, 0] == 0.0  # non-adjacent pair


# ---------------------------------------------------------------------------
# Neighbor capping


def test_capped_graph_noop_when_cap_exceeds_degree(star5):
    assert gnn.capped_graph(star5, 10) is star5
    assert gnn.capped_graph(star5, None) is star5


def test_capped_graph_stays_symmetric(star5):
    capped = gnn.capped_graph(star5, 1)
    # Center keeps only leaf 1; other leaves drop their center slot too.
    assert capped.num_edges == 1
    assert capped.has_edge(0, 1) and capped.has_edge(1, 0)
    capped.reverse_slot  # validates symmetry internally


def test_capped_graph_rejects_bad_cap(star5):
    with pytest.raises(ConfigError, match="cap"):
        gnn.capped_graph(star5, 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 14), st.integers(1, 5))
def test_capped_graph_degrees_bounded(seed, n, cap):
    g = random_graph(np.random.default_rng(seed), n)
    capped = gnn.capped_graph(g, cap)
    assert capped.degrees.max(initial=0) <= cap
    assert capped.num_nodes == g.num_nodes


# ---------------------------------------------------------------------------
# Random attention contract sweep


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 16))
def test_attention_contract_on_random_graphs(seed, n):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, edge_prob=0.3)
    bundle = small_bundle(g.feature_dim, width=4, num_layers=1,
                          seed=seed % 1000)
    h, att = gnn.forward_embeddings(bundle, g, "source")
    pre = att.layers[0].pre_sym.values[:, 0]
    sym = att.layers[0].sym.values[:, 0]
    if g.num_slots:
        assert np.array_equal(sym, sym[g.reverse_slot])
        assert np.all((sym >= 0) & (sym <= 1))
        nz = np.diff(g.indptr) > 0
        sums = np.add.reduceat(pre, g.indptr[:-1][nz])
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Memory contract of the taped forward


def test_tape_keeps_no_per_slot_rows():
    # 30 nodes, about 500 slots: every array the tape keeps for backward is
    # per-node (at most num_nodes rows) or a per-slot scalar (one column).
    rng = np.random.default_rng(3)
    g = random_graph(rng, 30, dim=6, edge_prob=0.6)
    assert g.num_slots > 10 * g.num_nodes
    bundle = small_bundle(g.feature_dim, width=8, num_layers=2)
    with dk.Tape() as tape:
        h, _ = gnn.forward_embeddings(bundle, g, "source", training=True,
                                      rng=rng, dropout_rate=0.5)
        losses.ttt_loss(h, g, losses.LossWeights(), rng)
        entries = list(tape._entries)

    def per_node_or_scalar(arr):
        return arr.ndim < 2 or arr.shape[0] <= g.num_nodes or arr.shape[1] == 1

    assert len(entries) > 20
    for out, bwd in entries:
        assert per_node_or_scalar(out.values), (bwd.__qualname__, out.shape)
        for cell in bwd.__closure__ or ():
            kept = cell.cell_contents
            if isinstance(kept, np.ndarray):
                assert per_node_or_scalar(kept), (bwd.__qualname__, kept.shape)
