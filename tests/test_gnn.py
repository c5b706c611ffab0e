"""Architecture tests.

The dense forward pass at the top recomputes everything with plain numpy
matrices (adjacency-masked softmax, elementwise min, explicit concatenation)
and is the reference the sparse implementation is checked against.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_bundle
from ttgad import diffkernel as dk
from ttgad import gnn, losses, pipeline
from ttgad.errors import ConfigError, ShapeError
from ttgad.graphstore import SyntheticSpec, build_graph, generate_synthetic


# ---------------------------------------------------------------------------
# Dense reference forward


def dense_adjacency(graph):
    adj = np.zeros((graph.num_nodes, graph.num_nodes), dtype=bool)
    adj[graph.slot_src, graph.indices] = True
    return adj


def dense_attention(layer, h, adj):
    """Masked row softmax of relu(h U^T) dot products, then elementwise min."""
    z = np.maximum(h @ layer.U.values.T, 0.0)
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


def random_graph(rng, n, dim=3, edge_prob=0.35, labels=None):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = rng.random(len(pairs)) < edge_prob
    edges = [p for p, k in zip(pairs, keep) if k]
    feats = rng.standard_normal((n, dim))
    return build_graph("rand", n, edges or np.zeros((0, 2), dtype=np.int64),
                       feats, labels=labels)


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
    x = x.astype(np.float32).astype(np.float64)  # the encoder reads float32 features
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
    assert bundle.layers[0].U.shape == (3, 4)
    assert bundle.layers[1].W.shape == (5, 10)
    assert bundle.predictor.w_out.shape == (1, 5)


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
    assert list(gnn.parameter_shapes(7, 4, 5, 3, 3, identity, target_cols)) == want

    # assemble_bundle inverts parameter_items(), copying every array.
    rebuilt = gnn.assemble_bundle({n: t.values for n, t in bundle.parameter_items()}, nsaw)
    assert rebuilt.nsaw_enabled == nsaw
    pairs = list(zip(bundle.parameter_items(), rebuilt.parameter_items(), strict=True))
    for (name, old), (new_name, new) in pairs:
        assert new_name == name
        assert np.array_equal(new.values, old.values)
        assert new.requires_grad == old.requires_grad
        assert not np.shares_memory(new.values, old.values)


# sha256 of each parameter_items() name and its little-endian float64 bytes:
# the draw sequence of a seed must not move, or saved runs stop reproducing.
# U is hashed transposed back to the (in, attn) order it is drawn in.
@pytest.mark.parametrize("identity, digest", [(False, "b5efe71e85b92894"),
                                              (True, "dda8a4ccafce5969")])
@pytest.mark.parametrize("nsaw", [True, False])
def test_init_bundle_draws_are_pinned(identity, digest, nsaw):
    bundle = gnn.init_bundle(np.random.default_rng(0), feature_dim=7, p=4,
                             hidden_dim=5, attn_dim=3, num_layers=2,
                             nsaw_enabled=nsaw, identity_encoder=identity)
    sha = hashlib.sha256()
    for name, t in bundle.parameter_items():
        sha.update(name.encode())
        drawn = t.values.T if name.endswith(".U") else t.values
        sha.update(np.ascontiguousarray(drawn, dtype="<f8").tobytes())
        assert t.requires_grad == (nsaw or not name.endswith(".U"))
    assert sha.hexdigest()[:16] == digest


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
    att, _ = dk.attention(h, layer.U, triangle_iso.pattern)
    sums = np.add.reduceat(att.values[:, 0], triangle_iso.indptr[:-1][
        np.diff(triangle_iso.indptr) > 0])
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)
    assert np.all(att.values >= 0) and np.all(att.values <= 1)


def test_symmetrize_takes_pairwise_minimum(path3):
    # Slots are (0->1, 1->0, 1->2, 2->1). The end nodes' lone slots softmax
    # to 1; through U = [1, 0], node 1 scores node 0 at 1 and node 2 at 0,
    # so its slots softmax to e / (1 + e) and 1 / (1 + e), the pair minima.
    pre, sym = dk.attention(dk.Tensor(path3.features), dk.Tensor([[1.0, 0.0]]), path3.pattern)
    p = pre.values[:, 0]
    np.testing.assert_allclose(p, [1.0, math.e / (1 + math.e), 1 / (1 + math.e), 1.0],
                               rtol=1e-15)
    np.testing.assert_array_equal(sym.values[:, 0], [p[1], p[1], p[2], p[2]])


def test_symmetrized_attention_is_exactly_symmetric():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 12)
    bundle = small_bundle(g.feature_dim, seed=3)
    h = bundle.source_encoder.project(g.features)
    pre, sym = dk.attention(h, bundle.layers[0].U, g.pattern)
    flat = sym.values[:, 0]
    assert np.array_equal(flat, flat[g.reverse_slot])
    assert np.all(flat <= pre.values[:, 0] + 0.0)


def test_attention_matches_dense_reference():
    rng = np.random.default_rng(8)
    g = random_graph(rng, 9)
    bundle = small_bundle(g.feature_dim, seed=8)
    layer = bundle.layers[0]
    h = bundle.source_encoder.project(g.features)
    pre, sym = dk.attention(h, layer.U, g.pattern)
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
        _, sym = dk.attention(h, bundle.layers[0].U, g.pattern)
        loss = dk.sum(sym)
    grads = tape.backward(loss)
    assert grads[point].shape == point.values.shape
    # Gradient exists through the slot path only; off-adjacency pairs never
    # enter the computation, which the dense comparison above pins down.
    assert np.any(grads[point] != 0.0)


# ---------------------------------------------------------------------------
# Layer behavior


def neighbor_mean_bundle(nsaw_enabled, u_value):
    """One layer on the raw 2-wide features, W = [I | 0] and b = 0, so it
    computes relu(weighted neighbor sum)."""
    bundle = small_bundle(2, width=2, num_layers=1, nsaw_enabled=nsaw_enabled,
                          identity_encoder=True)
    layer = bundle.layers[0]
    layer.W.values[...] = np.hstack([np.eye(2), np.zeros((2, 2))])
    layer.b.values[...] = 0.0
    layer.U.values[...] = u_value
    return bundle


def test_plain_mode_is_neighbor_mean(path3):
    bundle = neighbor_mean_bundle(nsaw_enabled=False, u_value=0.0)
    out, _ = gnn.forward_embeddings(bundle, path3, "source")
    means = np.array([[1.0, 1.0], [0.5, 0.5], [1.0, 1.0]])
    np.testing.assert_allclose(out.values, means, atol=1e-15)


def test_isolated_node_aggregates_zero_message(triangle_iso):
    for nsaw in (False, True):
        bundle = neighbor_mean_bundle(nsaw_enabled=nsaw, u_value=1.0)
        out, _ = gnn.forward_embeddings(bundle, triangle_iso, "source")
        np.testing.assert_array_equal(out.values[3], [0.0, 0.0])


def test_layer_rejects_mismatched_width(path3):
    bundle = gnn.init_bundle(np.random.default_rng(0), feature_dim=5, p=5,
                             hidden_dim=3, attn_dim=2, num_layers=1)
    weights = dk.Tensor(np.ones((path3.num_slots, 1)))
    with pytest.raises(ShapeError, match="width"):
        gnn.nsaw_layer_forward(bundle.layers[0], dk.Tensor(path3.features), path3,
                               weights)


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


def kept_arrays(tape):
    """Every array the tape's records close over, lists and tuples opened.

    A record is (output token, input tokens, bwd) and holds no tensor.
    """
    for out, ins, bwd in tape._entries:
        stack = [cell.cell_contents for cell in bwd.__closure__ or ()]
        while stack:
            item = stack.pop()
            assert not isinstance(item, dk.Tensor), bwd.__qualname__
            if isinstance(item, (list, tuple)):
                stack.extend(item)
            elif isinstance(item, np.ndarray):
                yield bwd, item


def node_rows(tape, n, w):
    """Bytes of the distinct arrays with ``n`` rows that the tape keeps, in
    rows of width ``w`` per node; views count once, through their base."""
    bases = {}
    for _, arr in kept_arrays(tape):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        if arr.ndim == 2 and arr.shape[0] == n:
            bases[id(arr)] = arr
    return sum(arr.nbytes for arr in bases.values()) / (8 * n * w)


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

    def per_node_or_scalar(arr):
        return arr.ndim < 2 or arr.shape[0] <= g.num_nodes or arr.shape[1] == 1

    assert len(tape._entries) > 15
    for bwd, kept in kept_arrays(tape):
        assert per_node_or_scalar(kept), (bwd.__qualname__, kept.shape)


def nsaw_graph_and_bundle(n=60, w=40):
    rng = np.random.default_rng(5)
    g = random_graph(rng, n, dim=w, labels=(np.arange(n) % 6 == 0).astype(int))
    return rng, g, small_bundle(w, width=w, num_layers=2)


def test_training_step_tape_holds_at_most_5_5_node_rows_per_node():
    # One 2-layer nsaw training step at the default dropout: forward,
    # predict and the source loss. Per layer: the dropped-out input, its
    # dropout mask and the layer's relu mask (one byte per entry); then the
    # float32 features (half a row), the final embeddings, the head's hidden
    # rows and its mask and per-node scalars: 5.175, against 7.175 when each
    # layer's record kept its message for W's gradient. No record keeps an
    # output its backward does not read: not the encoder output, not a
    # layer output whose relu mask is read, not a message, which W's
    # gradient takes from the SpMM of x's, and not relu(x @ U.T), which the
    # attention record recomputes.
    rng, g, bundle = nsaw_graph_and_bundle()
    with dk.Tape() as tape:
        h, _ = gnn.forward_embeddings(bundle, g, "source", training=True,
                                      rng=rng, dropout_rate=0.7)
        probs = gnn.predict(bundle, h)
        losses.train_loss_parts(probs, h, g, losses.LossWeights(), rng)
    rows = node_rows(tape, 60, 40)
    assert 5 < rows <= 5.5, rows


def adapting(bundle, rng, feature_dim):
    """Give ``bundle`` a fresh target encoder and freeze everything else."""
    bundle.target_encoder = gnn.init_encoder(rng, bundle.layers[0].in_dim,
                                             feature_dim, "target")
    for name, tensor in bundle.parameter_items():
        tensor.requires_grad = name == "target_encoder.weight"


def test_adaptation_step_tape_holds_at_most_4_0_node_rows_per_node():
    # The same forward and the adaptation loss, with only the target
    # encoder training. The float32 features (half a row), per layer the
    # dropped-out input and two masks, and the final embeddings: 4.0.
    rng, g, bundle = nsaw_graph_and_bundle()
    adapting(bundle, rng, 40)
    with dk.Tape() as tape:
        h, _ = gnn.forward_embeddings(bundle, g, "target", training=True,
                                      rng=rng, dropout_rate=0.7)
        losses.ttt_loss(h, g, losses.LossWeights(), rng)
    rows = node_rows(tape, 60, 40)
    assert 3.5 < rows <= 4.0, rows


def mid_graph():
    """2000 nodes and 24k slots at width 40."""
    return generate_synthetic(SyntheticSpec(num_nodes=2000, feature_dim=40, anomaly_rate=0.05,
                                            target_homophily=0.9, mean_degree=12.0,
                                            seed=1, name="mid"))


def traced_peak_rows(g, run):
    """``(rows, run())``: the tracemalloc peak of ``run()`` above what was
    allocated before it, in rows of 320 bytes per node of ``g`` (per-slot
    scalars included), and its result."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / (8 * g.num_nodes * 40), result


def step_peak_rows(domain, block_bytes=dk._BLOCK_BYTES):
    """Peak of one 2-layer nsaw step on :func:`mid_graph` at width 40, from
    the taped forward to the end of backward, with row blocks of
    ``block_bytes``: an adaptation step on the target encoder, or a source
    training step on every parameter."""
    g, w = mid_graph(), 40
    rng = np.random.default_rng(0)
    bundle = small_bundle(w, width=w, num_layers=2)
    if domain == "target":
        adapting(bundle, rng, w)
    gnn.forward_embeddings(bundle, g, domain)  # caches the pattern's upper slots and CSR index

    def step():
        with dk.Tape() as tape:
            h, _ = gnn.forward_embeddings(bundle, g, domain, training=True,
                                          rng=rng, dropout_rate=0.7)
            if domain == "target":
                loss = losses.ttt_loss(h, g, losses.LossWeights(), rng)
            else:
                loss, _ = losses.train_loss_parts(gnn.predict(bundle, h), h, g,
                                                  losses.LossWeights(), rng)
        return tape.backward(loss)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dk, "_BLOCK_BYTES", block_bytes)
        rows, grads = traced_peak_rows(g, step)
    trained = [t for _, t in bundle.parameter_items() if t.requires_grad]
    assert all(np.any(grads[t] != 0.0) for t in trained)
    return rows


def test_adaptation_step_peaks_below_10_node_rows_per_node():
    # 8.8 rows at the default budget, where each row block is the whole
    # graph, against 9.35 when each record returned a new gradient for the
    # tape to add, 10.4 when backward kept the last gradient it passed on
    # alive through the next record's backward and 13.4 when the tape kept
    # each layer's relu(x @ U.T). The peak sits in the last layer's
    # aggregate backward, beside x's new gradient, and its attention
    # backward, beside relu(x @ U.T), is within 0.05 rows of it.
    rows = step_peak_rows("target")
    assert rows <= 9.0, rows


def test_source_training_step_peaks_below_10_5_node_rows_per_node():
    # 9.6 rows, against 9.8 when each record returned a new gradient, 11.8
    # when each layer's record kept its message and 15.8 when the tape also
    # kept each layer's relu(x @ U.T). The peak sits in the non-neighbour
    # cosine's backward, which writes the embeddings' first gradient.
    rows = step_peak_rows("source")
    assert rows <= 10.0, rows


def test_adaptation_step_peaks_below_8_node_rows_per_node_at_small_blocks():
    # At 65536-byte blocks (a tenth of a row here) every (nodes, width)
    # temporary of a backward is small: 7.8 rows, against 8.9 when each
    # record returned a new gradient. The peak sits in the last layer's
    # attention backward, beside relu(x @ U.T) and x's gradient.
    rows = step_peak_rows("target", block_bytes=65536)
    assert rows <= 8.0, rows


def test_adaptation_call_peaks_below_8_25_node_rows_per_node_at_small_blocks():
    # A whole 3-epoch pipeline.adapt_target call at 65536-byte blocks: 7.9
    # rows, against 9.2 when each record returned a new gradient and the
    # loop kept each step's embeddings and attention through backward, the
    # eval pass and the next forward. The peak sits in a step's backward of
    # a cosine, the affinity's or the non-neighbours'.
    g, w = mid_graph(), 40
    bundle = small_bundle(w, width=w, num_layers=2)
    h, _ = gnn.forward_embeddings(bundle, g, "source")
    centroids = pipeline.ClassCentroids.from_embeddings(h.values, g.labels)
    del h, _
    config = pipeline.RunConfig(p=w, hidden_dim=w, attn_dim=w, ttt_max_epochs=3, patience=4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dk, "_BLOCK_BYTES", 65536)
        rows, _ = traced_peak_rows(g, lambda: pipeline.adapt_target(bundle, centroids, g, config))
    assert rows <= 8.25, rows


@pytest.mark.parametrize("nsaw, bound", [(True, 4.0), (False, 3.25)], ids=["nsaw", "plain"])
def test_eval_forward_never_builds_a_whole_message(nsaw, bound):
    # tracemalloc over one eval forward on 20k nodes at width 40. When each
    # layer built its whole (nodes x width) message before the update, the
    # peak was 5.0 rows of 320 bytes per node with attention and 4.25
    # without; one message fewer must show.
    n, w = 20000, 40
    g = generate_synthetic(SyntheticSpec(num_nodes=n, feature_dim=w, anomaly_rate=0.05,
                                         target_homophily=0.9, mean_degree=10.0,
                                         seed=1, name="eval"))
    bundle = small_bundle(w, width=w, num_layers=2, nsaw_enabled=nsaw)
    gnn.forward_embeddings(bundle, g, "source")  # caches the pattern's upper slots and CSR index
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        gnn.forward_embeddings(bundle, g, "source")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    rows = peak / (8 * n * w)
    assert rows <= bound, rows
