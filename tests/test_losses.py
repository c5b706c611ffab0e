"""Objective function tests.

Worked-example values (the 22/3 weighted regularizer, affinity means) were
computed by hand from the definitions and are asserted as exact fractions.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttgad import diffkernel as dk
from ttgad import losses
from ttgad.errors import ConfigError, DataError, ShapeError
from ttgad.graphstore import build_graph


def ref_cosine(a, b):
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return float(a @ b / (na * nb))


def ref_affinity(h, graph):
    out = np.zeros(graph.num_nodes)
    for v in range(graph.num_nodes):
        nb = graph.indices[graph.indptr[v]:graph.indptr[v + 1]]
        if nb.size:
            out[v] = np.mean([ref_cosine(h[v], h[u]) for u in nb])
    return out


# ---------------------------------------------------------------------------
# Weights


def test_loss_weights_defaults_validate():
    w = losses.LossWeights()
    assert w.validate() is w
    assert w.self_weight == 0.001
    assert w.nonneighbor_weight == 0.1
    assert w.class_reg_weight == 0.001
    assert w.anomaly_weight == 20.0
    assert w.neg_samples_k == 5


def test_loss_weights_rejects_bad_values(path3):
    with pytest.raises(ConfigError, match="at least 1"):
        losses.LossWeights(anomaly_weight=0.5).validate()
    with pytest.raises(ConfigError, match="anomaly_weight"):
        losses.LossWeights(anomaly_weight="automatic").validate()
    with pytest.raises(ConfigError, match="non-negative"):
        losses.LossWeights(self_weight=-0.1).validate()
    with pytest.raises(ConfigError, match="neg_samples_k"):
        losses.LossWeights(neg_samples_k=0).validate()
    # _check_field_types alone refuses non-finite values and ints past float range
    for name in ("self_weight", "nonneighbor_weight", "class_reg_weight", "anomaly_weight"):
        for value in (float("nan"), float("inf"), float("-inf"), 10 ** 400):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                losses.LossWeights(**{name: value}).validate()
    # the adaptation objective validates its weights too, as the source one does
    h = dk.Tensor(path3.features)
    for bad in (losses.LossWeights(nonneighbor_weight=-1.0),
                losses.LossWeights(self_weight=float("nan"))):
        with pytest.raises(ConfigError, match="must be finite"):
            losses.ttt_loss(h, path3, bad, np.random.default_rng(0))
    # field types are checked by the weights themselves, not only through RunConfig
    for change in ({"neg_samples_k": 2.5}, {"neg_samples_k": "3"}, {"neg_samples_k": True},
                   {"self_weight": "0.1"}):
        with pytest.raises(ConfigError, match="must be of type"):
            losses.LossWeights(**change).validate()
        with pytest.raises(ConfigError, match="must be of type"):
            losses.ttt_loss(h, path3, losses.LossWeights(**change), np.random.default_rng(0))
    with pytest.raises(ConfigError, match="neg_samples_k must be of type int"):
        losses.sample_nonneighbors(path3, 2.5, np.random.default_rng(0))
    losses.LossWeights(anomaly_weight="auto").validate()
    losses.LossWeights(anomaly_weight=1).validate()


def test_anomaly_weights_vector():
    w = losses.anomaly_weights([0, 1, 0, 1], 20.0)
    assert np.array_equal(w, [1.0, 20.0, 1.0, 20.0])


def test_anomaly_weights_auto_is_inverse_rate():
    w = losses.anomaly_weights([0, 0, 0, 1], "auto")
    assert np.array_equal(w, [1.0, 1.0, 1.0, 4.0])
    all_normal = losses.anomaly_weights([0, 0], "auto")
    assert np.array_equal(all_normal, [1.0, 1.0])


# ---------------------------------------------------------------------------
# Affinity scores


def test_affinity_mixed_neighborhood():
    # Node 0 sees (1,0) and (0,1): cosines 1 and 0, mean 0.5.
    g = build_graph("v", 3, [(0, 1), (0, 2)],
                    np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    h = dk.Tensor(g.features)
    aff = losses.affinity_scores(h, g)
    assert aff.values()[0] == pytest.approx(0.5, abs=1e-15)
    assert aff.values()[1] == pytest.approx(1.0, abs=1e-15)
    assert aff.values()[2] == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(aff.values(), ref_affinity(g.features, g),
                               atol=1e-15)


def test_affinity_orthogonal_star(star5):
    aff = losses.affinity_scores(dk.Tensor(star5.features), star5)
    np.testing.assert_allclose(aff.values(), np.zeros(5), atol=1e-15)


def test_affinity_isolated_node_invalid(triangle_iso):
    h = dk.Tensor(np.ones((4, 2)))
    aff = losses.affinity_scores(h, triangle_iso)
    assert list(aff.valid) == [True, True, True, False]
    assert aff.values()[3] == 0.0
    np.testing.assert_allclose(aff.values()[:3], 1.0, atol=1e-15)


def test_affinity_shape_mismatch(path3):
    with pytest.raises(ShapeError):
        losses.affinity_scores(dk.Tensor(np.ones((5, 2))), path3)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 100.0), st.integers(0, 2 ** 31 - 1))
def test_affinity_is_scale_invariant(scale, seed):
    rng = np.random.default_rng(seed)
    g = build_graph("s", 4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                    rng.standard_normal((4, 3)))
    x = g.features.astype(np.float64)  # scaled in float64, not in float32
    base = losses.affinity_scores(dk.Tensor(x), g).values()
    scaled = losses.affinity_scores(dk.Tensor(scale * x), g).values()
    np.testing.assert_allclose(scaled, base, atol=1e-9)


def test_affinity_margin_hand_case():
    scores = np.array([1.0, 0.8, 0.2])
    valid = np.array([True, True, True])
    margin = losses.affinity_margin(scores, valid, [0, 0, 1])
    assert margin == pytest.approx(0.7, abs=1e-15)


def test_affinity_margin_skips_isolated():
    scores = np.array([1.0, 0.5, 0.3, 0.9])
    valid = np.array([True, True, True, False])
    margin = losses.affinity_margin(scores, valid, [0, 1, 0, 1])
    assert margin == pytest.approx(0.65 - 0.5, abs=1e-15)


def test_affinity_margin_needs_both_classes():
    scores = np.array([1.0, 0.5])
    with pytest.raises(DataError, match="both classes"):
        losses.affinity_margin(scores, np.array([True, True]), [0, 0])
    with pytest.raises(DataError, match="both classes"):
        losses.affinity_margin(scores, np.array([True, False]), [0, 1])


# ---------------------------------------------------------------------------
# Non-neighbor sampling


@pytest.mark.filterwarnings("ignore:.*no non-neighbor.*")
def test_sampler_respects_graph_structure(star5):
    rng = np.random.default_rng(0)
    sample = losses.sample_nonneighbors(star5, 3, rng)
    for i in range(star5.num_nodes):
        drawn = sample.dst[sample.indptr[i]:sample.indptr[i + 1]]
        assert len(set(drawn.tolist())) == len(drawn)
        for j in drawn:
            assert j != i
            assert j not in star5.indices[star5.indptr[i]:star5.indptr[i + 1]]
    # Center is adjacent to everything: skipped. Leaves have 3 non-neighbors.
    assert sample.skipped[0]
    assert sample.indptr[1] == 0
    for i in range(1, 5):
        assert sample.indptr[i + 1] - sample.indptr[i] == 3


def test_sampler_takes_all_when_pool_is_small():
    g = build_graph("pair", 3, [(0, 1)], np.zeros((3, 1)))
    sample = losses.sample_nonneighbors(g, 5, np.random.default_rng(1))
    # Node 0: only node 2 qualifies; node 2: both 0 and 1 qualify.
    assert sample.indptr[1] - sample.indptr[0] == 1
    assert sample.dst[sample.indptr[0]] == 2
    assert sample.indptr[3] - sample.indptr[2] == 2


def test_sampler_with_huge_k_takes_every_nonneighbor():
    # the draw is sized by the largest row it fills, not by k
    g = build_graph("p6", 6, [(0, 1), (0, 3), (2, 4)], np.zeros((6, 1)))
    sample = losses.sample_nonneighbors(g, 10 ** 11, np.random.default_rng(0))
    for i in range(6):
        drawn = sample.dst[sample.indptr[i]:sample.indptr[i + 1]]
        others = set(range(6)) - {i} - set(g.indices[g.indptr[i]:g.indptr[i + 1]].tolist())
        assert sorted(drawn.tolist()) == sorted(others)


@pytest.mark.filterwarnings("ignore:.*no non-neighbor.*")
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       edge_prob=st.floats(0.0, 1.0), k=st.integers(1, 7))
def test_sampler_rows_hold_distinct_nonneighbors(seed, n, edge_prob, k):
    # edge probabilities near 1 give near-complete rows, with fewer than k
    # non-neighbors or none at all
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < edge_prob, 1)
    adjacent = upper | upper.T
    g = build_graph("h", n, np.argwhere(upper), np.zeros((n, 1)))
    sample = losses.sample_nonneighbors(g, k, rng)
    avail = n - 1 - adjacent.sum(axis=1)
    assert np.array_equal(sample.skipped, avail == 0)
    for i in range(n):
        drawn = sample.dst[sample.indptr[i]:sample.indptr[i + 1]]
        assert drawn.size == min(k, avail[i])
        assert np.unique(drawn).size == drawn.size
        assert not adjacent[i, drawn].any() and not (drawn == i).any()


def ref_sampler_ranks(graph, k, rng):
    """Each row's non-neighbor ranks by the earlier round loop: round j's
    draw shifts past the row's earlier ranks, sorted, one at a time."""
    n = graph.num_nodes
    avail = n - 1 - graph.degrees
    take = np.minimum(avail, min(k, n))
    ranks = np.zeros((n, int(take.max(initial=0))), dtype=np.int64)
    for j in range(ranks.shape[1]):
        active = np.flatnonzero(take > j)
        r = rng.integers(0, avail[active] - j)
        for earlier in np.sort(ranks[active, :j], axis=1).T:
            r += r >= earlier
        ranks[active, j] = r
    return [ranks[i, :take[i]].tolist() for i in range(n)]


@pytest.mark.filterwarnings("ignore:.*no non-neighbor.*")
@pytest.mark.parametrize("k", [1, 5, 50])
@pytest.mark.parametrize("edge_prob", [0.05, 0.6, 0.97])
def test_sampler_draws_match_round_loop(k, edge_prob):
    # dense graphs saturate rows: fewer than k non-neighbors, or none
    rng = np.random.default_rng(int(100 * edge_prob) + k)
    n = 80
    upper = np.triu(rng.random((n, n)) < edge_prob, 1)
    g = build_graph("h", n, np.argwhere(upper), np.zeros((n, 1)))
    sample = losses.sample_nonneighbors(g, k, np.random.default_rng(k))
    expected = ref_sampler_ranks(g, k, np.random.default_rng(k))
    neighbors = [set(g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()) | {i}
                 for i in range(n)]
    for i in range(n):
        others = [v for v in range(n) if v not in neighbors[i]]
        drawn = sample.dst[sample.indptr[i]:sample.indptr[i + 1]].tolist()
        assert drawn == [others[r] for r in expected[i]]
    if edge_prob == 0.97:
        assert any(len(row) < k for row in expected)


def test_sampler_warns_on_complete_graph():
    g = build_graph("k3", 3, [(0, 1), (0, 2), (1, 2)], np.zeros((3, 1)))
    with pytest.warns(UserWarning, match="no non-neighbor"):
        sample = losses.sample_nonneighbors(g, 2, np.random.default_rng(0))
    assert sample.num_sampled_nodes == 0
    assert sample.dst.size == 0


@pytest.mark.filterwarnings("ignore:.*no non-neighbor.*")
def test_pattern_is_shared_not_copied(path3):
    pattern = path3.pattern
    assert pattern.rows is path3.slot_src
    assert pattern.reverse is path3.reverse_slot
    assert pattern.indptr is path3.indptr and pattern.indices is path3.indices
    sample = losses.sample_nonneighbors(path3, 1, np.random.default_rng(0))
    assert sample.src is sample.pattern.rows
    assert sample.pattern.reverse is None
    assert list(sample.src) == [0, 2]


@pytest.mark.filterwarnings("ignore:.*no non-neighbor.*")
def test_sampler_deterministic_per_seed(star5):
    a = losses.sample_nonneighbors(star5, 2, np.random.default_rng(7))
    b = losses.sample_nonneighbors(star5, 2, np.random.default_rng(7))
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.indptr, b.indptr)


def test_sampler_rejects_nonpositive_k(star5):
    with pytest.raises(ConfigError):
        losses.sample_nonneighbors(star5, 0, np.random.default_rng(0))


def test_sampler_draws_look_uniform():
    # Node 0 of an edgeless 5-node graph: each other node should appear
    # with frequency ~1/4 when sampling one non-neighbor repeatedly.
    g = build_graph("e5", 5, [], np.zeros((5, 1)))
    rng = np.random.default_rng(3)
    counts = np.zeros(5)
    for _ in range(2000):
        s = losses.sample_nonneighbors(g, 1, rng)
        counts[s.dst[0]] += 1
    assert counts[0] == 0
    np.testing.assert_allclose(counts[1:] / 2000, 0.25, atol=0.035)

    # k=2 on a graph with edges: node 0 has non-neighbors 2, 4 and 5, and
    # each of their 6 ordered pairs should come first-and-second ~1/6 of the time
    g = build_graph("p6", 6, [(0, 1), (0, 3), (2, 4)], np.zeros((6, 1)))
    pairs = {}
    for _ in range(3000):
        s = losses.sample_nonneighbors(g, 2, rng)
        key = tuple(s.dst[s.indptr[0]:s.indptr[1]].tolist())
        pairs[key] = pairs.get(key, 0) + 1
    assert set(pairs) == set(itertools.permutations([2, 4, 5], 2))
    np.testing.assert_allclose(np.array(list(pairs.values())) / 3000, 1 / 6, atol=0.03)


# ---------------------------------------------------------------------------
# Non-neighbor regularizer, read from the source objective's parts


def regularizer_parts(graph, h_vals, anomaly_weight=20.0, class_reg_weight=0.001,
                      seed=0):
    w = losses.LossWeights(neg_samples_k=2, anomaly_weight=anomaly_weight,
                           class_reg_weight=class_reg_weight)
    probs = dk.Tensor(np.full((graph.num_nodes, 1), 0.5))
    _, parts = losses.train_loss_parts(probs, dk.Tensor(h_vals), graph, w,
                                       np.random.default_rng(seed))
    return parts


def test_weighted_regularizer_exhaustive_example(edgeless3):
    # Identical embeddings, labels [0,0,1], weight 20, k=2 covers everyone:
    # node 0 and 1 average {1, 20}, node 2 averages {1, 1};
    # (10.5 + 10.5 + 1) / 3 = 22/3.
    parts = regularizer_parts(edgeless3, np.ones((3, 2)))
    assert parts["class_reg"] == pytest.approx(22.0 / 3.0, abs=1e-12)


def test_unweighted_regularizer_identical_embeddings(edgeless3):
    parts = regularizer_parts(edgeless3, np.ones((3, 2)))
    assert parts["nonneighbor_reg"] == pytest.approx(1.0, abs=1e-12)


def test_weight_one_equals_unweighted(edgeless3):
    h = np.random.default_rng(5).standard_normal((3, 4))
    parts = regularizer_parts(edgeless3, h, anomaly_weight=1.0, seed=9)
    assert parts["class_reg"] == parts["nonneighbor_reg"]


def test_regularizer_zero_on_complete_graph():
    g = build_graph("k3", 3, [(0, 1), (0, 2), (1, 2)], np.zeros((3, 1)),
                    labels=[0, 0, 1])
    with pytest.warns(UserWarning, match="no non-neighbor"):
        parts = regularizer_parts(g, np.ones((3, 2)))
    assert parts["class_reg"] == 0.0
    assert parts["nonneighbor_reg"] == 0.0


# ---------------------------------------------------------------------------
# Composite objectives


def test_self_supervised_identical_embeddings_counts_nodes(triangle_iso):
    # Affinity 1 at each of the 3 connected nodes; reg weight 0 leaves -3.
    h = dk.Tensor(np.ones((4, 2)))
    w = losses.LossWeights(nonneighbor_weight=0.0)
    loss = losses.ttt_loss(h, triangle_iso, w, np.random.default_rng(0))
    assert loss.item() == pytest.approx(-3.0, abs=1e-12)


def test_self_supervised_edgeless_is_pure_regularizer(edgeless3):
    h = dk.Tensor(np.ones((3, 2)))
    w = losses.LossWeights(nonneighbor_weight=0.1, neg_samples_k=2)
    loss = losses.ttt_loss(h, edgeless3, w, np.random.default_rng(0))
    # No affinity term; identical embeddings make the sampled mean exactly 1.
    assert loss.item() == pytest.approx(0.1, abs=1e-12)


def test_supervised_loss_composition(edgeless3):
    # The supervised half is the plain BCE plus the weighted class_reg
    # (22/3 here), and exactly the BCE when that weight is 0.
    bce = dk.binary_cross_entropy(dk.Tensor(np.full((3, 1), 0.5)),
                                  edgeless3.labels).item()
    parts = regularizer_parts(edgeless3, np.ones((3, 2)), class_reg_weight=0.5)
    assert parts["bce"] == bce
    assert parts["loss_sup"] == pytest.approx(bce + 11.0 / 3.0, abs=1e-12)
    bare = regularizer_parts(edgeless3, np.ones((3, 2)), class_reg_weight=0.0)
    assert bare["loss_sup"] == bce


def test_train_loss_parts_composition(triangle_iso):
    rng = np.random.default_rng(2)
    h = dk.Tensor(rng.standard_normal((4, 3)))
    probs = dk.Tensor(rng.uniform(0.05, 0.95, size=(4, 1)))
    w = losses.LossWeights(neg_samples_k=2)
    total, parts = losses.train_loss_parts(probs, h, triangle_iso, w,
                                           np.random.default_rng(3))
    assert parts["loss"] == total.item()
    assert parts["loss"] == pytest.approx(
        parts["loss_sup"] + w.self_weight * parts["loss_self"], abs=1e-12)
    assert parts["loss_sup"] == pytest.approx(
        parts["bce"] + w.class_reg_weight * parts["class_reg"], abs=1e-12)
    assert parts["loss_self"] == pytest.approx(
        -parts["affinity_sum"] + w.nonneighbor_weight * parts["nonneighbor_reg"],
        abs=1e-12)


def test_train_loss_parts_deterministic_per_seed(triangle_iso):
    h_vals = np.random.default_rng(4).standard_normal((4, 3))
    w = losses.LossWeights(neg_samples_k=2)

    def run():
        h = dk.Tensor(h_vals)
        probs = dk.Tensor(np.full((4, 1), 0.3))
        _, parts = losses.train_loss_parts(probs, h, triangle_iso, w,
                                           np.random.default_rng(11))
        return parts

    assert run() == run()


def test_train_loss_requires_labels(triangle_iso):
    h = dk.Tensor(np.ones((4, 2)))
    probs = dk.Tensor(np.full((4, 1), 0.5))
    with pytest.raises(DataError, match="labels"):
        losses.train_loss_parts(probs, h, triangle_iso.without_labels(),
                                losses.LossWeights(), np.random.default_rng(0))


def test_ttt_loss_equals_self_supervised(triangle_iso):
    # Both objectives come from one assembly: on the same draw, the
    # adaptation loss is exactly the source objective's self-supervised part.
    h_vals = np.random.default_rng(6).standard_normal((4, 3))
    w = losses.LossWeights(neg_samples_k=2)
    a = losses.ttt_loss(dk.Tensor(h_vals), triangle_iso, w,
                        np.random.default_rng(8))
    _, parts = losses.train_loss_parts(dk.Tensor(np.full((4, 1), 0.5)),
                                       dk.Tensor(h_vals), triangle_iso, w,
                                       np.random.default_rng(8))
    assert a.item() == parts["loss_self"]


def test_train_loss_gradient_matches_finite_differences(triangle_iso):
    w = losses.LossWeights(neg_samples_k=2)
    point = dk.Tensor(np.random.default_rng(10).standard_normal((4, 3)),
                      requires_grad=True)
    w_out = dk.Tensor(np.random.default_rng(12).standard_normal((1, 3)))

    def f(h):
        probs = dk.sigmoid(dk.linear(h, w_out))
        return losses.train_loss_parts(probs, h, triangle_iso, w,
                                       np.random.default_rng(42))[0]

    report = dk.grad_check(f, point, step=1e-5, tol=1e-4)
    assert report.passed, report


def test_ttt_loss_gradient_matches_finite_differences(triangle_iso):
    w = losses.LossWeights(neg_samples_k=2)
    point = dk.Tensor(np.random.default_rng(13).standard_normal((4, 3)),
                      requires_grad=True)

    def f(h):
        return losses.ttt_loss(h, triangle_iso, w, np.random.default_rng(21))

    report = dk.grad_check(f, point, step=1e-5, tol=1e-4)
    assert report.passed, report
