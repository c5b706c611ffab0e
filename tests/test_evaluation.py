"""Ranking metric and scoring tests.

The pair-counting AUROC and the precision-walk average precision below are
independent reference implementations; random instances are checked against
them to 1e-12 and the worked examples were computed from them by hand.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_bundle
from ttgad import diffkernel as dk
from ttgad import evaluation as ev
from ttgad.errors import ConfigError, DataError
from ttgad.graphstore import SyntheticSpec, generate_synthetic


# ---------------------------------------------------------------------------
# Reference implementations


def pair_count_auroc(scores, labels):
    """Fraction of (anomaly, normal) pairs ranked correctly, ties half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def precision_walk_ap(scores, labels):
    """Walk the ranking in descending tied blocks, summing dTP * precision."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    total = int(y.sum())
    ap = 0.0
    tp = 0
    i = 0
    while i < s.size:
        j = i
        while j < s.size and s[j] == s[i]:
            j += 1
        block_tp = int(y[i:j].sum())
        tp += block_tp
        ap += block_tp * (tp / j)
        i = j
    return ap / total


def constant_bundle(feature_dim, width=3, value=1.0):
    """A model whose final embeddings are identical across nodes."""
    bundle = small_bundle(feature_dim, width=width, num_layers=1)
    for _, tensor in bundle.parameter_items():
        tensor.values[...] = 0.0
    for layer in bundle.layers:
        layer.b.values[...] = value
    return bundle


# ---------------------------------------------------------------------------
# Worked examples


def test_auroc_single_inversion():
    # pairs: (0.9,0.8)+, (0.9,0.6)+, (0.7,0.8)-, (0.7,0.6)+ -> 3/4
    scores = [0.9, 0.7, 0.8, 0.6]
    labels = [1, 1, 0, 0]
    assert ev.auroc(scores, labels) == 0.75
    assert pair_count_auroc(scores, labels) == 0.75


def test_auroc_perfect_and_reversed():
    labels = [0, 0, 1, 1]
    assert ev.auroc([0.1, 0.2, 0.8, 0.9], labels) == 1.0
    assert ev.auroc([0.9, 0.8, 0.2, 0.1], labels) == 0.0


def test_auroc_all_tied_is_half():
    assert ev.auroc([3.0, 3.0, 3.0, 3.0], [0, 1, 0, 1]) == 0.5


def test_auroc_requires_both_classes():
    with pytest.raises(DataError, match="each class"):
        ev.auroc([0.1, 0.2], [1, 1])


def test_ap_three_node_ranking():
    # blocks: [1] p=1, [0], [1] p=2/3 -> (1 + 2/3)/2 = 5/6
    scores = [3.0, 2.0, 1.0]
    labels = [1, 0, 1]
    assert abs(ev.auprc(scores, labels) - 5.0 / 6.0) < 1e-15
    assert abs(precision_walk_ap(scores, labels) - 5.0 / 6.0) < 1e-15


def test_ap_perfect_ranking_is_one():
    assert ev.auprc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0


def test_ap_all_tied_equals_positive_rate():
    scores = [1.0] * 8
    labels = [1, 0, 0, 1, 0, 0, 0, 0]
    assert abs(ev.auprc(scores, labels) - 0.25) < 1e-15


def test_ap_requires_a_positive():
    with pytest.raises(DataError, match="at least one anomaly"):
        ev.auprc([0.1, 0.2], [0, 0])


def test_metric_input_validation():
    with pytest.raises(DataError, match="equal length"):
        ev.auroc([0.1], [0, 1])
    with pytest.raises(DataError, match="finite"):
        ev.auroc([np.nan, 0.2], [0, 1])
    with pytest.raises(DataError, match="0 or 1"):
        ev.auroc([0.1, 0.2], [0, 2])


def test_metric_result_bundles_counts():
    res = ev.metric_result([0.9, 0.1, 0.5], [1, 0, 0])
    assert res.positives == 1 and res.negatives == 2
    d = res.to_dict()
    assert set(d) == {"auroc", "auprc", "positives", "negatives"}


# ---------------------------------------------------------------------------
# Randomized cross-checks


def test_metrics_match_references_on_random_instances():
    rng = np.random.default_rng(123)
    for trial in range(200):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 0
            labels[-1] = 1
        # Mix continuous and heavily tied score vectors.
        if trial % 2:
            scores = rng.standard_normal(n)
        else:
            scores = rng.integers(0, 4, size=n).astype(np.float64)
        assert abs(ev.auroc(scores, labels)
                   - pair_count_auroc(scores, labels)) < 1e-12
        assert abs(ev.auprc(scores, labels)
                   - precision_walk_ap(scores, labels)) < 1e-12


def test_metrics_match_sklearn_when_available():
    sk = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(4, 80))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 0
            labels[-1] = 1
        scores = np.round(rng.standard_normal(n), 1)
        assert abs(ev.auroc(scores, labels)
                   - sk.roc_auc_score(labels, scores)) < 1e-10
        assert abs(ev.auprc(scores, labels)
                   - sk.average_precision_score(labels, scores)) < 1e-10


def test_metrics_bitwise_invariant_under_joint_permutation():
    # Order within a tied block is arbitrary after an unstable sort and
    # must not move either metric by even one ulp.
    rng = np.random.default_rng(31)
    for trial in range(100):
        n = int(rng.integers(2, 400))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        scores = rng.integers(0, 1 + trial % 5, size=n).astype(np.float64)
        perm = rng.permutation(n)
        assert ev.auroc(scores[perm], labels[perm]) == ev.auroc(scores, labels)
        assert ev.auprc(scores[perm], labels[perm]) == ev.auprc(scores, labels)


def test_auroc_exact_on_large_tied_instance():
    rng = np.random.default_rng(77)
    n = 200_000
    labels = (rng.random(n) < 0.05).astype(np.int64)
    scores = rng.integers(0, 10, size=n) + 2 * labels  # ten-ish heavy ties
    pos = [int(c) for c in np.bincount(scores[labels == 1], minlength=12)]
    neg = [int(c) for c in np.bincount(scores[labels == 0], minlength=12)]
    wins = sum(2 * p * sum(neg[:v]) + p * neg[v] for v, p in enumerate(pos))
    exact = Fraction(wins, 2 * sum(pos) * sum(neg))
    assert ev.auroc(scores.astype(np.float64), labels) == float(exact)


def test_ranking_order_of_equal_scores_is_node_order():
    n = 5000
    scores = np.zeros(n)
    scores[::3] = -0.0  # equal to 0.0, so still one tied block
    ranking = ev.AnomalyRanking(scores=scores, scoring_mode="affinity",
                                isolated=np.zeros(n, dtype=bool))
    assert np.array_equal(ranking.order, np.arange(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(3, 40))
def test_auroc_invariant_under_monotone_maps(seed, n):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    if labels.sum() in (0, n):
        labels[0] = 0
        labels[-1] = 1
    scores = rng.permutation(n).astype(np.float64)  # unique, tie-free
    base = ev.auroc(scores, labels)
    assert abs(ev.auroc(3.0 * scores + 7.0, labels) - base) < 1e-12
    assert abs(ev.auroc(-scores, labels) - (1.0 - base)) < 1e-12


# ---------------------------------------------------------------------------
# Node scoring


def test_affinity_scoring_constant_embeddings(triangle_iso):
    bundle = constant_bundle(triangle_iso.feature_dim)
    ranking = ev.score_nodes(bundle, triangle_iso, mode="affinity",
                             domain="source")
    np.testing.assert_allclose(ranking.scores[:3], -1.0, atol=1e-12)
    assert ranking.scores[3] == 0.0
    assert np.array_equal(ranking.isolated, [False, False, False, True])
    # Isolated node has the zero (highest) score, the rest tie by id.
    assert list(ranking.order) == [3, 0, 1, 2]
    assert ranking.scoring_mode == "affinity"


def test_predictor_scoring_zero_weights_gives_half(triangle_iso):
    bundle = constant_bundle(triangle_iso.feature_dim)
    bundle.predictor.b_hidden.values[...] = 0.0
    ranking = ev.score_nodes(bundle, triangle_iso, mode="predictor",
                             domain="source")
    np.testing.assert_allclose(ranking.scores, 0.5, atol=1e-12)


def test_score_nodes_orders_most_anomalous_first(star5):
    bundle = small_bundle(star5.feature_dim, seed=4)
    ranking = ev.score_nodes(bundle, star5, domain="source")
    s = ranking.scores
    assert np.all(np.diff(s[ranking.order]) <= 0)


def test_score_nodes_rejects_unknown_mode(path3):
    bundle = small_bundle(path3.feature_dim)
    with pytest.raises(ConfigError, match="scoring mode"):
        ev.score_nodes(bundle, path3, mode="oracle")


def test_domain_defaults_to_target_when_present(path3):
    from ttgad import gnn
    bundle = small_bundle(path3.feature_dim, seed=1)
    r_source = ev.score_nodes(bundle, path3)
    bundle.target_encoder = gnn.init_encoder(np.random.default_rng(2),
                                             bundle.layers[0].in_dim,
                                             path3.feature_dim, "target")
    r_target = ev.score_nodes(bundle, path3)
    assert not np.array_equal(r_source.scores, r_target.scores)
    r_explicit = ev.score_nodes(bundle, path3, domain="source")
    assert np.array_equal(r_source.scores, r_explicit.scores)


def test_scoring_float32_features_never_copies_them_whole():
    # 20k x 512 float32 features take 39 MB, and one float64 copy of them
    # would take 78 MB; the encoder upcasts a block of rows at a time, so a
    # scoring pass peaks at about 28 MB.
    graph = generate_synthetic(SyntheticSpec(num_nodes=20000, feature_dim=512,
                                             anomaly_rate=0.05, target_homophily=0.9,
                                             mean_degree=6, seed=0))
    bundle = small_bundle(512, width=40)
    for mode in ("affinity", "predictor"):
        tracemalloc.start()
        try:
            ev.score_nodes(bundle, graph, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < graph.features.nbytes, mode
