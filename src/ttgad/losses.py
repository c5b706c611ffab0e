"""Training objectives: neighborhood affinity, non-neighbor separation, CE.

The affinity score of a node is the mean cosine similarity between its final
embedding and its neighbors' embeddings; isolated nodes carry score 0 and an
invalid flag. One assembly builds the self-supervised objective
``-sum(affinity) + nonneighbor_weight * mean non-neighbor cosine``, which
pushes affinity up and similarity to sampled non-adjacent nodes down.
:func:`ttt_loss` is that objective alone; :func:`train_loss_parts` adds
binary cross-entropy and a class-weighted mean of the same non-neighbor
cosines, which separates anomalies harder.

Both cosine terms are one :func:`diffkernel.pair_cosine` and one
:func:`diffkernel.segment_mean` over a :class:`diffkernel.Pattern`: the
graph's for affinity, and for separation the non-symmetric one that each
non-neighbor draw builds. Cosine gradients return to the nodes as SpMMs,
with no per-pair embedding copies kept for backward.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import diffkernel as dk
from .errors import ConfigError, DataError, ShapeError

__all__ = [
    "LossWeights", "AffinityScores", "affinity_scores", "affinity_margin",
    "sample_nonneighbors", "anomaly_weights", "train_loss_parts", "ttt_loss",
]


@dataclass
class LossWeights:
    """Scalar weights of the composite objectives.

    ``anomaly_weight`` may be the string "auto", resolved to
    1 / anomaly_rate of the labeled graph at use time.
    """

    self_weight: float = 0.001
    nonneighbor_weight: float = 0.1
    class_reg_weight: float = 0.001
    anomaly_weight: float | str = 20.0
    neg_samples_k: int = 5

    def validate(self):
        for name in ("self_weight", "nonneighbor_weight", "class_reg_weight"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if isinstance(self.anomaly_weight, str):
            if self.anomaly_weight != "auto":
                raise ConfigError("anomaly_weight must be a number or 'auto'")
        elif self.anomaly_weight < 1:
            raise ConfigError("anomaly_weight must be at least 1")
        if self.neg_samples_k < 1:
            raise ConfigError("neg_samples_k must be at least 1")
        return self


def anomaly_weights(labels, anomaly_weight):
    """Per-node weight vector: ``anomaly_weight`` for anomalies, 1 otherwise."""
    labels = np.asarray(labels)
    if anomaly_weight == "auto":
        rate = float(labels.mean()) if labels.size else 0.0
        anomaly_weight = 1.0 / rate if rate > 0 else 1.0
    return np.where(labels == 1, float(anomaly_weight), 1.0)


@dataclass
class AffinityScores:
    """Per-node neighborhood affinity; ``valid`` is False at isolated nodes."""

    scores: dk.Tensor
    valid: np.ndarray

    def values(self):
        return self.scores.values[:, 0]


def affinity_scores(h, graph):
    """Mean cosine similarity of each node's embedding to its neighbors'."""
    if h.shape[0] != graph.num_nodes:
        raise ShapeError("embedding rows must match graph nodes")
    sims = dk.pair_cosine(h, graph.pattern)
    scores = dk.segment_mean(sims, graph.pattern)
    return AffinityScores(scores=scores, valid=graph.degrees > 0)


def affinity_margin(score_values, valid, labels):
    """Mean affinity of normal nodes minus mean affinity of anomalies.

    Only non-isolated nodes count; raises if either class has none.
    """
    labels = np.asarray(labels)
    normal = valid & (labels == 0)
    anomalous = valid & (labels == 1)
    if not normal.any() or not anomalous.any():
        raise DataError("margin needs non-isolated nodes of both classes")
    return float(score_values[normal].mean() - score_values[anomalous].mean())


# ---------------------------------------------------------------------------
# Non-neighbor sampling


@dataclass
class NonneighborSample:
    """One draw as a CSR pattern: row i holds node i's sampled non-neighbors."""

    pattern: dk.Pattern
    num_sampled_nodes: int
    skipped: np.ndarray = field(repr=False, default=None)

    @property
    def src(self):
        return self.pattern.rows

    @property
    def dst(self):
        return self.pattern.indices

    @property
    def indptr(self):
        return self.pattern.indptr


def _edge_member(graph, src_ids, cand):
    keys = src_ids * np.int64(graph.num_nodes) + cand
    table = graph.slot_keys
    pos = np.searchsorted(table, keys)
    inside = pos < table.size
    hit = np.zeros(keys.size, dtype=bool)
    if inside.any():
        hit[inside] = table[pos[inside]] == keys[inside]
    return hit


def sample_nonneighbors(graph, k, rng):
    """Draw up to k distinct uniform non-neighbors for every node.

    Nodes adjacent to everything else have no non-neighbor and are skipped
    (with a warning). Nodes with fewer than k non-neighbors use all of them.
    Processing iid uniform candidates in draw order and keeping the first k
    distinct valid ones is exactly uniform sampling without replacement.
    """
    n = graph.num_nodes
    if k < 1:
        raise ConfigError("neg_samples_k must be at least 1")
    avail = n - 1 - graph.degrees
    skipped = avail <= 0
    if skipped.any():
        warnings.warn(f"{int(skipped.sum())} node(s) have no non-neighbor; skipped",
                      stacklevel=2)
    take = np.minimum(k, np.maximum(avail, 0)).astype(np.int64)
    taken = np.full((n, k), -1, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)

    for _ in range(64):
        active = np.flatnonzero(count < take)
        if active.size == 0:
            break
        cand = rng.integers(0, n, size=(active.size, k))
        for j in range(k):
            c = cand[:, j]
            ok = (c != active) & (count[active] < take[active])
            ok &= ~_edge_member(graph, active, c)
            for t in range(k):
                ok &= taken[active, t] != c
            rows = active[ok]
            taken[rows, count[rows]] = c[ok]
            count[rows] += 1

    leftovers = np.flatnonzero(count < take)
    for i in leftovers:
        row = graph.indices[graph.indptr[i]:graph.indptr[i + 1]]
        banned = np.concatenate([row, [i], taken[i, :count[i]]])
        pool = np.setdiff1d(np.arange(n), banned)
        extra = rng.choice(pool, size=take[i] - count[i], replace=False)
        taken[i, count[i]:take[i]] = extra
        count[i] = take[i]

    indptr = np.concatenate([[0], np.cumsum(take)])
    return NonneighborSample(pattern=dk.Pattern(indptr, taken[taken >= 0], n, n),
                             num_sampled_nodes=int((take > 0).sum()),
                             skipped=skipped)


# ---------------------------------------------------------------------------
# Objectives


def _self_supervised(h, graph, weights, rng, class_weights=None):
    """The one assembly: ``-sum(affinity) + nonneighbor_weight * reg``.

    ``reg`` is the mean over sampled nodes of each node's mean cosine to its
    non-neighbors, from one fresh draw from ``rng``; the draw is skipped when
    neither the weight nor ``class_weights`` needs it. ``class_weights`` is
    a per-node vector applied by the sampled non-neighbor's index; its mean
    is taken from the same cosines. Returns (loss, affinity, reg,
    class-weighted reg): both regs are None when nothing was drawn, and the
    weighted one reads 0 without ``class_weights``.
    """
    aff = affinity_scores(h, graph)
    loss = dk.scalar_mul(dk.sum(aff.scores), -1.0)
    if weights.nonneighbor_weight == 0.0 and class_weights is None:
        return loss, aff, None, None
    sample = sample_nonneighbors(graph, weights.neg_samples_k, rng)
    plain = weighted = dk.Tensor(np.zeros((1, 1)))
    if sample.num_sampled_nodes:
        sims = dk.pair_cosine(h, sample.pattern)
        scale = 1.0 / sample.num_sampled_nodes

        def mean(values):
            return dk.scalar_mul(dk.sum(dk.segment_mean(values, sample.pattern)), scale)

        plain = mean(sims)
        if class_weights is not None:
            w = dk.Tensor(class_weights[sample.dst].reshape(-1, 1))
            weighted = mean(dk.elementwise_mul(sims, w))
    if weights.nonneighbor_weight != 0.0:
        loss = dk.add(loss, dk.scalar_mul(plain, weights.nonneighbor_weight))
    return loss, aff, plain, weighted


def train_loss_parts(probs, h, graph, weights, rng):
    """Source objective and its scalar components.

    ``bce + class_reg_weight * class_reg + self_weight * loss_self``, where
    ``loss_self`` is the adaptation objective and ``class_reg`` the
    class-weighted mean of its non-neighbor cosines (one shared draw).
    Returns (loss tensor, dict of float components).
    """
    if graph.labels is None:
        raise DataError("source training requires labels")
    weights.validate()
    class_weights = anomaly_weights(graph.labels, weights.anomaly_weight)
    l_self, aff, plain_reg, class_reg = _self_supervised(h, graph, weights, rng,
                                                         class_weights)
    bce = dk.binary_cross_entropy(probs, graph.labels)
    l_sup = dk.add(bce, dk.scalar_mul(class_reg, weights.class_reg_weight))
    total = dk.add(l_sup, dk.scalar_mul(l_self, weights.self_weight))
    parts = {
        "loss": total.item(),
        "loss_sup": l_sup.item(),
        "loss_self": l_self.item(),
        "bce": bce.item(),
        "class_reg": class_reg.item(),
        "nonneighbor_reg": plain_reg.item(),
        "affinity_sum": float(aff.scores.values.sum()),
    }
    return total, parts


def ttt_loss(h, graph, weights, rng):
    """Label-free adaptation objective: ``-sum(affinity) + nonneighbor_weight * reg``.

    Isolated nodes contribute zero affinity; with ``nonneighbor_weight`` 0
    no non-neighbors are drawn.
    """
    return _self_supervised(h, graph, weights, rng)[0]
