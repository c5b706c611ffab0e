"""Anomaly scoring and ranking quality metrics.

Two scoring modes share one ranking convention (higher score = more
anomalous, ties broken by node id): "affinity" negates the neighborhood
affinity score, "predictor" uses the classifier head's probability. The
ranking metrics are exact: AUROC via the rank-sum formulation with tied
ranks averaged, AUPRC as average precision with tied-score blocks
processed atomically.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import gnn, losses
from .errors import ConfigError, DataError

__all__ = [
    "AnomalyRanking", "MetricResult", "score_nodes",
    "auroc", "auprc", "metric_result",
]

SCORING_MODES = ("affinity", "predictor")


@dataclass
class AnomalyRanking:
    """Per-node anomaly scores plus the induced rank order.

    ``order`` lists node ids from most to least anomalous. ``isolated``
    flags nodes without neighbors, whose affinity carries no signal.
    """

    scores: np.ndarray
    order: np.ndarray
    scoring_mode: str
    isolated: np.ndarray


def score_nodes(bundle, graph, mode="affinity", domain=None):
    """Rank nodes by anomaly score using a deterministic eval-mode forward.

    ``domain`` picks the encoder; by default the target encoder is used
    when the bundle has one, the source encoder otherwise.
    """
    if mode not in SCORING_MODES:
        raise ConfigError(f"unknown scoring mode {mode!r}")
    if domain is None:
        domain = "target" if bundle.target_encoder is not None else "source"
    h, _ = gnn.forward_embeddings(bundle, graph, domain)
    isolated = graph.degrees == 0
    if mode == "affinity":
        aff = losses.affinity_scores(h, graph)
        scores = -aff.values()
    else:
        scores = gnn.predict(bundle, h).values[:, 0].copy()
    order = np.lexsort((np.arange(graph.num_nodes), -scores))
    return AnomalyRanking(scores=scores, order=order,
                          scoring_mode=mode, isolated=isolated)


# ---------------------------------------------------------------------------
# Ranking metrics


def _check_binary(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise DataError("scores and labels must have equal length")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores must be finite")
    if not np.isin(labels, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    return scores, labels.astype(np.int64)


def _average_ranks(scores):
    """1-based ranks, ascending by score, ties averaged within each block."""
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    n = s.size
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    ends = np.concatenate([starts[1:], [n]])
    block_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(block_rank, ends - starts)
    return ranks


def auroc(scores, labels):
    """Probability a random anomaly outscores a random normal (ties count half)."""
    scores, labels = _check_binary(scores, labels)
    pos = labels == 1
    num_pos = int(pos.sum())
    num_neg = labels.size - num_pos
    if num_pos == 0 or num_neg == 0:
        raise DataError("auroc needs at least one node of each class")
    ranks = _average_ranks(scores)
    rank_sum = ranks[pos].sum()
    return float((rank_sum - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg))


def auprc(scores, labels):
    """Average precision down the score ranking, tied blocks taken whole."""
    scores, labels = _check_binary(scores, labels)
    num_pos = int((labels == 1).sum())
    if num_pos == 0:
        raise DataError("auprc needs at least one anomaly")
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    n = s.size
    ends = np.concatenate([np.flatnonzero(s[1:] != s[:-1]) + 1, [n]])
    tp = np.cumsum(y)[ends - 1]
    delta_tp = np.diff(np.concatenate([[0], tp]))
    precision = tp / ends
    return float(np.sum(delta_tp * precision) / num_pos)


@dataclass
class MetricResult:
    auroc: float
    auprc: float
    positives: int
    negatives: int

    def to_dict(self):
        return asdict(self)


def metric_result(scores, labels):
    """Both ranking metrics plus the class counts they were computed over."""
    _, checked = _check_binary(scores, labels)
    num_pos = int((checked == 1).sum())
    return MetricResult(auroc=auroc(scores, labels), auprc=auprc(scores, labels),
                        positives=num_pos, negatives=int(checked.size - num_pos))
