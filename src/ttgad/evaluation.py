"""Anomaly scoring and ranking quality metrics.

Two scoring modes share one ranking convention (higher score = more
anomalous, ties broken by node id): "affinity" negates the neighborhood
affinity score, "predictor" uses the classifier head's probability. Both
ranking metrics are exact and read only the blocks of tied scores, most
anomalous first: AUROC counts each anomaly against the normals in later
blocks and half of those in its own, AUPRC is average precision with each
tied block taken whole.
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

    ``order`` lists node ids from most to least anomalous, ties by node id;
    it is derived from ``scores`` on each read. ``isolated`` flags nodes
    without neighbors, whose affinity carries no signal.
    """

    scores: np.ndarray
    scoring_mode: str
    isolated: np.ndarray

    @property
    def order(self):
        return np.argsort(-self.scores, kind="stable")


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
    if mode == "affinity":
        scores = -losses.affinity_scores(h, graph).values()
    else:
        scores = gnn.predict(bundle, h).values[:, 0].copy()
    return AnomalyRanking(scores=scores, scoring_mode=mode,
                          isolated=graph.degrees == 0)


# ---------------------------------------------------------------------------
# Ranking metrics


def _tied_blocks(scores, labels):
    """Anomaly and node counts of each tied-score block, most anomalous first."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise DataError("scores and labels must have equal length")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores must be finite")
    if not np.isin(labels, (0, 1)).all():
        raise DataError("labels must be 0 or 1")
    order = np.argsort(-scores)
    s = scores[order]
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]) + 1, s.size)
    hits = np.concatenate(([0], np.cumsum(labels[order] == 1)))
    return np.diff(hits[ends], prepend=0), np.diff(ends, prepend=0)


def auroc(scores, labels):
    """Probability a random anomaly outscores a random normal (ties count half)."""
    pos, nodes = _tied_blocks(scores, labels)
    num_pos = int(pos.sum())
    num_neg = int(nodes.sum()) - num_pos
    if num_pos == 0 or num_neg == 0:
        raise DataError("auroc needs at least one node of each class")
    neg = nodes - pos
    below = np.sum(pos * (num_neg - np.cumsum(neg)))
    return float((below + 0.5 * np.sum(pos * neg)) / (num_pos * num_neg))


def auprc(scores, labels):
    """Average precision down the score ranking, tied blocks taken whole."""
    pos, nodes = _tied_blocks(scores, labels)
    num_pos = int(pos.sum())
    if num_pos == 0:
        raise DataError("auprc needs at least one anomaly")
    precision = np.cumsum(pos) / np.cumsum(nodes)
    return float(np.sum(pos * precision) / num_pos)


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
    labels = np.asarray(labels).reshape(-1)
    roc = auroc(scores, labels)  # validates before the labels are counted
    num_pos = int(np.count_nonzero(labels == 1))
    return MetricResult(auroc=roc, auprc=auprc(scores, labels),
                        positives=num_pos, negatives=labels.size - num_pos)
