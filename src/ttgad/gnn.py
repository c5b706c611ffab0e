"""Encoders, attention-weighted message passing, and the predictor head.

A model bundle holds one projection encoder per domain (source always,
target once adaptation starts), a stack of shared message-passing layers,
and a small MLP head that maps final embeddings to anomaly probabilities.
:func:`parameter_shapes` is the one description of that layout: a fresh
bundle draws each of its entries, and both a fresh and a loaded bundle are
built from named arrays by :func:`assemble_bundle`.

Message passing is sparse-matrix algebra over the graph's
:class:`diffkernel.Pattern`. Attention scores are an SDDMM
(:func:`diffkernel.pair_dot`) of the relu-projected embeddings with
themselves, one score per directed slot, softmax-normalized over each
node's neighborhood, then symmetrized by :func:`diffkernel.reverse_min`
against the reverse slot. The message is the SpMM (:func:`diffkernel.spmm`)
of those slot weights, or of 1/degree in plain mode, with the layer input.
Entries outside the adjacency never exist, so they are exactly zero with
exactly zero gradient.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import diffkernel as dk
from .errors import ConfigError, ShapeError
from .graphstore import AttributedGraph

__all__ = [
    "ProjectionEncoder", "NsawLayer", "PredictorHead", "ModelBundle",
    "LayerAttention", "AttentionMatrices",
    "compute_attention", "symmetrize_attention",
    "nsaw_layer_forward", "forward_embeddings", "predict",
    "init_encoder", "init_bundle", "assemble_bundle",
    "parameter_shapes",
]


@dataclass
class ProjectionEncoder:
    """Linear map from a domain's raw feature space to the shared width.

    ``weight`` is (p, feature_dim); ``None`` means the identity encoder for
    settings where source and target share one feature space.
    """

    weight: dk.Tensor | None
    domain: str

    def project(self, features):
        """Map raw node features into the shared embedding space."""
        if np.ndim(features) == 2:
            # A read-only view: a forward reads the features and never
            # needs its own copy of them.
            values = np.ascontiguousarray(features, dtype=np.float64).view()
            values.flags.writeable = False
            x = dk.Tensor._wrap(values, False)
        else:
            x = dk.Tensor(features)
        if self.weight is None:
            return x
        if self.weight.shape[1] != x.shape[1]:
            raise ShapeError(
                f"{self.domain} encoder expects feature_dim {self.weight.shape[1]}, "
                f"got {x.shape[1]}"
            )
        return dk.linear([x], self.weight)


@dataclass
class NsawLayer:
    """One message-passing layer.

    W is (out_dim, 2 * in_dim) applied to [message | input] rows, b is
    (1, out_dim), U is (in_dim, attn_dim) for the attention projection.
    """

    W: dk.Tensor
    b: dk.Tensor
    U: dk.Tensor

    @property
    def in_dim(self):
        return self.W.shape[1] // 2

    @property
    def out_dim(self):
        return self.W.shape[0]


@dataclass
class PredictorHead:
    """One-hidden-layer MLP ending in a single sigmoid logit."""

    w_hidden: dk.Tensor
    b_hidden: dk.Tensor
    w_out: dk.Tensor
    b_out: dk.Tensor


@dataclass
class LayerAttention:
    """Attention vectors for one layer, aligned with the graph's slots."""

    pre_sym: dk.Tensor
    sym: dk.Tensor
    graph: AttributedGraph

    def _dense(self, tensor):
        n = self.graph.num_nodes
        dense = np.zeros((n, n))
        dense[self.graph.slot_src, self.graph.indices] = tensor.values[:, 0]
        return dense

    def dense_pre(self):
        """Row-softmax weights as a dense (n, n) array (zeros off-adjacency)."""
        return self._dense(self.pre_sym)

    def dense_sym(self):
        """Symmetrized weights as a dense (n, n) array (zeros off-adjacency)."""
        return self._dense(self.sym)


@dataclass
class AttentionMatrices:
    """Per-layer attention, in layer order; empty when attention is off."""

    layers: list[LayerAttention] = field(default_factory=list)


@dataclass
class ModelBundle:
    source_encoder: ProjectionEncoder
    target_encoder: ProjectionEncoder | None
    layers: list[NsawLayer]
    predictor: PredictorHead
    nsaw_enabled: bool = True

    def encoder_for(self, domain):
        if domain == "source":
            return self.source_encoder
        if domain == "target":
            if self.target_encoder is None:
                raise ConfigError("bundle has no target encoder yet")
            return self.target_encoder
        raise ConfigError(f"unknown domain {domain!r}")

    @property
    def embedding_dim(self):
        return self.layers[-1].out_dim

    def parameter_items(self):
        """All named tensors in a stable order (checkpoint layout).

        A tensor trains exactly when its ``requires_grad`` flag is set.
        """
        items = []
        if self.source_encoder.weight is not None:
            items.append(("source_encoder.weight", self.source_encoder.weight))
        if self.target_encoder is not None and self.target_encoder.weight is not None:
            items.append(("target_encoder.weight", self.target_encoder.weight))
        for i, layer in enumerate(self.layers):
            items.append((f"layers.{i}.W", layer.W))
            items.append((f"layers.{i}.b", layer.b))
            items.append((f"layers.{i}.U", layer.U))
        items.append(("predictor.w_hidden", self.predictor.w_hidden))
        items.append(("predictor.b_hidden", self.predictor.b_hidden))
        items.append(("predictor.w_out", self.predictor.w_out))
        items.append(("predictor.b_out", self.predictor.b_out))
        return items


# ---------------------------------------------------------------------------
# Initialization (uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)), which
# is rows + cols for every weight; biases zero). Draw order is fixed so seeds
# reproduce bitwise.


_BIASES = ("b", "b_hidden", "b_out")


def _uniform(rng, rows, cols):
    a = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, size=(rows, cols))


def init_encoder(rng, p, feature_dim, domain):
    return ProjectionEncoder(dk.Tensor(_uniform(rng, p, feature_dim), requires_grad=True),
                             domain)


def init_bundle(rng, feature_dim, p, hidden_dim, attn_dim, num_layers,
                nsaw_enabled=True, identity_encoder=False):
    """A fresh bundle: each :func:`parameter_shapes` entry drawn in order."""
    if num_layers < 1:
        raise ConfigError("num_layers must be at least 1")
    arrays = {}
    for name, (rows, cols) in parameter_shapes(feature_dim, p, hidden_dim, attn_dim,
                                               num_layers, identity_encoder):
        arrays[name] = (np.zeros((rows, cols)) if name.rpartition(".")[2] in _BIASES
                        else _uniform(rng, rows, cols))
    return assemble_bundle(arrays, nsaw_enabled)


def assemble_bundle(arrays, nsaw_enabled):
    """The bundle whose ``parameter_items()`` hold copies of ``arrays``.

    The inverse of :meth:`ModelBundle.parameter_items`: ``arrays`` maps each
    name to a 2-D array. Every tensor trains except ``U`` when attention is
    off. Without a source encoder weight the source encoder is the identity;
    without a target encoder weight there is no target encoder.
    """
    t = {name: dk.Tensor(values, requires_grad=True) for name, values in arrays.items()}
    layers = []
    while f"layers.{len(layers)}.W" in t:
        i = len(layers)
        layers.append(NsawLayer(**{k: t[f"layers.{i}.{k}"] for k in ("W", "b", "U")}))
        layers[-1].U.requires_grad = nsaw_enabled
    target = t.get("target_encoder.weight")
    return ModelBundle(
        source_encoder=ProjectionEncoder(t.get("source_encoder.weight"), "source"),
        target_encoder=None if target is None else ProjectionEncoder(target, "target"),
        layers=layers,
        predictor=PredictorHead(**{k: t[f"predictor.{k}"]
                                   for k in ("w_hidden", "b_hidden", "w_out", "b_out")}),
        nsaw_enabled=nsaw_enabled)


def parameter_shapes(feature_dim, p, hidden_dim, attn_dim, num_layers,
                     identity_encoder, target_cols=None):
    """``parameter_items()`` names and shapes of a bundle, in order; the one layout.

    ``target_cols`` adds a target encoder for features of that width. The
    walk raises ConfigError at the first entry that takes the float64 bytes
    of the parameters past physical memory, so nothing is allocated for a
    bundle that cannot exist.
    """
    def entries():
        width = feature_dim if identity_encoder else p
        if not identity_encoder:
            yield "source_encoder.weight", (p, feature_dim)
        if target_cols is not None:
            yield "target_encoder.weight", (width, target_cols)
        for i in range(num_layers):
            yield from [(f"layers.{i}.W", (hidden_dim, 2 * width)),
                        (f"layers.{i}.b", (1, hidden_dim)),
                        (f"layers.{i}.U", (width, attn_dim))]
            width = hidden_dim
        yield from [("predictor.w_hidden", (hidden_dim, width)),
                    ("predictor.b_hidden", (1, hidden_dim)),
                    ("predictor.w_out", (1, hidden_dim)), ("predictor.b_out", (1, 1))]

    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    shapes, needed = [], 0
    for name, (rows, cols) in entries():
        needed += 8 * rows * cols
        if needed > limit:
            raise ConfigError(f"config sizes do not fit in memory: {name!r} brings "
                              f"the parameters to {needed} bytes, past the {limit} "
                              "bytes of physical memory")
        shapes.append((name, (rows, cols)))
    return shapes


# ---------------------------------------------------------------------------
# Forward passes


def compute_attention(layer, h, graph):
    """Row-softmax attention per directed slot, shape (num_slots, 1).

    Scores are dot products of relu(h @ U) endpoint rows, normalized over
    each node's neighborhood. Rows of isolated nodes simply have no slots.
    """
    z = dk.relu(dk.matmul(h, layer.U))
    scores = dk.pair_dot(z, graph.pattern)
    return dk.segment_softmax(scores, graph.pattern)


def symmetrize_attention(attention, graph):
    """min(A[u,v], A[v,u]) per slot; exactly symmetric, no renormalization."""
    return dk.reverse_min(attention, graph.pattern)


def nsaw_layer_forward(layer, h, graph, weights):
    """One layer: ``relu([message | h] @ W.T + b)`` as one :func:`diffkernel.linear`.

    ``W``'s left column block meets the aggregated message and its right
    block ``h``, so ``[message | h]`` is never built. ``weights`` holds one
    weight per slot (symmetrized attention, or 1/degree without attention).
    Isolated nodes have no slots, so they aggregate a zero message.
    """
    if h.shape[0] != graph.num_nodes:
        raise ShapeError("layer input rows must match graph nodes")
    if layer.in_dim != h.shape[1]:
        raise ShapeError(f"layer expects width {layer.in_dim}, got {h.shape[1]}")
    message = dk.spmm(weights, h, graph.pattern)
    return dk.linear([message, h], layer.W, layer.b, relu=True)


def forward_embeddings(bundle, graph, domain, training=False, rng=None,
                       dropout_rate=0.0):
    """Full forward pass; returns (final embeddings, per-layer attention).

    In training mode, dropout is applied to each layer's input (including the
    projected features) and attention is computed from that dropped-out
    input. Eval mode (the default) is deterministic.
    """
    if training and dropout_rate > 0.0 and rng is None:
        raise ConfigError("training-mode forward needs an rng for dropout")
    encoder = bundle.encoder_for(domain)
    h = encoder.project(graph.features)
    attentions = AttentionMatrices()
    if not bundle.nsaw_enabled:
        weights = dk.Tensor((1.0 / graph.degrees[graph.slot_src]).reshape(-1, 1))
    for layer in bundle.layers:
        x = dk.dropout(h, dropout_rate, rng, training)
        if bundle.nsaw_enabled:
            pre = compute_attention(layer, x, graph)
            weights = symmetrize_attention(pre, graph)
            attentions.layers.append(LayerAttention(pre_sym=pre, sym=weights, graph=graph))
        h = nsaw_layer_forward(layer, x, graph, weights)
    return h, attentions


def predict(bundle, embeddings):
    """Anomaly probabilities from final embeddings, shape (n, 1)."""
    p = bundle.predictor
    hidden = dk.linear([embeddings], p.w_hidden, p.b_hidden, relu=True)
    return dk.sigmoid(dk.linear([hidden], p.w_out, p.b_out))
