"""Shared fixtures: tiny deterministic graphs, a small model factory and
file mutators for fuzzing the loaders."""

import numpy as np
import pytest
from hypothesis import strategies as st

from ttgad import gnn
from ttgad.graphstore import build_graph


@pytest.fixture
def path3():
    """Three nodes in a path 0-1-2, labels mark node 2 anomalous."""
    features = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return build_graph("path3", 3, [(0, 1), (1, 2)], features,
                       labels=[0, 0, 1])


@pytest.fixture
def triangle_iso():
    """Triangle on 0,1,2 plus isolated node 3."""
    features = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    return build_graph("tri_iso", 4, [(0, 1), (1, 2), (0, 2)], features,
                       labels=[0, 0, 1, 1])


@pytest.fixture
def star5():
    """Star with center 0 and leaves 1..4, one-hot-ish features."""
    features = np.eye(5)
    edges = [(0, i) for i in range(1, 5)]
    return build_graph("star5", 5, edges, features, labels=[0, 0, 0, 0, 1])


@pytest.fixture
def edgeless3():
    """Three nodes, no edges, all labeled."""
    features = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    return build_graph("edgeless3", 3, [], features, labels=[0, 0, 1])


def small_bundle(feature_dim, width=4, num_layers=2, seed=0, nsaw_enabled=True,
                 identity_encoder=False):
    rng = np.random.default_rng(seed)
    return gnn.init_bundle(rng, feature_dim, p=width, hidden_dim=width,
                           attn_dim=width, num_layers=num_layers,
                           nsaw_enabled=nsaw_enabled,
                           identity_encoder=identity_encoder)


@pytest.fixture
def bundle_factory():
    return small_bundle


# ---------------------------------------------------------------------------
# Fuzzing helpers: each draws one corruption of a saved file from ``data``
# (a hypothesis ``st.data()`` object).

JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 100),
                        st.floats(), st.text(max_size=3),
                        st.lists(st.integers(0, 3), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(0, 3),
                                        max_size=1))


def mutate_bytes(data, raw):
    """Truncate ``raw`` or XOR one of its bytes with a nonzero mask."""
    pos = data.draw(st.integers(0, len(raw) - 1), label="position")
    if data.draw(st.booleans(), label="truncate"):
        return raw[:pos]
    flipped = raw[pos] ^ data.draw(st.integers(1, 255), label="mask")
    return raw[:pos] + bytes([flipped]) + raw[pos + 1:]


def edit_json(data, node):
    """Delete or replace one member anywhere inside a JSON object or array."""
    keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
    key = data.draw(st.sampled_from(keys), label="key")
    child = node[key]
    if isinstance(child, (dict, list)) and child and data.draw(st.booleans(), label="descend"):
        edit_json(data, child)
    elif data.draw(st.booleans(), label="delete"):
        del node[key]
    else:
        node[key] = data.draw(JSON_VALUES, label="value")
