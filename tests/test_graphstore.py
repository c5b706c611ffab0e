"""Graph container, disk format, generator and rewiring tests."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import edit_json, mutate_bytes
from ttgad.errors import DataError, GraphFormatError
from ttgad.graphstore import (AttributedGraph, SyntheticSpec, build_graph,
                              compute_stats, generate_synthetic, graphs_equal,
                              load_graph, rewire_to_homophily, save_graph)


def ref_edge_homophily(graph):
    """Fraction of undirected edges joining same-label endpoints."""
    same = 0
    for u, v in graph.undirected_edges:
        same += int(graph.labels[u] == graph.labels[v])
    return same / graph.num_edges


# ---------------------------------------------------------------------------
# Construction and validation


def test_build_graph_accepts_either_orientation_and_dedupes():
    features = np.zeros((3, 1))
    g = build_graph("g", 3, [(0, 1), (1, 0), (0, 1), (2, 1)], features)
    assert g.num_edges == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_build_graph_drops_self_loops_with_warning():
    features = np.zeros((2, 1))
    with pytest.warns(UserWarning, match="self-loop"):
        g = build_graph("g", 2, [(0, 0), (0, 1)], features)
    assert g.num_edges == 1


def test_build_graph_rejects_out_of_range_ids():
    with pytest.raises(DataError, match="out of range"):
        build_graph("g", 2, [(0, 5)], np.zeros((2, 1)))


def test_constructor_validates_csr():
    feats = np.zeros((2, 1))
    with pytest.raises(DataError, match="indptr"):
        AttributedGraph("g", 2, [0, 1], [1, 0], feats)
    with pytest.raises(DataError, match="symmetric"):
        AttributedGraph("g", 2, [0, 1, 1], [1], feats)
    # a directed 3-cycle: the transpose has the same row widths, other columns
    with pytest.raises(DataError, match="symmetric"):
        AttributedGraph("g", 3, [0, 1, 2, 3], [1, 2, 0], np.zeros((3, 1)))
    with pytest.raises(DataError, match="self-loops"):
        AttributedGraph("g", 2, [0, 1, 1], [0], feats)
    with pytest.raises(DataError, match="sorted"):
        AttributedGraph("g", 3, [0, 2, 3, 4],
                        np.array([2, 1, 0, 0]), np.zeros((3, 1)))
    with pytest.raises(DataError, match="finite"):
        build_graph("g", 2, [(0, 1)], np.array([[np.nan], [0.0]]))
    with pytest.raises(DataError, match="0 or 1"):
        build_graph("g", 2, [(0, 1)], feats, labels=[0, 2])


def ref_csr_arrays(n, edges):
    """indptr, indices and mirror slots of the simple graph on ``edges``,
    from ``np.unique`` of the slot keys and a ``searchsorted`` over them."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    both = np.concatenate([edges, edges[:, ::-1]])
    keys = np.unique(both[:, 0] * n + both[:, 1])
    src, dst = keys // n, keys % n
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return indptr, dst, np.searchsorted(keys, dst * n + src)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=40))))
def test_build_graph_matches_unique_searchsorted_reference(case):
    # small node counts make duplicates, both orientations, self-loops and
    # isolated nodes common
    n, edges = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = build_graph("g", n, edges, np.zeros((n, 1)))
    for got, want in zip((g.indptr, g.indices, g.reverse_slot), ref_csr_arrays(n, edges)):
        assert got.dtype == np.int64
        assert got.tobytes() == want.astype(np.int64).tobytes()
    assert g.pattern.reverse is g.reverse_slot


def test_trailing_isolated_node_is_valid():
    g = build_graph("g", 4, [(0, 1), (1, 2)], np.zeros((4, 1)))
    assert list(g.degrees) == [1, 2, 1, 0]


def test_derived_slot_arrays(path3):
    # Slots: 0->1, 1->0, 1->2, 2->1
    assert list(path3.slot_src) == [0, 1, 1, 2]
    assert list(path3.indices) == [1, 0, 2, 1]
    rev = path3.reverse_slot
    for s in range(path3.num_slots):
        assert path3.slot_src[rev[s]] == path3.indices[s]
        assert path3.indices[rev[s]] == path3.slot_src[s]


def test_without_labels(path3):
    bare = path3.without_labels()
    assert bare.labels is None
    assert bare is not path3
    assert bare.without_labels() is bare
    assert np.array_equal(bare.indices, path3.indices)


# ---------------------------------------------------------------------------
# Statistics


def test_stats_worked_example(path3):
    # labels [0,0,1]: anomaly rate 1/3; edges (0,1) same, (1,2) mixed -> 1/2
    stats = compute_stats(path3)
    assert stats.num_nodes == 3 and stats.num_edges == 2
    assert stats.anomaly_rate == pytest.approx(1.0 / 3.0)
    assert stats.edge_label_homophily == 0.5
    assert ref_edge_homophily(path3) == 0.5
    assert stats.degree_min == 1 and stats.degree_max == 2
    assert stats.degree_mean == pytest.approx(4.0 / 3.0)


def test_stats_without_labels_omits_label_fields(path3):
    stats = compute_stats(path3.without_labels())
    assert stats.anomaly_rate is None
    assert stats.edge_label_homophily is None
    assert "anomaly_rate" not in stats.to_dict()


def test_stats_empty_graph_errors():
    g = build_graph("empty", 0, [], np.zeros((0, 1)))
    with pytest.raises(DataError, match="empty graph"):
        compute_stats(g)


# ---------------------------------------------------------------------------
# Disk round-trips


def test_save_load_round_trip(tmp_path, triangle_iso):
    save_graph(triangle_iso, tmp_path / "g")
    back = load_graph(tmp_path / "g")
    assert graphs_equal(triangle_iso, back)
    assert back.name == "tri_iso"


def test_save_load_unlabeled(tmp_path, path3):
    save_graph(path3.without_labels(), tmp_path / "g")
    back = load_graph(tmp_path / "g")
    assert back.labels is None
    assert graphs_equal(path3.without_labels(), back)


def test_features_stored_as_float32(tmp_path):
    feats = np.array([[0.1, 0.2], [0.3, 0.4]])
    g = build_graph("g", 2, [(0, 1)], feats)
    save_graph(g, tmp_path / "g")
    raw = (tmp_path / "g" / "features.bin").read_bytes()
    assert len(raw) == 2 * 2 * 4
    back = load_graph(tmp_path / "g")
    np.testing.assert_array_equal(back.features,
                                  feats.astype(np.float32).astype(np.float64))


def test_load_missing_pieces(tmp_path, path3):
    with pytest.raises(GraphFormatError, match="meta.json"):
        load_graph(tmp_path / "nowhere")
    root = save_graph(path3, tmp_path / "g")
    (root / "edges.tsv").unlink()
    with pytest.raises(GraphFormatError, match="edges.tsv"):
        load_graph(root)


def test_load_rejects_bad_meta(tmp_path, path3):
    root = save_graph(path3, tmp_path / "g")
    (root / "meta.json").write_text("{not json")
    with pytest.raises(GraphFormatError, match="not valid JSON"):
        load_graph(root)
    meta = {"name": "g", "num_nodes": 3, "feature_dim": 2}
    (root / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(GraphFormatError, match="has_labels"):
        load_graph(root)
    (root / "meta.json").write_text(json.dumps([meta]))
    with pytest.raises(GraphFormatError, match="JSON object"):
        load_graph(root)
    for key in ("num_nodes", "feature_dim"):
        for bad in ("abc", None, [3], 3.7, 3.0, True):
            (root / "meta.json").write_text(json.dumps(
                {**meta, "has_labels": True, key: bad}))
            with pytest.raises(GraphFormatError, match="invalid num_nodes"):
                load_graph(root)
    for bad in (1, "true", None):
        (root / "meta.json").write_text(json.dumps({**meta, "has_labels": bad}))
        with pytest.raises(GraphFormatError, match="has_labels must be"):
            load_graph(root)
    (root / "meta.json").write_bytes(b'{"name": "g\xff"}')
    with pytest.raises(GraphFormatError, match="meta.json is not valid UTF-8"):
        load_graph(root)


def test_load_rejects_malformed_binary_length(tmp_path, path3):
    root = save_graph(path3, tmp_path / "g")
    raw = (root / "features.bin").read_bytes()
    (root / "features.bin").write_bytes(raw[:-4])
    with pytest.raises(GraphFormatError, match="malformed binary length"):
        load_graph(root)


def test_load_rejects_bad_edges(tmp_path, path3):
    root = save_graph(path3, tmp_path / "g")
    (root / "edges.tsv").write_text("0\t9\n")
    with pytest.raises(GraphFormatError, match="out of range"):
        load_graph(root)
    (root / "edges.tsv").write_text("0 1\n")
    with pytest.raises(GraphFormatError, match="expected"):
        load_graph(root)
    (root / "edges.tsv").write_text("0\tx\n")
    with pytest.raises(GraphFormatError, match="non-integer"):
        load_graph(root)
    (root / "edges.tsv").write_bytes(b"0\t1\n\xc3\n")
    with pytest.raises(GraphFormatError, match="edges.tsv is not valid UTF-8"):
        load_graph(root)
    (root / "edges.tsv").write_text("0\t1\n")
    (root / "labels.tsv").write_bytes(b"0\n0\n\x81\n")
    with pytest.raises(GraphFormatError, match="labels.tsv is not valid UTF-8"):
        load_graph(root)


def test_load_rejects_bad_labels(tmp_path, path3):
    root = save_graph(path3, tmp_path / "g")
    (root / "labels.tsv").write_text("0\n1\n")
    with pytest.raises(GraphFormatError, match="expected 3"):
        load_graph(root)
    (root / "labels.tsv").write_text("0\n1\n3\n")
    with pytest.raises(GraphFormatError, match="0 or 1"):
        load_graph(root)


@pytest.fixture(scope="module")
def saved_graph(tmp_path_factory):
    spec = SyntheticSpec(num_nodes=12, feature_dim=2, anomaly_rate=0.25,
                         target_homophily=0.8, mean_degree=3.0, seed=5)
    return save_graph(generate_synthetic(spec), tmp_path_factory.mktemp("g"))


@pytest.mark.filterwarnings("ignore:dropping .* self-loop")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_graph_loads_or_raises_data_error(saved_graph, data):
    files = {p.name: p.read_bytes() for p in saved_graph.iterdir()}
    if data.draw(st.booleans(), label="edit meta"):
        meta = json.loads(files["meta.json"])
        edit_json(data, meta)
        files["meta.json"] = json.dumps(meta).encode()
    else:
        name = data.draw(st.sampled_from(sorted(files)), label="file")
        files[name] = mutate_bytes(data, files[name])
    root = saved_graph.with_name("fuzzed")
    root.mkdir(exist_ok=True)
    for name, raw in files.items():
        (root / name).write_bytes(raw)
    try:
        load_graph(root)
    except DataError:
        pass


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 12), st.booleans())
def test_random_graph_round_trips_exactly(tmp_path_factory, seed, n, labeled):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = rng.random(len(pairs)) < 0.4
    edges = [p for p, keep in zip(pairs, take) if keep]
    features = rng.standard_normal((n, 3)).astype(np.float32)
    labels = rng.integers(0, 2, size=n) if labeled else None
    g = build_graph("rand", n, edges or np.zeros((0, 2), dtype=np.int64),
                    features, labels)
    out = tmp_path_factory.mktemp("roundtrip") / "g"
    save_graph(g, out)
    assert graphs_equal(g, load_graph(out))


# ---------------------------------------------------------------------------
# Synthetic generation


def test_generate_synthetic_is_deterministic():
    spec = SyntheticSpec(num_nodes=80, feature_dim=5, anomaly_rate=0.2,
                         target_homophily=0.8, mean_degree=6.0, seed=42)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert graphs_equal(a, b)
    c = generate_synthetic(SyntheticSpec(num_nodes=80, feature_dim=5,
                                         anomaly_rate=0.2,
                                         target_homophily=0.8,
                                         mean_degree=6.0, seed=43))
    assert not graphs_equal(a, c)


def test_generate_synthetic_hits_requested_mix():
    spec = SyntheticSpec(num_nodes=400, feature_dim=8, anomaly_rate=0.1,
                         target_homophily=0.7, mean_degree=10.0, seed=7)
    g = generate_synthetic(spec)
    stats = compute_stats(g)
    assert abs(stats.edge_label_homophily - 0.7) <= 0.03
    assert 0.05 <= stats.anomaly_rate <= 0.16
    assert abs(stats.degree_mean - 10.0) <= 0.01
    assert ref_edge_homophily(g) == pytest.approx(stats.edge_label_homophily)


def test_generate_synthetic_feature_geometry():
    spec = SyntheticSpec(num_nodes=300, feature_dim=6, anomaly_rate=0.15,
                         target_homophily=0.9, noise_scale=0.1, seed=3)
    g = generate_synthetic(spec)
    normals = g.features[g.labels == 0]
    anomalies = g.features[g.labels == 1]
    assert np.linalg.norm(normals.mean(axis=0) - 1.0) < 0.2
    assert np.linalg.norm(anomalies.mean(axis=0)) < 0.2


def test_generate_synthetic_validates_spec():
    with pytest.raises(DataError, match="anomaly_rate"):
        generate_synthetic(SyntheticSpec(num_nodes=10, feature_dim=2,
                                         anomaly_rate=0.7,
                                         target_homophily=0.5))
    with pytest.raises(DataError, match="target_homophily"):
        generate_synthetic(SyntheticSpec(num_nodes=10, feature_dim=2,
                                         anomaly_rate=0.2,
                                         target_homophily=1.5))
    with pytest.raises(DataError, match="num_nodes"):
        generate_synthetic(SyntheticSpec(num_nodes=1, feature_dim=2,
                                         anomaly_rate=0.2,
                                         target_homophily=0.5))


def test_generate_synthetic_infeasible_mix():
    # 4 nodes at degree 3 would need more distinct pairs than exist.
    spec = SyntheticSpec(num_nodes=4, feature_dim=2, anomaly_rate=0.4,
                         target_homophily=1.0, mean_degree=3.9, seed=1)
    with pytest.raises(DataError, match="infeasible"):
        generate_synthetic(spec)


# ---------------------------------------------------------------------------
# Rewiring


def test_rewire_down_from_homophilic_graph():
    # Near-balanced classes keep the low target reachable: swaps conserve
    # the gap between the two classes' same-label edge counts.
    spec = SyntheticSpec(num_nodes=200, feature_dim=4, anomaly_rate=0.45,
                         target_homophily=0.9, mean_degree=8.0, seed=5)
    g = generate_synthetic(spec)
    assert abs(ref_edge_homophily(g) - 0.9) <= 0.03
    low = rewire_to_homophily(g, 0.3, seed=11)
    assert np.array_equal(low.degrees, g.degrees)
    assert low.num_edges == g.num_edges
    assert np.array_equal(low.features, g.features)
    assert np.array_equal(low.labels, g.labels)
    assert 0.27 <= ref_edge_homophily(low) <= 0.33


def test_rewire_is_deterministic():
    spec = SyntheticSpec(num_nodes=150, feature_dim=3, anomaly_rate=0.25,
                         target_homophily=0.4, mean_degree=6.0, seed=2)
    g = generate_synthetic(spec)
    a = rewire_to_homophily(g, 0.7, seed=9)
    b = rewire_to_homophily(g, 0.7, seed=9)
    assert graphs_equal(a, b)
    assert abs(ref_edge_homophily(a) - 0.7) <= 0.03


def test_rewire_returns_same_graph_when_already_there():
    spec = SyntheticSpec(num_nodes=100, feature_dim=3, anomaly_rate=0.2,
                         target_homophily=0.8, mean_degree=6.0, seed=4)
    g = generate_synthetic(spec)
    current = compute_stats(g).edge_label_homophily
    assert rewire_to_homophily(g, current, seed=1) is g


def test_rewire_requires_labels(path3):
    with pytest.raises(DataError, match="labels"):
        rewire_to_homophily(path3.without_labels(), 0.5)


def test_rewire_warns_when_target_unreachable():
    # Dense high-rate graph: degree preservation floors the reachable range.
    spec = SyntheticSpec(num_nodes=60, feature_dim=3, anomaly_rate=0.45,
                         target_homophily=0.9, mean_degree=20.0, seed=8)
    g = generate_synthetic(spec)
    with pytest.warns(UserWarning, match="not attainable"):
        out = rewire_to_homophily(g, 0.0, seed=3)
    assert np.array_equal(out.degrees, g.degrees)


def reference_rewire(graph, target_homophily, seed=0, max_swaps_factor=50):
    """The swap loop as it ran before the degree-sum floor: every target
    spends the whole budget unless it is met."""
    m = graph.num_edges
    edges = graph.undirected_edges.copy()
    labels = graph.labels
    same = labels[edges[:, 0]] == labels[edges[:, 1]]
    cur = int(same.sum())
    target_count = int(round(target_homophily * m))
    keys = set((int(u) * graph.num_nodes + int(v)) for u, v in edges)
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    stop_distance = abs(cur - target_count) % 2
    for _ in range(max_swaps_factor * m):
        if abs(cur - target_count) <= stop_distance:
            break
        i = int(rng.integers(m))
        j = int(rng.integers(m))
        flip = rng.random() < 0.5
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if len({int(a), int(b), int(c), int(d)}) != 4:
            continue
        p1, p2 = ((a, d), (c, b)) if flip else ((a, c), (b, d))
        k1 = min(p1) * n + max(p1)
        k2 = min(p2) * n + max(p2)
        if k1 in keys or k2 in keys:
            continue
        new_same = int(labels[p1[0]] == labels[p1[1]]) + int(labels[p2[0]] == labels[p2[1]])
        cand = cur + new_same - int(same[i]) - int(same[j])
        if abs(cand - target_count) >= abs(cur - target_count):
            continue
        keys -= {min(a, b) * n + max(a, b), min(c, d) * n + max(c, d)}
        keys |= {k1, k2}
        edges[i] = (min(p1), max(p1))
        edges[j] = (min(p2), max(p2))
        same[i] = labels[p1[0]] == labels[p1[1]]
        same[j] = labels[p2[0]] == labels[p2[1]]
        cur = cand
    return build_graph(graph.name, n, edges, graph.features, labels), cur / m


@pytest.fixture(scope="module")
def floored_graph():
    # Anomalies are few and low-degree, so the degree-sum floor sits at 0.811:
    # cross-label edges cannot outnumber the anomalies' degree sum.
    spec = SyntheticSpec(num_nodes=150, feature_dim=3, anomaly_rate=0.2,
                         target_homophily=0.9, mean_degree=6.0, seed=2)
    return generate_synthetic(spec)


@pytest.mark.parametrize("target", [0.3, 0.86, 1.0],
                         ids=["below_floor", "in_range", "above_range"])
def test_rewire_matches_reference_loop(floored_graph, target):
    expected, realized = reference_rewire(floored_graph, target, seed=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = rewire_to_homophily(floored_graph, target, seed=4)
    assert graphs_equal(out, expected)
    assert (len(caught) == 1) == (abs(realized - target) > 0.03)


class CountingRng:
    """Counts swap attempts: each one draws exactly one ``random()``."""

    def __init__(self, rng):
        self.rng = rng
        self.attempts = 0

    def integers(self, *args):
        return self.rng.integers(*args)

    def random(self):
        self.attempts += 1
        return self.rng.random()


def test_rewire_stops_at_degree_sum_floor(floored_graph, monkeypatch):
    made = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        made.append(CountingRng(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    with pytest.warns(UserWarning, match="not attainable"):
        out = rewire_to_homophily(floored_graph, 0.0, seed=4, max_swaps_factor=400)
    budget = 400 * floored_graph.num_edges
    assert made[0].attempts < budget // 20
    labels = out.labels
    cross = int((labels[out.undirected_edges[:, 0]] != labels[out.undirected_edges[:, 1]]).sum())
    assert cross == out.degrees[labels == 1].sum()
