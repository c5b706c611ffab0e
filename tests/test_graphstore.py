"""Graph container, disk format, generator and rewiring tests."""

import itertools
import json
import math
import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import edit_json, mutate_bytes
from ttgad import graphstore
from ttgad.errors import DataError, GraphFormatError, TtgadError
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
    neighbors = [g.indices[g.indptr[u]:g.indptr[u + 1]].tolist() for u in range(3)]
    assert neighbors == [[1], [0, 2], [1]]


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


def test_without_labels_shares_the_validated_pattern(triangle_iso):
    bare = triangle_iso.without_labels()
    rebuilt = build_graph(triangle_iso.name, triangle_iso.num_nodes,
                          triangle_iso.undirected_edges, triangle_iso.features)
    assert graphs_equal(bare, rebuilt)
    assert bare.pattern is triangle_iso.pattern
    assert triangle_iso.labels is not None


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


def test_features_keep_the_precision_they_arrive_in(tmp_path):
    # every graph holds float32 features, the disk precision, whatever
    # dtype they arrive in
    spec = SyntheticSpec(num_nodes=30, feature_dim=3, anomaly_rate=0.2,
                         target_homophily=0.8, mean_degree=4, seed=1)
    generated = generate_synthetic(spec)
    assert generated.features.dtype == np.float32
    save_graph(generated, tmp_path / "gen")
    assert "undirected_edges" not in vars(generated)  # read once, not kept
    loaded = load_graph(tmp_path / "gen")
    assert loaded.features.dtype == np.float32 and graphs_equal(generated, loaded)

    wide = generated.features.astype(np.float64)
    twin = build_graph(generated.name, 30, generated.undirected_edges, wide,
                       generated.labels)
    assert twin.features.dtype == np.float32 and graphs_equal(twin, generated)
    save_graph(twin, tmp_path / "twin")
    assert (tmp_path / "twin" / "features.bin").read_bytes() \
        == (tmp_path / "gen" / "features.bin").read_bytes()

    strided = np.asfortranarray(generated.features)
    kept = build_graph("g", 30, generated.undirected_edges, strided)
    assert kept.features.dtype == np.float32 and kept.features.flags.c_contiguous
    for other in (np.float16, np.float64, np.int64, bool):
        assert build_graph("g", 2, [(0, 1)], np.ones((2, 2), dtype=other)).features.dtype \
            == np.float32


def test_save_graph_refuses_features_beyond_float32_range(tmp_path):
    # the refusal comes when the graph is built, so no such graph reaches
    # save_graph
    feats = np.array([[1e39, 0.5], [-1e39, 3.0e38]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflowing cast stays silent
        with pytest.raises(DataError, match="2 value"):
            build_graph("g", 2, [(0, 1)], feats)
    fits = build_graph("g", 2, [(0, 1)], np.array([[3.0e38, -3.4e38], [1e-40, 0.5]]))
    save_graph(fits, tmp_path / "fits")
    back = load_graph(tmp_path / "fits")
    np.testing.assert_array_equal(back.features, fits.features)


@pytest.mark.parametrize("change, message", [
    ({"edges": [(1.9, 0)]}, "edge ids must be whole numbers"),
    ({"edges": [(1.0, float("nan"))]}, "edge ids must be whole numbers"),
    ({"edges": [(1e30, 0)]}, "edge ids must be whole numbers"),
    ({"edges": [("1", "0")]}, "edge ids must be real numbers"),
    ({"num_nodes": 3.5}, "num_nodes must be whole numbers"),
    ({"labels": [0.7, 1, 0]}, "labels must be whole numbers"),
    ({"labels": ["0", "1", "0"]}, "labels must be real numbers"),
    ({"features": np.ones((3, 2)) + 1j}, "features must be real numbers"),
    ({"features": [["a", "b"]] * 3}, "features must be real numbers"),
    ({"features": [[1.0, 2.0], [3.0], [4.0, 5.0]]}, "features: "),
    ({"features": [[np.inf, 0.0], [np.nan, 1.0], [2.0, 3.0]]}, "2 value"),
], ids=["fraction-id", "nan-id", "huge-id", "string-id", "fraction-num-nodes",
        "fraction-label", "string-label", "complex-feature", "string-feature",
        "ragged-features", "nonfinite-features"])
def test_build_graph_refuses_values_it_would_change(change, message):
    # no count, id or label is truncated and no feature loses a part: each
    # is refused, with no warning on the way
    args = {"num_nodes": 3, "edges": [(1, 0)], "features": np.ones((3, 2)), "labels": None}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=message):
            build_graph("g", **{**args, **change})
    whole = build_graph("g", 3.0, [(1.0, 0.0)], np.ones((3, 2), dtype=int), [0.0, 1.0, 0.0])
    assert whole.undirected_edges.tolist() == [[0, 1]] and whole.labels.tolist() == [0, 1, 0]


def test_generate_refuses_spec_past_physical_memory():
    spec = SyntheticSpec(num_nodes=10 ** 11, feature_dim=1, anomaly_rate=0.1,
                         target_homophily=0.5)
    start = time.perf_counter()
    with pytest.raises(DataError, match="does not fit in memory"):
        generate_synthetic(spec)
    assert time.perf_counter() - start < 1.0
    for degree in (math.inf, math.nan):
        with pytest.raises(DataError):
            generate_synthetic(SyntheticSpec(num_nodes=10, feature_dim=1, anomaly_rate=0.1,
                                             target_homophily=0.5, mean_degree=degree))


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
    for bad in (None, 5, ["a"]):
        (root / "meta.json").write_text(json.dumps({**meta, "has_labels": True, "name": bad}))
        with pytest.raises(GraphFormatError, match="name must be a string"):
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
    with pytest.raises(GraphFormatError, match="edges.tsv line 1: expected"):
        load_graph(root)
    (root / "edges.tsv").write_bytes(b"0\t1\n\xc3\n")
    with pytest.raises(GraphFormatError, match="edges.tsv line 2: expected"):
        load_graph(root)
    (root / "edges.tsv").write_text("0\t1\n")
    (root / "labels.tsv").write_bytes(b"0\n0\n\x81\n")
    with pytest.raises(GraphFormatError, match="labels.tsv line 3: expected"):
        load_graph(root)
    # layouts only a hand-written file has, each refused at its first line
    (root / "labels.tsv").write_text("0\n1\n0\n")
    for name, raw, line in [("edges.tsv", b"0\t1\r\n1\t2\r\n", 1),
                            ("edges.tsv", b"0\t1\n\n1\t2\n", 2),
                            ("edges.tsv", b"0\t1\n1\t 2\n", 2),
                            ("edges.tsv", b"0\t1\n1\t2", 2),
                            ("labels.tsv", b"0\n1\n0", 3),
                            ("labels.tsv", b"0\n1 \n0\n", 2)]:
        saved = (root / name).read_bytes()
        (root / name).write_bytes(raw)
        with pytest.raises(GraphFormatError, match=f"{name} line {line}: expected"):
            load_graph(root)
        (root / name).write_bytes(saved)
    assert graphs_equal(load_graph(root), build_graph("path3", 3, [(0, 1)],
                                                      path3.features, [0, 1, 0]))


def test_load_rejects_bad_labels(tmp_path, path3):
    root = save_graph(path3, tmp_path / "g")
    (root / "labels.tsv").write_text("0\n1\n")
    with pytest.raises(GraphFormatError, match="expected 3"):
        load_graph(root)
    (root / "labels.tsv").write_text("0\n1\n3\n")
    with pytest.raises(GraphFormatError, match="0 or 1"):
        load_graph(root)


def test_load_refuses_label_beyond_int64(tmp_path, path3):
    root = save_graph(path3, tmp_path / "g")
    (root / "labels.tsv").write_text("0\n1\n" + "1" * 20 + "\n")
    with pytest.raises(GraphFormatError, match="labels.tsv line 3: expected"):
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


EDGE_LAYOUT = "expected '<id>\\t<id>\\n', each id 1 to 18 ASCII digits"
LABEL_LAYOUT = "expected '<id>\\n', each id 1 to 18 ASCII digits"


def ref_read_ids(path, pattern, layout, limit, out_of_range):
    """The ids of a TSV file one line at a time: every line ends in ``\\n``
    and fully matches ``pattern``, whose groups hold ids below ``limit``."""
    *lines, rest = path.read_bytes().split(b"\n")
    rows = []
    for lineno, line in enumerate(lines, start=1):
        match = re.fullmatch(pattern, line)
        if match is None:
            raise GraphFormatError(f"{path.name} line {lineno}: {layout}")
        rows.append([int(i) for i in match.groups()])
        if max(rows[-1]) >= limit:
            raise GraphFormatError(f"{path.name} line {lineno}: {out_of_range}")
    if rest:
        raise GraphFormatError(f"{path.name} line {len(lines) + 1}: {layout}")
    return np.array(rows, dtype=np.int64).reshape(-1, re.compile(pattern).groups)


def ref_load_graph(root):
    """``load_graph`` with its TSV files read by :func:`ref_read_ids`; the
    other files are taken as valid."""
    meta = json.loads((root / "meta.json").read_text())
    n, d = meta["num_nodes"], meta["feature_dim"]
    edges = ref_read_ids(root / "edges.tsv", rb"(\d{1,18})\t(\d{1,18})", EDGE_LAYOUT,
                         n, "node id out of range")
    raw = (root / "features.bin").read_bytes()
    features = np.frombuffer(raw, dtype="<f4").reshape(n, d)
    labels = None
    if meta["has_labels"]:
        labels = ref_read_ids(root / "labels.tsv", rb"(\d{1,18})", LABEL_LAYOUT,
                              2, "labels must be 0 or 1")[:, 0]
        if labels.size != n:
            raise GraphFormatError(f"labels.tsv has {labels.size} entries, expected {n}")
    try:
        return build_graph(meta["name"], n, edges, features, labels)
    except DataError as e:
        raise GraphFormatError(str(e)) from e


def outcome(load, root):
    """The loaded graph, or the type and message of the error raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return load(root)
    except DataError as e:
        return type(e), str(e)


# Pieces that sit on either side of the layout: ids that are still in
# range or not, both separators, CR, a space, signs, a byte that is not
# UTF-8 and an id too long for int64.
TSV_PIECES = [b"0", b"1", b"3", b"9", b"00", b"\t", b"\n", b"\r", b"\r\n", b" ",
              b"+", b"-", b"\xff", b"1" * 20]


def mutate_tsv(data, raw):
    """Up to three insertions of ``TSV_PIECES`` or deletions of a short run."""
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        pos = data.draw(st.integers(0, len(raw)), label="position")
        if raw and data.draw(st.booleans(), label="delete"):
            width = data.draw(st.integers(1, 4), label="width")
            raw = raw[:pos] + raw[pos + width:]
        else:
            raw = raw[:pos] + data.draw(st.sampled_from(TSV_PIECES), label="piece") + raw[pos:]
    return raw


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_matches_line_loop_reference(saved_graph, data):
    files = {p.name: p.read_bytes() for p in saved_graph.iterdir()}
    name = data.draw(st.sampled_from(["edges.tsv", "labels.tsv"]), label="file")
    files[name] = mutate_tsv(data, files[name])
    root = saved_graph.with_name("mutated")
    root.mkdir(exist_ok=True)
    for fname, raw in files.items():
        (root / fname).write_bytes(raw)
    got, want = outcome(load_graph, root), outcome(ref_load_graph, root)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert graphs_equal(got, want)


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


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("edges", [
    [(0, 9), (9, 10), (10, 99), (99, 100), (100, 999), (999, 1000), (1000, 10000),
     (0, 1), (5, 10000), (9999, 10000)],
    [],
], ids=["digit-widths", "edgeless"])
def test_save_graph_bytes_match_per_id_formatting(tmp_path, edges, labeled):
    n = 10001
    labels = (np.arange(n) % 7 == 3).astype(np.int64) if labeled else None
    g = build_graph("w", n, edges or np.zeros((0, 2), dtype=np.int64),
                    np.zeros((n, 1)), labels)
    root = save_graph(g, tmp_path / "g")
    expected = "".join(f"{u}\t{v}\n" for u, v in g.undirected_edges.tolist())
    assert (root / "edges.tsv").read_bytes() == expected.encode()
    assert (root / "labels.tsv").exists() == labeled
    if labeled:
        expected = "".join(f"{int(y)}\n" for y in g.labels)
        assert (root / "labels.tsv").read_bytes() == expected.encode()
    assert graphs_equal(load_graph(root), g)


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
    with pytest.raises(DataError, match="seed must be non-negative"):
        generate_synthetic(SyntheticSpec(num_nodes=10, feature_dim=2,
                                         anomaly_rate=0.2,
                                         target_homophily=0.5, seed=-3))
    for degree in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="mean_degree must be finite"):
            generate_synthetic(SyntheticSpec(num_nodes=10, feature_dim=2,
                                             anomaly_rate=0.2, target_homophily=0.5,
                                             mean_degree=degree))
    for noise in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="noise_scale must be finite"):
            generate_synthetic(SyntheticSpec(num_nodes=40, feature_dim=2,
                                             anomaly_rate=0.2, target_homophily=0.5,
                                             mean_degree=4.0, noise_scale=noise))


@pytest.mark.parametrize("field, value", [
    ("num_nodes", 10.5), ("num_nodes", 50.0), ("feature_dim", 2.5), ("seed", 1.5),
    ("seed", "a"), ("seed", True), ("anomaly_rate", "0.2"), ("mean_degree", None),
])
def test_generate_synthetic_refuses_spec_fields_of_the_wrong_type(field, value, monkeypatch):
    spec = SyntheticSpec(num_nodes=50, feature_dim=2, anomaly_rate=0.2,
                         target_homophily=0.5, seed=1)
    # numpy scalars are numbers too
    generate_synthetic(replace(spec, num_nodes=np.int64(50), anomaly_rate=np.float32(0.2)))

    def never(*args, **kwargs):
        raise AssertionError("drawing started before the refusal")

    monkeypatch.setattr(graphstore.np.random, "default_rng", never)
    with pytest.raises(DataError, match=f"{field} must be"):
        generate_synthetic(replace(spec, **{field: value}))


def test_generate_synthetic_infeasible_mix():
    # 4 nodes at degree 3 would need more distinct pairs than exist.
    spec = SyntheticSpec(num_nodes=4, feature_dim=2, anomaly_rate=0.4,
                         target_homophily=1.0, mean_degree=3.9, seed=1)
    with pytest.raises(DataError, match="infeasible"):
        generate_synthetic(spec)


class RejectionCounter:
    """A Generator stand-in for the scalar loop that notes each
    ``integers(b)`` draw whose first uint32 Lemire's method rejects, by
    peeking at the raw stream. A note is the bound and the number of
    ``random()`` calls before it, so a count equal to the final one marks a
    cross-label draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.peek = np.random.PCG64()
        self.doubles = 0
        self.rejections = []

    def random(self, size=None):
        self.doubles += size is None
        return self.rng.random(size)

    def standard_normal(self, size):
        return self.rng.standard_normal(size)

    def integers(self, bound):
        state = self.rng.bit_generator.state
        bound = int(bound)
        if bound > 1:
            half = state["uinteger"]
            if not state["has_uint32"]:
                self.peek.state = state
                half = int(self.peek.random_raw()) & 0xFFFFFFFF
            if half * bound % 2 ** 32 < (2 ** 32 - bound) % bound:
                self.rejections.append((self.doubles, bound))
        return self.rng.integers(bound)


def ref_generate_synthetic(spec, rng=None):
    """The generator as scalar rng loops: one draw per Python call."""
    graphstore._validate_spec(spec)
    n = spec.num_nodes
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    labels = (rng.random(n) < spec.anomaly_rate).astype(np.int64)
    normals = np.flatnonzero(labels == 0)
    anomalies = np.flatnonzero(labels == 1)
    if normals.size == 0 or anomalies.size == 0:
        raise DataError("infeasible spec: label draw produced a single class")
    nc, ac = spec.resolved_centers()
    features = np.stack([nc, ac])[labels] + spec.noise_scale * rng.standard_normal(
        (n, spec.feature_dim))
    features = features.astype(np.float32).astype(np.float64)
    m = int(round(spec.mean_degree * n / 2.0))
    m_same = int(round(spec.target_homophily * m))
    pairs_nn = math.comb(normals.size, 2)
    pairs_aa = math.comb(anomalies.size, 2)
    if m_same > pairs_nn + pairs_aa or m - m_same > normals.size * anomalies.size:
        raise DataError("infeasible spec: not enough distinct pairs for the target mix")
    seen = set()
    edges = []
    budget = 200 * max(m, 1) + 1000
    p_aa = pairs_aa / (pairs_nn + pairs_aa) if (pairs_nn + pairs_aa) else 0.0
    attempts = 0
    while len(edges) < m_same:
        if attempts > budget:
            raise DataError("infeasible spec: same-label edge sampling exhausted its budget")
        attempts += 1
        pool = anomalies if rng.random() < p_aa else normals
        if pool.size < 2:
            continue
        i = int(rng.integers(pool.size))
        j = int(rng.integers(pool.size - 1))
        j += j >= i
        u, v = sorted((int(pool[i]), int(pool[j])))
        if u * n + v not in seen:
            seen.add(u * n + v)
            edges.append((u, v))
    attempts = 0
    while len(edges) < m:
        if attempts > budget:
            raise DataError("infeasible spec: cross-label edge sampling exhausted its budget")
        attempts += 1
        u = int(normals[rng.integers(normals.size)])
        v = int(anomalies[rng.integers(anomalies.size)])
        u, v = min(u, v), max(u, v)
        if u * n + v not in seen:
            seen.add(u * n + v)
            edges.append((u, v))
    graph = build_graph(spec.name, n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                        features, labels)
    if m > 0 and abs(m_same / m - spec.target_homophily) > 0.03:
        warnings.warn(f"generated homophily {m_same / m:.3f} misses target "
                      f"{spec.target_homophily:.3f} (edge count too small)")
    return graph


def generator_outcome(generate, spec):
    """(graph, DataError message, warning messages) of one generator call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            graph, error = generate(spec), None
        except DataError as e:
            graph, error = None, str(e)
    return graph, error, [str(w.message) for w in caught]


def assert_matches_scalar_loop(spec):
    got, error, warned = generator_outcome(generate_synthetic, spec)
    want, want_error, want_warned = generator_outcome(ref_generate_synthetic, spec)
    assert (error, warned) == (want_error, want_warned)
    assert got is None or graphs_equal(got, want)
    return error


@pytest.mark.parametrize("n, dim, block_bytes", [(500, 3, 8 * 3 * 7), (3000, 128, None)],
                         ids=["7-row-blocks", "default-blocks"])
def test_generator_draws_features_in_row_blocks_as_one_draw(monkeypatch, n, dim,
                                                            block_bytes):
    # 7-row blocks that 500 nodes are no multiple of, and the default budget
    # at dim 128: three blocks of at most 1024 rows. Features and edges
    # must be bitwise those of one whole draw.
    if block_bytes is not None:
        monkeypatch.setattr(graphstore, "_DRAW_BLOCK_BYTES", block_bytes)
    rows = graphstore._DRAW_BLOCK_BYTES // (8 * dim)
    assert n % rows and n // rows >= 2
    spec = SyntheticSpec(num_nodes=n, feature_dim=dim, anomaly_rate=0.2,
                         target_homophily=0.8, mean_degree=6.0, seed=3)
    assert assert_matches_scalar_loop(spec) is None


@st.composite
def synthetic_specs(draw):
    n = draw(st.one_of(st.integers(2, 12), st.integers(13, 2000)))
    degree = draw(st.one_of(st.just(0.0), st.floats(0.0, 12.0),
                            st.floats(0.0, 1.0).map(lambda f: f * (n - 1))))
    return SyntheticSpec(num_nodes=n, feature_dim=draw(st.integers(1, 3)),
                         anomaly_rate=draw(st.floats(0.01, 0.49)),
                         target_homophily=draw(st.floats(0.0, 1.0)),
                         mean_degree=degree, seed=draw(st.integers(0, 2 ** 32 - 1)))


def tiny(n, rate, homophily, degree, seed):
    return SyntheticSpec(num_nodes=n, feature_dim=2, anomaly_rate=rate,
                         target_homophily=homophily, mean_degree=degree, seed=seed)


@settings(max_examples=60, deadline=None)
@given(spec=synthetic_specs())
@example(spec=tiny(5, 0.45, 1.0, 1.6, 1))      # 2 anomalies among 5: a 2-node pool
@example(spec=tiny(5, 0.49, 0.5, 1.6, 0))      # 3 anomalies, 2 normals
@example(spec=tiny(20, 0.05, 0.5, 3.0, 1))     # one anomaly: one draw per cross edge
@example(spec=tiny(3, 0.49, 0.0, 1.4, 0))      # one normal, two anomalies
@example(spec=tiny(2, 0.49, 0.0, 1.0, 0))      # one node per class: no cross draws
@example(spec=tiny(300, 0.1, 0.9, 0.0, 2))     # mean_degree=0
@example(spec=tiny(40, 0.3, 0.8, 25.0, 0))     # 400 of 480 same-label pairs
@example(spec=tiny(40, 0.3, 0.0, 15.0, 0))     # all 300 cross pairs
def test_generator_matches_scalar_loop(spec):
    assert_matches_scalar_loop(spec)


def test_scalar_loop_examples_have_their_shapes():
    # The @example specs above keep the class sizes their comments name.
    def sizes(spec):
        labels = np.random.default_rng(spec.seed).random(spec.num_nodes) < spec.anomaly_rate
        return int((~labels).sum()), int(labels.sum())

    assert sizes(tiny(5, 0.45, 1.0, 1.6, 1)) == (3, 2)
    assert sizes(tiny(5, 0.49, 0.5, 1.6, 0)) == (2, 3)
    assert sizes(tiny(20, 0.05, 0.5, 3.0, 1)) == (19, 1)
    assert sizes(tiny(3, 0.49, 0.0, 1.4, 0)) == (1, 2)
    assert sizes(tiny(2, 0.49, 0.0, 1.0, 0)) == (1, 1)
    assert sizes(tiny(40, 0.3, 0.0, 15.0, 0)) == (30, 10)


@pytest.mark.parametrize("homophily, seed, rejected", [
    (0.9, 28143, ("same", "normals")),         # the first draw of a pair
    (0.9, 177, ("same", "normals - 1")),       # the second draw of a pair
    (0.1, 10643, ("cross", "normals")),
    (0.1, 25852, ("cross", "anomalies")),
])
def test_generator_matches_scalar_loop_through_lemire_rejections(homophily, seed, rejected):
    # Pinned seeds whose edge draws hit a rejection (found by scanning raw
    # words); after one, each draw reads the other half of a word.
    spec = SyntheticSpec(num_nodes=2000, feature_dim=1, anomaly_rate=0.3,
                         target_homophily=homophily, mean_degree=20.0, seed=seed)
    counter = RejectionCounter(seed)
    want = ref_generate_synthetic(spec, counter)
    normals = int((want.labels == 0).sum())
    bounds = {"normals": normals, "normals - 1": normals - 1,
              "anomalies": spec.num_nodes - normals}
    seen = {("same" if doubles < counter.doubles else "cross", bound)
            for doubles, bound in counter.rejections}
    assert (rejected[0], bounds[rejected[1]]) in seen
    assert graphs_equal(generate_synthetic(spec), want)


def test_generator_matches_scalar_loop_through_a_rejection_after_a_full_run():
    # 27000 same-label iterations read as a full run of _RUN, then a run
    # that stops at a rejection in iteration 26320 (a pinned seed), runs it
    # through rng and goes on from there.
    spec = SyntheticSpec(num_nodes=100_000, feature_dim=1, anomaly_rate=0.3,
                         target_homophily=0.9, mean_degree=0.6, seed=9)
    counter = RejectionCounter(spec.seed)
    want = ref_generate_synthetic(spec, counter)
    assert counter.doubles == 27000 > graphstore._RUN
    assert [doubles for doubles, _ in counter.rejections] == [26321]
    assert graphs_equal(generate_synthetic(spec), want)


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_exhausted_budget_matches_scalar_loop(monkeypatch, seed):
    # One anomaly among 6 nodes leaves 10 same-label pairs for 15 edges.
    # Overstated pair counts let that mix past the up-front check, so the
    # same-label loop spends its budget, and also picks the one-node pool,
    # which draws no pair.
    real = math.comb
    monkeypatch.setattr(math, "comb", lambda a, b: real(a, b) + 3)
    error = assert_matches_scalar_loop(tiny(6, 0.2, 1.0, 5.0, seed))
    assert "same-label edge sampling exhausted its budget" in error


@pytest.mark.parametrize("homophily", [1.0, 0.0])
def test_replay_self_check_refuses_a_different_stream(monkeypatch, homophily):
    # Scalar draws that disagree with the replay (as on a numpy whose
    # bounded integers differ) stop generation instead of changing it.
    monkeypatch.setattr(graphstore, "_same_label_step",
                        lambda rng, normals, anomalies, p_aa, n: 1)
    monkeypatch.setattr(graphstore, "_cross_label_step",
                        lambda rng, normals, anomalies, n: 1)
    spec = tiny(300, 0.2, homophily, 6.0, 1)
    with pytest.raises(TtgadError, match=np.__version__) as raised:
        generate_synthetic(spec)
    assert type(raised.value) is TtgadError


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


def same_label_count(graph):
    u, v = graph.undirected_edges.T
    return int((graph.labels[u] == graph.labels[v]).sum())


def improving_swap_exists(graph, target_count):
    """Brute force over every edge pair and both ways of rejoining it."""
    edges = [tuple(map(int, e)) for e in graph.undirected_edges]
    present = set(edges)
    labels = graph.labels
    cur = same_label_count(graph)
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if len({a, b, c, d}) < 4:
            continue
        for p, q in (((a, c), (b, d)), ((a, d), (b, c))):
            if tuple(sorted(p)) in present or tuple(sorted(q)) in present:
                continue
            change = (int(labels[p[0]] == labels[p[1]]) + int(labels[q[0]] == labels[q[1]])
                      - int(labels[a] == labels[b]) - int(labels[c] == labels[d]))
            if abs(cur + change - target_count) < abs(cur - target_count):
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 16), rate=st.floats(0.1, 0.49), homophily=st.floats(0.0, 1.0),
       density=st.floats(0.1, 1.0), seed=st.integers(0, 2 ** 32 - 1),
       target=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       rewire_seed=st.integers(0, 2 ** 16))
def test_rewire_stops_only_when_no_swap_moves_closer(n, rate, homophily, density, seed,
                                                    target, rewire_seed):
    spec = tiny(n, rate, homophily, density * (n - 1), seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            g = generate_synthetic(spec)
        except DataError:
            assume(False)
    assume(g.num_edges >= 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = rewire_to_homophily(g, target, seed=rewire_seed)
    assert np.array_equal(out.degrees, g.degrees)
    assert np.array_equal(out.features, g.features)
    assert np.array_equal(out.labels, g.labels)
    target_count = round(target * g.num_edges)
    if abs(same_label_count(out) - target_count) >= 2:
        assert not improving_swap_exists(out, target_count)
    realized = same_label_count(out) / out.num_edges
    assert (len(caught) == 1) == (abs(realized - target) > 0.03)


def test_rewire_stall_spec_returns_at_once():
    # Four cross-label edges remain toward 1.0, and every swap of two of them
    # shares a node or makes an anomaly-anomaly edge that already exists.
    spec = SyntheticSpec(num_nodes=120, feature_dim=8, anomaly_rate=0.15,
                         target_homophily=0.9, mean_degree=6.0, seed=3)
    g = generate_synthetic(spec)
    start = time.perf_counter()
    out = rewire_to_homophily(g, 1.0, seed=0)
    assert time.perf_counter() - start < 0.1
    assert not improving_swap_exists(out, out.num_edges)


def test_rewire_stops_at_degree_sum_floor():
    # Anomalies are few and low-degree, so the degree-sum floor sits at 0.811:
    # cross-label edges cannot outnumber the anomalies' degree sum.
    spec = SyntheticSpec(num_nodes=150, feature_dim=3, anomaly_rate=0.2,
                         target_homophily=0.9, mean_degree=6.0, seed=2)
    g = generate_synthetic(spec)
    with pytest.warns(UserWarning, match="not attainable"):
        out = rewire_to_homophily(g, 0.0, seed=4)
    cross = out.num_edges - same_label_count(out)
    assert cross == out.degrees[out.labels == 1].sum()


@pytest.mark.parametrize("target", [0.0, 1.0])
def test_rewire_complete_graph_has_no_swap(target):
    # Every new edge of K_60 already exists; the candidate pairs of both
    # directions outnumber one checking chunk.
    n = 60
    labels = (np.arange(n) < 12).astype(np.int64)
    g = build_graph("k60", n, np.column_stack(np.triu_indices(n, 1)),
                    np.zeros((n, 1)), labels)
    with pytest.warns(UserWarning, match="not attainable"):
        out = rewire_to_homophily(g, target, seed=0)
    assert graphs_equal(out, g)
