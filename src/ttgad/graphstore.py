"""Attributed-graph container, on-disk format, synthetic generation, rewiring.

Graphs are undirected, simple (no self-loops, no parallel edges), stored as
CSR over directed slots: every undirected edge {u, v} appears as two slots
(u -> v) and (v -> u). Column indices are sorted within each row. Features
live in memory as float64; the disk format stores float32.

Disk layout of a graph bundle directory:

    meta.json      {"name", "num_nodes", "feature_dim", "has_labels"}
    edges.tsv      one undirected edge per line, "u\tv" with u < v
    features.bin   row-major float32, little-endian, num_nodes * feature_dim
    labels.tsv     one integer per line (0 normal, 1 anomaly), if labeled
"""

import copy
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse

from . import diffkernel as dk
from .errors import DataError, GraphFormatError, ShapeError

__all__ = [
    "AttributedGraph",
    "GraphStats",
    "SyntheticSpec",
    "build_graph",
    "load_graph",
    "save_graph",
    "generate_synthetic",
    "rewire_to_homophily",
    "compute_stats",
    "graphs_equal",
]


class AttributedGraph:
    """Immutable-by-convention CSR graph with node features and optional labels.

    Use :func:`build_graph` to construct one from an arbitrary edge list; the
    constructor itself validates that the arrays already satisfy the CSR
    contract (symmetric, sorted, deduplicated, no self-loops). ``pattern``
    is the graph's one :class:`diffkernel.Pattern`; ``indptr``, ``indices``,
    ``slot_src`` (each directed slot's source node) and ``reverse_slot``
    (the permutation from slot u -> v to slot v -> u) are its arrays.
    """

    def __init__(self, name, num_nodes, indptr, indices, features, labels=None):
        self.name = str(name)
        self.num_nodes = int(num_nodes)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.features = np.ascontiguousarray(features, dtype=np.float64)
        self.labels = None if labels is None else np.ascontiguousarray(labels, dtype=np.int64)
        self._validate()

    def _validate(self):
        n = self.num_nodes
        if n < 0:
            raise DataError("num_nodes must be non-negative")
        try:
            self.pattern = dk.Pattern(self.indptr, self.indices, n, n)
        except ShapeError as e:
            raise DataError(str(e)) from e
        self.slot_src = self.pattern.rows
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise DataError("features must be a (num_nodes, feature_dim) matrix")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features must be finite")
        if self.labels is not None:
            if self.labels.shape != (n,):
                raise DataError("labels must have one entry per node")
            if self.labels.size and not np.isin(self.labels, (0, 1)).all():
                raise DataError("labels must be 0 or 1")
        # Sorted strictly ascending within each row: catches duplicates too.
        if self.indices.size > 1:
            gaps = np.diff(self.indices)
            interior = np.ones(self.indices.size - 1, dtype=bool)
            bounds = self.indptr[1:-1]
            bounds = bounds[(bounds > 0) & (bounds < self.indices.size)]
            interior[bounds - 1] = False
            if np.any(gaps[interior] <= 0):
                raise DataError("row columns must be sorted ascending without duplicates")
        if np.any(self.indices == self.slot_src):
            raise DataError("self-loops are not allowed")
        # Symmetry: the transpose has the same pattern, and the slot ids it
        # carries name each slot's mirror (v -> u) of slot (u -> v).
        slot_ids = np.arange(self.indices.size, dtype=np.int64)
        flipped = scipy.sparse.csr_matrix((slot_ids, self.indices, self.indptr),
                                          shape=(n, n)).tocsc()
        if not (np.array_equal(flipped.indptr, self.indptr)
                and np.array_equal(flipped.indices, self.indices)):
            raise DataError("adjacency is not symmetric")
        self.reverse_slot = self.pattern.reverse = flipped.data.astype(np.int64, copy=False)

    @property
    def feature_dim(self):
        return self.features.shape[1]

    @property
    def num_slots(self):
        """Number of directed slots (2 * number of undirected edges)."""
        return int(self.indices.shape[0])

    @property
    def num_edges(self):
        return self.num_slots // 2

    @cached_property
    def degrees(self):
        return np.diff(self.indptr)

    @cached_property
    def nonneighbor_keys(self):
        """``row * n + c - q`` per slot; ascending over the CSR layout.

        Slot q of a row, at column ``c + (c >= row)``, has ``c - q``
        non-neighbors of that row before it, so ``searchsorted(keys, row * n
        + r, "right") - indptr[row]`` counts the neighbors that precede the
        row's non-neighbor of rank r. Cached: the sampler reads it every
        epoch.
        """
        src, dst = self.slot_src, self.indices
        q = np.arange(dst.size) - self.indptr[src]
        return src * np.int64(self.num_nodes) + (dst - (dst > src) - q)

    @cached_property
    def undirected_edges(self):
        """(num_edges, 2) array of undirected edges with u < v, sorted."""
        mask = self.slot_src < self.indices
        return np.column_stack([self.slot_src[mask], self.indices[mask]])

    def has_edge(self, u, v):
        lo, hi = self.indptr[u], self.indptr[u + 1]
        pos = np.searchsorted(self.indices[lo:hi], v)
        return pos < hi - lo and self.indices[lo + pos] == v

    def without_labels(self):
        """The same graph with its labels dropped (self if already unlabeled)."""
        if self.labels is None:
            return self
        # Nothing validated depends on the labels, so the copy shares the
        # arrays and the pattern instead of proving them again.
        bare = copy.copy(self)
        bare.labels = None
        return bare

    def __repr__(self):
        lab = "labeled" if self.labels is not None else "unlabeled"
        return (f"AttributedGraph(name={self.name!r}, nodes={self.num_nodes}, "
                f"edges={self.num_edges}, dim={self.feature_dim}, {lab})")


def build_graph(name, num_nodes, edges, features, labels=None):
    """Build a validated graph from an arbitrary edge list.

    Accepts either orientation per edge, drops self-loops (with a warning),
    deduplicates, mirrors every edge, and sorts rows.
    """
    n = int(num_nodes)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise DataError("node id out of range in edge list")
        loops = edges[:, 0] == edges[:, 1]
        if np.any(loops):
            warnings.warn(f"dropping {int(loops.sum())} self-loop(s)", stacklevel=2)
            edges = edges[~loops]
    if edges.size:
        both = np.concatenate([edges, edges[:, ::-1]])
        keys = np.sort(both[:, 0] * np.int64(n) + both[:, 1])
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        src = keys // n
        dst = keys % n
    else:
        src = np.zeros(0, dtype=np.int64)
        dst = np.zeros(0, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    return AttributedGraph(name, n, indptr, dst, features, labels)


# ---------------------------------------------------------------------------
# Disk format


def save_graph(graph, path):
    """Write a graph bundle directory; returns the directory path."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "name": graph.name,
        "num_nodes": graph.num_nodes,
        "feature_dim": graph.feature_dim,
        "has_labels": graph.labels is not None,
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    lines = [f"{u}\t{v}\n" for u, v in graph.undirected_edges.tolist()]
    (out / "edges.tsv").write_text("".join(lines))
    (out / "features.bin").write_bytes(
        np.ascontiguousarray(graph.features, dtype="<f4").tobytes()
    )
    if graph.labels is not None:
        (out / "labels.tsv").write_text("".join(f"{int(y)}\n" for y in graph.labels))
    return out


def _read_text(path):
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise GraphFormatError(f"{path.name} is not valid UTF-8: {e}") from e


# Any run of up to 18 decimal digits fits in int64 (whose max has 19).
_MAX_ID_DIGITS = 18


def _canonical_edges(raw, num_nodes):
    """The (m, 2) id array of ``edges.tsv`` bytes in exactly the layout
    :func:`save_graph` writes, with every id below ``num_nodes``.

    Returns None for any other bytes, so the caller's line loop can accept
    the looser layouts it allows and name the line of a bad one.
    """
    if not raw:
        return np.zeros((0, 2), dtype=np.int64)
    if raw.translate(None, b"0123456789\t\n") or not raw.endswith(b"\n"):
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    seps = np.flatnonzero(b < ord("0"))
    if seps.size % 2 or not ((b[seps[0::2]] == ord("\t")).all()
                             and (b[seps[1::2]] == ord("\n")).all()):
        return None
    widths = np.diff(seps, prepend=-1) - 1
    if widths.min() < 1 or widths.max() > _MAX_ID_DIGITS:
        return None
    ids = np.fromstring(raw, dtype=np.int64, sep=" ")
    if ids.size != seps.size or int(ids.max()) >= num_nodes:
        return None
    return ids.reshape(-1, 2)


def _canonical_labels(raw, num_nodes):
    """Labels from ``labels.tsv`` bytes that are exactly ``num_nodes`` lines
    of ``0\\n`` or ``1\\n``; None for any other bytes."""
    if len(raw) != 2 * num_nodes:
        return None
    digits = raw[0::2]
    if digits.translate(None, b"01") or raw[1::2].translate(None, b"\n"):
        return None
    return np.frombuffer(digits, dtype=np.uint8).astype(np.int64) - ord("0")


def load_graph(path):
    """Read a graph bundle directory written by :func:`save_graph`.

    ``edges.tsv`` and ``labels.tsv`` in exactly the layout ``save_graph``
    writes are parsed as whole arrays. Any other file, such as one with
    CRLF line ends, blank lines or spaces around ids, goes through a line
    reader, which also names the first bad line.
    """
    root = Path(path)
    meta_path = root / "meta.json"
    if not meta_path.is_file():
        raise GraphFormatError(f"missing meta.json under {root}")
    try:
        meta = json.loads(_read_text(meta_path))
    except json.JSONDecodeError as e:
        raise GraphFormatError(f"meta.json is not valid JSON: {e}") from e
    if not isinstance(meta, dict):
        raise GraphFormatError("meta.json must hold a JSON object")
    for key in ("name", "num_nodes", "feature_dim", "has_labels"):
        if key not in meta:
            raise GraphFormatError(f"meta.json missing key {key!r}")
    n, d = meta["num_nodes"], meta["feature_dim"]
    # JSON integers only: bools, floats such as 3.7, strings and null are refused.
    if type(n) is not int or type(d) is not int or n < 0 or d < 1:
        raise GraphFormatError("meta.json has invalid num_nodes/feature_dim")
    if not isinstance(meta["has_labels"], bool):
        raise GraphFormatError("meta.json has_labels must be true or false")

    edges_path = root / "edges.tsv"
    if not edges_path.is_file():
        raise GraphFormatError(f"missing edges.tsv under {root}")
    edges = _canonical_edges(edges_path.read_bytes(), n)
    if edges is None:
        edges = []
        for lineno, line in enumerate(_read_text(edges_path).splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise GraphFormatError(f"edges.tsv line {lineno}: expected 'u\\tv'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as e:
                raise GraphFormatError(f"edges.tsv line {lineno}: non-integer id") from e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edges.tsv line {lineno}: node id out of range")
            edges.append((u, v))
        edges = np.array(edges, dtype=np.int64)

    feat_path = root / "features.bin"
    if not feat_path.is_file():
        raise GraphFormatError(f"missing features.bin under {root}")
    size = feat_path.stat().st_size
    expected = n * d * 4
    if size != expected:
        raise GraphFormatError(
            f"features.bin: malformed binary length {size}, expected {expected}"
        )
    # Mapped, not read: no copy of the file's bytes. numpy cannot map an empty file.
    features = np.zeros((n, d)) if not size else np.array(
        np.memmap(feat_path, dtype="<f4", mode="r", shape=(n, d)), dtype=np.float64)

    labels = None
    if meta["has_labels"]:
        lab_path = root / "labels.tsv"
        if not lab_path.is_file():
            raise GraphFormatError(f"missing labels.tsv under {root}")
        labels = _canonical_labels(lab_path.read_bytes(), n)
        if labels is None:
            entries = [ln for ln in _read_text(lab_path).splitlines() if ln.strip()]
            if len(entries) != n:
                raise GraphFormatError(
                    f"labels.tsv has {len(entries)} entries, expected {n}"
                )
            try:
                labels = np.array([int(x) for x in entries], dtype=np.int64)
            except ValueError as e:
                raise GraphFormatError("labels.tsv: non-integer label") from e
            except OverflowError as e:
                raise GraphFormatError("labels.tsv: labels must be 0 or 1") from e
            if labels.size and not np.isin(labels, (0, 1)).all():
                raise GraphFormatError("labels.tsv: labels must be 0 or 1")

    try:
        return build_graph(meta["name"], n, edges, features, labels)
    except DataError as e:
        raise GraphFormatError(str(e)) from e


# ---------------------------------------------------------------------------
# Statistics


@dataclass
class GraphStats:
    num_nodes: int
    num_edges: int
    degree_min: int
    degree_mean: float
    degree_max: int
    anomaly_rate: float | None = None
    edge_label_homophily: float | None = None

    def to_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}


def compute_stats(graph):
    """Degree summary plus label-derived rates when labels are present."""
    if graph.num_nodes == 0:
        raise DataError("empty graph")
    deg = graph.degrees
    rate = None
    homophily = None
    if graph.labels is not None:
        rate = float(graph.labels.mean())
        if graph.num_slots > 0:
            same = graph.labels[graph.slot_src] == graph.labels[graph.indices]
            homophily = float(same.mean())
    return GraphStats(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        degree_min=int(deg.min()),
        degree_mean=float(deg.mean()),
        degree_max=int(deg.max()),
        anomaly_rate=rate,
        edge_label_homophily=homophily,
    )


def graphs_equal(a, b):
    """Field-for-field equality (used by round-trip tests)."""
    if a.name != b.name or a.num_nodes != b.num_nodes:
        return False
    if not (np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)):
        return False
    if not np.array_equal(a.features, b.features):
        return False
    if (a.labels is None) != (b.labels is None):
        return False
    if a.labels is not None and not np.array_equal(a.labels, b.labels):
        return False
    return True


# ---------------------------------------------------------------------------
# Synthetic generation


@dataclass
class SyntheticSpec:
    """Parameters for the planted-anomaly generator.

    Normal features are drawn around ``normal_center``, anomalous ones around
    ``anomaly_center``; defaults put normals on a shared direction and
    anomalies at the origin, so anomalies are mutually dissimilar noise while
    normal-normal pairs have high cosine similarity. Edges are wired so the
    realized fraction of same-label edges hits ``target_homophily`` up to
    rounding, with mean degree ``mean_degree`` by construction.
    """

    num_nodes: int
    feature_dim: int
    anomaly_rate: float
    target_homophily: float
    mean_degree: float = 10.0
    noise_scale: float = 0.5
    normal_center: np.ndarray | None = None
    anomaly_center: np.ndarray | None = None
    seed: int = 0
    name: str = field(default="synthetic")

    def resolved_centers(self):
        nc = self.normal_center
        ac = self.anomaly_center
        if nc is None:
            nc = np.ones(self.feature_dim, dtype=np.float64)
        if ac is None:
            ac = np.zeros(self.feature_dim, dtype=np.float64)
        nc = np.asarray(nc, dtype=np.float64).reshape(-1)
        ac = np.asarray(ac, dtype=np.float64).reshape(-1)
        if nc.shape != (self.feature_dim,) or ac.shape != (self.feature_dim,):
            raise DataError("center vectors must have length feature_dim")
        return nc, ac


def _validate_spec(spec):
    if spec.num_nodes < 2:
        raise DataError("num_nodes must be at least 2")
    if spec.feature_dim < 1:
        raise DataError("feature_dim must be at least 1")
    if not (0.0 < spec.anomaly_rate < 0.5):
        raise DataError("anomaly_rate must lie in (0, 0.5)")
    if not (0.0 <= spec.target_homophily <= 1.0):
        raise DataError("target_homophily must lie in [0, 1]")
    if spec.mean_degree < 0:
        raise DataError("mean_degree must be non-negative")
    if spec.noise_scale < 0:
        raise DataError("noise_scale must be non-negative")


def _sample_distinct_pair(rng, pool):
    i = int(rng.integers(pool.size))
    j = int(rng.integers(pool.size - 1))
    if j >= i:
        j += 1
    return int(pool[i]), int(pool[j])


def generate_synthetic(spec):
    """Generate a labeled attributed graph; bitwise deterministic per seed."""
    _validate_spec(spec)
    n = spec.num_nodes
    rng = np.random.default_rng(spec.seed)

    labels = (rng.random(n) < spec.anomaly_rate).astype(np.int64)
    normals = np.flatnonzero(labels == 0)
    anomalies = np.flatnonzero(labels == 1)
    if normals.size == 0 or anomalies.size == 0:
        raise DataError("infeasible spec: label draw produced a single class")

    nc, ac = spec.resolved_centers()
    centers = np.stack([nc, ac])
    features = centers[labels] + spec.noise_scale * rng.standard_normal((n, spec.feature_dim))
    # Quantize to the disk precision so save -> load round-trips exactly.
    features = features.astype(np.float32).astype(np.float64)

    m = int(round(spec.mean_degree * n / 2.0))
    m_same = int(round(spec.target_homophily * m))
    m_cross = m - m_same
    pairs_nn = math.comb(normals.size, 2)
    pairs_aa = math.comb(anomalies.size, 2)
    if m_same > pairs_nn + pairs_aa or m_cross > normals.size * anomalies.size:
        raise DataError("infeasible spec: not enough distinct pairs for the target mix")

    seen = set()
    edges = np.zeros((m, 2), dtype=np.int64)
    count = 0
    budget = 200 * max(m, 1) + 1000
    p_aa = pairs_aa / (pairs_nn + pairs_aa) if (pairs_nn + pairs_aa) else 0.0
    attempts = 0
    while count < m_same:
        if attempts > budget:
            raise DataError("infeasible spec: same-label edge sampling exhausted its budget")
        attempts += 1
        pool = anomalies if rng.random() < p_aa else normals
        if pool.size < 2:
            continue
        u, v = _sample_distinct_pair(rng, pool)
        key = min(u, v) * n + max(u, v)
        if key in seen:
            continue
        seen.add(key)
        edges[count] = (min(u, v), max(u, v))
        count += 1
    attempts = 0
    while count < m:
        if attempts > budget:
            raise DataError("infeasible spec: cross-label edge sampling exhausted its budget")
        attempts += 1
        u = int(normals[rng.integers(normals.size)])
        v = int(anomalies[rng.integers(anomalies.size)])
        key = min(u, v) * n + max(u, v)
        if key in seen:
            continue
        seen.add(key)
        edges[count] = (min(u, v), max(u, v))
        count += 1

    graph = build_graph(spec.name, n, edges, features, labels)
    if m > 0:
        realized = m_same / m
        if abs(realized - spec.target_homophily) > 0.03:
            warnings.warn(
                f"generated homophily {realized:.3f} misses target "
                f"{spec.target_homophily:.3f} (edge count too small)",
                stacklevel=2,
            )
    return graph


# ---------------------------------------------------------------------------
# Rewiring

REWIRE_TOLERANCE = 0.03


def rewire_to_homophily(graph, target_homophily, seed=0, max_swaps_factor=50):
    """Degree-preserving double-edge swaps toward a target edge-label homophily.

    Each accepted swap replaces edges (a,b),(c,d) with (a,d),(c,b) or
    (a,c),(b,d), keeping every node degree fixed. Swaps are accepted only when
    they move the same-label edge count strictly toward the target. If the
    target is unreachable within ``max_swaps_factor * num_edges`` attempts
    (degree preservation bounds how low homophily can go), the best-effort
    result is returned with a warning. A target below the degree-sum floor
    stops as soon as the floor is reached, since no later swap could be
    accepted.
    """
    if graph.labels is None:
        raise DataError("rewiring requires labels")
    if not (0.0 <= target_homophily <= 1.0):
        raise DataError("target_homophily must lie in [0, 1]")
    m = graph.num_edges
    if m == 0:
        return graph
    edges = graph.undirected_edges.copy()
    labels = graph.labels
    same = labels[edges[:, 0]] == labels[edges[:, 1]]
    cur = int(same.sum())
    target_count = int(round(target_homophily * m))
    if cur == target_count:
        return graph

    keys = set((int(u) * graph.num_nodes + int(v)) for u, v in edges)
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    budget = max_swaps_factor * m
    # A cross-label edge adds 1 to each class's degree sum, and swaps keep
    # every degree, so the same-label count never falls below this floor.
    floor = m - int(min(graph.degrees[labels == 0].sum(), graph.degrees[labels == 1].sum()))
    goal = max(target_count, floor)
    # Every swap moves the same-label count by 0 or 2, so its parity is
    # fixed; an off-parity target can only be approached to distance 1.
    stop_distance = abs(cur - goal) % 2
    for _ in range(budget):
        if abs(cur - goal) <= stop_distance:
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
        if flip:
            p1, p2 = (a, d), (c, b)
        else:
            p1, p2 = (a, c), (b, d)
        k1 = min(p1) * n + max(p1)
        k2 = min(p2) * n + max(p2)
        if k1 in keys or k2 in keys:
            continue
        new_same = int(labels[p1[0]] == labels[p1[1]]) + int(labels[p2[0]] == labels[p2[1]])
        old_same = int(same[i]) + int(same[j])
        cand = cur + new_same - old_same
        if abs(cand - target_count) >= abs(cur - target_count):
            continue
        keys.discard(min(a, b) * n + max(a, b))
        keys.discard(min(c, d) * n + max(c, d))
        keys.add(k1)
        keys.add(k2)
        edges[i] = (min(p1), max(p1))
        edges[j] = (min(p2), max(p2))
        same[i] = labels[p1[0]] == labels[p1[1]]
        same[j] = labels[p2[0]] == labels[p2[1]]
        cur = cand

    realized = cur / m
    if abs(realized - target_homophily) > REWIRE_TOLERANCE:
        warnings.warn(
            f"rewire: reached homophily {realized:.3f}, target {target_homophily:.3f} "
            "not attainable within budget (degree preservation bounds the range)",
            stacklevel=2,
        )
    return build_graph(graph.name, n, edges, graph.features, labels)
