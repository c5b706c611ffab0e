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
from .errors import DataError, GraphFormatError, ShapeError, TtgadError

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


def _id_text(ids, seps):
    """``"".join(f"{i}{sep}")`` over the non-negative ``ids``, each followed by
    the byte of ``seps`` for its column, as bytes. Digits are cut one decimal
    place at a time over the whole array, not formatted one id at a time."""
    width = len(str(int(ids.max(initial=0))))
    table = np.empty(ids.shape + (width + 1,), dtype=np.uint8)
    table[..., width] = np.frombuffer(seps, dtype=np.uint8)
    keep = np.ones(table.shape, dtype=bool)
    rest = ids
    for place in range(width - 1, -1, -1):  # right-aligned; leading zeros dropped
        rest, digit = np.divmod(rest, 10)
        table[..., place] = digit + ord("0")
        if place:
            keep[..., place - 1] = rest > 0
    return table[keep].tobytes()


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
    (out / "edges.tsv").write_bytes(_id_text(graph.undirected_edges, b"\t\n"))
    (out / "features.bin").write_bytes(
        np.ascontiguousarray(graph.features, dtype="<f4").tobytes()
    )
    if graph.labels is not None:
        (out / "labels.tsv").write_bytes(_id_text(graph.labels, b"\n"))
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


def _same_label_step(rng, normals, anomalies, p_aa, n):
    """One same-label iteration through ``rng``: its pair's key, or -1."""
    pool = anomalies if rng.random() < p_aa else normals
    if pool.size < 2:
        return -1
    i = int(rng.integers(pool.size))
    j = int(rng.integers(pool.size - 1))
    j += j >= i
    u, v = sorted((int(pool[i]), int(pool[j])))
    return u * n + v


def _cross_label_step(rng, normals, anomalies, n):
    """One cross-label iteration through ``rng``: its pair's key."""
    u = int(normals[rng.integers(normals.size)])
    v = int(anomalies[rng.integers(anomalies.size)])
    return min(u, v) * n + max(u, v)


# The edge loops are replayed from PCG64's raw 64-bit words. ``rng.random()``
# reads one word w as (w >> 11) * 2**-53. ``rng.integers(b)`` for b >= 2 reads
# one uint32 by Lemire's method: the high half that the last such read left
# buffered, if any, else the low half of a new word, buffering its high half.
# Each rejection reads one more uint32. ``rng.integers(1)`` reads nothing.

_LOW32 = np.uint64(0xFFFFFFFF)


def _threshold(bounds):
    """Lemire's rejection threshold ``(2**32 - b) % b`` per bound b >= 1."""
    bounds = np.asarray(bounds, dtype=np.uint64)
    return (2 ** 32 - bounds) % bounds


def _lemire(halves, bound, threshold):
    """numpy's draws below ``bound`` from the uint32 ``halves``: the values,
    and where a draw is rejected (and so reads another half)."""
    product = halves * bound
    return product >> 32, (product & _LOW32) < threshold


def _seek(bg, start, o, buffered):
    """Put ``bg`` ``o`` words past state ``start`` with ``buffered`` (or no
    half) in its uint32 buffer."""
    bg.state = start
    bg.advance(o)  # clears the buffer
    state = bg.state
    state["has_uint32"] = int(buffered is not None)
    state["uinteger"] = 0 if buffered is None else int(buffered)
    bg.state = state


def _buffered(state):
    return state["uinteger"] if state["has_uint32"] else None


def _same_position(a, b):
    return a["state"] == b["state"] and _buffered(a) == _buffered(b)


def _words_used(bg, before, after, limit):
    """How many words lie between states ``before`` and ``after``; None if
    more than ``limit``."""
    bg.state = before
    for used in range(limit + 1):
        if bg.state["state"] == after["state"]:
            return used
        bg.advance(1)
    return None


class _Batch:
    """A batch of raw words read as the iterations of one edge loop.

    A stream position is ``z = 2 * o - b``: ``words[o]`` is the next word,
    and ``b`` is 1 when the uint32 buffer holds the high half of
    ``words[o - 1]``. A regular iteration moves ``z`` by ``step``, and its
    draws depend only on the words and ``z % step`` (the frame), so each
    frame is read in one array pass from the first position that enters it.
    An irregular iteration (a rejected draw, or a bound of 1 or less) goes
    through ``rng`` and may leave the stream in another frame.
    """

    def __init__(self, words):
        self.words = words
        self.high = words >> 32
        self.frames = {}

    def position(self, o, buffered):
        """z of word ``o`` with ``buffered`` pending; None if the buffer does
        not hold the high half of ``words[o - 1]``."""
        if buffered is None:
            return 2 * o
        if 0 < o <= self.words.size and buffered == self.high[o - 1]:
            return 2 * o - 1
        return None

    def state(self, z):
        """(o, buffered) of position z."""
        o = (z + 1) >> 1
        return o, int(self.high[o - 1]) if z & 1 else None

    def regular(self, z, limit):
        """Keys of at most ``limit`` iterations from z, up to the first
        irregular one or the end of the words."""
        if not self.step:
            return np.zeros(0, dtype=np.int64)
        frame = self.frames.get(z % self.step)
        if frame is None:
            frame = self.frames[z % self.step] = (z, *self.read(z))
        first, keys, irregular = frame
        k = (z - first) // self.step
        cut = irregular[np.searchsorted(irregular, k):][:1]
        return keys[k:min(int(cut[0]) if cut.size else keys.size, k + limit)]


class _SameLabelBatch(_Batch):
    """Same-label iterations: a double picks the pool, then two draws pick a
    distinct pair in it. Each takes a word for the double and one for the
    draws, which read its low and high halves, or the buffered half and its
    low half."""

    step = 4

    def __init__(self, bg, iterations, normals, anomalies, p_aa, n):
        super().__init__(bg.random_raw(2 * iterations))
        self.pool = np.concatenate([normals, anomalies])
        # Per pool (normal, anomaly): its offset in ``pool``, and the bounds
        # of the first and second draws with their thresholds. A one-node
        # pool's second bound is 0; it only ever runs through rng.
        self.offsets = np.array([0, normals.size], dtype=np.uint64)
        self.bounds = np.array([[normals.size, anomalies.size],
                                [normals.size - 1, anomalies.size - 1]], dtype=np.uint64)
        self.thresholds = _threshold(np.maximum(self.bounds, 1))
        self.p_aa, self.n = p_aa, n

    def read(self, z):
        o = (z + 1) >> 1
        draws = self.words[o + 1::2]
        low = draws & _LOW32
        first, second = (self.high[o - 1:-2:2], low) if z & 1 else (low, draws >> 32)
        pool = ((self.words[o:-1:2] >> 11) * 2.0 ** -53 < self.p_aa).view(np.uint8)
        size = self.bounds[0].take(pool)
        i, rejected = _lemire(first, size, self.thresholds[0].take(pool))
        j, rejected_second = _lemire(second, self.bounds[1].take(pool),
                                     self.thresholds[1].take(pool))
        j += j >= i
        offset = self.offsets.take(pool)
        u = self.pool.take(offset + i, mode="clip")
        v = self.pool.take(offset + j, mode="clip")
        keys = np.minimum(u, v) * self.n + np.maximum(u, v)
        return keys, np.flatnonzero(rejected | rejected_second | (size < 3))


class _CrossLabelBatch(_Batch):
    """Cross-label iterations: one draw per class of two or more nodes, read
    from consecutive uint32 halves; a one-node class takes its node."""

    def __init__(self, bg, iterations, normals, anomalies, n):
        self.step = int(normals.size > 1) + int(anomalies.size > 1)
        super().__init__(bg.random_raw(-(-iterations * self.step // 2)))
        self.halves = np.empty(2 * self.words.size, dtype=np.uint64)
        self.halves[0::2] = self.words & _LOW32
        self.halves[1::2] = self.high
        self.classes = normals, anomalies
        self.n = n

    def read(self, z):
        count = (self.halves.size - z) // self.step
        halves = (self.halves[z + r::self.step][:count] for r in range(self.step))
        irregular = np.zeros(count, dtype=bool)
        ends = []
        for nodes in self.classes:
            if nodes.size > 1:
                index, rejected = _lemire(next(halves), np.uint64(nodes.size),
                                          _threshold(nodes.size))
                irregular |= rejected
                ends.append(nodes.take(index, mode="clip"))
            else:
                ends.append(np.full(count, nodes[0]))
        u, v = ends
        return np.minimum(u, v) * self.n + np.maximum(u, v), np.flatnonzero(irregular)


def _replay(rng, batch_of, iterations, step):
    """Run up to ``iterations`` loop iterations from ``rng`` over the raw
    words of ``batch_of(bit_generator, iterations)``: regular ones as arrays,
    irregular ones through ``step(rng)``.

    Returns their keys and ``seek(j)``, which puts ``rng`` where the scalar
    loop would be after iteration j. Fewer iterations come back when the
    words run out.
    """
    bg = rng.bit_generator
    start = bg.state
    batch = batch_of(bg, iterations)
    keys = np.empty(iterations, dtype=np.int64)
    ends = np.empty(iterations, dtype=np.int64)  # z after each; -1: see posts
    posts = {}  # the state after each iteration run through rng
    o, buffered = 0, _buffered(start)
    z = batch.position(o, buffered)
    done = 0
    while done < iterations:
        if z is not None:
            run = batch.regular(z, iterations - done)
            keys[done:done + run.size] = run
            ends[done:done + run.size] = z + batch.step * np.arange(1, run.size + 1)
            done += run.size
            z += batch.step * run.size
            if done == iterations:
                break
            o, buffered = batch.state(z)
        _seek(bg, start, o, buffered)
        before = bg.state
        keys[done] = step(rng)
        after = bg.state
        used = _words_used(bg, before, after, batch.words.size - o)
        z = None if used is None else batch.position(o + used, _buffered(after))
        ends[done], posts[done] = -1, after
        done += 1
        if used is None:
            break
        o, buffered = o + used, _buffered(after)

    def seek(j):
        if ends[j] < 0:
            bg.state = posts[j]
        else:
            _seek(bg, start, *batch.state(int(ends[j])))

    return keys[:done], seek


def _first_unseen(keys, seen):
    """Where ``keys`` holds a key that is neither in sorted ``seen`` nor
    equal to an earlier key; a negative key (no pair drawn) never is."""
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[0] - 1))
    distinct = ordered[starts]
    fresh = distinct >= 0
    if seen.size:
        fresh &= seen.take(np.searchsorted(seen, distinct), mode="clip") != distinct
    mask = np.zeros(keys.size, dtype=bool)
    mask[np.minimum.reduceat(order, starts)[fresh]] = True
    return mask


def _draw_edges(rng, need, budget, batch_of, step, loop):
    """The keys that a scalar loop of ``step(rng)`` iterations accepts: the
    first ``need`` distinct ones, in order, within ``budget + 1`` iterations.

    Batches are sized to the keys still needed at the last batch's
    acceptance rate, and at most twice the first. The first batch is
    checked against ``step`` on a copy of ``rng``.
    """
    accepted = []
    seen = np.zeros(0, dtype=np.int64)
    attempts = 0
    size, cap = need, 2 * need
    while need:
        if attempts > budget:
            raise DataError(f"infeasible spec: {loop} edge sampling exhausted its budget")
        probe = None if attempts else copy.deepcopy(rng)
        iterations = min(size, budget + 1 - attempts)
        keys, seek = _replay(rng, batch_of, iterations, step)
        if probe is not None:
            _check_replay(probe, rng, keys, seek, step)
        fresh = _first_unseen(keys, seen)
        hits = np.cumsum(fresh)
        done = keys.size if hits[-1] < need else int(np.searchsorted(hits, need)) + 1
        seek(done - 1)
        new = keys[:done][fresh[:done]]
        accepted.append(new)
        seen = np.sort(np.concatenate([seen, new]))
        need -= new.size
        attempts += done
        size = min(cap, -(-need * done // max(new.size, 1)))
    return np.concatenate(accepted) if accepted else np.zeros(0, dtype=np.int64)


def _check_replay(probe, rng, keys, seek, step):
    """Raise unless the first keys of a replayed batch, and the stream
    position after them, match ``step`` run on ``probe`` (a copy of ``rng``
    from before the batch)."""
    count = min(keys.size, 8)
    expected = [step(probe) for _ in range(count)]
    seek(count - 1)
    if (expected != keys[:count].tolist()
            or not _same_position(probe.bit_generator.state, rng.bit_generator.state)):
        raise TtgadError(
            f"generate_synthetic: numpy {np.__version__} draws bounded integers in a "
            "way its raw-stream replay does not reproduce, so the graph for this "
            "seed cannot be generated")


def generate_synthetic(spec):
    """Generate a labeled attributed graph; bitwise deterministic per seed.

    Labels, then features, then edges are drawn from one PCG64 stream
    seeded by ``spec.seed``. Same-label edges come first: each iteration
    picks the anomaly pool with probability ``p_aa`` (its share of the
    same-label pairs) and two distinct nodes in the pool; then cross-label
    edges pair a normal with an anomaly. A drawn pair already taken is
    skipped. Each loop is the scalar ``rng`` loop of :func:`_same_label_step`
    or :func:`_cross_label_step`, replayed in batches from the raw stream
    (see :class:`_Batch`): iterations whose draws Lemire's method rejects
    run through ``rng`` itself, and duplicates are removed per batch, so the
    graph is bitwise the one the scalar loop draws. The first batch of each
    loop is checked against the scalar calls on a copy of the generator; a
    numpy whose bounded-integer draws differ raises :class:`TtgadError`
    naming its version rather than return another graph. A loop that cannot
    find its edges within ``200 * m + 1000`` iterations raises
    :class:`DataError`.
    """
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

    budget = 200 * max(m, 1) + 1000
    p_aa = pairs_aa / (pairs_nn + pairs_aa) if (pairs_nn + pairs_aa) else 0.0
    same = _draw_edges(
        rng, m_same, budget,
        lambda bg, iters: _SameLabelBatch(bg, iters, normals, anomalies, p_aa, n),
        lambda g: _same_label_step(g, normals, anomalies, p_aa, n), "same-label")
    # Same-label keys never pair a normal with an anomaly, so the
    # cross-label loop has nothing to check them against.
    cross = _draw_edges(
        rng, m_cross, budget,
        lambda bg, iters: _CrossLabelBatch(bg, iters, normals, anomalies, n),
        lambda g: _cross_label_step(g, normals, anomalies, n), "cross-label")
    keys = np.concatenate([same, cross])
    edges = np.column_stack([keys // n, keys % n])

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
