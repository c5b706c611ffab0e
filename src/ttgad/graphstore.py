"""Attributed-graph container, on-disk format, synthetic generation, rewiring.

Graphs are undirected, simple (no self-loops, no parallel edges), stored as
CSR over directed slots: every undirected edge {u, v} appears as two slots
(u -> v) and (v -> u). Column indices are sorted within each row. Features
are held as float32, the precision of the disk format, whatever dtype they
arrive in; a value that is not finite as float32 is refused when the graph
is built. Only the encoder's projection reads them, and it upcasts them to
float64 a block of rows at a time.

Disk layout of a graph bundle directory:

    meta.json      {"name", "num_nodes", "feature_dim", "has_labels"}
    edges.tsv      one undirected edge per line, "u\tv" with u < v
    features.bin   row-major float32, little-endian, num_nodes * feature_dim
    labels.tsv     one integer per line (0 normal, 1 anomaly), if labeled
"""

import copy
import itertools
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property
from numbers import Integral, Real
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
    ``features`` is C-contiguous float32, converted once from any real
    dtype; ids and labels must be whole numbers.
    """

    def __init__(self, name, num_nodes, indptr, indices, features, labels=None):
        self.name = str(name)
        self.num_nodes = int(_whole("num_nodes", num_nodes))
        self.indptr = _whole("indptr", indptr)
        self.indices = _whole("indices", indices)
        features = _numeric("features", features)
        with np.errstate(over="ignore"):  # beyond float32's range is inf, counted below
            self.features = np.ascontiguousarray(features, dtype=np.float32)
        self.labels = None if labels is None else _whole("labels", labels)
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
        bad = self.features.size - np.count_nonzero(np.isfinite(self.features))
        if bad:
            raise DataError(f"features must be finite as float32: {bad} value(s) are "
                            "non-finite or beyond its range")
        if self.labels is not None:
            if self.labels.shape != (n,):
                raise DataError("labels must have one entry per node")
            if self.labels.size and not np.isin(self.labels, (0, 1)).all():
                raise DataError("labels must be 0 or 1")
        # Rows ascend and columns lie in [0, n), so the slot keys ascend
        # strictly exactly when each row's columns do, without duplicates.
        if np.any(np.diff(self.slot_src * np.int64(n) + self.indices) <= 0):
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

    @property
    def undirected_edges(self):
        """(num_edges, 2) array of undirected edges with u < v, sorted; a new
        array on each read, which its two readers make once each."""
        mask = self.slot_src < self.indices
        return np.column_stack([self.slot_src[mask], self.indices[mask]])

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


def _numeric(what, values):
    """``values`` as an array of bool, integer or float dtype, or DataError."""
    try:
        arr = np.asarray(values)
    except ValueError as e:  # ragged nesting
        raise DataError(f"{what}: {e}") from e
    if arr.dtype.kind not in "biuf":
        raise DataError(f"{what} must be real numbers, got dtype {arr.dtype}")
    return arr


def _whole(what, values):
    """``values`` as C-contiguous int64; a value it would truncate is refused."""
    arr = _numeric(what, values)
    if arr.dtype.kind == "f" and not np.all((np.trunc(arr) == arr) & (np.abs(arr) < 2.0 ** 63)):
        raise DataError(f"{what} must be whole numbers")
    return np.asarray(arr, dtype=np.int64, order="C")


def build_graph(name, num_nodes, edges, features, labels=None):
    """Build a validated graph from an arbitrary edge list.

    Accepts either orientation per edge, drops self-loops (with a warning),
    deduplicates, mirrors every edge, and sorts rows.
    """
    n = int(_whole("num_nodes", num_nodes))
    edges = _whole("edge ids", edges).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise DataError("node id out of range in edge list")
    loops = edges[:, 0] == edges[:, 1]
    if np.any(loops):
        warnings.warn(f"dropping {int(loops.sum())} self-loop(s)", stacklevel=2)
        edges = edges[~loops]
    u, v = edges[:, 0], edges[:, 1]
    keys = np.sort(np.concatenate([u * np.int64(n) + v, v * np.int64(n) + u]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return AttributedGraph(name, n, indptr, keys % n, features, labels)


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
    """Write a graph bundle directory; returns the directory path.

    Features are written as the graph holds them, float32.
    """
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
    np.ascontiguousarray(graph.features, dtype="<f4").tofile(out / "features.bin")
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
_DIGITS = b"0123456789"


def _parse_ids(raw, seps):
    """``(ids, None)`` for bytes in the layout :func:`_id_text` writes, ids
    as a ``(rows, len(seps))`` int64 array; for any other bytes ``(None,
    offset)``, the offset of the first byte that departs from the layout."""
    cols, sep = len(seps), np.frombuffer(seps, dtype=np.uint8)
    b = np.frombuffer(raw, dtype=np.uint8)
    at = np.flatnonzero(b < ord("0"))  # the separators, once the byte set is checked
    widths = np.diff(at, prepend=-1) - 1  # of the id before each
    if (raw.translate(None, _DIGITS + seps) or raw[-1:] not in (b"", seps[-1:]) or at.size % cols
            or not (b[at].reshape(-1, cols) == sep).all()
            or widths.min(initial=1) < 1 or widths.max(initial=0) > _MAX_ID_DIGITS):
        allowed = np.zeros(256, dtype=bool)
        allowed[np.frombuffer(_DIGITS + seps, dtype=np.uint8)] = True
        # A byte outside the set, a separator out of turn, an empty or an
        # overlong id; failing those, a last row cut short at the end.
        found = (np.flatnonzero(~allowed[b]), at[b[at] != np.resize(sep, at.size)],
                 at[widths < 1], (at - widths + _MAX_ID_DIGITS)[widths > _MAX_ID_DIGITS],
                 [b.size])
        return None, min(int(f[0]) for f in found if len(f))
    if widths.max(initial=0) <= 1:
        ids = b[at - 1] - np.int64(ord("0"))
    else:
        ids = np.fromstring(raw, dtype=np.int64, sep=" ")
    return ids.reshape(-1, cols), None


def _read_ids(path, seps, limit, out_of_range):
    """The ``(rows, len(seps))`` ids of a file :func:`save_graph` wrote: each
    id 1 to 18 ASCII digits followed by its column's byte of ``seps``, and
    below ``limit``. Any other bytes raise GraphFormatError naming the file
    and the first line that departs, with ``out_of_range`` as the message
    for an id at or past ``limit``."""
    raw = path.read_bytes()
    ids, bad = _parse_ids(raw, seps)
    if bad is not None:  # the whole lines before the departing one
        ids = _parse_ids(raw[:raw.rfind(b"\n", 0, bad) + 1], seps)[0]
    if ids.size and ids.max() >= limit:
        row = int(np.flatnonzero((ids >= limit).any(axis=1))[0])
        raise GraphFormatError(f"{path.name} line {row + 1}: {out_of_range}")
    if bad is not None:
        line = raw.count(b"\n", 0, bad) + 1
        layout = "".join(f"<id>{chr(s)}" for s in seps)
        raise GraphFormatError(f"{path.name} line {line}: expected {layout!r}, "
                               f"each id 1 to {_MAX_ID_DIGITS} ASCII digits")
    return ids


def load_graph(path):
    """Read a graph bundle directory written by :func:`save_graph`.

    ``edges.tsv`` and ``labels.tsv`` must be in exactly the layout
    ``save_graph`` writes; any other bytes, such as CRLF line ends, blank
    lines, spaces around ids or a missing final newline, are refused with
    the first line that departs from it.
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
    if not isinstance(meta["name"], str):
        raise GraphFormatError("meta.json name must be a string")
    n, d = meta["num_nodes"], meta["feature_dim"]
    # JSON integers only: bools, floats such as 3.7, strings and null are refused.
    if type(n) is not int or type(d) is not int or n < 0 or d < 1:
        raise GraphFormatError("meta.json has invalid num_nodes/feature_dim")
    if not isinstance(meta["has_labels"], bool):
        raise GraphFormatError("meta.json has_labels must be true or false")

    edges_path = root / "edges.tsv"
    if not edges_path.is_file():
        raise GraphFormatError(f"missing edges.tsv under {root}")
    edges = _read_ids(edges_path, b"\t\n", n, "node id out of range")

    feat_path = root / "features.bin"
    if not feat_path.is_file():
        raise GraphFormatError(f"missing features.bin under {root}")
    size = feat_path.stat().st_size
    expected = n * d * 4
    if size != expected:
        raise GraphFormatError(
            f"features.bin: malformed binary length {size}, expected {expected}"
        )
    # One copy, kept as float32: the graph holds float32 features as they are.
    features = np.fromfile(feat_path, dtype="<f4").reshape(n, d)

    labels = None
    if meta["has_labels"]:
        lab_path = root / "labels.tsv"
        if not lab_path.is_file():
            raise GraphFormatError(f"missing labels.tsv under {root}")
        labels = _read_ids(lab_path, b"\n", 2, "labels must be 0 or 1")[:, 0]
        if labels.size != n:
            raise GraphFormatError(f"labels.tsv has {labels.size} entries, expected {n}")

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


# Bytes of float64 in one row block of generate_synthetic's feature draw.
_DRAW_BLOCK_BYTES = 1 << 20


def _validate_spec(spec):
    for name, kind in (("num_nodes", Integral), ("feature_dim", Integral), ("seed", Integral),
                       ("anomaly_rate", Real), ("target_homophily", Real),
                       ("mean_degree", Real), ("noise_scale", Real)):
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, kind):  # as RunConfig's fields
            raise DataError(f"{name} must be {'an integer' if kind is Integral else 'a number'}"
                            f", got {value!r}")
    if spec.num_nodes < 2:
        raise DataError("num_nodes must be at least 2")
    if spec.feature_dim < 1:
        raise DataError("feature_dim must be at least 1")
    if not (0.0 < spec.anomaly_rate < 0.5):
        raise DataError("anomaly_rate must lie in (0, 0.5)")
    if not (0.0 <= spec.target_homophily <= 1.0):
        raise DataError("target_homophily must lie in [0, 1]")
    for name in ("mean_degree", "noise_scale"):
        if not 0 <= getattr(spec, name) < math.inf:
            raise DataError(f"{name} must be finite and non-negative, got {getattr(spec, name)}")
    if spec.seed < 0:
        raise DataError("seed must be non-negative")
    # Generation holds the float32 features, one float64 row block of the
    # draw and the graph's three per-slot int64 arrays (indices, slot
    # sources, mirrors) over 2m slots.
    slots = spec.mean_degree * spec.num_nodes
    needed = 4.0 * spec.num_nodes * spec.feature_dim + _DRAW_BLOCK_BYTES + 3 * 8.0 * slots
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > limit:
        raise DataError(f"spec does not fit in memory: generation needs {needed:.3g} "
                        f"bytes, past the {limit} bytes of physical memory")


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


# The same-label loop is replayed from PCG64's raw 64-bit words.
# ``rng.random()`` reads one word w as (w >> 11) * 2**-53. ``rng.integers(b)``
# for b >= 2 reads one uint32 by Lemire's method: the high half that the last
# such read left buffered, if any, else the low half of a new word, buffering
# its high half. Each rejection reads one more uint32. ``rng.integers(1)``
# reads nothing. So a regular same-label iteration (a pool of 3 or more nodes
# and no rejection) reads two words and leaves the buffer full exactly when it
# found it full: after k of them, the stream is 2k words on, and a full buffer
# holds the high half of the k-th draw word.

_RUN = 1 << 14  # same-label iterations read per run
_LOW32 = np.uint64(0xFFFFFFFF)


def _lemire(halves, bounds):
    """numpy's draws below ``bounds`` (each >= 1) from the uint32 ``halves``,
    and where a draw is rejected (and so reads another half)."""
    product = halves * bounds
    return product >> 32, (product & _LOW32) < (2 ** 32 - bounds) % bounds


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


def _same_label_run(rng, limit, normals, anomalies, p_aa, n):
    """Keys of up to ``_RUN`` (and ``limit``) same-label iterations from
    ``rng``, and ``seek(k)``, which puts ``rng`` where the scalar loop is
    after iteration k.

    Regular iterations are read as arrays from the raw words. The run ends
    at the first irregular one, which goes through :func:`_same_label_step`.
    """
    bg = rng.bit_generator
    start = bg.state
    buffered = _buffered(start)
    count = min(limit, _RUN)
    words = bg.random_raw(2 * count)
    draws = words[1::2]
    if buffered is None:
        first, second = draws & _LOW32, draws >> 32
    else:  # pending[k]: the buffered half after k iterations
        pending = np.concatenate([np.array([buffered], dtype=np.uint64), draws >> 32])
        first, second = pending[:-1], draws & _LOW32
    anomalous = ((words[0::2] >> 11) * 2.0 ** -53 < p_aa).view(np.uint8)
    size = np.array([normals.size, anomalies.size], dtype=np.uint64).take(anomalous)
    i, rejected = _lemire(first, size)
    j, rejected_second = _lemire(second, np.maximum(size, 2) - 1)
    irregular = np.flatnonzero(rejected | rejected_second | (size < 3))
    regular = int(irregular[0]) if irregular.size else count
    j += j >= i
    members = np.concatenate([normals, anomalies])
    offset = anomalous * np.uint64(normals.size)
    u = members.take(offset[:regular] + i[:regular])
    v = members.take(offset[:regular] + j[:regular])
    keys = np.minimum(u, v) * n + np.maximum(u, v)

    def place(k):
        _seek(bg, start, 2 * (k + 1), None if buffered is None else pending[k + 1])

    if regular == count:
        return keys, place
    place(regular - 1)
    keys = np.append(keys, _same_label_step(rng, normals, anomalies, p_aa, n))
    after = bg.state

    def seek(k):
        if k == regular:
            bg.state = after
        else:
            place(k)

    return keys, seek


def _cross_label_run(rng, limit, normals, anomalies, n):
    """Keys of ``limit`` cross-label iterations from ``rng``, and ``seek(k)``,
    which puts ``rng`` where the scalar loop is after iteration k.

    numpy's array draws read the stream exactly as the scalar calls do, so
    ``seek`` draws the first k + 1 rows again from the start state.
    """
    start = rng.bit_generator.state
    bounds = [normals.size, anomalies.size]
    draws = rng.integers(0, bounds, size=(limit, 2))
    u, v = normals[draws[:, 0]], anomalies[draws[:, 1]]

    def seek(k):
        rng.bit_generator.state = start
        rng.integers(0, bounds, size=(k + 1, 2))

    return np.minimum(u, v) * n + np.maximum(u, v), seek


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


def _draw_edges(rng, need, budget, run, step, loop):
    """The keys that a scalar loop of ``step(rng)`` iterations accepts: the
    first ``need`` distinct ones, in order, within ``budget + 1`` iterations.

    ``run(rng, limit)`` replays at most ``limit`` iterations as a batch.
    Batches are asked for the keys still needed at the last batch's
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
        keys, seek = run(rng, iterations)
        if probe is not None:
            _check_replay(probe, rng, keys, seek, step)
        fresh = _first_unseen(keys, seen)
        hits = np.cumsum(fresh)
        done = keys.size if hits[-1] < need else int(np.searchsorted(hits, need)) + 1
        seek(done - 1)
        new = keys[:done][fresh[:done]]
        accepted.append(new)
        new_sorted = np.sort(new)
        seen = np.insert(seen, np.searchsorted(seen, new_sorted), new_sorted)
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
    want, got = probe.bit_generator.state, rng.bit_generator.state
    if (expected != keys[:count].tolist() or want["state"] != got["state"]
            or _buffered(want) != _buffered(got)):
        raise TtgadError(
            f"generate_synthetic: numpy {np.__version__} draws bounded integers in a "
            "way its replay of the scalar loops does not reproduce, so the graph for "
            "this seed cannot be generated")


def generate_synthetic(spec):
    """Generate a labeled attributed graph; bitwise deterministic per seed.

    Labels, then features, then edges are drawn from one PCG64 stream
    seeded by ``spec.seed``. Same-label edges come first: each iteration
    picks the anomaly pool with probability ``p_aa`` (its share of the
    same-label pairs) and two distinct nodes in the pool; then cross-label
    edges pair a normal with an anomaly. A drawn pair already taken is
    skipped. Each loop is the scalar ``rng`` loop of :func:`_same_label_step`
    or :func:`_cross_label_step`, run in batches whose duplicates are
    removed as arrays, so the graph is bitwise the one the scalar loop
    draws. The same-label loop is read from the raw stream in runs of at
    most ``_RUN`` iterations (see :func:`_same_label_run`); an iteration
    whose draws Lemire's method rejects ends its run and goes through
    ``rng`` itself. The cross-label loop is one array call of
    ``rng.integers``, which reads the stream as the scalar calls do. The
    first batch of each loop is checked against the scalar calls on a copy
    of the generator; a numpy whose bounded-integer draws differ raises
    :class:`TtgadError` naming its version rather than return another
    graph. A loop that cannot find its edges within ``200 * m + 1000``
    iterations raises :class:`DataError`.
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
    # Held at the disk precision, so save -> load round-trips exactly, and
    # drawn in row blocks straight into it: standard_normal keeps no state
    # between calls, so the blocks draw the one whole draw's values.
    features = np.empty((n, spec.feature_dim), dtype=np.float32)
    rows = max(1, _DRAW_BLOCK_BYTES // (8 * spec.feature_dim))
    for lo in range(0, n, rows):
        block = rng.standard_normal((min(rows, n - lo), spec.feature_dim))
        block *= spec.noise_scale
        block += centers[labels[lo:lo + rows]]
        features[lo:lo + rows] = block

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
        lambda g, limit: _same_label_run(g, limit, normals, anomalies, p_aa, n),
        lambda g: _same_label_step(g, normals, anomalies, p_aa, n), "same-label")
    # Same-label keys never pair a normal with an anomaly, so the
    # cross-label loop has nothing to check them against.
    cross = _draw_edges(
        rng, m_cross, budget,
        lambda g, limit: _cross_label_run(g, limit, normals, anomalies, n),
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
_REWIRE_CHUNK = 1 << 16  # candidate swaps checked at once when a round keeps none


def rewire_to_homophily(graph, target_homophily, seed=0):
    """Degree-preserving double-edge swaps toward a target edge-label homophily.

    With each edge held lower label first, a swap turns (x0, x1), (y0, y1)
    into (x0, y0), (x1, y1) (Maslov & Sneppen, Science 2002). Only two kinds
    move the same-label count, each by 2: two cross-label edges (up), and a
    normal-normal with an anomaly-anomaly edge, either way round (down).
    Each round applies the valid swaps (no self-loop, both new edges absent)
    among random candidate pairs, none sharing an edge or a new edge, at
    most half the gap. A round that keeps none checks every candidate pair;
    if none is valid, no degree-preserving swap moves closer, and a result
    that misses by more than ``REWIRE_TOLERANCE`` warns.
    """
    if graph.labels is None:
        raise DataError("rewiring requires labels")
    if not (0.0 <= target_homophily <= 1.0):
        raise DataError("target_homophily must lie in [0, 1]")
    m, n, labels = graph.num_edges, graph.num_nodes, graph.labels
    if m == 0:
        return graph
    edges = graph.undirected_edges
    edges = np.take_along_axis(edges, np.argsort(labels[edges], axis=1), axis=1)
    target_count = int(round(target_homophily * m))
    rng = np.random.default_rng(seed)
    moved = False
    while True:
        kind = labels[edges[:, 0]] + labels[edges[:, 1]]  # 1 is cross-label
        gap = target_count - int(np.count_nonzero(kind != 1))
        if abs(gap) < 2:
            break
        up = gap > 0
        first, second = (np.flatnonzero(kind == c) for c in ((1, 1) if up else (0, 2)))
        pa = rng.permutation(first.size)
        pa, pb = (pa[0::2], pa[1::2]) if up else (pa, rng.permutation(second.size))
        # Candidate t is (first[t // (size * turns)], second[t // turns % size],
        # turned if t % turns): the random pairs first, then all, chunk by chunk.
        turns, size, k = (1 if up else 2), second.size, min(pa.size, pb.size)
        total = first.size * size * turns
        drawn = (pa[:k] * size + pb[:k]) * turns + rng.integers(turns, size=k)
        chunks = (np.arange(s, min(s + _REWIRE_CHUNK, total))
                  for s in range(0, total, _REWIRE_CHUNK))
        keys = np.sort(edges.min(axis=1) * n + edges.max(axis=1))
        for t in itertools.chain([drawn], chunks):
            i, j, new = _valid_swaps(edges, keys, n, first[t // (size * turns)],
                                     second[t // turns % size], t % turns == 1)
            if i.size:
                break
        else:
            break
        cap = abs(gap) // 2
        edges[i[:cap]], edges[j[:cap]] = new[:cap, :, 0], new[:cap, :, 1]
        moved = True

    realized = (target_count - gap) / m
    if abs(realized - target_homophily) > REWIRE_TOLERANCE:
        warnings.warn(f"rewire: reached homophily {realized:.3f}, target {target_homophily:.3f} "
                      "not attainable (no degree-preserving swap moves closer)", stacklevel=2)
    return build_graph(graph.name, n, edges, graph.features, labels) if moved else graph


def _valid_swaps(edges, keys, n, i, j, turn):
    """The swaps of edges ``i`` with edges ``j`` (turned where ``turn``) that
    make no self-loop and no edge in ``keys``, cut to a subset that shares no
    edge and no new edge. Returns ``(i, j, new)``: ``new[s, :, 0]`` replaces
    edge ``i[s]`` and ``new[s, :, 1]`` edge ``j[s]``."""
    y = edges[j]
    y[turn] = y[turn, ::-1]
    new = np.stack([edges[i], y], axis=1)  # new[s, :, r] = (x_r, y_r)
    new_keys = new.min(axis=1) * n + new.max(axis=1)
    at = np.minimum(np.searchsorted(keys, new_keys), keys.size - 1)
    ok = (new[:, 0] != new[:, 1]).all(axis=1) & (keys[at] != new_keys).all(axis=1)
    i, j, new = i[ok], j[ok], new[ok]
    # A swap is kept when it is the first to use each of its two edges and
    # two new edges (keys offset past the edge ids), so no two kept ones meet.
    items = np.column_stack([i, j, new_keys[ok] + edges.shape[0]]).ravel()
    _, seen, inverse = np.unique(items, return_index=True, return_inverse=True)
    own = (seen[inverse] // 4 == np.arange(items.size) // 4).reshape(-1, 4).all(axis=1)
    return i[own], j[own], new[own]
