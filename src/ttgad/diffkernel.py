"""Minimal reverse-mode autodiff over dense 2-D float64 arrays.

Everything is a :class:`Tensor` wrapping a 2-D numpy array, float64 with
one exception: a frozen input of :func:`linear` may hold float32 values (a
graph's raw features), which it upcasts one row block at a time. Ops
executed while a :class:`Tape` is active are recorded when an input requires
a gradient, so ops on frozen (``requires_grad=False``) tensors alone never
reach the tape. A record holds no tensor: it is the output's identity token,
one token per input (``None`` for an input that does not train) and a
backward function that closes over only the arrays it reads, given which
inputs train. So an op output that no later record reads is freed as soon as
the forward drops it, and an op run with no active tape saves nothing.
``Tape.backward(loss)`` replays the records in exact reverse execution order,
accumulates gradients additively, and releases each record and each
intermediate gradient once it has been passed on; the returned
:class:`Gradients` holds leaf tensors only. With no active tape, ops are
plain numpy and scipy computations (eval mode).

Every dense layer, its weight stored (out, in), is one :func:`linear`
record: matrix product, bias and optional relu together.

Message passing runs on ops over a :class:`Pattern`: a CSR pattern whose
slot ``s`` of row ``r`` (``indptr[r] <= s < indptr[r + 1]``) pairs row ``r``
with column ``indices[s]``. Its owner validates it once; the ops check only
shapes against it. :func:`attention` is a layer's attention (a relu
projection, an SDDMM of it with itself, a softmax over each row's slots and
the min of each slot and its mirror), :func:`aggregate` a message-passing
layer (an SpMM fused with the dense transform that reads it, after FusedMM),
:func:`pair_cosine` the per-slot cosine and :func:`segment_mean` the mean
over each row's slots. The backward passes of the first three are SpMMs
with ``scipy.sparse.csr_matrix`` plus per-row scalars (and, for the slot
weights of :func:`aggregate`, an SDDMM), so a pattern op keeps only
per-slot scalars and per-node rows alive on the tape; per-slot rows exist
only in bounded chunks inside one call. A record keeps what backward cannot
cheaply recompute: :func:`attention` keeps its input, weight and softmax
and recomputes the projection and the min's tie shares, and
:func:`pair_cosine` recomputes its per-slot denominators.

:func:`attention` and :func:`aggregate` need a symmetric pattern, one whose
owner set ``reverse``, and refuse any other; only :func:`pair_cosine` also
runs on a non-symmetric one, on the CSC view.
On a symmetric pattern the SDDMMs compute only the slots with ``row <= col``
and copy each value to its mirror, and ``M.T`` is ``csr(data[reverse])`` on
the same pattern, so every backward runs CSR SpMMs only.
Backward computes no gradient for an operand with ``requires_grad=False``.

Design constraints honored throughout:

- all math in float64 (a float32 input is upcast before any arithmetic);
  every op validates that its output is finite;
- bitwise reproducible at a fixed numpy/BLAS build and thread count only;
  README's tolerance contract bounds what row blocks and threads move;
- the relu of :func:`linear`, :func:`attention` and :func:`aggregate` has
  zero derivative at exactly 0;
- their bias is the only broadcast; :func:`add` and
  :func:`elementwise_mul` take equal shapes;
- guarded denominators: cosine uses eps = 1e-12, softmax subtracts the
  per-row/per-segment max before exponentiation;
- pattern ops give empty rows an all-zero output and route exactly zero
  gradient outside their slots.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import NumericalError, ShapeError

__all__ = [
    "Tensor", "Tape", "Gradients",
    "linear", "add", "sigmoid", "elementwise_mul",
    "scalar_mul", "sum", "masked_row_softmax",
    "Pattern", "segment_mean",
    "attention", "aggregate", "pair_cosine",
    "binary_cross_entropy", "dropout",
    "AdamState", "adam_step", "GradCheckReport", "grad_check",
]

COSINE_EPS = 1e-12
_NORMAL_MIN = np.finfo(np.float64).tiny  # smallest normal float64; 1 / it is finite

_ACTIVE_TAPES = []


class Tensor:
    """2-D float64 array with a requires_grad flag and an identity token.

    The one exception to float64: a frozen tensor wrapped around float32
    features, which only :func:`linear` reads.

    Scalars are stored as shape (1, 1); 1-D input becomes a row vector.
    The public constructor copies its input; internal ops wrap freshly
    allocated arrays without copying. ``token`` names the tensor on a tape
    and in :class:`Gradients`; a deep copy gets a fresh one.
    """

    __slots__ = ("values", "requires_grad", "token", "__weakref__")

    def __init__(self, values, requires_grad=False):
        arr = np.array(values, dtype=np.float64, copy=True)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeError("tensors are 2-D (scalars (1,1), vectors 1xN or Nx1)")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.token = object()

    @classmethod
    def _wrap(cls, arr, requires_grad):
        t = cls.__new__(cls)
        t.values = arr
        t.requires_grad = requires_grad
        t.token = object()
        return t

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        if self.values.shape != (1, 1):
            raise ShapeError("item() requires a scalar tensor")
        return float(self.values[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


class Gradients:
    """Gradients of the leaf tensors a backward pass reached, by token.

    Unknown tensors, intermediates and frozen tensors read as zeros.
    """

    def __init__(self, store):
        self._store = store

    def __getitem__(self, tensor):
        grad = self._store.get(tensor.token)
        return np.zeros_like(tensor.values) if grad is None else grad

    def __contains__(self, tensor):
        return tensor.token in self._store


class Tape:
    """Ordered record of executed ops for one forward pass; backward consumes it.

    A record is ``(out, ins, bwd)``: the output's token, one token per input
    or None where the input does not train, and ``bwd``, which maps the
    output's gradient to one gradient per input, None where the token is.
    Each gradient ``bwd`` returns is a new array that nothing else holds, so
    backward adds into it in place and ``bwd`` may overwrite the gradient it
    is given.
    """

    def __init__(self):
        self._entries = []
        self._consumed = False

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE_TAPES.pop()
        return False

    def backward(self, loss):
        if loss.shape != (1, 1):
            raise ShapeError("backward requires a scalar loss")
        if self._consumed:
            raise ValueError("backward already ran on this tape; re-run the forward pass")
        self._consumed = True
        store = {loss.token: np.ones((1, 1))}
        entries = self._entries
        while entries:
            out, ins, bwd = entries.pop()
            g = store.pop(out, None)
            if g is None:
                continue
            for token, grad in zip(ins, bwd(g)):
                if token is not None:
                    acc = store.setdefault(token, grad)
                    if acc is not grad:
                        acc += grad
            acc = grad = None  # else one added into its accumulator lives through the next bwd
        return Gradients(store)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(op, arr, *inputs):
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{op} produced non-finite values")
    rg = any(t.requires_grad for t in inputs)
    return Tensor._wrap(arr, rg)


def _recording(out):
    """Whether ``out`` goes on the tape; an op saves state for backward only then."""
    return bool(_ACTIVE_TAPES) and out.requires_grad


def _record(out, inputs, bwd):
    _ACTIVE_TAPES[-1]._entries.append(
        (out.token, tuple(t.token if t.requires_grad else None for t in inputs), bwd))


# ---------------------------------------------------------------------------
# Dense ops


# Bytes of one gathered block in _sampled_dot; blocks that stay in cache run
# several times faster than whole (slots x width) gathers.
_CHUNK_BYTES = 1 << 18


# Products of a dense operand with a weight run in row blocks of about
# _BLOCK_BYTES of float64 operand: a float32 input of linear is upcast one
# block at a time, and aggregate's message exists one block at a time.
_BLOCK_BYTES = 4 * _CHUNK_BYTES


def _row_blocks(n, cols):
    """``(lo, hi)`` row blocks of an ``(n, cols)`` operand; see _BLOCK_BYTES."""
    rows = max(_BLOCK_BYTES // (8 * max(cols, 1)), 1)
    count = max(1, n // rows)  # so every block has between rows and 2 * rows rows
    bounds = [n * i // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def linear(x, W, b=None, relu=False):
    """``x @ W.T + b``, then relu if asked; one tape record.

    ``b`` is (1, out). The relu mask is ``out > 0``, so the derivative at
    exactly 0 is 0. Both the product and ``W``'s gradient run over row
    blocks of ``x``, upcast one block at a time, so a frozen ``x`` may hold
    float32 values and no float64 copy of it is made.
    """
    x, W = _as_tensor(x), _as_tensor(W)
    bias = [] if b is None else [_as_tensor(b)]
    if x.shape[1] != W.shape[1] or any(t.shape != (1, W.shape[0]) for t in bias):
        raise ShapeError(f"linear: {x.shape} through {W.shape} + {[t.shape for t in bias]}")
    blocks = _row_blocks(*x.shape)
    vals = np.empty((x.shape[0], W.shape[0]))
    for lo, hi in blocks:
        np.matmul(x.values[lo:hi].astype(np.float64, copy=False), W.values.T,
                  out=vals[lo:hi])
    for t in bias:
        vals += t.values
    if relu:
        np.maximum(vals, 0.0, out=vals)
    out = _make("linear", vals, x, W, *bias)
    if not _recording(out):
        return out
    # Only W's gradient reads the input; of the output, only the relu mask.
    mask = vals > 0 if relu else None
    wv = W.values if x.requires_grad else None
    xv = x.values if W.requires_grad else None
    w_shape = W.shape
    bias_trains = [t.requires_grad for t in bias]

    def bwd(g):
        if mask is not None:
            g *= mask
        gW = None
        if xv is not None:
            gW = np.zeros(w_shape)
            for lo, hi in blocks:
                gW += g[lo:hi].T @ xv[lo:hi].astype(np.float64, copy=False)
        return [None if wv is None else g @ wv, gW] + [
            g.sum(axis=0, keepdims=True) if live else None for live in bias_trains]

    _record(out, (x, W, *bias), bwd)
    return out


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} + {b.shape}")
    out = _make("add", a.values + b.values, a, b)
    if _recording(out):
        # each side gets its own array: a later record may overwrite it
        live = a.requires_grad, b.requires_grad
        _record(out, (a, b), lambda g: (g if live[0] else None,
                                        g.copy() if live[1] else None))
    return out


def elementwise_mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"elementwise_mul: {a.shape} * {b.shape}")
    out = _make("elementwise_mul", a.values * b.values, a, b)
    if _recording(out):
        # each side's gradient reads the other side's values
        for_a = b.values if a.requires_grad else None
        for_b = a.values if b.requires_grad else None
        _record(out, (a, b), lambda g: (None if for_a is None else g * for_a,
                                        None if for_b is None else g * for_b))
    return out


def scalar_mul(x, c):
    x = _as_tensor(x)
    c = float(c)
    out = _make("scalar_mul", x.values * c, x)
    if _recording(out):
        _record(out, (x,), lambda g: (g * c,))
    return out


def sigmoid(x):
    x = _as_tensor(x)
    v = x.values
    s = np.empty_like(v)
    pos = v >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    s[~pos] = ev / (1.0 + ev)
    out = _make("sigmoid", s, x)
    if _recording(out):
        _record(out, (x,), lambda g: (g * s * (1.0 - s),))
    return out


def sum(x):
    """Sum of all entries, as a (1, 1) tensor."""
    x = _as_tensor(x)
    out = _make("sum", np.array([[x.values.sum()]]), x)
    if _recording(out):
        shape = x.shape
        _record(out, (x,), lambda g: (np.full(shape, g[0, 0]),))
    return out


def masked_row_softmax(scores, mask):
    """Row-wise softmax restricted to positions where mask is nonzero.

    Masked positions are exactly zero in the output and receive exactly zero
    gradient. A row whose mask is all zero yields an all-zero row. The mask is
    treated as a constant.
    """
    scores = _as_tensor(scores)
    mask_arr = mask.values if isinstance(mask, Tensor) else np.asarray(mask)
    if mask_arr.shape != scores.shape:
        raise ShapeError(f"masked_row_softmax: mask {mask_arr.shape} vs scores {scores.shape}")
    allowed = mask_arr != 0
    shifted = np.where(allowed, scores.values, -np.inf)
    # an all-masked row shifts by 0: its entries stay -inf and exp to exactly 0
    top = np.where(allowed.any(axis=1, keepdims=True),
                   shifted.max(axis=1, keepdims=True, initial=-np.inf), 0.0)
    e = np.exp(shifted - top)
    # a row with an allowed entry sums to at least exp(0) = 1
    p = e / np.maximum(e.sum(axis=1, keepdims=True), 1.0)
    out = _make("masked_row_softmax", p, scores)
    if _recording(out):
        _record(out, (scores,), lambda g: (p * (g - (p * g).sum(axis=1, keepdims=True)),))
    return out


# ---------------------------------------------------------------------------
# Sparse pattern ops over a CSR Pattern: segment reductions, attention, the
# fused message-passing layer and pair cosine


class Pattern:
    """A CSR pattern, validated once; ``rows[s]`` is the row of slot ``s``.

    ``reverse`` maps slot (r, c) to slot (c, r); it stays None unless the
    owner proves the pattern symmetric and sets it. int64 arrays are kept
    as given, not copied, and must not be mutated; :attr:`csr_index` adds
    the int32 copies that scipy's CSR matrices read.
    """

    __slots__ = ("indptr", "indices", "rows", "num_rows", "num_cols", "reverse",
                 "_upper", "_csr_index")

    def __init__(self, indptr, indices, num_rows, num_cols):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.shape != (num_rows + 1,):
            raise ShapeError(f"indptr must have num_rows + 1 = {num_rows + 1} entries")
        if indices.ndim != 1 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ShapeError("indptr must start at 0 and end at the number of slots")
        widths = np.diff(indptr)
        if np.any(widths < 0):
            raise ShapeError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= num_cols):
            raise ShapeError("pattern column index out of range")
        self.indptr = indptr
        self.indices = indices
        self.rows = np.repeat(np.arange(num_rows, dtype=np.int64), widths)
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.reverse = None
        self._upper = None
        self._csr_index = None

    @property
    def shape(self):
        return self.num_rows, self.num_cols

    @property
    def upper(self):
        """Slots with ``row <= col``, computed once; on a symmetric pattern
        they and their mirrors cover every slot."""
        if self._upper is None:
            self._upper = np.flatnonzero(self.rows <= self.indices)
        return self._upper

    @property
    def csr_index(self):
        """``(indices, indptr)`` in the index dtype that a scipy CSR matrix of
        this pattern stores, computed once. scipy downcasts int64 index
        arrays to int32 when the pattern fits; given int32 arrays, a build
        neither scans nor copies them."""
        if self._csr_index is None:
            dtype = scipy.sparse.get_index_dtype(
                maxval=max(self.num_rows, self.num_cols, self.indices.size))
            self._csr_index = (self.indices.astype(dtype, copy=False),
                               self.indptr.astype(dtype, copy=False))
        return self._csr_index


def _segment_sums(values, indptr):
    """Per-segment sums along axis 0; empty segments give zero rows."""
    n = indptr.size - 1
    out = np.zeros((n,) + values.shape[1:])
    widths = np.diff(indptr)
    nz = widths > 0
    if values.shape[0] and nz.any():
        out[nz] = np.add.reduceat(values, indptr[:-1][nz], axis=0)
    return out


def _reverse(op, pattern):
    if pattern.reverse is None:
        raise ShapeError(f"{op} needs a symmetric pattern")
    return pattern.reverse


def _check_slots(op, x, pattern, width=None):
    if x.shape[0] != pattern.indices.size or width not in (None, x.shape[1]):
        raise ShapeError(f"{op}: {x.shape} for {pattern.indices.size} slots")


def _segment_softmax(flat, pattern):
    """Softmax of a per-slot array over each row's slots."""
    indptr, seg = pattern.indptr, pattern.rows
    seg_max = np.full(pattern.num_rows, -np.inf)
    nz = np.diff(indptr) > 0
    if nz.any():
        seg_max[nz] = np.maximum.reduceat(flat, indptr[:-1][nz])
    e = np.exp(flat - seg_max[seg])
    denom = _segment_sums(e, indptr)
    return e / denom[seg]


def segment_mean(x, pattern):
    """Mean of a (slots, k) tensor over each row's slots; empty rows give zeros."""
    x = _as_tensor(x)
    _check_slots("segment_mean", x, pattern)
    safe = np.maximum(np.diff(pattern.indptr).astype(np.float64), 1.0)
    sums = _segment_sums(x.values, pattern.indptr)
    out = _make("segment_mean", sums / safe[:, None], x)
    if _recording(out):
        seg, inv = pattern.rows, 1.0 / safe
        _record(out, (x,), lambda g: ((g * inv[:, None])[seg],))
    return out


def _csr(data, pattern):
    indices, indptr = pattern.csr_index
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=pattern.shape)


def _csr_rows(data, pattern, lo, hi, order=None):
    """Rows ``lo:hi`` of ``_csr(data if order is None else data[order],
    pattern)``, built from those rows' slots alone."""
    indices, indptr = pattern.csr_index
    s0, s1 = indptr[lo], indptr[hi]
    values = data[s0:s1] if order is None else data[order[s0:s1]]
    return scipy.sparse.csr_matrix((values, indices[s0:s1], indptr[lo:hi + 1] - s0),
                                   shape=(hi - lo, pattern.num_cols))


def _sampled_dot(a, b, rows, cols):
    """``a[rows[s]] · b[cols[s]]`` per slot, gathering one chunk at a time."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    out = np.empty(rows.size)
    chunk = max(1, _CHUNK_BYTES // (8 * max(a.shape[1], 1)))
    for start in range(0, rows.size, chunk):
        stop = start + chunk
        out[start:stop] = np.einsum("ij,ij->i", np.take(a, rows[start:stop], axis=0),
                                    np.take(b, cols[start:stop], axis=0))
    return out


def _mirror(values, pattern):
    """Per-slot array from values on ``pattern.upper``, copied to each mirror."""
    upper = pattern.upper
    out = np.empty(pattern.indices.size)
    out[upper] = values
    out[pattern.reverse[upper]] = values
    return out


def _self_dot(x, pattern):
    """``x[row(s)] · x[indices[s]]`` per slot; a symmetric pattern computes
    only its ``row <= col`` slots (``a·b`` equals ``b·a`` bitwise)."""
    if pattern.reverse is None:
        return _sampled_dot(x, x, pattern.rows, pattern.indices)
    upper = pattern.upper
    return _mirror(_sampled_dot(x, x, pattern.rows[upper], pattern.indices[upper]),
                   pattern)


def _relu_product(xv, Uv):
    z = xv @ Uv.T
    np.maximum(z, 0.0, out=z)
    return z


def attention(x, U, pattern):
    """A layer's attention on a symmetric pattern: ``(pre, weights)``, one tape record.

    With ``z = relu(x @ U.T)``, slot ``s`` scores ``z[row(s)] · z[indices[s]]``
    (an SDDMM over the ``row <= col`` slots), and ``pre`` is the softmax of
    the scores over each row's slots, so a row without slots has no output.
    ``weights`` is ``min(pre[s], pre[reverse[s]])``: exactly symmetric, not
    renormalized, and the record's output. Both are (slots, 1); ``pre`` is
    frozen and read-only, for inspection, and carries no gradient.
    The record keeps ``x``, ``U`` and ``pre``, not ``z``. Backward gives each
    weight's gradient to the smaller of its two slots, 0.5 each on a tie,
    recomputes ``z``, bitwise the forward's, then runs the softmax's
    backward, one SpMM into ``z``'s gradient, the relu mask ``z > 0`` (zero
    derivative at exactly 0) and the two products of the projection.
    """
    x, U = _as_tensor(x), _as_tensor(U)
    rev = _reverse("attention", pattern)
    n = x.shape[0]
    if pattern.shape != (n, n) or U.shape[1] != x.shape[1]:
        raise ShapeError(f"attention: {x.shape} over {pattern.shape} through {U.shape}")
    xv, Uv = x.values, U.values
    z = _relu_product(xv, Uv)
    scores = _self_dot(z, pattern)
    p = _segment_softmax(scores, pattern)
    p.flags.writeable = False
    pre = Tensor._wrap(p.reshape(-1, 1), False)
    # p lies in [0, 1] or is NaN, which the min keeps: one scan checks both
    out = _make("attention", np.minimum(p, p[rev]).reshape(-1, 1), x, U)
    if not _recording(out):
        return pre, out
    indptr, seg = pattern.indptr, pattern.rows
    train_x, train_U = x.requires_grad, U.requires_grad

    def bwd(g):
        mirrored = p[rev]
        # the share of each weight's gradient that its own slot takes
        own = np.where(p < mirrored, 1.0, np.where(p == mirrored, 0.5, 0.0))
        del mirrored
        # the softmax's gradient, built in g: no per-slot array joins it
        gp = g[:, 0]
        to_mirror = (gp * (1.0 - own))[rev]
        gp *= own
        gp += to_mirror
        del own, to_mirror
        inner = _segment_sums(p * gp, indptr)
        g_scores = p * (gp - inner[seg])
        z = _relu_product(xv, Uv)
        # M_g @ z + M_g.T @ z is one SpMM of g + g[reverse]
        gz = _csr(g_scores + g_scores[rev], pattern) @ z
        gz *= z > 0
        del z
        return (gz @ Uv if train_x else None, gz.T @ xv if train_U else None)

    _record(out, (x, U), bwd)
    return pre, out


def aggregate(w, x, W, b, pattern):
    """One message-passing layer, ``relu([M_w @ x | x] @ W.T + b)``; one tape record.

    ``M_w[row(s), indices[s]] = w[s]`` on a symmetric pattern: ``w`` is
    (slots, 1), ``x`` has one row per node (a row without slots aggregates
    zero), ``W`` is (out, 2 * width) and ``b`` is (1, out). ``W``'s left
    column block meets the message ``M_w @ x`` and its right block ``x``.
    The output starts as ``x @ W_x.T``, and the message's product is added
    one row block of :func:`_row_blocks` at a time, so the (nodes, width)
    message exists only when ``W`` trains, since its gradient reads the
    message whole.
    Backward adds ``M_w.T``'s share of ``x``'s gradient in the same row
    blocks, after the dense share, as the unfused ops accumulated them.
    """
    w, x, W, b = (_as_tensor(t) for t in (w, x, W, b))
    rev = _reverse("aggregate", pattern)
    _check_slots("aggregate", w, pattern, width=1)
    n, k = x.shape
    if pattern.shape != (n, n) or W.shape[1] != 2 * k or b.shape != (1, W.shape[0]):
        raise ShapeError(f"aggregate: {x.shape} over {pattern.shape} through {W.shape}"
                         f" + {b.shape}")
    xv, wv = x.values, w.values[:, 0]
    W_m, W_x = W.values[:, :k], W.values[:, k:]
    message = _csr(wv, pattern) @ xv if _ACTIVE_TAPES and W.requires_grad else None
    vals = xv @ W_x.T
    blocks = _row_blocks(n, k)
    buf = np.empty((max(hi - lo for lo, hi in blocks), W.shape[0]))
    for lo, hi in blocks:
        block = _csr_rows(wv, pattern, lo, hi) @ xv if message is None else message[lo:hi]
        vals[lo:hi] += np.matmul(block, W_m.T, out=buf[:hi - lo])
    vals += b.values
    np.maximum(vals, 0.0, out=vals)
    out = _make("aggregate", vals, w, x, W, b)
    if not _recording(out):
        return out
    # Of the output only the relu mask is read; each other array only by the
    # gradients named beside it.
    mask = vals > 0
    train_w, train_x, train_b = w.requires_grad, x.requires_grad, b.requires_grad
    seen = xv if train_w or message is not None else None  # w's, W's
    weights = wv if train_x else None  # x's

    def bwd(g):
        g *= mask
        g_msg = g @ W_m if train_w or train_x else None
        gx = None
        if train_x:  # g and g_msg are still held, so no whole SpMM result joins them
            gx = g @ W_x
            for lo, hi in blocks:
                gx[lo:hi] += _csr_rows(weights, pattern, lo, hi, rev) @ g_msg
        gw = (_sampled_dot(g_msg, seen, pattern.rows, pattern.indices).reshape(-1, 1)
              if train_w else None)
        gW = None if message is None else np.hstack([g.T @ message, g.T @ seen])
        return gw, gx, gW, g.sum(axis=0, keepdims=True) if train_b else None

    _record(out, (w, x, W, b), bwd)
    return out


def pair_cosine(x, pattern):
    """Cosine of ``x[row(s)]`` and ``x[indices[s]]`` per slot, shape (slots, 1).

    The pattern is square, with one row of ``x`` per node, but need not be
    symmetric. The denominator is max(|x_r| * |x_c|, 1e-12); a pair under
    the guard gets value dot / 1e-12 (below 1 in magnitude) and exactly zero
    gradient, so an all-zero row gets exactly zero gradient. The record
    keeps the input, its squared norms and norms and the output; backward
    recomputes the denominators.
    """
    x = _as_tensor(x)
    n = x.shape[0]
    if pattern.shape != (n, n):
        raise ShapeError(f"pair_cosine: {x.shape} over {pattern.shape}")
    rows, indices, rev = pattern.rows, pattern.indices, pattern.reverse
    xv = x.values
    sq = (xv * xv).sum(axis=1)
    norms = np.sqrt(sq)
    prod = norms[rows] * norms[indices]
    denom = np.maximum(prod, COSINE_EPS)
    c = _self_dot(xv, pattern) / denom
    out = _make("pair_cosine", c.reshape(-1, 1), x)

    def bwd(g):
        # d c_s / d x_r = x_c / denom_s - c_s x_r / |x_r|^2, and symmetrically
        # for x_c: SpMMs carry the first terms, bincounts the second. Slots
        # under the guard get zero; each per-slot array is built in place, so
        # at most two exist at once beside g.
        q = norms[rows] * norms[indices]
        dead = q < COSINE_EPS
        np.maximum(q, COSINE_EPS, out=q)
        np.divide(g[:, 0], q, out=q)
        q[dead] = 0.0
        if rev is not None:
            q += q[rev]
        m = _csr(q, pattern)
        pulled = m @ xv
        if rev is None:
            pulled += m.T @ xv
        del q, m
        t = g[:, 0] * c
        t[dead] = 0.0
        if rev is None:
            self_w = (np.bincount(rows, weights=t, minlength=n)
                      + np.bincount(indices, weights=t, minlength=n))
        else:
            t += t[rev]
            self_w = np.bincount(rows, weights=t, minlength=n)
        # a row whose |x|^2 is subnormal (|x| < 1.5e-154) is under the guard
        # in every slot unless a neighbour's norm passes 6e141, so it has no
        # self term; the inverse of its |x|^2 would overflow, and inf * 0 is NaN
        scale = self_w * np.divide(1.0, sq, out=np.zeros(n), where=sq >= _NORMAL_MIN)
        # in row blocks of _CHUNK_BYTES: the returned array is backward's only
        # (n, width) temporary
        step = max(1, _CHUNK_BYTES // (8 * max(xv.shape[1], 1)))
        for lo in range(0, n, step):
            block = slice(lo, lo + step)
            pulled[block] -= xv[block] * scale[block, None]
        return (pulled,)

    if _recording(out):
        _record(out, (x,), bwd)
    return out


# ---------------------------------------------------------------------------
# Losses / regularization primitives


def binary_cross_entropy(probs, labels):
    """Mean binary cross-entropy of probabilities against 0/1 labels.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs; the
    gradient uses the clamped value and passes straight through the clamp.
    """
    probs = _as_tensor(probs)
    if probs.shape[1] != 1:
        raise ShapeError("binary_cross_entropy expects a column of probabilities")
    y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    if y.shape != probs.shape:
        raise ShapeError("binary_cross_entropy: labels do not match probabilities")
    n = probs.shape[0]
    if n == 0:
        raise ShapeError("binary_cross_entropy of an empty batch")
    p = np.clip(probs.values, 1e-7, 1.0 - 1e-7)
    loss = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean()
    out = _make("binary_cross_entropy", np.array([[loss]]), probs)
    if _recording(out):
        _record(out, (probs,), lambda g: (g[0, 0] * (p - y) / (p * (1.0 - p)) / n,))
    return out


def dropout(x, rate, rng, training):
    """Inverted dropout: zero entries with probability ``rate``, scale the rest.

    Identity when ``training`` is false or ``rate`` is 0 (returns ``x``
    itself). The mask comes from ``rng``, so it is deterministic per seed.
    """
    x = _as_tensor(x)
    if not (0.0 <= rate < 1.0):
        raise ShapeError("dropout rate must lie in [0, 1)")
    if not training or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out = _make("dropout", x.values * keep * scale, x)
    if _recording(out):
        _record(out, (x,), lambda g: (g * keep * scale,))
    return out


# ---------------------------------------------------------------------------
# Adam


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second-moment buffers for a fixed, ordered parameter list."""

    def __init__(self, params, lr=0.001):
        self.lr = float(lr)
        self.step_count = 0
        self.m = [np.zeros_like(p.values) for p in params]
        self.v = [np.zeros_like(p.values) for p in params]


def adam_step(params, grads, state):
    """One Adam update with bias correction; mutates params in place.

    ``grads`` is the :class:`Gradients` map of a backward pass. Returns
    (params, state).
    """
    if len(state.m) != len(params):
        raise ShapeError("adam_step: state does not match the parameter list")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for i, p in enumerate(params):
        g = grads[p]
        if g.shape != p.values.shape:
            raise ShapeError("adam_step: gradient shape mismatch")
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.values -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if not np.all(np.isfinite(p.values)):
            raise NumericalError("adam_step produced non-finite parameters")
    return params, state


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass
class GradCheckReport:
    max_rel_error: float
    max_abs_error: float
    tol: float
    passed: bool


def grad_check(f, point, step=1e-5, tol=1e-4):
    """Compare tape gradients of ``f`` at ``point`` against central differences.

    ``f`` must map the given tensor to a scalar tensor, deterministically
    (re-create any rng it uses on every call). The relative error is the max
    coordinate-wise |analytic - numeric| divided by
    max(|analytic|_inf, |numeric|_inf, 1e-8).
    """
    if not isinstance(point, Tensor) or not point.requires_grad:
        raise ValueError("grad_check needs a requires_grad tensor")
    with Tape() as tape:
        y = f(point)
    if y.shape != (1, 1):
        raise ShapeError("grad_check target must return a scalar")
    analytic = tape.backward(y)[point]

    base = point.values
    numeric = np.zeros_like(base)
    for ij in np.ndindex(base.shape):
        orig = base[ij]
        base[ij] = orig + step
        fp = f(point).item()
        base[ij] = orig - step
        fm = f(point).item()
        base[ij] = orig
        numeric[ij] = (fp - fm) / (2.0 * step)

    abs_err = np.abs(analytic - numeric)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    max_abs = float(abs_err.max(initial=0.0))
    max_rel = max_abs / scale
    return GradCheckReport(max_rel_error=max_rel, max_abs_error=max_abs,
                           tol=float(tol), passed=max_rel <= tol)
