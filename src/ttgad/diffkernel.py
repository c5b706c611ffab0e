"""Minimal reverse-mode autodiff over dense 2-D float64 arrays.

Everything is a :class:`Tensor` wrapping a 2-D numpy array. Ops executed
while a :class:`Tape` is active are recorded when an input requires a
gradient, so ops on frozen (``requires_grad=False``) tensors alone never
reach the tape. ``Tape.backward(loss)`` replays the records in exact reverse
execution order, accumulates gradients additively, and releases each record
and each intermediate gradient once it has been passed on; the returned
:class:`Gradients` holds leaf tensors only. With no active tape, ops are
plain numpy and scipy computations (eval mode).

Message passing runs on ops over a :class:`Pattern`: a CSR pattern whose
slot ``s`` of row ``r`` (``indptr[r] <= s < indptr[r + 1]``) pairs row ``r``
with column ``indices[s]``. Its owner validates it once; the ops check only
shapes against it. :func:`pair_dot` is an SDDMM of a tensor with itself,
:func:`spmm` an SpMM, :func:`pair_cosine` the per-slot cosine,
:func:`segment_softmax` and :func:`segment_mean` reduce over each row's
slots, and :func:`reverse_min` takes the min of each slot and its mirror.
The backward passes of the first three are SpMMs with
``scipy.sparse.csr_matrix`` plus per-row scalars, so a pattern op keeps only
per-slot scalars and per-node rows alive on the tape; per-slot rows exist
only in bounded chunks inside one call.

:func:`pair_dot`, :func:`spmm` and :func:`reverse_min` need a symmetric
pattern, one whose owner set ``reverse``, and refuse any other; only
:func:`pair_cosine` also runs on a non-symmetric one, on the CSC view. On a
symmetric pattern the SDDMMs compute only the slots with ``row <= col`` and
copy each value to its mirror, and ``M.T`` is ``csr(data[reverse])`` on the
same pattern, so every backward runs CSR SpMMs only, one per SDDMM.
Backward computes no gradient for an operand with ``requires_grad=False``.

Design constraints honored throughout:

- all math in float64; every op validates that its output is finite;
- relu has zero derivative at exactly 0;
- a dense layer is one :func:`linear` record, whose bias is the only
  broadcast; :func:`add` and :func:`elementwise_mul` take equal shapes;
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
    "matmul", "linear", "add", "relu", "sigmoid", "elementwise_mul",
    "scalar_mul", "sum", "masked_row_softmax",
    "Pattern", "segment_softmax", "segment_mean", "reverse_min",
    "pair_dot", "spmm", "pair_cosine",
    "binary_cross_entropy", "dropout",
    "AdamState", "adam_step", "GradCheckReport", "grad_check",
]

COSINE_EPS = 1e-12

_ACTIVE_TAPES = []


class Tensor:
    """2-D float64 array with a requires_grad flag.

    Scalars are stored as shape (1, 1); 1-D input becomes a row vector.
    The public constructor copies its input; internal ops wrap freshly
    allocated arrays without copying.
    """

    __slots__ = ("values", "requires_grad")

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

    @classmethod
    def _wrap(cls, arr, requires_grad):
        t = cls.__new__(cls)
        t.values = arr
        t.requires_grad = requires_grad
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
    """Gradients of the leaf tensors a backward pass reached.

    Unknown tensors, intermediates and frozen tensors read as zeros.
    """

    def __init__(self, store):
        self._store = store

    def __getitem__(self, tensor):
        entry = self._store.get(id(tensor))
        if entry is None:
            return np.zeros_like(tensor.values)
        return entry[1]

    def __contains__(self, tensor):
        return id(tensor) in self._store


class Tape:
    """Ordered record of executed ops for one forward pass; backward consumes it."""

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
        store = {id(loss): (loss, np.ones((1, 1)))}
        entries = self._entries
        while entries:
            out, bwd = entries.pop()
            entry = store.pop(id(out), None)
            if entry is None:
                continue
            for tensor, grad in bwd(entry[1]):
                if grad is None or not tensor.requires_grad:
                    continue
                acc = store.get(id(tensor))
                if acc is None:
                    store[id(tensor)] = (tensor, grad)
                else:
                    store[id(tensor)] = (tensor, acc[1] + grad)
        return Gradients(store)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(op, arr, *inputs):
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{op} produced non-finite values")
    rg = any(t.requires_grad for t in inputs)
    return Tensor._wrap(arr, rg)


def _emit(out, bwd):
    if _ACTIVE_TAPES and out.requires_grad:
        _ACTIVE_TAPES[-1]._entries.append((out, bwd))


# ---------------------------------------------------------------------------
# Dense ops


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    out = _make("matmul", a.values @ b.values, a, b)
    av, bv = a.values, b.values
    _emit(out, lambda g: ((a, g @ bv.T if a.requires_grad else None),
                          (b, av.T @ g if b.requires_grad else None)))
    return out


def linear(inputs, W, b=None, relu=False):
    """``sum_i inputs[i] @ W[:, block_i].T + b``, then relu if asked; one tape record.

    ``W``'s column blocks meet ``inputs`` in order, so ``linear([m, h], W)``
    is ``[m | h] @ W.T`` without the copy; ``b`` is (1, out). The relu mask
    is ``out > 0``, so the derivative at exactly 0 is 0.
    """
    xs, W = [_as_tensor(x) for x in inputs], _as_tensor(W)
    bias = [] if b is None else [_as_tensor(b)]
    edges = np.cumsum([0] + [x.shape[1] for x in xs])
    if (len({x.shape[0] for x in xs}) != 1 or edges[-1] != W.shape[1]
            or any(t.shape != (1, W.shape[0]) for t in bias)):
        raise ShapeError(f"linear: {[x.shape for x in xs]} through {W.shape}"
                         f" + {[t.shape for t in bias]}")
    blocks = [W.values[:, lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]
    vals = xs[0].values @ blocks[0].T
    for x, block in zip(xs[1:], blocks[1:]):
        vals += x.values @ block.T
    for t in bias:
        vals += t.values
    if relu:
        np.maximum(vals, 0.0, out=vals)
    out = _make("linear", vals, *xs, W, *bias)

    def bwd(g):
        if relu:
            g = g * (vals > 0)
        grads = [(x, g @ block if x.requires_grad else None) for x, block in zip(xs, blocks)]
        grads.append((W, np.hstack([g.T @ x.values for x in xs]) if W.requires_grad else None))
        return grads + [(t, g.sum(axis=0, keepdims=True) if t.requires_grad else None)
                        for t in bias]

    _emit(out, bwd)
    return out


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} + {b.shape}")
    out = _make("add", a.values + b.values, a, b)
    _emit(out, lambda g: ((a, g if a.requires_grad else None),
                          (b, g if b.requires_grad else None)))
    return out


def elementwise_mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"elementwise_mul: {a.shape} * {b.shape}")
    av, bv = a.values, b.values
    out = _make("elementwise_mul", av * bv, a, b)
    _emit(out, lambda g: ((a, g * bv if a.requires_grad else None),
                          (b, g * av if b.requires_grad else None)))
    return out


def scalar_mul(x, c):
    x = _as_tensor(x)
    c = float(c)
    out = _make("scalar_mul", x.values * c, x)
    _emit(out, lambda g: ((x, g * c),))
    return out


def relu(x):
    x = _as_tensor(x)
    out = _make("relu", np.maximum(x.values, 0.0), x)
    mask = x.values > 0  # derivative at exactly 0 is 0
    _emit(out, lambda g: ((x, g * mask),))
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
    _emit(out, lambda g: ((x, g * s * (1.0 - s)),))
    return out


def sum(x):
    """Sum of all entries, as a (1, 1) tensor."""
    x = _as_tensor(x)
    out = _make("sum", np.array([[x.values.sum()]]), x)
    shape = x.shape
    _emit(out, lambda g: ((x, np.full(shape, g[0, 0])),))
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
    v = scores.values
    p = np.zeros_like(v)
    rows_with = allowed.any(axis=1)
    if rows_with.any():
        masked_vals = np.where(allowed, v, -np.inf)
        row_max = masked_vals[rows_with].max(axis=1, keepdims=True)
        sub = np.where(allowed[rows_with], masked_vals[rows_with] - row_max, -np.inf)
        e = np.where(allowed[rows_with], np.exp(np.where(allowed[rows_with], sub, 0.0)), 0.0)
        p[rows_with] = e / e.sum(axis=1, keepdims=True)
    out = _make("masked_row_softmax", p, scores)

    def bwd(g):
        inner = (p * g).sum(axis=1, keepdims=True)
        return ((scores, p * (g - inner)),)

    _emit(out, bwd)
    return out


# ---------------------------------------------------------------------------
# Sparse pattern ops over a CSR Pattern: segment reductions, the reverse-slot
# min, SDDMM, SpMM and pair cosine


class Pattern:
    """A CSR pattern, validated once; ``rows[s]`` is the row of slot ``s``.

    ``reverse`` maps slot (r, c) to slot (c, r); it stays None unless the
    owner proves the pattern symmetric and sets it. int64 arrays are kept
    as given, not copied, and must not be mutated.
    """

    __slots__ = ("indptr", "indices", "rows", "num_rows", "num_cols", "reverse",
                 "_upper")

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


def segment_softmax(x, pattern):
    """Softmax of a (slots, 1) tensor over each row's slots."""
    x = _as_tensor(x)
    _check_slots("segment_softmax", x, pattern, width=1)
    indptr, seg = pattern.indptr, pattern.rows
    flat = x.values[:, 0]
    seg_max = np.full(pattern.num_rows, -np.inf)
    nz = np.diff(indptr) > 0
    if flat.size and nz.any():
        seg_max[nz] = np.maximum.reduceat(flat, indptr[:-1][nz])
    e = np.exp(flat - seg_max[seg]) if flat.size else flat.copy()
    denom = _segment_sums(e, indptr)
    p = (e / denom[seg]) if flat.size else e
    out = _make("segment_softmax", p.reshape(-1, 1), x)

    def bwd(g):
        gp = g[:, 0]
        inner = _segment_sums(p * gp, indptr)
        return ((x, (p * (gp - inner[seg])).reshape(-1, 1)),)

    _emit(out, bwd)
    return out


def segment_mean(x, pattern):
    """Mean of a (slots, k) tensor over each row's slots; empty rows give zeros."""
    x = _as_tensor(x)
    _check_slots("segment_mean", x, pattern)
    safe = np.maximum(np.diff(pattern.indptr).astype(np.float64), 1.0)
    sums = _segment_sums(x.values, pattern.indptr)
    out = _make("segment_mean", sums / safe[:, None], x)
    seg, inv = pattern.rows, 1.0 / safe
    _emit(out, lambda g: ((x, g[seg] * inv[seg][:, None]),))
    return out


def reverse_min(x, pattern):
    """``min(x[s], x[reverse[s]])`` per slot of a symmetric pattern.

    The gradient of each output goes to the smaller of its two slots, split
    0.5 each on a tie, so the result is exactly symmetric.
    """
    x = _as_tensor(x)
    rev = _reverse("reverse_min", pattern)
    _check_slots("reverse_min", x, pattern)
    xv = x.values
    mirrored = xv[rev]
    out = _make("reverse_min", np.minimum(xv, mirrored), x)

    def bwd(g):
        wa = np.where(xv < mirrored, 1.0, np.where(xv == mirrored, 0.5, 0.0))
        return ((x, g * wa + (g * (1.0 - wa))[rev]),)

    _emit(out, bwd)
    return out


# Bytes of one gathered block in _sampled_dot; blocks that stay in cache run
# several times faster than whole (slots x width) gathers.
_CHUNK_BYTES = 1 << 18


def _csr(data, pattern):
    return scipy.sparse.csr_matrix((data, pattern.indices, pattern.indptr),
                                   shape=pattern.shape)


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


def pair_dot(x, pattern):
    """SDDMM: ``out[s] = x[row(s)] · x[indices[s]]`` on a symmetric pattern,
    shape (slots, 1); only the ``row <= col`` slots are computed."""
    x = _as_tensor(x)
    rev = _reverse("pair_dot", pattern)
    n = x.shape[0]
    if pattern.shape != (n, n):
        raise ShapeError(f"pair_dot: {x.shape} over {pattern.shape}")
    xv = x.values
    out = _make("pair_dot", _self_dot(xv, pattern).reshape(-1, 1), x)
    # M_g @ x + M_g.T @ x is one SpMM of g + g[reverse]
    _emit(out, lambda g: ((x, _csr(g[:, 0] + g[rev, 0], pattern) @ xv),))
    return out


def spmm(w, x, pattern):
    """SpMM: ``out = M_w @ x``, where ``M_w[row(s), indices[s]] = w[s]``.

    ``w`` is (slots, 1) and ``x`` has one row per node of the symmetric
    pattern; a row without slots is zero.
    """
    w, x = _as_tensor(w), _as_tensor(x)
    rev = _reverse("spmm", pattern)
    _check_slots("spmm", w, pattern, width=1)
    if x.shape[0] != pattern.num_cols:
        raise ShapeError(f"spmm: input {x.shape} over {pattern.shape}")
    xv, wv = x.values, w.values[:, 0]
    out = _make("spmm", _csr(wv, pattern) @ xv, w, x)

    def bwd(g):
        g = np.ascontiguousarray(g)
        gw = (_sampled_dot(g, xv, pattern.rows, pattern.indices).reshape(-1, 1)
              if w.requires_grad else None)
        gx = _csr(wv[rev], pattern) @ g if x.requires_grad else None
        return ((w, gw), (x, gx))

    _emit(out, bwd)
    return out


def pair_cosine(x, pattern):
    """Cosine of ``x[row(s)]`` and ``x[indices[s]]`` per slot, shape (slots, 1).

    The pattern is square, with one row of ``x`` per node, but need not be
    symmetric. The denominator is max(|x_r| * |x_c|, 1e-12); a pair under
    the guard gets value dot / 1e-12 (below 1 in magnitude) and exactly zero
    gradient, so an all-zero row gets exactly zero gradient.
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
    live = prod >= COSINE_EPS
    denom = np.maximum(prod, COSINE_EPS)
    c = _self_dot(xv, pattern) / denom
    out = _make("pair_cosine", c.reshape(-1, 1), x)

    def bwd(g):
        # d c_s / d x_r = x_c / denom_s - c_s x_r / |x_r|^2, and symmetrically
        # for x_c: SpMMs carry the first terms, bincounts the second.
        q = np.where(live, g[:, 0] / denom, 0.0)
        t = np.where(live, g[:, 0] * c, 0.0)
        if rev is None:
            m = _csr(q, pattern)
            pulled = m @ xv + m.T @ xv
            self_w = (np.bincount(rows, weights=t, minlength=n)
                      + np.bincount(indices, weights=t, minlength=n))
        else:
            pulled = _csr(q + q[rev], pattern) @ xv
            self_w = np.bincount(rows, weights=t + t[rev], minlength=n)
        inv_sq = np.divide(1.0, sq, out=np.zeros(n), where=sq > 0)
        return ((x, pulled - xv * (self_w * inv_sq)[:, None]),)

    _emit(out, bwd)
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
    _emit(out, lambda g: ((probs, g[0, 0] * (p - y) / (p * (1.0 - p)) / n),))
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
    _emit(out, lambda g: ((x, g * keep * scale),))
    return out


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    """First/second-moment buffers for a fixed, ordered parameter list."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = [np.zeros_like(p.values) for p in params]
        self.v = [np.zeros_like(p.values) for p in params]


def adam_step(params, grads, state):
    """One Adam update with bias correction; mutates params in place.

    ``grads`` is either a :class:`Gradients` map or a sequence aligned with
    ``params``. Returns (params, state).
    """
    if len(state.m) != len(params):
        raise ShapeError("adam_step: state does not match the parameter list")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for i, p in enumerate(params):
        g = grads[p] if isinstance(grads, Gradients) else grads[i]
        if g.shape != p.values.shape:
            raise ShapeError("adam_step: gradient shape mismatch")
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.values -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
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
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        ij = it.multi_index
        orig = base[ij]
        base[ij] = orig + step
        fp = f(point).item()
        base[ij] = orig - step
        fm = f(point).item()
        base[ij] = orig
        numeric[ij] = (fp - fm) / (2.0 * step)
        it.iternext()

    abs_err = np.abs(analytic - numeric)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    max_abs = float(abs_err.max(initial=0.0))
    max_rel = max_abs / scale
    return GradCheckReport(max_rel_error=max_rel, max_abs_error=max_abs,
                           tol=float(tol), passed=max_rel <= tol)
