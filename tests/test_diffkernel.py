"""Numeric kernel tests.

Reference implementations live at the top of the file; expected values in
the worked-example tests were computed with them (or by hand) and frozen.
"""

import gc
import itertools
import math
import weakref

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from ttgad import diffkernel as dk
from ttgad.errors import NumericalError, ShapeError


# ---------------------------------------------------------------------------
# Reference implementations (plain numpy, no tape)


def ref_softmax(row):
    row = np.asarray(row, dtype=np.float64)
    e = np.exp(row - row.max())
    return e / e.sum()


def ref_bce(probs, labels):
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-7, 1 - 1e-7)
    y = np.asarray(labels, dtype=np.float64)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def ref_adam(param, grad_sequence, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Literal Adam recurrence with bias correction, one tensor."""
    p = np.array(param, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grad_sequence, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def ref_masked_row_softmax(v, mask, g):
    """The earlier per-row-subset masked softmax, and its backward for upstream g."""
    allowed = mask != 0
    p = np.zeros_like(v)
    rows_with = allowed.any(axis=1)
    if rows_with.any():
        masked_vals = np.where(allowed, v, -np.inf)
        row_max = masked_vals[rows_with].max(axis=1, keepdims=True)
        sub = np.where(allowed[rows_with], masked_vals[rows_with] - row_max, -np.inf)
        e = np.where(allowed[rows_with], np.exp(np.where(allowed[rows_with], sub, 0.0)), 0.0)
        p[rows_with] = e / e.sum(axis=1, keepdims=True)
    inner = (p * g).sum(axis=1, keepdims=True)
    return p, p * (g - inner)


def ref_pattern_rows(indptr):
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def ref_pair_dot(a, b, indptr, indices, g):
    """Gather -> rowwise dot, and its scatter-add backward for upstream g."""
    rows = ref_pattern_rows(indptr)
    a_src, b_dst = a[rows], b[indices]
    out = (a_src * b_dst).sum(axis=1)
    ga, gb = np.zeros_like(a), np.zeros_like(b)
    np.add.at(ga, rows, g[:, None] * b_dst)
    np.add.at(gb, indices, g[:, None] * a_src)
    return out, ga, gb


def ref_attention(x, U, indptr, indices, g):
    """Relu projection -> gather-scatter SDDMM -> per-row softmax, and the
    backward of that chain for upstream g: (out, grad of x, grad of U)."""
    z = np.maximum(x @ U.T, 0.0)
    scores, _, _ = ref_pair_dot(z, z, indptr, indices, np.zeros(indices.size))
    p, g_scores = np.zeros(indices.size), np.zeros(indices.size)
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        if hi > lo:
            p[lo:hi] = ref_softmax(scores[lo:hi])
            g_scores[lo:hi] = p[lo:hi] * (g[lo:hi] - (p[lo:hi] * g[lo:hi]).sum())
    _, ga, gb = ref_pair_dot(z, z, indptr, indices, g_scores)
    gz = (ga + gb) * (z > 0)
    return p, gz @ U, gz.T @ x


def ref_min_shares(p, reverse, g):
    """``min(p, p[reverse])`` per slot, and its backward for upstream g: each
    weight's gradient goes to the smaller of its two slots, half each on a
    tie, slot by slot."""
    gp = np.zeros_like(p)
    for s, r in enumerate(reverse):
        own = 1.0 if p[s] < p[r] else 0.5 if p[s] == p[r] else 0.0
        gp[s] += own * g[s]
        gp[r] += (1.0 - own) * g[s]
    return np.minimum(p, p[reverse]), gp


def ref_symmetric_attention(x, U, pattern, g):
    """:func:`ref_attention` followed by the min with the mirror slot:
    (softmax, weights, grad of x, grad of U) for upstream g on the weights."""
    indptr, indices = pattern.indptr, pattern.indices
    p, _, _ = ref_attention(x, U, indptr, indices, np.zeros(indices.size))
    weights, gp = ref_min_shares(p, pattern.reverse, g)
    _, gx, gU = ref_attention(x, U, indptr, indices, gp)
    return p, weights, gx, gU


def ref_pair_dot_op(x, pattern):
    """The SDDMM tape op of attention before :func:`dk.attention`:
    ``x[row(s)] · x[indices[s]]`` on a symmetric pattern, one record."""
    xv = x.values
    out = dk._make("pair_dot", dk._self_dot(xv, pattern).reshape(-1, 1), x)
    if dk._recording(out):
        rev = pattern.reverse
        dk._record(out, (x,), lambda g: (dk._csr(g[:, 0] + g[rev, 0], pattern) @ xv,))
    return out


def ref_segment_softmax_op(x, pattern):
    """The per-row softmax tape op of attention before :func:`dk.attention`."""
    indptr, seg = pattern.indptr, pattern.rows
    flat = x.values[:, 0]
    seg_max = np.full(pattern.num_rows, -np.inf)
    nz = np.diff(indptr) > 0
    if flat.size and nz.any():
        seg_max[nz] = np.maximum.reduceat(flat, indptr[:-1][nz])
    e = np.exp(flat - seg_max[seg]) if flat.size else flat.copy()
    denom = dk._segment_sums(e, indptr)
    p = (e / denom[seg]) if flat.size else e
    out = dk._make("segment_softmax", p.reshape(-1, 1), x)
    if dk._recording(out):
        def bwd(g):
            gp = g[:, 0]
            inner = dk._segment_sums(p * gp, indptr)
            return ((p * (gp - inner[seg])).reshape(-1, 1),)

        dk._record(out, (x,), bwd)
    return out


def ref_reverse_min_op(x, pattern):
    """The min of each slot and its mirror, the tape op that symmetrized
    attention before :func:`dk.attention` did, one record."""
    xv, rev = x.values, pattern.reverse
    out = dk._make("reverse_min", np.minimum(xv, xv[rev]), x)
    if dk._recording(out):
        def bwd(g):
            mirrored = xv[rev]
            wa = np.where(xv < mirrored, 1.0, np.where(xv == mirrored, 0.5, 0.0))
            return (g * wa + (g * (1.0 - wa))[rev],)

        dk._record(out, (x,), bwd)
    return out


def ref_attention_ops(x, U, pattern):
    """Attention as the four records it ran as before :func:`dk.attention`:
    a relu linear, the SDDMM, the per-row softmax and the reverse-slot min;
    ``(softmax, weights)``."""
    z = dk.linear(x, U, relu=True)
    pre = ref_segment_softmax_op(ref_pair_dot_op(z, pattern), pattern)
    return pre, ref_reverse_min_op(pre, pattern)


def ref_spmm(w, x, indptr, indices, g):
    """Gather -> weight -> segment sum, and its backward for upstream g."""
    rows = ref_pattern_rows(indptr)
    out = np.zeros((len(indptr) - 1, x.shape[1]))
    np.add.at(out, rows, w[:, None] * x[indices])
    gw = (g[rows] * x[indices]).sum(axis=1)
    gx = np.zeros_like(x)
    np.add.at(gx, indices, w[:, None] * g[rows])
    return out, gw, gx


def ref_spmm_op(w, x, pattern):
    """The SpMM tape op that message passing ran before :func:`dk.aggregate`:
    ``M_w @ x`` on a symmetric pattern, one record."""
    out = dk._make("spmm", dk._csr(w.values[:, 0], pattern) @ x.values, w, x)
    if dk._recording(out):
        xv = x.values if w.requires_grad else None
        wv = w.values[:, 0] if x.requires_grad else None

        def bwd(g):
            g = np.ascontiguousarray(g)
            gw = (None if xv is None else
                  dk._sampled_dot(g, xv, pattern.rows, pattern.indices).reshape(-1, 1))
            return gw, None if wv is None else dk._csr(wv[pattern.reverse], pattern) @ g

        dk._record(out, (w, x), bwd)
    return out


def ref_linear2_op(m, h, W, b):
    """The two-input linear tape op of the layer update before
    :func:`dk.aggregate`: ``relu([m | h] @ W.T + b)`` through W's column
    blocks, whole products, one record."""
    blocks = W.values[:, :m.shape[1]], W.values[:, m.shape[1]:]
    vals = m.values @ blocks[0].T
    vals += h.values @ blocks[1].T
    vals += b.values
    np.maximum(vals, 0.0, out=vals)
    out = dk._make("linear", vals, m, h, W, b)
    if dk._recording(out):
        mask = vals > 0

        def bwd(g):
            g *= mask
            grads = [g @ block if t.requires_grad else None for t, block in zip((m, h), blocks)]
            grads.append(np.hstack([g.T @ m.values, g.T @ h.values]) if W.requires_grad else None)
            return grads + [g.sum(axis=0, keepdims=True) if b.requires_grad else None]

        dk._record(out, (m, h, W, b), bwd)
    return out


def spmm_via_aggregate(w, x, pattern, offset=0.0):
    """``M_w @ x + offset`` as a :func:`dk.aggregate` with ``W = [I | 0]``;
    an offset that keeps every output positive makes its relu the identity."""
    k = x.shape[1]
    W = dk.Tensor(np.hstack([np.eye(k), np.zeros((k, k))]))
    return dk.aggregate(w, x, W, dk.Tensor(np.full((1, k), offset)), pattern)


def ref_pair_cosine(x, indptr, indices, g):
    """Gather -> guarded cosine of paired rows, and its backward."""
    rows = ref_pattern_rows(indptr)
    av, bv = x[rows], x[indices]
    dot = (av * bv).sum(axis=1, keepdims=True)
    na = np.sqrt((av * av).sum(axis=1, keepdims=True))
    nb = np.sqrt((bv * bv).sum(axis=1, keepdims=True))
    prod = na * nb
    live = prod >= 1e-12
    denom = np.maximum(prod, 1e-12)
    c = dot / denom
    gs = g[:, None]
    na2 = np.where(live, na * na, 1.0)
    nb2 = np.where(live, nb * nb, 1.0)
    ga = np.where(live, gs * (bv / denom - c * av / na2), 0.0)
    gb = np.where(live, gs * (av / denom - c * bv / nb2), 0.0)
    gx = np.zeros_like(x)
    np.add.at(gx, rows, ga)
    np.add.at(gx, indices, gb)
    return c[:, 0], gx


def mirrored(pattern):
    """``pattern`` with ``reverse`` set from a dense slot-index table."""
    slot = np.full((pattern.num_rows, pattern.num_cols), -1)
    slot[pattern.rows, pattern.indices] = np.arange(pattern.indices.size)
    pattern.reverse = slot[pattern.indices, pattern.rows]
    assert np.all(pattern.reverse >= 0)
    return pattern


def random_pattern(rng, n, symmetric, isolated=2, edge_prob=0.4, self_pairs=False):
    """Pattern on n nodes, with self-pairs only if asked; the first
    ``isolated`` nodes have no slot. A symmetric pattern gets its
    ``reverse``; non-symmetric patterns get shuffled rows."""
    mask = rng.random((n, n)) < edge_prob
    if not self_pairs:
        np.fill_diagonal(mask, False)
    if symmetric:
        mask |= mask.T
    mask[:isolated, :] = False
    mask[:, :isolated] = False
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    indices = np.nonzero(mask)[1]
    if symmetric:
        return mirrored(dk.Pattern(indptr, indices, n, n))
    for r in range(n):
        rng.shuffle(indices[indptr[r]:indptr[r + 1]])
    return dk.Pattern(indptr, indices, n, n)


def sparse_symmetric_pattern(rng, n, mean_degree, isolated):
    """Random symmetric pattern with ``reverse`` on n nodes, self-pairs
    allowed; the first ``isolated`` nodes have no slot. Sparse throughout,
    so n may be large."""
    pairs = rng.integers(isolated, n, size=(n * mean_degree // 2, 2))
    keys = np.unique(np.concatenate([pairs[:, 0] * n + pairs[:, 1],
                                     pairs[:, 1] * n + pairs[:, 0]]))
    rows, cols = keys // n, keys % n
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    pattern = dk.Pattern(indptr, cols, n, n)
    pattern.reverse = np.searchsorted(keys, cols * n + rows)
    return pattern


def numeric_grad(f, point, step=1e-5):
    """Central differences of a scalar function of one tensor."""
    base = point.values
    out = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        ij = it.multi_index
        orig = base[ij]
        base[ij] = orig + step
        fp = f(point).item()
        base[ij] = orig - step
        fm = f(point).item()
        base[ij] = orig
        out[ij] = (fp - fm) / (2 * step)
        it.iternext()
    return out


# ---------------------------------------------------------------------------
# Tensor basics


def test_tensor_shapes():
    assert dk.Tensor(3.0).shape == (1, 1)
    assert dk.Tensor([1.0, 2.0]).shape == (1, 2)
    assert dk.Tensor([[1.0], [2.0]]).shape == (2, 1)
    with pytest.raises(ShapeError):
        dk.Tensor(np.zeros((2, 2, 2)))


def test_item_requires_scalar():
    with pytest.raises(ShapeError):
        dk.Tensor([1.0, 2.0]).item()


def test_constructor_copies():
    arr = np.ones((2, 2))
    t = dk.Tensor(arr)
    arr[0, 0] = 5.0
    assert t.values[0, 0] == 1.0


# ---------------------------------------------------------------------------
# Forward op values


def test_linear_add_against_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    out = dk.linear(dk.Tensor(a), dk.Tensor(b.T))
    np.testing.assert_allclose(out.values, a @ b, rtol=0, atol=0)
    c = rng.standard_normal((3, 2))
    assert np.array_equal(dk.add(out, dk.Tensor(c)).values, a @ b + c)


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("relu", [False, True])
def test_linear_against_numpy(monkeypatch, blocks, bias, relu):
    # at a budget of 1000 rows of width 3, a 5-row float64 input is one
    # block and a float32 input of 2100 rows is upcast in two
    monkeypatch.setattr(dk, "_BLOCK_BYTES", 1000 * 8 * 3)
    rng = np.random.default_rng(blocks)
    x = rng.standard_normal((5, 3)) if blocks == 1 else rng.standard_normal(
        (2100, 3)).astype(np.float32)
    assert len(dk._row_blocks(x.shape[0], 3)) == blocks
    w = rng.standard_normal((4, 3))
    b = rng.standard_normal((1, 4)) if bias else None
    out = dk.linear(dk.Tensor._wrap(x, False), dk.Tensor(w),
                    None if b is None else dk.Tensor(b), relu=relu)
    expected = x.astype(np.float64) @ w.T + (0.0 if b is None else b)
    np.testing.assert_allclose(out.values, np.maximum(expected, 0.0) if relu else expected,
                               rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("block_bytes", [0, dk._BLOCK_BYTES], ids=["floor", "default"])
def test_linear_float32_input_is_bitwise_the_float64_product(monkeypatch, block_bytes):
    # A frozen float32 input is upcast in row blocks, here at row counts no
    # block length divides; with no byte budget each block is one row.
    # Output and W's gradient must match the float64 input's bitwise.
    monkeypatch.setattr(dk, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(0)
    for n, d, p in [(9001, 32, 40), (5003, 128, 6), (4099, 3, 16), (6007, 64, 1), (1, 5, 4)]:
        x32 = rng.standard_normal((n, d)).astype(np.float32)
        w, b = rng.standard_normal((p, d)), rng.standard_normal((1, p))
        results = []
        for x in (x32, x32.astype(np.float64)):
            W = dk.Tensor(w, requires_grad=True)
            with dk.Tape() as tape:
                out = dk.linear(dk.Tensor._wrap(x, False), W, dk.Tensor(b), relu=True)
                loss = dk.sum(out)
            results.append((out.values, tape.backward(loss)[W]))
        (out32, grad32), (out64, grad64) = results
        assert np.array_equal(out32, out64) and np.array_equal(grad32, grad64), (n, d, p)


def test_elementwise_ops_against_numpy():
    x = np.array([[-1.5, 0.0, 2.0]])
    np.testing.assert_allclose(dk.sigmoid(dk.Tensor(x)).values,
                               1 / (1 + np.exp(-x)))
    assert np.array_equal(dk.scalar_mul(dk.Tensor(x), 2.5).values, 2.5 * x)
    y = np.array([[2.0, -1.0, 0.5]])
    assert np.array_equal(
        dk.elementwise_mul(dk.Tensor(x), dk.Tensor(y)).values, x * y)


def test_sum_adds_every_entry():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert dk.sum(dk.Tensor(x)).item() == 10.0


def test_masked_softmax_symmetric_row():
    out = dk.masked_row_softmax(dk.Tensor([[5.0, 5.0]]), np.array([[1, 1]]))
    np.testing.assert_allclose(out.values, [[0.5, 0.5]], atol=1e-15)


def test_masked_softmax_single_allowed_entry():
    out = dk.masked_row_softmax(dk.Tensor([[9.0, 3.0]]), np.array([[0, 1]]))
    assert np.array_equal(out.values, [[0.0, 1.0]])


def test_masked_softmax_two_logit_row():
    # softmax([1, 0]) = [e/(e+1), 1/(e+1)]
    e = math.e
    out = dk.masked_row_softmax(dk.Tensor([[1.0, 0.0]]), np.array([[1, 1]]))
    np.testing.assert_allclose(out.values, [[e / (e + 1), 1 / (e + 1)]],
                               rtol=1e-15)
    np.testing.assert_allclose(out.values[0], ref_softmax([1.0, 0.0]),
                               rtol=1e-15)


def test_masked_softmax_empty_row_is_zero():
    out = dk.masked_row_softmax(dk.Tensor([[3.0, 4.0], [1.0, 2.0]]),
                                np.array([[0, 0], [1, 1]]))
    assert np.array_equal(out.values[0], [0.0, 0.0])
    assert abs(out.values[1].sum() - 1.0) < 1e-9


def test_cosine_rows_axis_cases():
    # pairs (0, 0), (0, 1), (2, 3): parallel, orthogonal, and a zero row
    x = dk.Tensor([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    out = dk.pair_cosine(x, dk.Pattern([0, 2, 2, 3, 3], [0, 1, 3], 4, 4))
    np.testing.assert_allclose(out.values[:, 0], [1.0, 0.0, 0.0], atol=0)


def test_forward_rejects_nonfinite():
    big = dk.Tensor([[1e308]])
    with np.errstate(over="ignore"), pytest.raises(NumericalError):
        dk.add(big, big)


# ---------------------------------------------------------------------------
# Backward values


def test_sum_gradient_is_ones():
    w = dk.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with dk.Tape() as tape:
        loss = dk.sum(w)
    grads = tape.backward(loss)
    assert np.array_equal(grads[w], np.ones((2, 3)))


def test_masked_softmax_blocks_gradient_exactly():
    scores = dk.Tensor([[2.0, 7.0, -1.0]], requires_grad=True)
    mask = np.array([[1, 0, 1]])
    weights = dk.Tensor([[1.0, 10.0, 100.0]])
    with dk.Tape() as tape:
        out = dk.masked_row_softmax(scores, mask)
        loss = dk.sum(dk.elementwise_mul(out, weights))
    grads = tape.backward(loss)
    assert grads[scores][0, 1] == 0.0
    assert grads[scores][0, 0] != 0.0


def test_attention_splits_tied_mirrors_evenly():
    # Triangle 0-1-2 with leaf 3 on node 0, equal features: every slot of a
    # row scores alike, so slot (u, v) softmaxes to 1 / degree(u). The
    # mirrors 1->2 and 2->1 tie exactly at 1/2; of 0->1 (1/3) and 1->0 (1/2),
    # and of 0->3 (1/3) and 3->0 (1), slot 0->v is the smaller.
    pattern = mirrored(dk.Pattern([0, 3, 5, 7, 8], [1, 2, 3, 0, 2, 0, 1, 0], 4, 4))
    x = dk.Tensor(np.ones((4, 2)), requires_grad=True)
    U = dk.Tensor([[1.0, 0.5], [0.25, 1.0]], requires_grad=True)
    g = np.array([1.0, -2.0, 4.0, 7.0, 3.0, -5.0, 0.5, 6.0])
    with dk.Tape() as tape:
        pre, weights = dk.attention(x, U, pattern)
        loss = dk.sum(dk.elementwise_mul(weights, dk.Tensor(g.reshape(-1, 1))))
    third = pre.values[0, 0]
    assert np.array_equal(pre.values[:, 0], [third] * 3 + [0.5] * 4 + [1.0])
    assert np.array_equal(weights.values[:, 0],
                          [third, third, third, third, 0.5, third, 0.5, third])
    grads = tape.backward(loss)
    p, want_w, want_x, want_U = ref_symmetric_attention(x.values, U.values, pattern, g)
    assert np.array_equal(want_w, weights.values[:, 0])
    np.testing.assert_allclose(grads[x], want_x, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(grads[U], want_U, rtol=1e-12, atol=1e-15)
    # the tie matters: giving each tied slot its own gradient moves x's
    own = np.where(p <= p[pattern.reverse], 1.0, 0.0)
    gp = own * g + np.bincount(pattern.reverse, weights=(1.0 - own) * g, minlength=8)
    _, wrong_x, _ = ref_attention(x.values, U.values, pattern.indptr, pattern.indices, gp)
    assert np.abs(wrong_x - want_x).max() > 1e-3


def test_cosine_zero_row_gets_zero_gradient():
    x = dk.Tensor([[0.0, 0.0], [1.0, 2.0]], requires_grad=True)
    with dk.Tape() as tape:
        loss = dk.sum(dk.pair_cosine(x, dk.Pattern([0, 1, 1], [1], 2, 2)))
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], [[0.0, 0.0], [0.0, 0.0]])


def test_reused_tensor_accumulates():
    x = dk.Tensor([[1.0, 2.0]], requires_grad=True)
    with dk.Tape() as tape:
        loss = dk.sum(dk.add(x, x))
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], [[2.0, 2.0]])


def test_off_path_tensor_reads_zero():
    x = dk.Tensor([[1.0]], requires_grad=True)
    other = dk.Tensor([[9.0]], requires_grad=True)
    with dk.Tape() as tape:
        loss = dk.sum(x)
    grads = tape.backward(loss)
    assert np.array_equal(grads[other], [[0.0]])
    assert other not in grads


def test_broadcast_bias_gradient_sums_rows():
    b = dk.Tensor([[1.0, -1.0]], requires_grad=True)
    x = dk.Tensor(np.ones((3, 2)))
    with dk.Tape() as tape:
        loss = dk.sum(dk.linear(x, dk.Tensor(np.eye(2)), b))
    grads = tape.backward(loss)
    assert np.array_equal(grads[b], [[3.0, 3.0]])


def test_linear_relu_zero_preactivation_gets_zero_gradient():
    # pre-activations [0, 1]: the unit sitting exactly at 0 passes nothing back
    x = dk.Tensor([[1.0, -1.0]], requires_grad=True)
    w = dk.Tensor([[1.0, 1.0], [1.0, 0.0]], requires_grad=True)
    with dk.Tape() as tape:
        out = dk.linear(x, w, relu=True)
        loss = dk.sum(out)
    assert np.array_equal(out.values, [[0.0, 1.0]])
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], [[1.0, 0.0]])
    assert np.array_equal(grads[w], [[0.0, 0.0], [1.0, -1.0]])


@pytest.mark.parametrize("operand", ["h", "W", "b"])
def test_linear_grad_check_each_operand(operand):
    rng = np.random.default_rng(11)
    ops = {"h": rng.standard_normal((4, 2)), "W": rng.standard_normal((3, 2)),
           "b": rng.standard_normal((1, 3))}
    weights = dk.Tensor(rng.standard_normal((4, 3)))
    point = dk.Tensor(ops[operand], requires_grad=True)
    tensors = {name: dk.Tensor(v) for name, v in ops.items()}

    def f(t):
        tensors[operand] = t
        out = dk.linear(tensors["h"], tensors["W"], tensors["b"], relu=True)
        return dk.sum(dk.elementwise_mul(out, weights))

    report = dk.grad_check(f, point)
    assert report.passed, report


@pytest.mark.parametrize("inputs, w, b", [
    ((4, 3), (3, 6), None),             # input width 3, W takes 6
    ((4, 3), (3, 2), None),             # input width 3, W takes 2
    ((4, 3), (3, 3), (3, 1)),           # bias is not (1, out)
    ((4, 0), (3, 1), None),             # empty input, W takes 1
])
def test_linear_rejects_bad_shapes(inputs, w, b):
    with pytest.raises(ShapeError):
        dk.linear(dk.Tensor(np.ones(inputs)), dk.Tensor(np.ones(w)),
                  None if b is None else dk.Tensor(np.ones(b)))


@pytest.mark.parametrize("op", [dk.add, dk.elementwise_mul])
def test_elementwise_ops_refuse_mismatched_shapes(op):
    with pytest.raises(ShapeError):
        op(dk.Tensor(np.ones((3, 2))), dk.Tensor(np.ones((1, 2))))


def test_tape_single_use():
    x = dk.Tensor([[1.0]], requires_grad=True)
    with dk.Tape() as tape:
        loss = dk.sum(x)
    tape.backward(loss)
    with pytest.raises(ValueError, match="re-run the forward pass"):
        tape.backward(loss)


def test_backward_releases_forward_intermediates():
    # Without the cyclic collector, an intermediate must die by refcount
    # alone once backward has replayed it, even while the tape and the
    # returned gradients are still held.
    x = dk.Tensor([[1.0, -2.0, 3.0]], requires_grad=True)
    gc.disable()
    try:
        with dk.Tape() as tape:
            mid = dk.linear(x, dk.Tensor(np.eye(3)), relu=True)
            loss = dk.sum(mid)
        ref = weakref.ref(mid.values)
        grads = tape.backward(loss)
        del mid, loss
        assert ref() is None
    finally:
        gc.enable()
    assert np.array_equal(grads[x], [[1.0, 0.0, 1.0]])


def test_records_keep_no_output_and_no_input_that_a_frozen_weight_would_read():
    # A record holds tokens, not tensors: no op output stays alive through
    # the tape, and a linear whose W is frozen keeps nothing of its input
    # (only W's gradient reads it) nor of its output (only the relu mask).
    leaf = dk.Tensor([[1.0, -2.0], [0.5, 3.0], [1.0, 0.25]], requires_grad=True)
    W = dk.Tensor([[1.0, 0.5], [0.5, -1.0], [2.0, 1.0]])
    pattern = mirrored(dk.Pattern([0, 2, 3, 4], [1, 2, 0, 0], 3, 3))
    rng = np.random.default_rng(1)
    gc.disable()
    try:
        with dk.Tape() as tape:
            x = dk.scalar_mul(leaf, 2.0)
            out = dk.linear(x, W, relu=True)
            refs = [weakref.ref(t) for t in (x, out)]
            refs += [weakref.ref(x.values), weakref.ref(out.values)]
            chain = dk.dropout(out, 0.25, rng, training=True)
            pre, slots = dk.attention(chain, dk.Tensor(np.eye(3)), pattern)
            refs += [weakref.ref(pre), weakref.ref(slots),
                     weakref.ref(dk.segment_mean(slots, pattern))]
            del pre
            slots = dk.pair_cosine(chain, pattern)
            refs += [weakref.ref(slots), weakref.ref(dk.segment_mean(slots, pattern))]
            msg = dk.aggregate(slots, chain, dk.Tensor(np.ones((3, 6))), dk.Tensor(np.ones((1, 3))),
                               pattern)
            refs += [weakref.ref(t) for t in (chain, slots, msg)]
            loss = dk.sum(dk.sigmoid(dk.add(msg, msg)))
            del x, out, chain, slots, msg
            assert [ref() for ref in refs] == [None] * len(refs)
        grads = tape.backward(loss)
    finally:
        gc.enable()
    assert grads[leaf].shape == leaf.shape and np.any(grads[leaf] != 0.0)


def test_backward_requires_scalar():
    x = dk.Tensor([[1.0, 2.0]], requires_grad=True)
    with dk.Tape() as tape:
        y = dk.sigmoid(x)
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_three_layer_composite_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = dk.Tensor(rng.standard_normal((4, 3)))
    b = dk.Tensor(rng.standard_normal((3, 2)).T)
    x = dk.Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True)

    def f(t):
        h1 = dk.linear(dk.elementwise_mul(t, a), dk.Tensor(np.eye(3)), relu=True)
        h2 = dk.sigmoid(dk.linear(h1, b))
        return dk.sum(dk.elementwise_mul(h2, h2))

    report = dk.grad_check(f, x, step=1e-5, tol=1e-4)
    assert report.passed, report


# ---------------------------------------------------------------------------
# Segment ops


# Slots (0, 0) (0, 2) (2, 0) (2, 2) (3, 3) on four nodes, node 1 without
# slots. Through an identity U, rows 0 and 2 of this x score each other 0 and
# themselves 1, so row 0's slots softmax [1, 0] and node 3's lone slot is 1.
SOFTMAX_PATTERN = ([0, 2, 2, 4, 5], [0, 2, 0, 2, 3], 4, 4)
SOFTMAX_X = [[1.0, 0.0], [5.0, 5.0], [0.0, 1.0], [1.0, 0.0]]


def test_segment_softmax_values_and_empty_segment():
    x = dk.Tensor(SOFTMAX_X)
    pre, weights = dk.attention(x, dk.Tensor(np.eye(2)), mirrored(dk.Pattern(*SOFTMAX_PATTERN)))
    np.testing.assert_allclose(pre.values[:2, 0], ref_softmax([1.0, 0.0]),
                               rtol=1e-15)
    assert pre.values[4, 0] == 1.0
    # each self slot is its own mirror; slots (0, 2) and (2, 0) tie
    assert np.array_equal(weights.values, pre.values[[0, 1, 1, 3, 4]])
    assert not pre.requires_grad and not pre.values.flags.writeable


def test_segment_sum_and_mean():
    x = dk.Tensor([[1.0], [2.0], [5.0]])
    # aggregate runs on a symmetric pattern: slots (0,0) (0,1) (1,0) (2,2)
    symmetric = mirrored(dk.Pattern([0, 2, 3, 4], [0, 1, 0, 2], 3, 3))
    sums = spmm_via_aggregate(dk.Tensor(np.ones((4, 1))), x, symmetric)
    np.testing.assert_allclose(sums.values[:, 0], [3.0, 1.0, 5.0])
    pattern = dk.Pattern([0, 2, 2, 3], np.arange(3), 3, 3)
    means = dk.segment_mean(x, pattern)
    np.testing.assert_allclose(means.values[:, 0], [1.5, 0.0, 5.0])


def test_segment_ops_gradients():
    pattern = dk.Pattern([0, 2, 2, 3], [0, 1, 2], 3, 3)
    x = dk.Tensor([[1.0], [0.5], [2.0]], requires_grad=True)
    symmetric = mirrored(dk.Pattern(*SOFTMAX_PATTERN))
    # every entry well above 0, so the relu of the projection has no kink nearby
    h = dk.Tensor(np.array(SOFTMAX_X) + 0.25, requires_grad=True)

    def f_softmax(t):
        _, out = dk.attention(t, dk.Tensor(np.eye(2)), symmetric)
        w = dk.Tensor([[1.0], [3.0], [2.0], [0.5], [1.5]])
        return dk.sum(dk.elementwise_mul(out, w))

    def f_mean(t):
        return dk.sum(dk.segment_mean(t, pattern))

    assert dk.grad_check(f_softmax, h).passed
    assert dk.grad_check(f_mean, x).passed


# ---------------------------------------------------------------------------
# Sparse pattern ops


def _taped(op, inputs, g):
    """Run ``op`` on tape, backprop ``sum(out * g)``; return out and grads."""
    with dk.Tape() as tape:
        out = op()
        loss = dk.sum(dk.elementwise_mul(out, dk.Tensor(g.reshape(out.shape))))
    grads = tape.backward(loss)
    return out.values, [grads[t] for t in inputs]


@pytest.mark.parametrize("symmetric", [True, False])
def test_pattern_ops_match_gather_scatter_oracle(symmetric):
    rng = np.random.default_rng(5)
    n, d = 9, 4
    # a symmetric pattern is also checked with self-pairs, whose mirror is
    # the slot itself
    for self_pairs in (False, True) if symmetric else (False,):
        pattern = random_pattern(rng, n, symmetric, self_pairs=self_pairs)
        indptr, indices, slots = pattern.indptr, pattern.indices, pattern.indices.size
        a = dk.Tensor(rng.standard_normal((n, d)), requires_grad=True)
        w = dk.Tensor(rng.standard_normal((slots, 1)), requires_grad=True)

        if symmetric:  # attention and aggregate refuse any other pattern
            g = rng.standard_normal(slots)
            U = dk.Tensor(rng.standard_normal((3, d)), requires_grad=True)
            pre, _ = dk.attention(a, U, pattern)
            out, (ga, gU) = _taped(lambda: dk.attention(a, U, pattern)[1], [a, U], g)
            want_p, want, want_a, want_U = ref_symmetric_attention(a.values, U.values,
                                                                   pattern, g)
            np.testing.assert_allclose(pre.values[:, 0], want_p, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(out[:, 0], want, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(ga, want_a, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gU, want_U, rtol=1e-12, atol=1e-12)

            g = rng.standard_normal((n, d))
            out, (gw, gx) = _taped(lambda: spmm_via_aggregate(w, a, pattern, 100.0), [w, a], g)
            want, want_w, want_x = ref_spmm(w.values[:, 0], a.values, indptr, indices, g)
            np.testing.assert_allclose(out, want + 100.0, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gw[:, 0], want_w, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(gx, want_x, rtol=1e-12, atol=1e-12)

        g = rng.standard_normal(slots)
        out, (gx,) = _taped(lambda: dk.pair_cosine(a, pattern), [a], g)
        want, want_x = ref_pair_cosine(a.values, indptr, indices, g)
        np.testing.assert_allclose(out[:, 0], want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gx, want_x, rtol=1e-12, atol=1e-12)


def _assert_rel_close(got, want, rtol=1e-12):
    """Max abs difference within ``rtol`` of the larger array's max magnitude."""
    assert got.shape == want.shape
    scale = max(np.abs(got).max(initial=0.0), np.abs(want).max(initial=0.0))
    assert np.abs(got - want).max(initial=0.0) <= rtol * scale


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9),
       isolated=st.integers(0, 3), edge_prob=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       self_pairs=st.booleans())
def test_symmetric_fast_path_matches_general_path(seed, n, isolated, edge_prob,
                                                  self_pairs):
    # one random symmetric pattern, once with ``reverse`` (fast path) and once
    # without (general path); edge_prob 0 or isolated >= n gives the empty one.
    # pair_cosine takes both paths; attention and aggregate have only the fast
    # one, so they are held to the gather-scatter oracle. Attention's
    # gradients cancel within each softmax, far below the terms they sum, so
    # they are held bitwise to the four records it replaced instead.
    rng = np.random.default_rng(seed)
    fast = random_pattern(rng, n, True, isolated=isolated, edge_prob=edge_prob,
                          self_pairs=self_pairs)
    general = dk.Pattern(fast.indptr, fast.indices, n, n)
    indptr, indices, slots, d = fast.indptr, fast.indices, fast.indices.size, 3
    x = dk.Tensor(rng.standard_normal((n, d)), requires_grad=True)
    x.values[rng.random(n) < 0.2] = 0.0  # zero rows sit under the cosine guard
    w = dk.Tensor(rng.standard_normal((slots, 1)), requires_grad=True)
    g_slot, g_node = rng.standard_normal(slots), rng.standard_normal((n, d))
    out_f, (gx_f,) = _taped(lambda: dk.pair_cosine(x, fast), [x], g_slot)
    out_g, (gx_g,) = _taped(lambda: dk.pair_cosine(x, general), [x], g_slot)
    assert np.array_equal(out_f, out_g)
    _assert_rel_close(gx_f, gx_g)
    U = dk.Tensor(rng.standard_normal((2, d)), requires_grad=True)
    got = _taped(lambda: dk.attention(x, U, fast)[1], [x, U], g_slot)
    want = _taped(lambda: ref_attention_ops(x, U, fast)[1], [x, U], g_slot)
    for a, b in zip([got[0], *got[1]], [want[0], *want[1]]):
        assert a.tobytes() == b.tobytes()
    _assert_rel_close(got[0][:, 0], ref_symmetric_attention(x.values, U.values, fast,
                                                            g_slot)[1])
    out, (gw, gx) = _taped(lambda: spmm_via_aggregate(w, x, fast, 100.0), [w, x], g_node)
    want, want_w, want_x = ref_spmm(w.values[:, 0], x.values, indptr, indices, g_node)
    for got, ref in ((out - 100.0, want), (gw[:, 0], want_w), (gx, want_x)):
        _assert_rel_close(got, ref)


def test_symmetric_pattern_halves_sddmms_and_runs_no_csc_product(monkeypatch):
    rng = np.random.default_rng(3)
    pattern = random_pattern(rng, 8, True, self_pairs=True)
    upper = pattern.rows <= pattern.indices
    assert 0 < upper.sum() < pattern.indices.size
    seen = []
    real_sampled_dot = dk._sampled_dot

    def recording(a, b, rows, cols):
        seen.append((rows.copy(), cols.copy()))
        return real_sampled_dot(a, b, rows, cols)

    def no_transpose(*args, **kwargs):
        raise AssertionError("CSC product on a symmetric pattern")

    monkeypatch.setattr(dk, "_sampled_dot", recording)
    monkeypatch.setattr(scipy.sparse.csr_matrix, "transpose", no_transpose)
    x = dk.Tensor(rng.standard_normal((8, 3)), requires_grad=True)
    with dk.Tape() as tape:
        _, att = dk.attention(x, dk.Tensor(np.eye(3)), pattern)
        cos = dk.pair_cosine(x, pattern)
        loss = dk.add(dk.sum(dk.elementwise_mul(att, att)), dk.sum(cos))
    assert len(seen) == 2
    for rows, cols in seen:
        assert np.array_equal(rows, pattern.rows[upper])
        assert np.array_equal(cols, pattern.indices[upper])
    tape.backward(loss)
    w = dk.Tensor(rng.standard_normal((pattern.indices.size, 1)), requires_grad=True)
    with dk.Tape() as tape:
        loss = dk.sum(spmm_via_aggregate(w, x, pattern))
    tape.backward(loss)
    # pair_cosine's general path takes the transpose, so the guard is live
    general = dk.Pattern(pattern.indptr, pattern.indices, 8, 8)
    with pytest.raises(AssertionError, match="CSC"):
        with dk.Tape() as tape:
            loss = dk.sum(dk.pair_cosine(x, general))
        tape.backward(loss)


@pytest.mark.parametrize("symmetric", [True, False])
def test_pattern_ops_gradients_match_finite_differences(symmetric):
    rng = np.random.default_rng(11)
    n, d = 7, 3
    pattern = random_pattern(rng, n, symmetric)
    weights = dk.Tensor(rng.standard_normal((pattern.indices.size, 1)))
    other = dk.Tensor(rng.standard_normal((n, d)))
    mix = dk.Tensor(rng.standard_normal((n, d)))

    def slot_loss(out):
        return dk.sum(dk.elementwise_mul(out, weights))

    def node_loss(out):
        return dk.sum(dk.elementwise_mul(out, mix))

    x = dk.Tensor(rng.standard_normal((n, d)), requires_grad=True)
    w = dk.Tensor(rng.standard_normal((pattern.indices.size, 1)), requires_grad=True)
    U = dk.Tensor(rng.standard_normal((2, d)), requires_grad=True)
    checks = [(lambda t: slot_loss(dk.pair_cosine(t, pattern)), x)]
    if symmetric:  # attention and aggregate refuse any other pattern
        checks += [
            (lambda t: slot_loss(dk.attention(t, dk.Tensor(U.values), pattern)[1]), x),
            (lambda t: slot_loss(dk.attention(dk.Tensor(x.values), t, pattern)[1]), U),
            (lambda t: node_loss(spmm_via_aggregate(weights, t, pattern, 100.0)), x),
            (lambda t: node_loss(spmm_via_aggregate(t, other, pattern, 100.0)), w),
        ]
    for f, point in checks:
        report = dk.grad_check(f, point)
        assert report.passed, report


def test_aggregate_skips_gradient_of_frozen_side():
    x = dk.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    w = dk.Tensor([[0.5], [2.0]])
    W = dk.Tensor(np.hstack([np.eye(2), np.zeros((2, 2))]))
    b = dk.Tensor(np.zeros((1, 2)))
    with dk.Tape() as tape:
        loss = dk.sum(dk.aggregate(w, x, W, b, mirrored(dk.Pattern([0, 1, 2], [1, 0], 2, 2))))
    (_, ins, bwd), _ = tape._entries
    assert ins == (None, x.token, None, None)
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], [[2.0, 2.0], [0.5, 0.5]])
    assert w not in grads and W not in grads and b not in grads


@pytest.mark.parametrize("n, block_bytes, blocks", [
    (9, None, 1),        # isolated nodes, one block
    pytest.param(1001, 111 * 8 * 40, 9, id="1001-0-9"),  # 111 or 112 rows
    (9001, None, 2),     # the default budget: 4500 or 4501 rows
])
@pytest.mark.parametrize("weights", ["attention", "plain"])
def test_aggregate_is_bitwise_the_spmm_and_two_input_linear(monkeypatch, n, block_bytes,
                                                            blocks, weights):
    # Forward and every gradient, for each subset of (w, x, W, b) that
    # trains, against the SpMM and two-input linear that the layer ran
    # before; plain mode's 1/degree weights never train.
    if block_bytes is not None:
        monkeypatch.setattr(dk, "_BLOCK_BYTES", block_bytes)
    width = 40
    assert len(dk._row_blocks(n, width)) == blocks
    rng = np.random.default_rng(n)
    pattern = sparse_symmetric_pattern(rng, n, mean_degree=8, isolated=2)
    degrees = np.maximum(np.diff(pattern.indptr), 1)
    values = {"w": (1.0 / degrees[pattern.rows] if weights == "plain"
                    else rng.random(pattern.indices.size)).reshape(-1, 1),
              "x": rng.standard_normal((n, width)),
              "W": rng.standard_normal((width, 2 * width)) * 0.2,
              "b": rng.standard_normal((1, width))}
    g = rng.standard_normal((n, width))
    for trains in itertools.product([False, True], repeat=4):
        if weights == "plain" and trains[0]:
            continue
        results = []
        for fused in (True, False):
            t = {name: dk.Tensor(v, requires_grad=live)
                 for (name, v), live in zip(values.items(), trains)}
            with dk.Tape() as tape:
                if fused:
                    out = dk.aggregate(t["w"], t["x"], t["W"], t["b"], pattern)
                else:
                    out = ref_linear2_op(ref_spmm_op(t["w"], t["x"], pattern), t["x"],
                                         t["W"], t["b"])
                loss = dk.sum(dk.elementwise_mul(out, dk.Tensor(g)))
            grads = tape.backward(loss)
            results.append([out.values] + [grads[t[name]] for name in values
                                           if t[name].requires_grad])
            assert sum(t[name] in grads for name in values) == sum(trains)
        assert 0.2 < (results[0][0] > 0).mean() < 0.8
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes(), trains


@pytest.mark.parametrize("operand", ["w", "x", "W", "b"])
def test_aggregate_grad_check_each_operand(operand):
    rng = np.random.default_rng(11)
    pattern = random_pattern(rng, 6, True)
    ops = {"w": rng.random((pattern.indices.size, 1)), "x": rng.standard_normal((6, 2)),
           "W": rng.standard_normal((3, 4)), "b": rng.standard_normal((1, 3))}
    weights = dk.Tensor(rng.standard_normal((6, 3)))
    point = dk.Tensor(ops[operand], requires_grad=True)
    tensors = {name: dk.Tensor(v) for name, v in ops.items()}

    def f(t):
        tensors[operand] = t
        out = dk.aggregate(tensors["w"], tensors["x"], tensors["W"], tensors["b"], pattern)
        return dk.sum(dk.elementwise_mul(out, weights))

    report = dk.grad_check(f, point)
    assert report.passed, report


@pytest.mark.parametrize("n", [9, 3001])
def test_attention_is_bitwise_the_linear_sddmm_and_softmax(n):
    # Both outputs and every gradient, for each subset of (x, U) that
    # trains, against the relu linear, SDDMM, softmax and reverse-slot min
    # records that attention ran as before. Two nodes have no slot; five
    # have an all-zero (relu-dead) projection, one of them through a zero
    # input row.
    width, attn = 40, 24
    rng = np.random.default_rng(n)
    pattern = sparse_symmetric_pattern(rng, n, mean_degree=8, isolated=2)
    x = rng.standard_normal((n, width))
    U = rng.standard_normal((attn, width)) * 0.3
    U[:, -1] = np.abs(U[:, -1]) + 0.1
    x[2:7] = 0.0
    x[2:6, -1] = -0.5 - rng.random(4)  # x U^T < 0
    z = np.maximum(x @ U.T, 0.0)
    assert np.all(z[2:7] == 0.0) and 0.2 < (z[7:] > 0).mean() < 0.8
    g = rng.standard_normal((pattern.indices.size, 1))
    for trains in itertools.product([False, True], repeat=2):
        results = []
        for op in (dk.attention, ref_attention_ops):
            t = [dk.Tensor(v, requires_grad=live) for v, live in zip((x, U), trains)]
            with dk.Tape() as tape:
                pre, out = op(*t, pattern)
                loss = dk.sum(dk.elementwise_mul(out, dk.Tensor(g)))
            assert len(tape._entries) == (2 + (4 if op is ref_attention_ops else 1)
                                          if any(trains) else 0)
            results.append([pre.values, out.values])
            if any(trains):
                grads = tape.backward(loss)
                results[-1] += [grads[v] for v in t if v.requires_grad]
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes(), trains


@pytest.mark.parametrize("operand", ["x", "U"])
def test_attention_grad_check_each_operand(operand):
    rng = np.random.default_rng(11)
    pattern = random_pattern(rng, 6, True, self_pairs=True)
    ops = {"x": rng.standard_normal((6, 3)), "U": rng.standard_normal((2, 3))}
    ops["U"][:, -1] = np.abs(ops["U"][:, -1]) + 0.1
    ops["x"][:2] = [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0]]  # no slots, relu-dead
    ops["x"][2] = [0.0, 0.0, -1.0]  # slots, relu-dead
    weights = dk.Tensor(rng.standard_normal((pattern.indices.size, 1)))
    point = dk.Tensor(ops[operand], requires_grad=True)
    tensors = {name: dk.Tensor(v) for name, v in ops.items()}

    def f(t):
        tensors[operand] = t
        _, out = dk.attention(tensors["x"], tensors["U"], pattern)
        return dk.sum(dk.elementwise_mul(out, weights))

    report = dk.grad_check(f, point)
    assert report.passed, report


@pytest.mark.parametrize("op", [
    dk.add, dk.elementwise_mul,
    # a frozen W, as in adaptation, gets no gradient
    pytest.param(lambda x, w: dk.linear(x, w), id="linear"),
])
def test_dense_ops_skip_gradient_of_frozen_side(op):
    frozen = dk.Tensor([[1.0, 2.0], [3.0, 4.0]])
    live = dk.Tensor([[0.5, -1.0], [2.0, 0.25]], requires_grad=True)
    for a, b in ((frozen, live), (live, frozen)):
        with dk.Tape() as tape:
            op(a, b)
        (_, ins, bwd), = tape._entries
        grads = bwd(np.ones((2, 2)))
        side = 0 if a is frozen else 1
        assert ins[side] is None and ins[1 - side] is live.token
        assert grads[side] is None
        assert grads[1 - side].shape == (2, 2)


def test_pair_cosine_zero_row_and_guarded_pair_get_exact_zero_gradient():
    # node 0 is all zero; nodes 2 and 3 are tiny, so their product falls
    # under the 1e-12 guard; nodes 1 and 4 form an ordinary pair; node 5's
    # squared norm is subnormal, so its inverse would overflow.
    x = dk.Tensor([[0.0, 0.0], [1.0, 2.0], [1e-7, 0.0], [1e-7, 1e-7], [2.0, -1.0],
                   [1e-160, 0.0]], requires_grad=True)
    pattern = dk.Pattern([0, 2, 3, 4, 4, 5, 6], [1, 4, 0, 3, 1, 1], 6, 6)
    with dk.Tape() as tape:
        out = dk.pair_cosine(x, pattern)
        weights = dk.Tensor([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
        loss = dk.sum(dk.elementwise_mul(out, weights))
    grads = tape.backward(loss)
    assert np.array_equal(grads[x][[0, 2, 3, 5]], np.zeros((4, 2)))
    assert np.all(grads[x][[1, 4]] != 0.0)
    # a guarded value is dot / 1e-12: 0 with a zero row, 1e-14 / 1e-12 here
    assert np.array_equal(out.values[:3, 0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(out.values[3, 0], 1e-14 / 1e-12, rtol=1e-15)


def test_pattern_ops_on_empty_pattern_give_zeros():
    x = dk.Tensor(np.ones((3, 2)), requires_grad=True)
    pattern = mirrored(dk.Pattern(np.zeros(4), np.zeros(0), 3, 3))
    w = dk.Tensor(np.zeros((0, 1)), requires_grad=True)
    with dk.Tape() as tape:
        pre, att = dk.attention(x, dk.Tensor(np.eye(2)), pattern)
        cos = dk.pair_cosine(x, pattern)
        msg = spmm_via_aggregate(w, x, pattern)
        loss = dk.add(dk.add(dk.sum(att), dk.sum(cos)), dk.sum(msg))
    assert pre.shape == att.shape == cos.shape == (0, 1)
    assert np.array_equal(msg.values, np.zeros((3, 2)))
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], np.zeros((3, 2)))
    assert grads[w].shape == (0, 1)


def test_csr_builds_reuse_the_patterns_index_arrays(monkeypatch):
    # scipy stores a pattern that fits in int32 with int32 indices; the
    # pattern makes that copy once, and every build is handed int32 arrays,
    # which scipy neither scans nor converts
    rng = np.random.default_rng(2)
    pattern = sparse_symmetric_pattern(rng, 50, mean_degree=6, isolated=2)
    indices, indptr = pattern.csr_index
    assert indices.dtype == indptr.dtype == np.int32
    assert pattern.csr_index[0] is indices
    real_csr_matrix = scipy.sparse.csr_matrix
    handed = []

    def recording(arg, shape):
        handed.append((arg[1].dtype, arg[2].dtype))
        return real_csr_matrix(arg, shape=shape)

    monkeypatch.setattr(scipy.sparse, "csr_matrix", recording)
    data = rng.random(pattern.indices.size)
    whole = dk._csr(data, pattern)
    rows = dk._csr_rows(data, pattern, 10, 30, order=pattern.reverse)
    assert handed == [(np.int32, np.int32)] * 2
    assert np.shares_memory(whole.indices, indices)
    want = real_csr_matrix((data[pattern.reverse], pattern.indices, pattern.indptr),
                           shape=pattern.shape)
    assert (rows != want[10:30]).nnz == 0


def test_pattern_ops_reject_bad_patterns():
    # the constructor validates the CSR arrays once
    with pytest.raises(ShapeError, match="out of range"):
        dk.Pattern([0, 1, 2, 3], [0, 1, 3], 3, 3)
    with pytest.raises(ShapeError, match="non-decreasing"):
        dk.Pattern([0, 2, 1, 2], [0, 1], 3, 3)
    with pytest.raises(ShapeError, match="indptr"):
        dk.Pattern([0, 1, 2], [0, 1], 3, 3)
    with pytest.raises(ShapeError, match="indptr"):
        dk.Pattern([0, 1, 2, 2], [0, 1, 2], 3, 3)
    # the ops check shapes against it
    x = dk.Tensor(np.ones((3, 2)))
    diagonal = mirrored(dk.Pattern([0, 1, 2, 3], [0, 1, 2], 3, 3))
    with pytest.raises(ShapeError, match="attention"):
        dk.attention(x, np.eye(2), mirrored(dk.Pattern([0, 1, 2], [1, 0], 2, 2)))
    with pytest.raises(ShapeError, match="attention"):
        dk.attention(x, np.eye(3), diagonal)
    with pytest.raises(ShapeError):
        dk.pair_cosine(x, dk.Pattern([0, 1, 2], [0, 1], 2, 2))
    W, b = dk.Tensor(np.ones((5, 4))), dk.Tensor(np.ones((1, 5)))
    for w, h, W_, b_ in [(np.ones((2, 1)), x, W, b),             # slots
                         (np.ones((3, 1)), np.ones((2, 2)), W, b),  # nodes
                         (np.ones((3, 1)), x, np.ones((5, 3)), b),  # W's columns
                         (np.ones((3, 1)), x, W, np.ones((5, 1)))]:  # bias
        with pytest.raises(ShapeError, match="aggregate"):
            dk.aggregate(w, h, W_, b_, diagonal)
    with pytest.raises(ShapeError):
        dk.segment_mean(dk.Tensor(np.ones((2, 1))), dk.Pattern([0, 1, 2, 3], [0, 1, 2], 3, 3))
    # attention and aggregate refuse a pattern without ``reverse``, even one
    # whose slots happen to be symmetric
    one_way = dk.Pattern([0, 1, 1], [1], 2, 2)
    two = dk.Tensor(np.ones((2, 2)))
    with pytest.raises(ShapeError, match="attention needs a symmetric"):
        dk.attention(two, np.eye(2), one_way)
    with pytest.raises(ShapeError, match="attention needs a symmetric"):
        dk.attention(two, np.eye(2), dk.Pattern([0, 1, 2], [1, 0], 2, 2))
    with pytest.raises(ShapeError, match="aggregate needs a symmetric"):
        dk.aggregate(dk.Tensor(np.ones((1, 1))), two, np.ones((1, 4)), np.ones((1, 1)), one_way)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(-20, 20), min_size=1, max_size=6),
                min_size=1, max_size=6))
def test_segment_softmax_segments_sum_to_one(segments):
    # one hub node per segment, z = (1, 0), joined to one leaf per value,
    # z = (20 + v, 0): the hub's slots score 20 + v (softmax ignores the
    # shift), and each leaf's one slot scores its hub.
    sizes = [len(seg) for seg in segments]
    hubs = np.cumsum([0] + [1 + k for k in sizes[:-1]])
    n = sum(sizes) + len(sizes)
    x = np.zeros((n, 2))
    x[hubs, 0] = 1.0
    neighbours = [[] for _ in range(n)]
    for hub, seg in zip(hubs, segments):
        leaves = hub + 1 + np.arange(len(seg))
        x[leaves, 0] = 20.0 + np.array(seg)
        neighbours[hub] = list(leaves)
        for leaf in leaves:
            neighbours[leaf] = [hub]
    indptr = np.cumsum([0] + [len(nb) for nb in neighbours])
    pattern = mirrored(dk.Pattern(indptr, [c for nb in neighbours for c in nb], n, n))
    pre, _ = dk.attention(dk.Tensor(x), dk.Tensor(np.eye(2)), pattern)
    for i in range(n):
        total = pre.values[indptr[i]:indptr[i + 1], 0].sum()
        assert abs(total - 1.0) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_masked_softmax_rows_sum_to_one(rows, cols, seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((rows, cols)) * 10
    mask = rng.integers(0, 2, size=(rows, cols))
    # Force one allowed entry per row so every row is nonempty.
    mask[np.arange(rows), rng.integers(0, cols, size=rows)] = 1
    out = dk.masked_row_softmax(dk.Tensor(scores), mask)
    assert np.array_equal(out.values[mask == 0], np.zeros((mask == 0).sum()))
    np.testing.assert_allclose(out.values.sum(axis=1), np.ones(rows),
                               atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.sampled_from([1.0, 10.0, 700.0]),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 31 - 1))
def test_masked_softmax_bitwise_matches_reference(rows, cols, scale, density, seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((rows, cols)) * scale
    mask = (rng.random((rows, cols)) < density).astype(np.int64)
    if rows:
        mask[rng.integers(rows)] = 0  # at least one all-masked row
    g = rng.standard_normal((rows, cols))
    x = dk.Tensor(scores, requires_grad=True)
    with dk.Tape() as tape:
        out = dk.masked_row_softmax(x, mask)
        loss = dk.sum(dk.elementwise_mul(out, dk.Tensor(g)))
    grad = tape.backward(loss)[x]
    want_p, want_grad = ref_masked_row_softmax(scores, mask, g)
    assert out.values.tobytes() == want_p.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


# ---------------------------------------------------------------------------
# Binary cross-entropy


def test_bce_uninformative_prediction():
    # -ln(1/2) = ln 2 regardless of label
    out = dk.binary_cross_entropy(dk.Tensor([[0.5]]), [1])
    assert abs(out.item() - math.log(2)) < 1e-15


def test_bce_two_sample_mean():
    expected = (-math.log(0.9) - math.log(0.8)) / 2
    out = dk.binary_cross_entropy(dk.Tensor([[0.9], [0.8]]), [1, 1])
    assert abs(out.item() - expected) < 1e-15
    assert abs(expected - 0.164252033486018) < 1e-14
    assert abs(out.item() - ref_bce([0.9, 0.8], [1, 1])) < 1e-15


def test_bce_clamps_extreme_probabilities():
    out = dk.binary_cross_entropy(dk.Tensor([[1.0], [0.0]]), [0, 1])
    assert math.isfinite(out.item())
    assert abs(out.item() - ref_bce([1.0, 0.0], [0, 1])) < 1e-12


def test_bce_gradient_at_clamp_uses_clamped_value():
    probs = dk.Tensor([[1.0]], requires_grad=True)
    with dk.Tape() as tape:
        loss = dk.binary_cross_entropy(probs, [0])
    g = tape.backward(loss)[probs][0, 0]
    p = 1.0 - 1e-7
    assert abs(g - (p - 0.0) / (p * (1.0 - p))) < 1e-3 * abs(g)


def test_bce_gradient_matches_finite_differences():
    probs = dk.Tensor([[0.3], [0.6], [0.9]], requires_grad=True)
    labels = [0, 1, 1]

    def f(t):
        return dk.binary_cross_entropy(t, labels)

    assert dk.grad_check(f, probs).passed


def test_bce_shape_errors():
    with pytest.raises(ShapeError):
        dk.binary_cross_entropy(dk.Tensor([[0.5, 0.5]]), [1])
    with pytest.raises(ShapeError):
        dk.binary_cross_entropy(dk.Tensor([[0.5]]), [1, 0])


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_quadratic_is_nearly_exact():
    x = dk.Tensor(np.array([[0.3, -1.2, 0.7]]), requires_grad=True)

    def f(t):
        return dk.scalar_mul(dk.sum(dk.elementwise_mul(t, t)), 0.5)

    report = dk.grad_check(f, x)
    assert report.max_rel_error < 1e-8
    # The analytic gradient of 0.5 x^2 is x itself.
    with dk.Tape() as tape:
        y = f(x)
    np.testing.assert_allclose(tape.backward(y)[x], x.values, rtol=1e-12)


def test_grad_check_zero_tolerance_fails():
    x = dk.Tensor(np.array([[0.4, 1.3]]), requires_grad=True)

    def f(t):
        return dk.sum(dk.sigmoid(t))

    report = dk.grad_check(f, x, tol=0.0)
    assert not report.passed
    assert report.max_rel_error > 0.0


def test_grad_check_needs_requires_grad():
    with pytest.raises(ValueError):
        dk.grad_check(lambda t: dk.sum(t), dk.Tensor([[1.0]]))


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_identity():
    p = dk.Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    before = p.values.copy()
    state = dk.AdamState([p])
    for _ in range(5):
        dk.adam_step([p], dk.Gradients({p.token: np.zeros((2, 2))}), state)
    assert np.array_equal(p.values, before)


def test_adam_single_step_closed_form():
    # t=1: m_hat = g, v_hat = g^2, update = -lr * g / (|g| + eps)
    g = 2.0
    lr = 0.001
    expected = 1.0 - lr * g / (abs(g) + 1e-8)
    p = dk.Tensor([[1.0]], requires_grad=True)
    state = dk.AdamState([p], lr=lr)
    dk.adam_step([p], dk.Gradients({p.token: np.array([[g]])}), state)
    assert abs(p.values[0, 0] - expected) < 1e-15
    assert abs(p.values[0, 0] - (1.0 - lr)) < 1e-8


def test_adam_two_steps_match_reference():
    grads = [np.array([[0.5, -2.0]]), np.array([[1.5, 0.25]])]
    expected = ref_adam([[1.0, -1.0]], grads)
    p = dk.Tensor([[1.0, -1.0]], requires_grad=True)
    state = dk.AdamState([p])
    for g in grads:
        dk.adam_step([p], dk.Gradients({p.token: g}), state)
    np.testing.assert_allclose(p.values, expected, rtol=0, atol=0)


def test_adam_runs_are_bitwise_identical():
    def run():
        p = dk.Tensor([[0.1, 0.2]], requires_grad=True)
        state = dk.AdamState([p], lr=0.01)
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.standard_normal((1, 2))
            dk.adam_step([p], dk.Gradients({p.token: g}), state)
        return p.values

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    p = dk.Tensor([[1.0]], requires_grad=True)
    state = dk.AdamState([p])
    with pytest.raises(ShapeError):
        dk.adam_step([p], dk.Gradients({p.token: np.zeros((2, 2))}), state)


# ---------------------------------------------------------------------------
# Dropout


def test_dropout_rate_zero_is_identity_object():
    x = dk.Tensor(np.ones((3, 3)))
    rng = np.random.default_rng(0)
    assert dk.dropout(x, 0.0, rng, training=True) is x
    assert dk.dropout(x, 0.9, rng, training=False) is x


def test_dropout_survivors_scaled_and_fraction_bounded():
    rng = np.random.default_rng(11)
    x = dk.Tensor(np.ones((100, 100)))
    out = dk.dropout(x, 0.7, rng, training=True)
    vals = out.values.ravel()
    survivors = vals != 0.0
    frac = survivors.mean()
    assert 0.27 <= frac <= 0.33
    np.testing.assert_allclose(vals[survivors], 1.0 / 0.3)


def test_dropout_deterministic_per_seed():
    x = dk.Tensor(np.ones((10, 10)))
    a = dk.dropout(x, 0.5, np.random.default_rng(5), training=True).values
    b = dk.dropout(x, 0.5, np.random.default_rng(5), training=True).values
    assert np.array_equal(a, b)


def test_dropout_rejects_rate_one():
    x = dk.Tensor(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        dk.dropout(x, 1.0, np.random.default_rng(0), training=True)


def test_dropout_gradient_masks_like_forward():
    x = dk.Tensor(np.ones((4, 4)), requires_grad=True)
    rng = np.random.default_rng(2)
    with dk.Tape() as tape:
        out = dk.dropout(x, 0.5, rng, training=True)
        loss = dk.sum(out)
    grads = tape.backward(loss)
    assert np.array_equal(grads[x] != 0.0, out.values != 0.0)
