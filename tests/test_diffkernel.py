"""Numeric kernel tests.

Reference implementations live at the top of the file; expected values in
the worked-example tests were computed with them (or by hand) and frozen.
"""

import gc
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


def ref_spmm(w, x, indptr, indices, g):
    """Gather -> weight -> segment sum, and its backward for upstream g."""
    rows = ref_pattern_rows(indptr)
    out = np.zeros((len(indptr) - 1, x.shape[1]))
    np.add.at(out, rows, w[:, None] * x[indices])
    gw = (g[rows] * x[indices]).sum(axis=1)
    gx = np.zeros_like(x)
    np.add.at(gx, indices, w[:, None] * g[rows])
    return out, gw, gx


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


def test_matmul_add_against_numpy():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    out = dk.matmul(dk.Tensor(a), dk.Tensor(b))
    np.testing.assert_allclose(out.values, a @ b, rtol=0, atol=0)
    c = rng.standard_normal((3, 2))
    assert np.array_equal(dk.add(out, dk.Tensor(c)).values, a @ b + c)


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("relu", [False, True])
def test_linear_against_numpy(blocks, bias, relu):
    rng = np.random.default_rng(blocks)
    xs = [rng.standard_normal((5, width)) for width in (3, 2)[:blocks]]
    w = rng.standard_normal((4, sum(x.shape[1] for x in xs)))
    b = rng.standard_normal((1, 4)) if bias else None
    out = dk.linear([dk.Tensor(x) for x in xs], dk.Tensor(w),
                    None if b is None else dk.Tensor(b), relu=relu)
    expected = np.hstack(xs) @ w.T + (0.0 if b is None else b)
    np.testing.assert_allclose(out.values, np.maximum(expected, 0.0) if relu else expected,
                               rtol=1e-14, atol=1e-14)


def test_elementwise_ops_against_numpy():
    x = np.array([[-1.5, 0.0, 2.0]])
    assert np.array_equal(dk.relu(dk.Tensor(x)).values, np.maximum(x, 0))
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


def test_relu_subgradient_zero_at_kink():
    x = dk.Tensor([[-1.0, 0.0, 2.0]], requires_grad=True)
    with dk.Tape() as tape:
        loss = dk.sum(dk.relu(x))
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], [[0.0, 0.0, 1.0]])


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


def test_minimum_splits_ties_evenly():
    # path 0-1-2: slots 0->1, 1->0 tie at 3; of 1->2 and 2->1, slot 1->2 is smaller
    pattern = mirrored(dk.Pattern([0, 1, 3, 4], [1, 0, 2, 1], 3, 3))
    assert list(pattern.reverse) == [1, 0, 3, 2]
    x = dk.Tensor([[3.0], [3.0], [1.0], [5.0]], requires_grad=True)
    g = dk.Tensor([[1.0], [4.0], [2.0], [7.0]])
    with dk.Tape() as tape:
        out = dk.reverse_min(x, pattern)
        loss = dk.sum(dk.elementwise_mul(out, g))
    assert np.array_equal(out.values[:, 0], [3.0, 3.0, 1.0, 1.0])
    grads = tape.backward(loss)
    tie = 0.5 * 1.0 + 0.5 * 4.0
    assert np.array_equal(grads[x][:, 0], [tie, tie, 2.0 + 7.0, 0.0])


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
        loss = dk.sum(dk.linear([x], dk.Tensor(np.eye(2)), b))
    grads = tape.backward(loss)
    assert np.array_equal(grads[b], [[3.0, 3.0]])


def test_linear_relu_zero_preactivation_gets_zero_gradient():
    # pre-activations [0, 1]: the unit sitting exactly at 0 passes nothing back
    x = dk.Tensor([[1.0, -1.0]], requires_grad=True)
    w = dk.Tensor([[1.0, 1.0], [1.0, 0.0]], requires_grad=True)
    with dk.Tape() as tape:
        out = dk.linear([x], w, relu=True)
        loss = dk.sum(out)
    assert np.array_equal(out.values, [[0.0, 1.0]])
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], [[1.0, 0.0]])
    assert np.array_equal(grads[w], [[0.0, 0.0], [1.0, -1.0]])


@pytest.mark.parametrize("operand", ["message", "h", "W", "b"])
def test_linear_grad_check_each_operand(operand):
    rng = np.random.default_rng(11)
    ops = {"message": rng.standard_normal((4, 3)), "h": rng.standard_normal((4, 2)),
           "W": rng.standard_normal((3, 5)), "b": rng.standard_normal((1, 3))}
    weights = dk.Tensor(rng.standard_normal((4, 3)))
    point = dk.Tensor(ops[operand], requires_grad=True)
    tensors = {name: dk.Tensor(v) for name, v in ops.items()}

    def f(t):
        tensors[operand] = t
        out = dk.linear([tensors["message"], tensors["h"]], tensors["W"], tensors["b"],
                        relu=True)
        return dk.sum(dk.elementwise_mul(out, weights))

    report = dk.grad_check(f, point)
    assert report.passed, report


@pytest.mark.parametrize("inputs, w, b", [
    ([(4, 3), (4, 2)], (3, 6), None),       # block widths sum to 5, not 6
    ([(4, 3), (5, 2)], (3, 5), None),       # row counts differ
    ([(4, 3)], (3, 3), (3, 1)),             # bias is not (1, out)
    ([], (3, 0), None),                     # no input block
])
def test_linear_rejects_bad_shapes(inputs, w, b):
    with pytest.raises(ShapeError):
        dk.linear([dk.Tensor(np.ones(shape)) for shape in inputs], dk.Tensor(np.ones(w)),
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
            mid = dk.relu(x)
            loss = dk.sum(mid)
        ref = weakref.ref(mid.values)
        grads = tape.backward(loss)
        del mid, loss
        assert ref() is None
    finally:
        gc.enable()
    assert np.array_equal(grads[x], [[1.0, 0.0, 1.0]])


def test_backward_requires_scalar():
    x = dk.Tensor([[1.0, 2.0]], requires_grad=True)
    with dk.Tape() as tape:
        y = dk.relu(x)
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_three_layer_composite_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = dk.Tensor(rng.standard_normal((4, 3)))
    b = dk.Tensor(rng.standard_normal((3, 2)))
    x = dk.Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True)

    def f(t):
        h1 = dk.relu(dk.elementwise_mul(t, a))
        h2 = dk.sigmoid(dk.matmul(h1, b))
        return dk.sum(dk.elementwise_mul(h2, h2))

    report = dk.grad_check(f, x, step=1e-5, tol=1e-4)
    assert report.passed, report


# ---------------------------------------------------------------------------
# Segment ops


def test_segment_softmax_values_and_empty_segment():
    x = dk.Tensor([[1.0], [0.0], [2.0]])
    out = dk.segment_softmax(x, dk.Pattern([0, 2, 2, 3], [0, 1, 2], 3, 3))
    np.testing.assert_allclose(out.values[:2, 0], ref_softmax([1.0, 0.0]),
                               rtol=1e-15)
    assert out.values[2, 0] == 1.0


def test_segment_sum_and_mean():
    x = dk.Tensor([[1.0], [2.0], [5.0]])
    # spmm runs on a symmetric pattern: slots (0,0) (0,1) (1,0) (2,2)
    symmetric = mirrored(dk.Pattern([0, 2, 3, 4], [0, 1, 0, 2], 3, 3))
    sums = dk.spmm(dk.Tensor(np.ones((4, 1))), x, symmetric)
    np.testing.assert_allclose(sums.values[:, 0], [3.0, 1.0, 5.0])
    pattern = dk.Pattern([0, 2, 2, 3], np.arange(3), 3, 3)
    means = dk.segment_mean(x, pattern)
    np.testing.assert_allclose(means.values[:, 0], [1.5, 0.0, 5.0])


def test_segment_ops_gradients():
    pattern = dk.Pattern([0, 2, 2, 3], [0, 1, 2], 3, 3)
    x = dk.Tensor([[1.0], [0.5], [2.0]], requires_grad=True)

    def f_softmax(t):
        out = dk.segment_softmax(t, pattern)
        w = dk.Tensor([[1.0], [3.0], [2.0]])
        return dk.sum(dk.elementwise_mul(out, w))

    def f_mean(t):
        return dk.sum(dk.segment_mean(t, pattern))

    assert dk.grad_check(f_softmax, x).passed
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

        if symmetric:  # pair_dot and spmm refuse any other pattern
            g = rng.standard_normal(slots)
            out, (ga,) = _taped(lambda: dk.pair_dot(a, pattern), [a], g)
            want, want_a, want_b = ref_pair_dot(a.values, a.values, indptr, indices, g)
            np.testing.assert_allclose(out[:, 0], want, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(ga, want_a + want_b, rtol=1e-12, atol=1e-12)

            g = rng.standard_normal((n, d))
            out, (gw, gx) = _taped(lambda: dk.spmm(w, a, pattern), [w, a], g)
            want, want_w, want_x = ref_spmm(w.values[:, 0], a.values, indptr, indices, g)
            np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
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
    # pair_cosine takes both paths; pair_dot and spmm have only the fast one,
    # so they are held to the gather-scatter oracle.
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
    out, (gx,) = _taped(lambda: dk.pair_dot(x, fast), [x], g_slot)
    want, want_a, want_b = ref_pair_dot(x.values, x.values, indptr, indices, g_slot)
    _assert_rel_close(out[:, 0], want)
    _assert_rel_close(gx, want_a + want_b)
    out, (gw, gx) = _taped(lambda: dk.spmm(w, x, fast), [w, x], g_node)
    want, want_w, want_x = ref_spmm(w.values[:, 0], x.values, indptr, indices, g_node)
    for got, ref in ((out, want), (gw[:, 0], want_w), (gx, want_x)):
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
        dots = dk.pair_dot(x, pattern)
        cos = dk.pair_cosine(x, pattern)
        loss = dk.add(dk.sum(dots), dk.sum(cos))
    assert len(seen) == 2
    for rows, cols in seen:
        assert np.array_equal(rows, pattern.rows[upper])
        assert np.array_equal(cols, pattern.indices[upper])
    tape.backward(loss)
    w = dk.Tensor(rng.standard_normal((pattern.indices.size, 1)), requires_grad=True)
    with dk.Tape() as tape:
        loss = dk.sum(dk.spmm(w, x, pattern))
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
    checks = [(lambda t: slot_loss(dk.pair_cosine(t, pattern)), x)]
    if symmetric:  # pair_dot, spmm and reverse_min refuse any other pattern
        checks += [
            (lambda t: slot_loss(dk.pair_dot(t, pattern)), x),
            (lambda t: node_loss(dk.spmm(weights, t, pattern)), x),
            (lambda t: node_loss(dk.spmm(t, other, pattern)), w),
        ]
        # values 1 apart keep every pair off the min's tie, where it has a kink
        v = dk.Tensor(rng.permutation(pattern.indices.size).reshape(-1, 1) + 0.5,
                      requires_grad=True)
        checks.append((lambda t: slot_loss(dk.reverse_min(t, pattern)), v))
    for f, point in checks:
        report = dk.grad_check(f, point)
        assert report.passed, report


def test_spmm_skips_gradient_of_frozen_side():
    x = dk.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    w = dk.Tensor([[0.5], [2.0]])
    with dk.Tape() as tape:
        loss = dk.sum(dk.spmm(w, x, mirrored(dk.Pattern([0, 1, 2], [1, 0], 2, 2))))
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], [[2.0, 2.0], [0.5, 0.5]])
    assert w not in grads


@pytest.mark.parametrize("op", [
    dk.matmul, dk.add, dk.elementwise_mul,
    # a frozen W, as in adaptation, gets no gradient
    pytest.param(lambda x, w: dk.linear([x], w), id="linear"),
])
def test_dense_ops_skip_gradient_of_frozen_side(op):
    frozen = dk.Tensor([[1.0, 2.0], [3.0, 4.0]])
    live = dk.Tensor([[0.5, -1.0], [2.0, 0.25]], requires_grad=True)
    for a, b in ((frozen, live), (live, frozen)):
        with dk.Tape() as tape:
            op(a, b)
        (_, bwd), = tape._entries
        grads = {id(t): grad for t, grad in bwd(np.ones((2, 2)))}
        assert grads[id(frozen)] is None
        assert grads[id(live)].shape == (2, 2)


def test_pair_cosine_zero_row_and_guarded_pair_get_exact_zero_gradient():
    # node 0 is all zero; nodes 2 and 3 are tiny, so their product falls
    # under the 1e-12 guard; nodes 1 and 4 form an ordinary pair.
    x = dk.Tensor([[0.0, 0.0], [1.0, 2.0], [1e-7, 0.0], [1e-7, 1e-7], [2.0, -1.0]],
                  requires_grad=True)
    pattern = dk.Pattern([0, 2, 3, 4, 4, 5], [1, 4, 0, 3, 1], 5, 5)
    with dk.Tape() as tape:
        out = dk.pair_cosine(x, pattern)
        loss = dk.sum(dk.elementwise_mul(out, dk.Tensor([[1.0], [2.0], [3.0], [4.0], [5.0]])))
    grads = tape.backward(loss)
    assert np.array_equal(grads[x][[0, 2, 3]], np.zeros((3, 2)))
    assert np.all(grads[x][[1, 4]] != 0.0)
    # a guarded value is dot / 1e-12: 0 with a zero row, 1e-14 / 1e-12 here
    assert np.array_equal(out.values[:3, 0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(out.values[3, 0], 1e-14 / 1e-12, rtol=1e-15)


def test_pattern_ops_on_empty_pattern_give_zeros():
    x = dk.Tensor(np.ones((3, 2)), requires_grad=True)
    pattern = mirrored(dk.Pattern(np.zeros(4), np.zeros(0), 3, 3))
    w = dk.Tensor(np.zeros((0, 1)), requires_grad=True)
    with dk.Tape() as tape:
        dots = dk.pair_dot(x, pattern)
        cos = dk.pair_cosine(x, pattern)
        msg = dk.spmm(w, x, pattern)
        loss = dk.add(dk.add(dk.sum(dots), dk.sum(cos)), dk.sum(msg))
    assert dots.shape == cos.shape == (0, 1)
    assert np.array_equal(msg.values, np.zeros((3, 2)))
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], np.zeros((3, 2)))
    assert grads[w].shape == (0, 1)


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
    with pytest.raises(ShapeError, match="pair_dot"):
        dk.pair_dot(x, mirrored(dk.Pattern([0, 1, 2], [1, 0], 2, 2)))
    with pytest.raises(ShapeError):
        dk.pair_cosine(x, dk.Pattern([0, 1, 2], [0, 1], 2, 2))
    with pytest.raises(ShapeError, match="spmm"):
        dk.spmm(dk.Tensor(np.ones((2, 1))), x, diagonal)
    with pytest.raises(ShapeError, match="spmm"):
        dk.spmm(dk.Tensor(np.ones((3, 1))), dk.Tensor(np.ones((2, 2))), diagonal)
    with pytest.raises(ShapeError):
        dk.segment_mean(dk.Tensor(np.ones((2, 1))), dk.Pattern([0, 1, 2, 3], [0, 1, 2], 3, 3))
    # pair_dot, spmm and reverse_min refuse a pattern without ``reverse``
    one_way = dk.Pattern([0, 1, 1], [1], 2, 2)
    two = dk.Tensor(np.ones((2, 2)))
    with pytest.raises(ShapeError, match="pair_dot needs a symmetric"):
        dk.pair_dot(two, one_way)
    with pytest.raises(ShapeError, match="spmm needs a symmetric"):
        dk.spmm(dk.Tensor(np.ones((1, 1))), two, one_way)
    with pytest.raises(ShapeError, match="symmetric"):
        dk.reverse_min(dk.Tensor(np.ones((2, 1))), dk.Pattern([0, 1, 2], [1, 0], 2, 2))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(-20, 20), min_size=1, max_size=6),
                min_size=1, max_size=6))
def test_segment_softmax_segments_sum_to_one(segments):
    flat = [v for seg in segments for v in seg]
    indptr = np.cumsum([0] + [len(seg) for seg in segments])
    pattern = dk.Pattern(indptr, np.zeros(len(flat)), len(segments), 1)
    out = dk.segment_softmax(dk.Tensor(np.array(flat).reshape(-1, 1)), pattern)
    for i in range(len(segments)):
        total = out.values[indptr[i]:indptr[i + 1], 0].sum()
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
        dk.adam_step([p], [np.zeros((2, 2))], state)
    assert np.array_equal(p.values, before)


def test_adam_single_step_closed_form():
    # t=1: m_hat = g, v_hat = g^2, update = -lr * g / (|g| + eps)
    g = 2.0
    lr = 0.001
    expected = 1.0 - lr * g / (abs(g) + 1e-8)
    p = dk.Tensor([[1.0]], requires_grad=True)
    state = dk.AdamState([p], lr=lr)
    dk.adam_step([p], [np.array([[g]])], state)
    assert abs(p.values[0, 0] - expected) < 1e-15
    assert abs(p.values[0, 0] - (1.0 - lr)) < 1e-8


def test_adam_two_steps_match_reference():
    grads = [np.array([[0.5, -2.0]]), np.array([[1.5, 0.25]])]
    expected = ref_adam([[1.0, -1.0]], grads)
    p = dk.Tensor([[1.0, -1.0]], requires_grad=True)
    state = dk.AdamState([p])
    for g in grads:
        dk.adam_step([p], [g], state)
    np.testing.assert_allclose(p.values, expected, rtol=0, atol=0)


def test_adam_runs_are_bitwise_identical():
    def run():
        p = dk.Tensor([[0.1, 0.2]], requires_grad=True)
        state = dk.AdamState([p], lr=0.01)
        rng = np.random.default_rng(3)
        for _ in range(20):
            dk.adam_step([p], [rng.standard_normal((1, 2))], state)
        return p.values

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    p = dk.Tensor([[1.0]], requires_grad=True)
    state = dk.AdamState([p])
    with pytest.raises(ShapeError):
        dk.adam_step([p], [np.zeros((2, 2))], state)


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
