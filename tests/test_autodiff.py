import math

import numpy as np
import pytest

import reference
from mccws import autodiff as ad
from mccws.autodiff import (
    Rows, Tensor, attention, backward, cross_entropy, dropout, embedding_lookup, gather_rows,
    layer_norm, linear, make_rng, parameter,
)

from gradutil import assert_grads_match, finite_diff, max_violation


# -- matmul: the products inside linear and attention ---------------------------------

def test_matmul_grad_matches_fd():
    # linear's product x @ w.T
    a = parameter([[1.0, 2.0]])
    w = Tensor([[3.0, 4.0]])
    backward(linear(a, w).sum())
    fd = finite_diff(lambda: linear(a, w).sum().item(), [a])[0]
    assert max_violation(fd, a.grad) <= 1.0
    assert np.allclose(a.grad, [[3.0, 4.0]], atol=1e-12)


def test_matmul_stacked_and_broadcast_grad():
    # attention's stacked products over [B, heads, L, dk], then a linear
    # layer whose bias is added to every row
    valid = np.ones((2, 3), dtype=bool)
    rows, qkv = attention_inputs(0, valid)
    w = parameter(make_rng(1).normal(size=(3, 4)))
    c = parameter(make_rng(2).normal(size=3))

    def loss():
        return linear(attention(*qkv, rows, 2), w, c).tanh().sum()

    backward(loss())
    assert_grads_match(lambda: loss().item(), qkv + [w, c])


def test_matmul_shape_mismatch():
    # linear's x @ w.T needs x [N, in] and w [out, in]
    with pytest.raises(ValueError, match="linear"):
        linear(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0, 3.0]]))


def test_matmul_refuses_unequal_leading_dims():
    # only 2-D rows: a stack of rows is refused, not broadcast
    for x, w in [((2, 4, 3), (5, 3)), ((4, 3), (2, 5, 3)), ((2, 4, 3), (2, 5, 3))]:
        with pytest.raises(ValueError, match="linear"):
            linear(Tensor(np.ones(x)), Tensor(np.ones(w)))


def split_heads(x):
    """[2, 3, 4] -> [2, 2, 3, 2], a strided view, as attention splits heads."""
    return x.reshape(2, 3, 2, 2).transpose(0, 2, 1, 3)


def merge_heads(x):
    """[2, 2, 3, 2] -> [2, 3, 2, 2], the strided view attention merges heads from."""
    return x.transpose(0, 2, 1, 3)


@pytest.mark.parametrize("shape, view", [
    ((2, 3, 4), None),
    ((2, 2, 3, 4), None),
    ((2, 3, 4), split_heads),
    ((2, 2, 3, 2), merge_heads),
])
def test_matmul_folded_2d_right_grad(shape, view):
    # [..., d], possibly a strided view, with its leading dims folded into
    # rows by gather_rows over all-real rows, through linear: x @ w.T, whose
    # right operand is a non-contiguous view of the stored w
    rng = make_rng(13)
    base = rng.normal(size=shape)
    x = parameter(view(base) if view else base)
    d = x.data.shape[-1]
    w = parameter(rng.normal(size=(5, d)))
    r = Tensor(rng.normal(size=(x.data.size // d, 5)))
    rows = Rows(np.ones(x.data.shape[:-1], dtype=bool))

    def loss():
        return (linear(gather_rows(x, rows), w) * r).sum()

    assert x.data.flags.c_contiguous == (view is None)
    backward(loss())
    assert_grads_match(lambda: loss().item(), [x, w])


def test_matmul_non_contiguous_operands_grad():
    # strided operands: linear's x and w are 2-D transposes, attention's q and
    # k transposes of [d, count] arrays (it splits heads into strided views)
    rng = make_rng(15)
    rows = Rows(PADDED_VALID)
    x = parameter(rng.normal(size=(4, 3)).T)
    w = parameter(rng.normal(size=(4, 5)).T)
    q = parameter(rng.normal(size=(4, rows.count)).T)
    k = parameter(rng.normal(size=(4, rows.count)).T)
    v = parameter(rng.normal(size=(rows.count, 4)))
    params = [x, w, q, k, v]

    def loss():
        flat = linear(x, w)  # [3, 4] @ [4, 5]
        ctx = attention(q, k, v, rows, 2)
        return (flat * flat).sum() + (ctx * ctx).sum()

    assert not any(t.data.flags.c_contiguous for t in (x, w, q, k))
    backward(loss())
    assert_grads_match(lambda: loss().item(), params)
    assert_no_shared_grads(params)


# -- softmax: attention's probabilities ---------------------------------------------

def test_softmax_uniform():
    # q = k = 0: equal scores over four real keys, so the context is v's mean
    rows = Rows(np.ones((1, 4), dtype=bool))
    zeros = Tensor(np.zeros((4, 2)))
    v = Tensor(np.arange(8.0).reshape(4, 2))
    ctx, p = attend(zeros, zeros, v, rows, 1)
    assert np.allclose(p, 0.25, atol=1e-15)
    assert np.allclose(ctx.data, v.data.mean(axis=0), atol=1e-15)


def test_softmax_reference_values():
    # q and k that score 1, 2, 3 (q . k / sqrt(4)); frozen from direct exp/sum
    # evaluation. v's rows are unit vectors, so each context row repeats its
    # probabilities.
    rows = Rows(np.ones((1, 3), dtype=bool))
    q = Tensor(np.tile([2.0, 0.0, 0.0, 0.0], (3, 1)))
    k = Tensor(np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0]]))
    ctx, p = attend(q, k, Tensor(np.eye(3, 4)), rows, 1)
    expected = [0.09003057, 0.24472847, 0.66524096]
    assert np.allclose(p, expected, atol=1e-5)
    assert np.allclose(ctx.data, expected + [0.0], atol=1e-5)


def test_softmax_large_inputs_stable():
    # q and k that score 1000 and 0 (one head of one feature, so no scaling):
    # too large for the unshifted softmax, so the node shifts each row by its
    # maximum and matches the reference bit for bit; finite, one-hot on 1000
    rows = Rows(np.ones((1, 2), dtype=bool))
    q, k, v = Tensor([[1000.0], [1000.0]]), Tensor([[1.0], [0.0]]), Tensor([[1.0], [-1.0]])
    assert not unshifted(q, k, v, 1, 2)
    ctx, p = attend(q, k, v, rows, 1)
    assert np.isfinite(p).all()
    assert (p[..., 0] > 1 - 1e-12).all() and (p[..., 1] < 1e-12).all()
    assert np.array_equal(ctx.data, reference.attention(q.data, k.data, v.data, rows.valid, 1)[0])
    assert np.array_equal(ctx.data, v.data[[0, 0]])


def test_softmax_rows_sum_to_one_and_shift_invariant():
    # one vector u added to every real key adds q_i . u / sqrt(dk) to every
    # score of query row i, which leaves its probabilities as they are; with
    # shifts of up to about 100 the node still takes its unshifted path
    rows, (q, k, v) = attention_inputs(1, PADDED_VALID)
    k_shift = Tensor(k.data + [20.0, -20.0, 20.0, 20.0])
    assert unshifted(q, k_shift, v, 2, 4)
    ctx, p = attend(q, k, v, rows, 2)
    ctx_shift, p_shift = attend(q, k_shift, v, rows, 2)
    assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12
    assert np.abs(p - p_shift).max() < 1e-12
    assert np.abs(ctx.data - ctx_shift.data).max() < 1e-12


def test_softmax_grad():
    # v is a constant, so q and k reach the loss only through the softmax
    rows, (q, k, _) = attention_inputs(2, PADDED_VALID)
    rng = make_rng(3)
    v = Tensor(rng.normal(size=(rows.count, 4)))
    w = Tensor(rng.normal(size=(rows.count, 4)))

    def loss():
        return (attention(q, k, v, rows, 2) * w).sum()

    backward(loss())
    assert_grads_match(lambda: loss().item(), [q, k])


# -- linear --------------------------------------------------------------------

@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("transposed", [False, True])
def test_linear_equals_composite_and_grad(bias, transposed):
    # one node, bit-identical in float64 to numpy's x @ w.T (+ b); transposed
    # feeds a non-contiguous x
    rng = make_rng(30)
    x = parameter(rng.normal(size=(3, 4)).T if transposed else rng.normal(size=(4, 3)))
    w = parameter(rng.normal(size=(5, 3)))
    b = parameter(rng.normal(size=5)) if bias else None
    r = Tensor(rng.normal(size=(4, 5)))
    params = [x, w] + ([b] if bias else [])

    def loss():
        return (linear(x, w, b).tanh() * r).sum()

    expected = np.matmul(x.data, w.data.T)
    if bias:
        expected = expected + b.data
    assert x.data.flags.c_contiguous != transposed
    assert np.array_equal(linear(x, w, b).data, expected)
    backward(loss())
    assert_grads_match(lambda: loss().item(), params)
    assert_no_shared_grads(params)


def test_linear_refuses_bad_shapes():
    with pytest.raises(ValueError, match="linear bias"):
        linear(Tensor(np.ones((4, 3))), Tensor(np.ones((5, 3))), Tensor(np.ones(3)))


# -- layer_norm --------------------------------------------------------------------

def test_layer_norm_constant_row_collapses():
    x = Tensor(np.full((2, 8), 3.7))
    g = Tensor(np.ones(8))
    b = Tensor(np.zeros(8))
    assert np.allclose(layer_norm(x, g, b).data, 0.0, atol=1e-6)


def test_layer_norm_already_normalized():
    x = Tensor([[1.0, -1.0]])
    y = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2))).data
    assert np.allclose(y, [[1.0, -1.0]], atol=1e-12)


def test_layer_norm_epsilon_follows_dtype():
    # a row of variance 1e-6 normalizes to about +-1 in float64 (eps 1e-12)
    # and to +-1e-3 / sqrt(1e-6 + 1e-5) in float32 (eps 1e-5)
    for dtype, eps in ((np.float64, 1e-12), (np.float32, 1e-5)):
        x = Tensor(np.array([[1e-3, -1e-3]], dtype=dtype))
        y = layer_norm(x, Tensor(np.ones(2, dtype=dtype)), Tensor(np.zeros(2, dtype=dtype))).data
        assert y.dtype == dtype
        assert np.allclose(y, [[1e-3 / math.sqrt(1e-6 + eps), -1e-3 / math.sqrt(1e-6 + eps)]],
                           rtol=1e-5)


def test_layer_norm_stats():
    rng = make_rng(3)
    x = Tensor(rng.normal(size=(10, 16)) * 4 + 2)
    y = layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    assert np.abs(y.mean(axis=1)).max() <= 1e-10
    assert np.abs(y.var(axis=1) - 1.0).max() <= 1e-8


def test_layer_norm_grad():
    rng = make_rng(4)
    x = parameter(rng.normal(size=(3, 4)))
    g = parameter(rng.normal(size=4))
    b = parameter(rng.normal(size=4))
    w = Tensor(rng.normal(size=(3, 4)))

    def loss_fn():
        return (layer_norm(x, g, b) * w).sum().item()

    backward((layer_norm(x, g, b) * w).sum())
    assert_grads_match(loss_fn, [x, g, b])


# -- dropout -----------------------------------------------------------------------

def every_row(n):
    return Rows(np.ones(n, dtype=bool))


def test_dropout_p_zero_identity():
    x = Tensor([1.0, 2.0, 3.0])
    assert dropout(x, 0.0, training=True, rng=make_rng(0), rows=every_row(3)) is x


def test_dropout_eval_identity():
    x = Tensor([1.0, 2.0, 3.0])
    assert dropout(x, 0.9, training=False, rng=None, rows=every_row(3)) is x


def test_dropout_statistics():
    rng = make_rng(5)
    x = Tensor(np.ones(10_000))
    y = dropout(x, 0.5, training=True, rng=rng, rows=every_row(10_000)).data
    zero_frac = float((y == 0).mean())
    assert 0.48 <= zero_frac <= 0.52
    assert abs(y.mean() - 1.0) <= 0.05


def test_dropout_invalid_p():
    with pytest.raises(ValueError):
        dropout(Tensor([1.0]), 1.0, training=True, rng=make_rng(0), rows=every_row(1))


def test_dropout_grad_with_frozen_mask():
    x = parameter(np.linspace(-1, 1, 12).reshape(3, 4))

    def loss_fn():
        y = dropout(x, 0.25, training=True, rng=make_rng(77), rows=every_row(3))
        return (y * y).sum().item()

    y = dropout(x, 0.25, training=True, rng=make_rng(77), rows=every_row(3))
    backward((y * y).sum())
    assert_grads_match(loss_fn, [x])


def test_dropout_over_real_rows_draws_the_padded_mask():
    # the mask of packed rows is the padded mask's real rows: same rng stream
    valid = np.array([[True, True, False], [True, False, False]])
    for rows in (Rows(valid), Rows(np.ones((2, 3), dtype=bool))):
        padded = make_rng(0).normal(size=rows.shape + (4,))
        y = dropout(Tensor(rows.pack(padded)), 0.5, training=True, rng=make_rng(12),
                    rows=rows).data
        kept = make_rng(12).random(padded.shape) >= 0.5
        assert np.array_equal(y, rows.pack(padded * (kept.astype(np.float64) / 0.5)))


# -- row gather ---------------------------------------------------------------------

PADDED_VALID = np.array([[True, True, False, False], [True, True, True, False],
                         [False, False, False, False]])


def test_rows_index_and_pack():
    rows = Rows(PADDED_VALID)
    assert rows.shape == (3, 4) and rows.count == 5
    assert rows.index.tolist() == [0, 1, 4, 5, 6]
    a = np.arange(24).reshape(3, 4, 2)
    assert np.array_equal(rows.pack(a), a[PADDED_VALID])
    dense = Rows(np.ones((2, 3), dtype=bool))
    assert dense.index is None and dense.count == 6
    assert np.array_equal(dense.pack(a[:2, :3]), a[:2, :3].reshape(6, 2))


def test_gather_scatter_rows_values():
    # gather_rows packs the real rows and Rows.unpack scatters them back
    for valid in (PADDED_VALID, np.ones((2, 3), dtype=bool)):
        rows = Rows(valid)
        x = make_rng(13).normal(size=valid.shape + (2, 3))
        packed = gather_rows(Tensor(x), rows)
        assert np.array_equal(packed.data, x[valid])
        padded = rows.unpack(packed.data)
        assert padded.shape == x.shape
        assert np.array_equal(padded[valid], x[valid])
        assert not padded[~valid].any()  # zero at padding


@pytest.mark.parametrize("valid", [PADDED_VALID, np.ones((2, 3), dtype=bool)])
def test_gather_scatter_rows_grad(valid):
    # gather_rows' backward scatters the gradient back to the padded rows
    rows = Rows(valid)
    rng = make_rng(14)
    x = parameter(rng.normal(size=valid.shape + (3,)))
    w = Tensor(rng.normal(size=(rows.count, 3)))

    def loss():
        return (gather_rows(x, rows) * w).tanh().sum()

    backward(loss())
    assert_grads_match(lambda: loss().item(), [x])
    assert not x.grad[~valid].any()  # padding gets no gradient


def test_row_ops_keep_float32():
    for valid in (PADDED_VALID, np.ones((2, 3), dtype=bool)):
        x = parameter(np.ones(valid.shape + (2,), dtype=np.float32))
        packed = gather_rows(x, Rows(valid))
        assert packed.data.dtype == np.float32
        backward(packed.sum())
        assert x.grad.dtype == np.float32


# -- attention ---------------------------------------------------------------------

def attention_inputs(seed, valid, d=4, dtype=np.float64):
    """Packed q, k, v parameters [count, d] for the real rows of valid."""
    rows = Rows(valid)
    rng = make_rng(seed)
    return rows, [parameter((rng.normal(size=(rows.count, d)) * 2.0).astype(dtype))
                  for _ in range(3)]


def attend(q, k, v, rows, heads):
    """The node's context and the reference's probabilities for the same
    inputs. The context must match the reference's to rounding: within
    1e-12 (float64) or 1e-5 (float32) of max(1, max|v|), a bound on its
    entries."""
    ctx = attention(q, k, v, rows, heads)
    ref_ctx, p = reference.attention(q.data, k.data, v.data, rows.valid, heads)
    tol = 1e-12 if q.data.dtype == np.float64 else 1e-5
    assert np.abs(ctx.data - ref_ctx).max() <= tol * max(1.0, np.abs(v.data).max())
    return ctx, p


def unshifted(q, k, v, heads, length):
    """Whether the node takes its unshifted softmax for these inputs."""
    dk = q.data.shape[1] // heads
    return ad._unshifted_softmax_is_safe(q.data * (1.0 / math.sqrt(dk)), k.data, v.data,
                                         heads, length)


@pytest.mark.parametrize("valid", [PADDED_VALID, np.ones((2, 3), dtype=bool)],
                         ids=["padded", "dense"])
def test_attention_equals_composite(valid):
    # the float64 context matches the numpy composition of the steps the node
    # fuses, to rounding on the unshifted path that these inputs take (the
    # shifted path is bit-equal, test below); the gradients match finite
    # differences of that composition
    rows, qkv = attention_inputs(20, valid)
    w = make_rng(21).normal(size=(rows.count, 4))

    def ref():
        return reference.attention(*(t.data for t in qkv), valid, 2)

    assert unshifted(*qkv, 2, valid.shape[1])
    ctx = attention(*qkv, rows, 2)
    assert np.abs(ctx.data - ref()[0]).max() <= 1e-12 * np.abs(qkv[2].data).max()
    backward((ctx * Tensor(w)).sum())
    assert_grads_match(lambda: float((ref()[0] * w).sum()), qkv)
    assert_no_shared_grads(qkv)


@pytest.mark.parametrize("valid", [PADDED_VALID, np.ones((2, 3), dtype=bool)],
                         ids=["padded", "dense"])
def test_attention_shifted_path_equals_composite(valid, monkeypatch):
    # with the unshifted softmax ruled out, the node runs the reference's
    # steps and its context is bit-identical to it; the gradients match
    # finite differences of the reference
    monkeypatch.setattr(ad, "_unshifted_softmax_is_safe", lambda *args: False)
    rows, qkv = attention_inputs(20, valid)
    w = make_rng(21).normal(size=(rows.count, 4))

    def ref():
        return reference.attention(*(t.data for t in qkv), valid, 2)

    ctx = attention(*qkv, rows, 2)
    assert np.array_equal(ctx.data, ref()[0])
    backward((ctx * Tensor(w)).sum())
    assert_grads_match(lambda: float((ref()[0] * w).sum()), qkv)
    assert_no_shared_grads(qkv)


@pytest.mark.parametrize("valid", [PADDED_VALID, np.ones((2, 3), dtype=bool)],
                         ids=["padded", "dense"])
def test_attention_grad(valid):
    rows, qkv = attention_inputs(22, valid)
    w = Tensor(make_rng(23).normal(size=(rows.count, 4)))

    def loss():
        return (attention(*qkv, rows, 2) * w).sum()

    assert unshifted(*qkv, 2, valid.shape[1])
    backward(loss())
    assert_grads_match(lambda: loss().item(), qkv)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("valid", [PADDED_VALID, np.ones((2, 3), dtype=bool)],
                         ids=["padded", "dense"])
def test_unshifted_attention_matches_reference(valid, dtype):
    # PADDED_VALID's third sentence has no real token, so its padding rows
    # have no real key: they must not turn into 0/0 (warnings are errors),
    # neither in the context nor in the probabilities the backward keeps
    rows, qkv = attention_inputs(27, valid, d=8, dtype=dtype)
    assert unshifted(*qkv, 2, valid.shape[1])
    ctx, _ = attend(*qkv, rows, 2)
    assert ctx.data.dtype == np.dtype(dtype)
    backward(ctx.sum())
    assert all(np.isfinite(t.grad).all() and t.grad.dtype == np.dtype(dtype) for t in qkv)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_unshifted_attention_at_its_limit(dtype):
    # one sentence of 128 real tokens (the default max_len) with one head
    # whose scores reach the norm bound M from both sides: key 0 scores -M
    # against every query and the others +M, which makes the row sums nearly
    # as large, and key 0's probability nearly as small, as M allows. At the
    # largest M that takes the unshifted path, nothing overflows, no exp or
    # probability is subnormal (underflow raises), and no NaN appears.
    length, d = 128, 4
    rows = Rows(np.ones((1, length), dtype=bool))
    sign = np.where(np.arange(length) == 0, -1.0, 1.0)

    def inputs(m):  # q . k / sqrt(4) = +-m, with |q| = 2 sqrt(m) and |k| = sqrt(m)
        q = np.zeros((length, d), dtype=dtype)
        k = np.zeros((length, d), dtype=dtype)
        q[:, 0] = 2.0 * math.sqrt(m)
        k[:, 0] = sign * math.sqrt(m)
        v = (np.arange(length * d).reshape(length, d) % 3 - 1.0).astype(dtype)
        return [parameter(a) for a in (q, k, v)]

    lo, hi = 1.0, 1000.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if unshifted(*inputs(mid), 1, length) else (lo, mid)
    # about half the exponent range: (-log(tiny) - log(length + 1)) / 2
    assert (351.0 < lo < 353.0) if dtype == "float64" else (40.5 < lo < 42.0)
    qkv = inputs(lo)
    with np.errstate(all="raise"):
        ctx = attention(*qkv, rows, 1)
    ref_ctx, p = reference.attention(*(t.data for t in qkv), rows.valid, 1)
    assert p[0, 0, 0, 0] > 0.0 and np.isfinite(ctx.data).all()
    tol = 1e-12 if dtype == "float64" else 1e-5
    assert np.abs(ctx.data - ref_ctx).max() <= tol
    backward(ctx.sum())
    assert all(np.isfinite(t.grad).all() for t in qkv)


def test_attention_large_v_takes_shifted_path():
    # scores of about 5 are safe to exponentiate, but with |v| near 1e37 the
    # unnormalised float32 product exp(S) @ v would overflow; the node's
    # bound counts max|v|, so it shifts instead and matches the reference
    rows = Rows(np.ones((1, 4), dtype=bool))
    q = Tensor(np.full((4, 2), math.sqrt(5.0), dtype=np.float32))
    k = Tensor(np.full((4, 2), math.sqrt(2.5), dtype=np.float32))
    v = Tensor(np.array([[1e37, -1e37], [2e37, 1e37], [-2e37, 1e36], [1e37, 1e37]],
                        dtype=np.float32))
    assert not unshifted(q, k, v, 1, 4)
    ctx = attention(q, k, v, rows, 1)
    assert np.isfinite(ctx.data).all()
    assert np.array_equal(ctx.data, reference.attention(q.data, k.data, v.data, rows.valid, 1)[0])


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_attention_masked_keys_get_zero(dtype):
    # sentence 0 has three real keys, sentence 1 only key 0, its criterion token
    valid = np.array([[True, True, True, False, False],
                      [True, False, False, False, False]])
    rows, qkv = attention_inputs(24, valid, d=6, dtype=dtype)
    ctx, y = attend(*qkv, rows, 3)
    assert y.dtype == ctx.data.dtype == np.dtype(dtype)
    assert (y[0, ..., 3:] == 0.0).all() and (y[0, ..., :3] > 0.0).all()
    assert np.abs(y.sum(axis=-1) - 1.0).max() < 1e-6
    # only the criterion token is a real key: every row is one-hot on it,
    # so sentence 1's one real row passes v's row through
    assert (y[1, ..., 0] == 1.0).all() and (y[1, ..., 1:] == 0.0).all()
    assert np.allclose(ctx.data[3], qkv[2].data[3], rtol=1e-6, atol=0.0)


def test_attention_rejects_mask_that_grows_scores():
    # rows is the key mask; one whose real rows are not q, k and v's is refused
    rows, qkv = attention_inputs(25, PADDED_VALID)
    for valid in [np.ones((3, 4), dtype=bool), np.ones((3, 5), dtype=bool),
                  np.ones((1, 4), dtype=bool)]:
        with pytest.raises(ValueError, match="attention needs"):
            attention(*qkv, Rows(valid), 2)
    for i in range(3):
        for shape in [(rows.count + 1, 4), (rows.count, 1, 4), (1, 4)]:
            bad = list(qkv)
            bad[i] = Tensor(np.zeros(shape))
            with pytest.raises(ValueError, match="attention needs"):
                attention(*bad, rows, 2)
    with pytest.raises(ValueError, match="heads"):
        attention(*qkv, rows, 3)


def test_linear_and_attention_keep_float32():
    f32 = np.float32
    for valid in (PADDED_VALID, np.ones((2, 3), dtype=bool)):
        rows, (x, _, _) = attention_inputs(26, valid, dtype=f32)
        w, b = parameter(np.eye(4, dtype=f32)), parameter(np.ones(4, dtype=f32))
        y = linear(x, w, b)
        ctx, p = attend(y, x, y, rows, 2)
        assert y.data.dtype == ctx.data.dtype == p.dtype == f32
        backward(ctx.sum())
        assert x.grad.dtype == w.grad.dtype == b.grad.dtype == f32


# -- embedding_lookup -----------------------------------------------------------------

def test_embedding_first_row():
    table = parameter(np.arange(12.0).reshape(4, 3))
    out = embedding_lookup(table, [0])
    assert np.array_equal(out.data, [[0.0, 1.0, 2.0]])


def test_embedding_repeated_rows_accumulate():
    table = parameter(np.arange(12.0).reshape(4, 3))

    def loss_fn():
        return (embedding_lookup(table, [2, 2]) * embedding_lookup(table, [2, 2])).sum().item()

    out = embedding_lookup(table, [2, 2])
    backward((out * out).sum())
    assert_grads_match(loss_fn, [table])
    assert np.allclose(table.grad[2], 4.0 * table.data[2])  # both gathers contribute


def test_embedding_empty_ids():
    table = parameter(np.ones((4, 3)))
    assert embedding_lookup(table, []).data.shape == (0, 3)


def test_embedding_out_of_range():
    with pytest.raises(IndexError):
        embedding_lookup(parameter(np.ones((4, 3))), [4])


# -- cross_entropy ---------------------------------------------------------------------

def test_cross_entropy_uniform():
    logits = Tensor(np.zeros((3, 4)))
    loss = cross_entropy(logits, [0, 1, 2])
    assert abs(loss.item() - 3 * math.log(4)) < 1e-12


def test_cross_entropy_confident():
    logits = np.zeros((2, 4))
    logits[0, 1] = 30.0
    logits[1, 3] = 30.0
    loss = cross_entropy(Tensor(logits), [1, 3])
    assert loss.item() < 1e-9


def test_cross_entropy_matches_direct_nll():
    rng = make_rng(6)
    raw = rng.normal(size=(5, 4)) * 3
    targets = rng.integers(0, 4, size=5)
    # independent oracle: plain exp/sum probabilities, no log-sum-exp trick
    probs = np.exp(raw) / np.exp(raw).sum(axis=1, keepdims=True)
    expected = sum(-math.log(probs[i, targets[i]]) for i in range(5))
    loss = cross_entropy(Tensor(raw), targets)
    assert abs(loss.item() - expected) < 1e-10


def test_cross_entropy_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        cross_entropy(Tensor(np.zeros((0, 3))), [])


def test_cross_entropy_grad():
    rng = make_rng(8)
    x = parameter(rng.normal(size=(6, 4)))
    targets = rng.integers(0, 4, size=6)

    def loss_fn():
        return cross_entropy(x, targets).item()

    backward(cross_entropy(x, targets))
    assert_grads_match(loss_fn, [x])


# -- backward / tape --------------------------------------------------------------------

def test_backward_sum_gives_ones():
    w = parameter(np.arange(6.0).reshape(2, 3))
    backward(w.sum())
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_composite_matches_fd():
    rng = make_rng(9)
    w = parameter(rng.normal(size=(3, 3)))
    x = Tensor(rng.normal(size=(2, 3)))

    def loss_fn():
        y = linear(w, x)
        return (y * y).sum().item()

    y = linear(w, x)
    backward((y * y).sum())
    assert_grads_match(loss_fn, [w])


def test_backward_unused_parameter_gets_zero():
    w1 = parameter(np.ones((2, 2)))
    w2 = parameter(np.ones((2, 2)))
    backward(w1.sum())
    assert np.array_equal(w1.grad, np.ones((2, 2)))
    assert w2.grad is None  # never touched: zero contribution


def test_backward_rejects_non_scalar():
    w = parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        backward(w + w)


def test_backward_reuse_accumulates():
    w = parameter(np.array([[2.0]]))
    y = w + w  # dL/dw = 2 through two paths
    backward(y.sum())
    assert np.allclose(w.grad, 2.0)


def test_backward_consumes_graph():
    w = parameter(np.array([[1.5, -0.5]]))
    loss = (w * w).sum()
    backward(loss)
    first = w.grad.copy()
    with pytest.raises(ValueError, match="consumed"):
        backward(loss)
    assert np.array_equal(w.grad, first)
    # a new graph that reaches into a consumed one is refused too
    h = w.tanh()
    backward(h.sum())
    with pytest.raises(ValueError, match="consumed"):
        backward((h * h).sum())


def test_backward_bit_deterministic():
    def run():
        params, loss = every_op_graph(0)
        backward(loss())
        return b"".join(p.grad.tobytes() for p in params)

    assert run() == run()


def every_op_graph(seed):
    """Parameters and a loss closure that pass through every differentiable op."""
    rng = make_rng(100 + seed)
    table = parameter(rng.normal(size=(7, 6)))
    w = parameter(rng.normal(size=(6, 6)))
    b = parameter(rng.normal(size=6))
    wq = parameter(rng.normal(size=(6, 6)))
    g = parameter(rng.normal(size=6))
    bias = parameter(rng.normal(size=6))
    padded = parameter(rng.normal(size=(3, 4, 6)))  # real rows gathered straight from it
    whole = parameter(rng.normal(size=(5, 1, 6)))  # the same, with no padding
    ids = rng.integers(0, 7, size=5)
    targets = rng.integers(0, 6, size=5)
    rows = Rows(PADDED_VALID)
    dense = Rows(np.ones((5, 1), dtype=bool))

    def loss():
        h = embedding_lookup(table, ids)
        gate = linear(h, wq).sigmoid()
        h = gate * linear(h, w, b) + (1.0 - gate) * h  # the fusion gate's blend
        h = layer_norm(h.tanh() + h.relu(), g, bias)
        h = h * gather_rows(padded, rows)
        h = attention(linear(h, wq), h, h + h, rows, 2)
        h = dropout(h + bias, 0.25, True, make_rng(seed), rows)
        h = h * gather_rows(whole, dense)
        return cross_entropy(h, targets) + (h * h).sum() * 0.5

    return [table, w, b, wq, g, bias, padded, whole], loss


def test_every_op_composite_fd_multiseed():
    # one pass through every differentiable op, spot-checked over 5 seeds
    for seed in range(5):
        params, loss = every_op_graph(seed)
        backward(loss())
        assert_grads_match(lambda: loss().item(), params)
        ad.zero_grads(params)


def assert_no_shared_grads(tensors):
    grads = [t.grad for t in tensors if t.grad is not None]
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)


def test_gradient_buffers_never_alias():
    params, loss = every_op_graph(0)
    backward(loss())
    assert all(p.grad is not None for p in params)
    assert_no_shared_grads(params)


def test_parameter_shared_by_matmuls_and_add_sums_grads():
    rng = make_rng(14)
    w = parameter(rng.normal(size=(3, 3)))
    v = parameter(rng.normal(size=(3, 3)))
    x = Tensor(rng.normal(size=(8, 3)))
    z = Tensor(rng.normal(size=(8, 3)))

    def loss():
        h = linear(x, w).tanh() + linear(z, w)
        s = w + v
        return (h * h).sum() + (s * s).sum()

    backward(loss())
    assert_grads_match(lambda: loss().item(), [w, v])
    assert_no_shared_grads([w, v])


def test_no_grad_blocks_recording():
    w = parameter(np.ones((2, 2)))
    with ad.no_grad():
        y = linear(w, w)
    assert y._parents == () and not y.requires_grad


def test_bias_row_broadcast_add_grad():
    rng = make_rng(12)
    x = parameter(rng.normal(size=(2, 3, 4)))
    b = parameter(rng.normal(size=4))

    def loss_fn():
        y = x + b
        return (y * y).sum().item()

    y = x + b
    backward((y * y).sum())
    assert_grads_match(loss_fn, [x, b])


def test_dtype_switch():
    # a tensor keeps float32 data; any other data becomes float64
    assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
    for data in ([1.0], [1], np.ones(2, dtype=np.float16), np.ones(2, dtype=np.int32)):
        assert Tensor(data).data.dtype == np.float64
