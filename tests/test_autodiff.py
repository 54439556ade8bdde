import math

import numpy as np
import pytest

from mccws import autodiff as ad
from mccws.autodiff import (
    Rows, Tensor, backward, cross_entropy, dropout, embedding_lookup, gather_rows, layer_norm,
    make_rng, masked_softmax, parameter, scatter_rows, softmax,
)

from gradutil import assert_grads_match, finite_diff, max_violation


# -- matmul --------------------------------------------------------------------

def test_matmul_identity():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(a.matmul(b).data, b.data)


def test_matmul_small():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    assert a.matmul(b).data.tolist() == [[11.0]]


def test_matmul_grad_matches_fd():
    a = parameter([[1.0, 2.0]])
    b = Tensor([[3.0], [4.0]])
    loss = a.matmul(b).sum()
    backward(loss)
    fd = finite_diff(lambda: a.matmul(b).sum().item(), [a])[0]
    assert max_violation(fd, a.grad) <= 1.0
    assert np.allclose(a.grad, [[3.0, 4.0]], atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        Tensor([[1.0, 2.0]]).matmul(Tensor([[1.0, 2.0]]))


def test_matmul_refuses_unequal_leading_dims():
    # only 2-D @ 2-D and stacks with equal leading dims; no broadcasting
    for left, right in [((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5)),
                        ((2, 3, 4), (3, 4, 5)), ((1, 3, 4), (2, 4, 5)),
                        ((2, 3, 4), (2, 2, 4, 5))]:
        with pytest.raises(ValueError, match="leading dims"):
            Tensor(np.ones(left)).matmul(Tensor(np.ones(right)))


def test_matmul_stacked_and_broadcast_grad():
    # a stack times a stack, then its rows times a matrix plus a bias
    # broadcast over them, as attention and the packed linear layers do
    rng = make_rng(0)
    a = parameter(rng.normal(size=(2, 3, 4)))
    b = parameter(rng.normal(size=(2, 4, 5)))
    w = parameter(rng.normal(size=(5, 3)))
    c = parameter(rng.normal(size=3))

    def loss():
        return ((a.matmul(b).reshape(6, 5).matmul(w) + c).tanh()).sum()

    backward(loss())
    assert_grads_match(lambda: loss().item(), [a, b, w, c])


def split_heads(x):
    """[2, 3, 4] -> [2, 2, 3, 2], a strided view, as attention splits heads."""
    return x.reshape(2, 3, 2, 2).transpose(0, 2, 1, 3)


def merge_heads(x):
    """[2, 2, 3, 2] -> [2, 3, 4], as attention merges heads."""
    return x.transpose(0, 2, 1, 3).reshape(2, 3, 4)


@pytest.mark.parametrize("shape, view", [
    ((2, 3, 4), None),
    ((2, 2, 3, 4), None),
    ((2, 3, 4), split_heads),
    ((2, 2, 3, 2), merge_heads),
])
def test_matmul_folded_2d_right_grad(shape, view):
    # [..., d] with its leading dims folded into rows, @ [d, k]: the packed
    # model's linear layers; the right operand w.T is a non-contiguous view
    rng = make_rng(13)
    x = parameter(rng.normal(size=shape))
    lhs = view or (lambda t: t)
    d = lhs(x).shape[-1]
    w = parameter(rng.normal(size=(5, d)))
    r = Tensor(rng.normal(size=(x.data.size // d, 5)))

    def loss():
        return (lhs(x).reshape(-1, d).matmul(w.transpose()) * r).sum()

    if view is split_heads:
        assert not lhs(x).data.flags.c_contiguous
    assert not w.transpose().data.flags.c_contiguous
    backward(loss())
    assert_grads_match(lambda: loss().item(), [x, w])


def test_matmul_non_contiguous_operands_grad():
    # both operands strided views: 2-D transposes, and stacks as attention
    # builds them from split heads
    rng = make_rng(15)
    x = parameter(rng.normal(size=(4, 3)))
    w = parameter(rng.normal(size=(5, 4)))
    q = parameter(rng.normal(size=(2, 3, 4)))
    k = parameter(rng.normal(size=(2, 3, 4)))

    def loss():
        flat = x.transpose().matmul(w.transpose())  # [3, 4] @ [4, 5]
        scores = split_heads(q).matmul(split_heads(k).transpose(0, 1, 3, 2))  # [2, 2, 3, 3]
        return (flat * flat).sum() + (scores * scores).sum()

    assert not x.transpose().data.flags.c_contiguous
    assert not split_heads(k).transpose(0, 1, 3, 2).data.flags.c_contiguous
    backward(loss())
    assert_grads_match(lambda: loss().item(), [x, w, q, k])
    assert_no_shared_grads([x, w, q, k])


# -- softmax ---------------------------------------------------------------------

def test_softmax_uniform():
    y = softmax(Tensor([0.0, 0.0, 0.0, 0.0])).data
    assert np.allclose(y, 0.25, atol=1e-15)


def test_softmax_large_inputs_stable():
    y = softmax(Tensor([1000.0, 0.0])).data
    assert np.isfinite(y).all()
    assert y[0] > 1 - 1e-12 and y[1] < 1e-12


def test_softmax_reference_values():
    # frozen from direct exp/sum evaluation
    y = softmax(Tensor([1.0, 2.0, 3.0])).data
    assert np.allclose(y, [0.09003057, 0.24472847, 0.66524096], atol=1e-5)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = make_rng(1)
    x = rng.normal(size=(6, 9)) * 5
    y = softmax(Tensor(x)).data
    assert np.abs(y.sum(axis=1) - 1.0).max() < 1e-12
    y_shift = softmax(Tensor(x + 123.456)).data
    assert np.abs(y - y_shift).max() < 1e-12


def test_softmax_grad():
    rng = make_rng(2)
    x = parameter(rng.normal(size=(3, 5)))
    w = Tensor(rng.normal(size=(3, 5)))

    def loss_fn():
        return (softmax(x) * w).sum().item()

    backward((softmax(x) * w).sum())
    assert_grads_match(loss_fn, [x])


# -- masked_softmax ----------------------------------------------------------------

def attention_inputs(seed):
    """Scores [2, 3, 4, 5] and a [2, 1, 1, 5] key mask: sentence 0 has three
    real keys, sentence 1 only key 0, its criterion token."""
    scores = make_rng(seed).normal(size=(2, 3, 4, 5)) * 4.0
    valid = np.array([[True, True, True, False, False],
                      [True, False, False, False, False]])
    bias = np.where(valid, 0.0, -1e9).astype(ad.get_dtype())[:, None, None, :]
    return scores, bias


def test_masked_softmax_equals_composite():
    # float64 output and gradient are bit-identical to softmax(scores * scale + bias)
    scores, bias = attention_inputs(20)
    w = Tensor(make_rng(21).normal(size=scores.shape))
    scale = 1.0 / math.sqrt(2)
    fused, ref = parameter(scores), parameter(scores.copy())
    y = masked_softmax(fused, scale, bias)
    y_ref = softmax(ref * scale + bias)
    assert np.array_equal(y.data, y_ref.data)
    backward((y * w).sum())
    backward((y_ref * w).sum())
    assert np.array_equal(fused.grad, ref.grad)


def test_masked_softmax_grad():
    scores, bias = attention_inputs(22)
    x = parameter(scores)
    w = Tensor(make_rng(23).normal(size=scores.shape))

    def loss():
        return (masked_softmax(x, 0.7, bias) * w).sum()

    backward(loss())
    assert_grads_match(lambda: loss().item(), [x])


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_masked_softmax_masked_keys_get_zero(dtype):
    ad.set_dtype(dtype)
    try:
        scores, bias = attention_inputs(24)
        y = masked_softmax(Tensor(scores), 0.5, bias).data
    finally:
        ad.set_dtype("float64")
    assert (y[0, ..., 3:] == 0.0).all() and (y[0, ..., :3] > 0.0).all()
    assert np.abs(y.sum(axis=-1) - 1.0).max() < 1e-6
    # only the criterion token is a real key: every row is one-hot on it
    assert (y[1, ..., 0] == 1.0).all() and (y[1, ..., 1:] == 0.0).all()


def test_masked_softmax_rejects_mask_that_grows_scores():
    scores, _ = attention_inputs(25)
    with pytest.raises(ValueError, match="broadcast"):
        masked_softmax(Tensor(scores[:, :, :1, :]), 1.0, np.zeros((2, 1, 4, 5)))


# -- layer_norm --------------------------------------------------------------------

def test_layer_norm_constant_row_collapses():
    x = Tensor(np.full((2, 8), 3.7))
    g = Tensor(np.ones(8))
    b = Tensor(np.zeros(8))
    assert np.allclose(layer_norm(x, g, b).data, 0.0, atol=1e-6)


def test_layer_norm_already_normalized():
    x = Tensor([[1.0, -1.0]])
    y = layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0).data
    assert np.allclose(y, [[1.0, -1.0]], atol=1e-12)


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

def test_dropout_p_zero_identity():
    x = Tensor([1.0, 2.0, 3.0])
    assert dropout(x, 0.0, training=True, rng=make_rng(0)) is x


def test_dropout_eval_identity():
    x = Tensor([1.0, 2.0, 3.0])
    assert dropout(x, 0.9, training=False) is x


def test_dropout_statistics():
    rng = make_rng(5)
    x = Tensor(np.ones(10_000))
    y = dropout(x, 0.5, training=True, rng=rng).data
    zero_frac = float((y == 0).mean())
    assert 0.48 <= zero_frac <= 0.52
    assert abs(y.mean() - 1.0) <= 0.05


def test_dropout_invalid_p():
    with pytest.raises(ValueError):
        dropout(Tensor([1.0]), 1.0, training=True, rng=make_rng(0))


def test_dropout_grad_with_frozen_mask():
    x = parameter(np.linspace(-1, 1, 12).reshape(3, 4))

    def loss_fn():
        y = dropout(x, 0.25, training=True, rng=make_rng(77))
        return (y * y).sum().item()

    y = dropout(x, 0.25, training=True, rng=make_rng(77))
    backward((y * y).sum())
    assert_grads_match(loss_fn, [x])


def test_dropout_over_real_rows_draws_the_padded_mask():
    # the mask of packed rows is the padded mask's real rows: same rng stream
    valid = np.array([[True, True, False], [True, False, False]])
    for rows in (Rows(valid), Rows(np.ones((2, 3), dtype=bool))):
        padded = make_rng(0).normal(size=rows.shape + (4,))
        x = Tensor(rows.pack(padded))
        y = dropout(x, 0.5, training=True, rng=make_rng(12), rows=rows).data
        expected = dropout(Tensor(padded), 0.5, training=True, rng=make_rng(12)).data
        assert np.array_equal(y, rows.pack(expected))


# -- row gather / scatter -----------------------------------------------------------

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
    for valid in (PADDED_VALID, np.ones((2, 3), dtype=bool)):
        rows = Rows(valid)
        x = make_rng(13).normal(size=valid.shape + (2, 3))
        packed = gather_rows(Tensor(x), rows)
        assert np.array_equal(packed.data, x[valid])
        padded = scatter_rows(packed, rows).data
        assert padded.shape == x.shape
        assert np.array_equal(padded[valid], x[valid])
        assert not padded[~valid].any()  # zero at padding


@pytest.mark.parametrize("valid", [PADDED_VALID, np.ones((2, 3), dtype=bool)])
def test_gather_scatter_rows_grad(valid):
    rows = Rows(valid)
    rng = make_rng(14)
    x = parameter(rng.normal(size=valid.shape + (3,)))
    y = parameter(rng.normal(size=(rows.count, 3)))
    w_packed = Tensor(rng.normal(size=(rows.count, 3)))
    w_padded = Tensor(rng.normal(size=valid.shape + (3,)))

    def loss():
        return ((gather_rows(x, rows) * w_packed).tanh().sum()
                + (scatter_rows(y, rows) * w_padded).sigmoid().sum())

    backward(loss())
    assert_grads_match(lambda: loss().item(), [x, y])
    assert not x.grad[~valid].any()  # padding gets no gradient


def test_row_ops_keep_float32():
    ad.set_dtype("float32")
    try:
        for valid in (PADDED_VALID, np.ones((2, 3), dtype=bool)):
            rows = Rows(valid)
            x = parameter(np.ones(valid.shape + (2,)))
            y = parameter(np.ones((rows.count, 2)))
            packed, padded = gather_rows(x, rows), scatter_rows(y, rows)
            assert packed.data.dtype == np.float32 and padded.data.dtype == np.float32
            backward(packed.sum() + padded.sum())
            assert x.grad.dtype == np.float32 and y.grad.dtype == np.float32
    finally:
        ad.set_dtype("float64")


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
    assert abs(loss.item() - math.log(4)) < 1e-12


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
    expected = float(np.mean([-math.log(probs[i, targets[i]]) for i in range(5)]))
    loss = cross_entropy(Tensor(raw), targets)
    assert abs(loss.item() - expected) < 1e-10


def test_cross_entropy_mean_and_sum():
    rng = make_rng(7)
    raw = rng.normal(size=(4, 3))
    targets = [0, 1, 2, 0]
    probs = np.exp(raw) / np.exp(raw).sum(axis=1, keepdims=True)
    per_pos = [-math.log(probs[i, targets[i]]) for i in range(4)]
    mean_loss = cross_entropy(Tensor(raw), targets)
    sum_loss = cross_entropy(Tensor(raw), targets, reduction="sum")
    assert abs(mean_loss.item() - sum(per_pos) / 4) < 1e-12
    assert abs(sum_loss.item() - sum(per_pos)) < 1e-12


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
    x = Tensor(rng.normal(size=(3, 2)))

    def loss_fn():
        y = w.matmul(x)
        return (y * y).sum().item()

    y = w.matmul(x)
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
        rng = make_rng(10)
        w = parameter(rng.normal(size=(4, 4)))
        x = Tensor(rng.normal(size=(4, 4)))
        h = softmax(w.matmul(x).tanh())
        loss = cross_entropy(h, [0, 1, 2, 3])
        backward(loss)
        return w.grad.tobytes()

    assert run() == run()


def every_op_graph(seed):
    """Parameters and a loss closure that pass through every differentiable op."""
    rng = make_rng(100 + seed)
    table = parameter(rng.normal(size=(7, 6)))
    w = parameter(rng.normal(size=(6, 6)))
    b = parameter(rng.normal(size=6))
    g = parameter(rng.normal(size=6))
    bias = parameter(rng.normal(size=6))
    padded = parameter(rng.normal(size=(3, 4, 6)))  # real rows gathered straight from it
    packed = parameter(rng.normal(size=(5, 6)))  # scattered straight into padded rows
    whole = parameter(rng.normal(size=(4, 6)))  # the same, with no padding
    ids = rng.integers(0, 7, size=5)
    targets = rng.integers(0, 6, size=5)
    key_bias = np.array([0.0, -1e9, 0.0, 0.0, -1e9, 0.0])
    rows = Rows(PADDED_VALID)
    dense = Rows(np.ones((2, 2), dtype=bool))

    def loss():
        h = embedding_lookup(table, ids)
        h = h.matmul(w.transpose()) + b
        h = layer_norm(h.tanh() + h.sigmoid() + h.relu(), g, bias)
        h = gather_rows(scatter_rows(h, rows) * scatter_rows(packed, rows), rows)
        h = (h * gather_rows(padded, rows)).reshape(5, 6)[1:, :]
        h = h * gather_rows(scatter_rows(whole, dense), dense)
        p = softmax(h)
        m = masked_softmax(h, 0.5, key_bias)
        return cross_entropy(h, targets[1:]) + (p * p).sum() * 0.5 + (m * m).sum()

    return [table, w, b, g, bias, padded, packed, whole], loss


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
        h = x.matmul(w).tanh() + z.matmul(w.transpose())
        s = w + v
        return (h * h).sum() + (s * s).sum()

    backward(loss())
    assert_grads_match(lambda: loss().item(), [w, v])
    assert_no_shared_grads([w, v])


def test_no_grad_blocks_recording():
    w = parameter(np.ones((2, 2)))
    with ad.no_grad():
        y = w.matmul(w)
    assert y._parents == () and not y.requires_grad


def test_getitem_grad():
    x = parameter(np.arange(12.0).reshape(3, 4))

    def loss_fn():
        return (x[1:, :2] * x[1:, :2]).sum().item()

    backward((x[1:, :2] * x[1:, :2]).sum())
    assert_grads_match(loss_fn, [x])


def test_transpose_reshape_grad():
    rng = make_rng(11)
    x = parameter(rng.normal(size=(2, 3, 4)))

    def loss_fn():
        y = x.transpose(0, 2, 1).reshape(4, 6)
        return (y * y).sum().item()

    y = x.transpose(0, 2, 1).reshape(4, 6)
    backward((y * y).sum())
    assert_grads_match(loss_fn, [x])


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
    ad.set_dtype("float32")
    try:
        assert Tensor([1.0]).data.dtype == np.float32
        assert ad.default_ln_eps() == 1e-5
    finally:
        ad.set_dtype("float64")
    assert Tensor([1.0]).data.dtype == np.float64
