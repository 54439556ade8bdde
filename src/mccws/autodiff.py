"""Dense-tensor numerics with reverse-mode automatic differentiation.

A Tensor wraps a numpy array; every differentiable operation records its
inputs and a backward closure on the produced tensor, so the implicit tape
is the operation graph itself. ``backward(loss)`` walks that graph in exact
reverse topological order and accumulates each node's gradient fully before
propagating it, which makes gradients bit-deterministic for a fixed graph.
The walk consumes the graph, freeing each node once it has propagated.

It holds the ops the model runs: the fused ``linear`` and ``attention``
nodes, layer norm, dropout, embedding lookup, row gathering, summed
cross-entropy, and pointwise and sum methods on Tensor. ``attention`` masks
padding keys itself and returns only the context; its softmax skips the
row-max shift where a norm bound on the scores rules out overflow and
underflow, which makes it agree with the textbook composition to rounding
rather than bit for bit.

Precision is that of the data: a Tensor keeps float32 data as float32 and
makes anything else float64, and every op keeps its inputs' dtype. A model
is float32 or float64 as its parameters are. New models are float32
(``model.init_params``); float64 serves gradient checks, which need the
headroom, and checkpoints written in float64. Layer norm's epsilon is the
same in both, so a float64 cast computes the float32 model's function, up
to rounding.

All randomness (dropout masks, initialization) must come from generators
made by :func:`make_rng`, which is PCG64 under a fixed seed, so runs are
reproducible across platforms.

Importing this module sets the process's heap policy (:func:`_hold_heap`):
a training step or a ``predict`` batch frees nearly everything it allocated,
and glibc's defaults would hand that heap back to the OS after each one and
fault it back in, 4 KiB at a time, on the next. Where glibc is not the
allocator (no ``mallopt``) nothing changes.
"""

import contextlib
import ctypes
import math

import numpy as np

_GRAD_ENABLED = True

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _hold_heap() -> None:
    """Keep freed arrays in the heap for the next batch to reuse.

    By default glibc mmaps each allocation above its mmap threshold (128 KiB
    until a free raises it) and hands the heap top back to the OS once more
    than its trim threshold (twice the mmap threshold) is free, so every
    batch faults its arrays in afresh. This raises the mmap threshold to
    32 MiB, glibc's ceiling, and turns trimming off, so the heap stays at its
    high-water mark, which peak RSS counts anyway. Setting either value
    freezes the other, so both are set. A finite trim threshold is a cliff:
    with 64 MiB, a default-size training step on 64 sentences of 4-40
    characters still faulted ~22k pages back in per step. Does nothing where
    the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no process handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, -1)  # -1 turns trimming off (mallopt(3))


_hold_heap()


def make_rng(seed: int) -> np.random.Generator:
    """Seedable generator with a documented algorithm (PCG64)."""
    return np.random.Generator(np.random.PCG64(seed))


@contextlib.contextmanager
def no_grad():
    """Disable graph recording, e.g. for evaluation forward passes."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Tensor:
    """A dense array plus an optional gradient buffer of identical shape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    def item(self) -> float:
        return float(self.data.reshape(()))

    # -- graph plumbing -----------------------------------------------------

    def _accum(self, g, owned: bool = False) -> None:
        """Add g into this tensor's gradient. owned=True promises that g's
        buffer belongs to the caller alone (it was just allocated, or it is the
        gradient of the node being consumed) and goes to no other tensor, so
        the first accumulation may keep it instead of copying it."""
        if not self.requires_grad:
            return
        if self.grad is None:
            if owned and isinstance(g, np.ndarray) and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        """other is a scalar or a tensor of self's shape; biases go through linear."""
        if not isinstance(other, Tensor):
            out = _node(self.data + other, (self,))
            if out._parents:
                out._backward = lambda: self._accum(out.grad, owned=True)
            return out
        if self.data.shape != other.data.shape:
            raise ValueError(f"add shape mismatch: {self.data.shape} vs {other.data.shape}")
        out = _node(self.data + other.data, (self, other))
        if out._parents:
            def back():
                self._accum(out.grad, owned=True)
                other._accum(out.grad)
            out._backward = back
        return out

    def __neg__(self):
        out = _node(-self.data, (self,))
        if out._parents:
            out._backward = lambda: self._accum(-out.grad, owned=True)
        return out

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            c = float(other)
            out = _node(self.data * c, (self,))
            if out._parents:
                out._backward = lambda: self._accum(out.grad * c, owned=True)
            return out
        if self.data.shape != other.data.shape:
            raise ValueError(f"mul shape mismatch: {self.data.shape} vs {other.data.shape}")
        out = _node(self.data * other.data, (self, other))
        if out._parents:
            def back():
                self._accum(out.grad * other.data, owned=True)
                other._accum(out.grad * self.data, owned=True)
            out._backward = back
        return out

    # -- reductions -----------------------------------------------------------

    def sum(self) -> "Tensor":
        out = _node(self.data.sum(), (self,))
        if out._parents:
            out._backward = lambda: self._accum(np.full_like(self.data, out.grad), owned=True)
        return out

    # -- pointwise nonlinearities ----------------------------------------------

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        out = _node(y, (self,))
        if out._parents:
            out._backward = lambda: self._accum(out.grad * (1.0 - y * y), owned=True)
        return out

    def sigmoid(self) -> "Tensor":
        """The logistic function as 0.5 (1 + tanh(x / 2)), which needs no
        branch on the sign of x: tanh saturates to +-1 where exp would
        overflow. It is within about one unit in the last place of 1 of
        1 / (1 + exp(-x)), absolutely; far below 0 the result is a multiple
        of that unit's half, not a tiny positive number."""
        y = self.data * 0.5
        np.tanh(y, out=y)
        y += 1.0
        y *= 0.5
        out = _node(y, (self,))
        if out._parents:
            out._backward = lambda: self._accum(out.grad * y * (1.0 - y), owned=True)
        return out

    def relu(self) -> "Tensor":
        y = np.maximum(self.data, 0.0)
        out = _node(y, (self,))
        if out._parents:
            def back():
                # the mask in the gradient's dtype, multiplied in place: times
                # a bool mask, numpy casts every element
                g = (self.data > 0).astype(out.grad.dtype)
                g *= out.grad
                self._accum(g, owned=True)
            out._backward = back
        return out


def _node(data, parents: tuple) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


# -- composite ops -------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w.T (+ b) as one node: x [N, in] rows, w [out, in] (weights are
    stored [out, in]) and an optional bias b [out] added to every row."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[1]:
        raise ValueError(f"linear needs x [N, in] and w [out, in]: {x.data.shape}, {w.data.shape}")
    if b is not None and b.data.shape != w.data.shape[:1]:
        raise ValueError(f"linear bias {b.data.shape} does not match w {w.data.shape}")
    y = np.matmul(x.data, w.data.T)
    if b is not None:
        y += b.data
    out = _node(y, (x, w) if b is None else (x, w, b))
    if out._parents:
        def back():
            g = out.grad
            if x.requires_grad:
                x._accum(np.matmul(g, w.data), owned=True)
            if w.requires_grad:
                w._accum(np.matmul(x.data.T, g).T, owned=True)
            if b is not None:
                b._accum(g.sum(axis=0), owned=True)
        out._backward = back
    return out


# BERT's layer-norm epsilon (Devlin et al. 2019), for every dtype, so that a
# float32 model and its float64 cast compute the same function
LAYER_NORM_EPS = 1e-12


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply an
    elementwise affine gain and bias. The variance's epsilon is
    LAYER_NORM_EPS in every precision.

    Every reduction is a product with a vector, which BLAS makes in one
    pass: each row's mean with 1/d, its variance as the dot product of its
    centred values with themselves, and in backward the row means with the
    gain and the gain's and bias's column sums with ones."""
    shape = x.data.shape
    d = shape[-1]
    rows = x.data.reshape(-1, d)
    xhat = rows - np.matmul(rows, np.full(d, 1.0 / d, dtype=rows.dtype))[:, None]
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat)[:, None] / d + LAYER_NORM_EPS)
    xhat *= inv
    y = xhat * gain.data
    y += bias.data
    out = _node(y.reshape(shape), (x, gain, bias))
    if out._parents:
        def back():
            g = out.grad.reshape(-1, d)
            ones = np.ones(len(g), dtype=g.dtype)
            g_xhat = g * xhat
            gain._accum(np.matmul(ones, g_xhat), owned=True)
            bias._accum(np.matmul(ones, g), owned=True)
            if x.requires_grad:
                # dx = (g gain - rowmean(g gain) - xhat rowmean(g gain xhat)) inv
                gain_d = gain.data / d
                mean_g = np.matmul(g, gain_d)[:, None]
                mean_gx = np.matmul(g_xhat, gain_d)[:, None]
                gx = g * gain.data
                gx -= mean_g
                np.multiply(xhat, mean_gx, out=g_xhat)
                gx -= g_xhat
                gx *= inv
                x._accum(gx.reshape(shape), owned=True)
        out._backward = back
    return out


class Rows:
    """The real rows of a padded array: the positions where valid [*shape]
    is True, in row-major order. A padded array is [*shape, *features]; its
    real rows, packed, are [count, *features]. When every position is real,
    index is None and packing is a reshape."""

    __slots__ = ("valid", "shape", "count", "index")

    def __init__(self, valid):
        self.valid = np.asarray(valid, dtype=bool)
        self.shape = self.valid.shape
        self.count = int(self.valid.sum())
        self.index = None if self.count == self.valid.size else np.flatnonzero(self.valid)

    def pack(self, a: np.ndarray) -> np.ndarray:
        """The real rows [count, *features] of a padded array a."""
        features = a.shape[len(self.shape):]
        if self.index is None:
            return a.reshape((self.count,) + features)
        return a.reshape((-1,) + features)[self.index]

    def unpack(self, a: np.ndarray) -> np.ndarray:
        """The padded array [*shape, *features] whose real rows are a
        [count, *features], zero at padding; a reshape when index is None."""
        features = a.shape[1:]
        if self.index is None:
            return a.reshape(self.shape + features)
        out = np.zeros((self.valid.size,) + features, dtype=a.dtype)
        out[self.index] = a
        return out.reshape(self.shape + features)


def gather_rows(x: Tensor, rows: Rows) -> Tensor:
    """Pack a padded x [*rows.shape, *features] into its real rows
    [rows.count, *features]. Each row is taken once, so backward writes the
    gradient back in place, with zeros at padding."""
    out = _node(rows.pack(x.data), (x,))
    if out._parents:
        out._backward = lambda: x._accum(rows.unpack(out.grad), owned=True)
    return out


# the score the shifted softmax gives a padding key: its exp is 0 next to any
# real key's, and a row with no real key comes out uniform
_MASKED_SCORE = -1e9


def attention(q: Tensor, k: Tensor, v: Tensor, rows: Rows, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over the real rows of a
    padded [B, L] batch, as one node.

    q, k and v are the packed projections [rows.count, d] of rows' real
    positions; d splits into heads of d // heads features. Each is padded to
    [B, heads, L, d // heads] with zeros at padding. Query row i attends with
    softmax(q k^T / sqrt(d // heads)) over the real keys of its sentence;
    padding keys get probability 0. Returns the context [rows.count, d],
    packed again.

    q is scaled by 1 / sqrt(d // heads) on its packed rows. When a bound on
    the scores' size proves it safe (:func:`_unshifted_softmax_is_safe`;
    a bound below about 352 in float64, 41 in float32), the softmax streams
    each [L, L] score array twice: exp of the scores as they are, with no
    row-max shift, then one product with v widened by a column that is 1 at
    real keys, which yields the unnormalised context and the row sums
    together; the context is divided by its row sums afterwards. Otherwise
    the node shifts each row by its maximum, with a large negative score at
    padding keys, and normalises before the product with v, as
    softmax(q k^T / sqrt(d // heads)) is usually written. The backward is
    written out by hand and keeps the padded q, k, v and the probabilities,
    which are formed only when the node records a graph.
    """
    B, L = rows.shape
    d = q.data.shape[-1]
    if heads < 1 or d % heads:
        raise ValueError(f"d={d} does not split into {heads} heads")
    for t in (q, k, v):
        if t.data.shape != (rows.count, d):
            raise ValueError(f"attention needs q, k, v of shape {(rows.count, d)}, got {t.data.shape}")
    dk = d // heads
    scale = 1.0 / math.sqrt(dk)

    def split(a):  # real rows [count, d] -> [B, heads, L, dk], a strided view
        return rows.unpack(a).reshape(B, L, heads, dk).transpose(0, 2, 1, 3)

    def merge(a):  # [B, heads, L, f] -> real rows [count, heads * f], a new array
        return a.transpose(0, 2, 1, 3)[rows.valid].reshape(rows.count, heads * a.shape[-1])

    qs = q.data * scale  # exact when dk is a power of 4
    q4, k4 = split(qs), split(k.data)
    if _unshifted_softmax_is_safe(qs, k.data, v.data, heads, L):
        # k and v are zero at padding keys, so there exp(0) = 1 adds nothing
        # to exp(S) @ v, and v's extra column sums only the real keys
        vm = np.empty((B, L, heads, dk + 1), dtype=v.data.dtype)
        vm[..., :dk] = rows.unpack(v.data).reshape(B, L, heads, dk)
        vm[..., dk] = rows.valid[:, :, None]
        vm = vm.transpose(0, 2, 1, 3)
        v4 = vm[..., :dk]
        p = np.matmul(q4, k4.swapaxes(-1, -2))
        np.exp(p, out=p)
        ctx_sum = np.matmul(p, vm)
        real = merge(ctx_sum).reshape(rows.count, heads, dk + 1)
        ctx = (real[..., :dk] / real[..., dk:]).reshape(rows.count, d)
        row_sum = ctx_sum[..., dk:]
    else:
        # the row-max shift, with a large negative score at padding keys
        v4 = split(v.data)
        p = np.matmul(split(q.data), k4.swapaxes(-1, -2))
        p *= scale
        if rows.index is not None:
            p += np.where(rows.valid, 0.0, _MASKED_SCORE).astype(p.dtype)[:, None, None, :]
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        ctx = merge(np.matmul(p, v4))
        row_sum = None
    out = _node(ctx, (q, k, v))
    if out._parents:
        if row_sum is not None:
            # the probabilities. At a padding key they are exp(0) / row sum,
            # not 0, but k and v are zero there, so they add nothing to a
            # real row's gradient. A sentence with no real token has row sums
            # of 0 at its padding rows, whose probabilities nothing reads.
            p /= np.where(row_sum > 0, row_sum, 1.0)

        def back():
            g4 = split(out.grad)
            gv = np.matmul(p.swapaxes(-1, -2), g4)
            gs = np.matmul(g4, v4.swapaxes(-1, -2))  # d loss / d p, then / d scores
            np.subtract(gs, (gs * p).sum(axis=-1, keepdims=True), out=gs)
            gs *= p
            q._accum(merge(np.matmul(gs, k4)) * scale, owned=True)
            k._accum(merge(np.matmul(q4.swapaxes(-1, -2), gs).swapaxes(-1, -2)), owned=True)
            v._accum(merge(gv), owned=True)
        out._backward = back
    return out


def _unshifted_softmax_is_safe(qs, k, v, heads: int, length: int) -> bool:
    """Whether exp of the scores qs k^T, unshifted, stays in range.

    qs, k and v are the packed [count, d] rows (qs already scaled) of a batch
    whose sentences pad to length keys. Per head, |score| <= M, the product
    of the largest query and key norms, so each exp lies in [e^-M, e^M].
    With n = length + 1 (the extra key leaves room for the rounding of the
    norms, the scores and exp), the unshifted path needs
      e^M * n * max(1, max|v|) finite: every exp, row sum and entry of
        exp(S) @ [v | 1];
      e^-M / (n * e^M) a normal number: every probability, so also every
        exp and row sum, with no subnormal and no row sum of 0 at a real row.
    In float64 with length 128 the second caps M at about 352, in float32
    at about 41.
    """
    if qs.shape[0] == 0:
        return True
    fi = np.finfo(qs.dtype)
    q3, k3 = qs.reshape(qs.shape[0], heads, -1), k.reshape(k.shape[0], heads, -1)
    sq_bound = float(np.multiply(np.einsum("nhc,nhc->nh", q3, q3).max(axis=0),
                                 np.einsum("nhc,nhc->nh", k3, k3).max(axis=0),
                                 dtype=np.float64).max())
    v_max = max(float(v.max()), -float(v.min()), 1.0)
    n = length + 1
    limit = min(math.log(fi.max) - math.log(n * v_max),
                (-math.log(fi.tiny) - math.log(n)) / 2)
    return math.sqrt(sq_bound) < limit


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None) -> Tensor:
    """Zero each element of x with probability p in training mode and scale
    the survivors so that each element's expected value is its input;
    identity in eval mode.

    The mask takes one 32-bit draw per element of x, two from each 64-bit
    output of rng's bit generator (low half first), and keeps the elements
    whose draw is at least ceil(p * 2^32). Survivors are scaled by the
    inverse of that keep probability, 2^32 / (2^32 - ceil(p * 2^32)), which
    is 1 / (1 - p) up to one part in 2^32. The mask depends only on rng's
    state and x's size (an odd size leaves the last high half unused), so
    packed rows draw only for their real positions.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability {p} outside [0, 1)")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    cut = min(math.ceil(p * 2.0**32), 2**32 - 1)  # below 2^32 unless p is within 2^-32 of 1
    n = x.data.size
    draws = rng.bit_generator.random_raw((n + 1) // 2).astype("<u8", copy=False).view("<u4")
    keep = (draws[:n] >= cut).astype(x.data.dtype).reshape(x.data.shape)
    keep *= 2.0**32 / (2**32 - cut)
    out = _node(x.data * keep, (x,))
    if out._parents:
        out._backward = lambda: x._accum(out.grad * keep, owned=True)
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of an embedding table; backward scatter-adds so repeated
    ids accumulate their gradient contributions."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"embedding id out of range [0, {table.data.shape[0]})")
    out = _node(table.data[ids], (table,))
    if out._parents:
        def back():
            # a 1-D scatter into the flat table: each element receives the
            # same additions, in the same order, as a scatter of whole rows,
            # and the 1-D ufunc.at loop is several times faster
            d = table.data.shape[1]
            g = np.zeros_like(table.data)
            np.add.at(g.reshape(-1), (ids.reshape(-1, 1) * d + np.arange(d)).ravel(),
                      out.grad.reshape(-1))
            table._accum(g, owned=True)
        out._backward = back
    return out


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Negative log likelihood of integer targets under softmax(logits),
    summed over the rows of logits [N, K], N >= 1."""
    if logits.data.ndim != 2:
        raise ValueError("cross_entropy expects [N, K] logits")
    targets = np.asarray(targets, dtype=np.int64)
    n, k = logits.data.shape
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match logits rows {n}")
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        raise ValueError(f"target id out of range [0, {k})")
    if n == 0:
        raise ValueError("cross_entropy over an empty batch")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    nll = lse - shifted[np.arange(n), targets]
    out = _node(nll.sum(), (logits,))
    if out._parents:
        def back():
            p = np.exp(shifted)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(n), targets] -= 1.0
            logits._accum(p * out.grad, owned=True)
        out._backward = back
    return out


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the recorded graph.

    This consumes the graph. Once a node has passed its gradient on to its
    inputs it drops its gradient, its backward closure and its links to the
    inputs, so reference counting frees the graph while the walk goes on.
    A node whose gradient passes through unchanged (add, or gather_rows
    when every row is real) hands its gradient buffer to one input instead
    of a copy.
    Leaves (parameters) keep their accumulated ``.grad``. A graph that
    reaches a node an earlier call consumed raises ValueError.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise ValueError("backward reached a graph that an earlier backward consumed")
        visited.add(id(node))
        stack.append((node, True))
        for p in reversed(node._parents):
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None:
            node._backward()
            node._backward = node.grad = None
            node._parents = None  # marks the node consumed


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
