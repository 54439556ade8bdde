"""Dense-tensor numerics with reverse-mode automatic differentiation.

A Tensor wraps a numpy array; every differentiable operation records its
inputs and a backward closure on the produced tensor, so the implicit tape
is the operation graph itself. ``backward(loss)`` walks that graph in exact
reverse topological order and accumulates each node's gradient fully before
propagating it, which makes gradients bit-deterministic for a fixed graph.
The walk consumes the graph, freeing each node once it has propagated.

Precision is a module-level switch: float64 by default (gradient checks
need the headroom), float32 available for fast runs.

All randomness (dropout masks, initialization) must come from generators
made by :func:`make_rng`, which is PCG64 under a fixed seed, so runs are
reproducible across platforms.
"""

import contextlib

import numpy as np

_DTYPE = np.float64
_GRAD_ENABLED = True


def set_dtype(name: str) -> None:
    """Select the working precision: "float64" (default) or "float32"."""
    global _DTYPE
    if name not in ("float64", "float32"):
        raise ValueError(f"unsupported dtype {name!r}")
    _DTYPE = np.float64 if name == "float64" else np.float32


def get_dtype():
    return _DTYPE


def default_ln_eps() -> float:
    """Layer-norm epsilon matched to the working precision."""
    return 1e-12 if _DTYPE == np.float64 else 1e-5


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
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    # -- graph plumbing -----------------------------------------------------

    def _accum(self, g, owned: bool = False) -> None:
        """Add g into this tensor's gradient. owned=True promises that the
        caller just allocated g and hands it to no other tensor, so the first
        accumulation may keep it instead of copying it."""
        if not self.requires_grad:
            return
        if self.grad is None:
            if owned and isinstance(g, np.ndarray) and g.dtype == _DTYPE:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=_DTYPE, copy=True)
        else:
            self.grad += g

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Tensor):
            out = _node(self.data + other, (self,))
            if out._parents:
                out._backward = lambda: self._accum(out.grad)
            return out
        if self.data.shape == other.data.shape:
            out = _node(self.data + other.data, (self, other))
            if out._parents:
                def back():
                    self._accum(out.grad)
                    other._accum(out.grad)
                out._backward = back
            return out
        # the only supported broadcast: a bias vector added over rows
        if other.data.ndim == 1 and self.data.shape[-1:] == other.data.shape:
            out = _node(self.data + other.data, (self, other))
            if out._parents:
                def back():
                    self._accum(out.grad)
                    other._accum(out.grad.reshape(-1, other.data.shape[0]).sum(axis=0), owned=True)
                out._backward = back
            return out
        raise ValueError(f"add shape mismatch: {self.data.shape} vs {other.data.shape}")

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        out = _node(-self.data, (self,))
        if out._parents:
            out._backward = lambda: self._accum(-out.grad, owned=True)
        return out

    def __sub__(self, other):
        return self.__add__(-other)

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

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return self.__mul__(1.0 / float(other))

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product of two 2-D operands, or of two stacks whose
        leading dims are equal; anything else is a ValueError."""
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError("matmul needs >= 2-D operands")
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
        if a.ndim != b.ndim or (a.ndim > 2 and a.shape[:-2] != b.shape[:-2]):
            raise ValueError(f"matmul leading dims disagree: {a.shape} @ {b.shape}")
        out = _node(np.matmul(a, b), (self, other))
        if out._parents:
            def back():
                g = out.grad
                if self.requires_grad:
                    self._accum(np.matmul(g, np.swapaxes(b, -1, -2)), owned=True)
                if other.requires_grad:
                    other._accum(np.matmul(np.swapaxes(a, -1, -2), g), owned=True)
            out._backward = back
        return out

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _node(self.data.reshape(shape), (self,))
        if out._parents:
            out._backward = lambda: self._accum(out.grad.reshape(self.data.shape))
        return out

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = _node(self.data.transpose(axes), (self,))
        if out._parents:
            inv = sorted(range(len(axes)), key=axes.__getitem__)
            out._backward = lambda: self._accum(out.grad.transpose(inv))
        return out

    def __getitem__(self, key) -> "Tensor":
        out = _node(self.data[key], (self,))
        if out._parents:
            def back():
                g = np.zeros_like(self.data)
                g[key] += out.grad
                self._accum(g, owned=True)
            out._backward = back
        return out

    # -- reductions -----------------------------------------------------------

    def sum(self) -> "Tensor":
        out = _node(self.data.sum(), (self,))
        if out._parents:
            out._backward = lambda: self._accum(np.full_like(self.data, out.grad), owned=True)
        return out

    def mean(self) -> "Tensor":
        out = _node(self.data.mean(), (self,))
        if out._parents:
            out._backward = lambda: self._accum(np.full_like(self.data, out.grad / self.data.size),
                                                owned=True)
        return out

    # -- pointwise nonlinearities ----------------------------------------------

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        out = _node(y, (self,))
        if out._parents:
            out._backward = lambda: self._accum(out.grad * (1.0 - y * y), owned=True)
        return out

    def sigmoid(self) -> "Tensor":
        # stable two-branch logistic
        x = self.data
        z = np.exp(-np.abs(x))
        y = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        out = _node(y, (self,))
        if out._parents:
            out._backward = lambda: self._accum(out.grad * y * (1.0 - y), owned=True)
        return out

    def relu(self) -> "Tensor":
        y = np.maximum(self.data, 0.0)
        out = _node(y, (self,))
        if out._parents:
            out._backward = lambda: self._accum(out.grad * (self.data > 0), owned=True)
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

def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Row-stochastic softmax with max-subtraction for stability.

    The model uses masked_softmax; this plain form stays public as the
    reference that masked_softmax's tests compare against."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _node(y, (x,))
    if out._parents:
        def back():
            g = out.grad
            x._accum((g - (g * y).sum(axis=axis, keepdims=True)) * y, owned=True)
        out._backward = back
    return out


def masked_softmax(scores: Tensor, scale: float, bias: np.ndarray) -> Tensor:
    """softmax(scores * scale + bias) over the last axis, as one node.

    bias is a constant additive mask that broadcasts against scores without
    being expanded, e.g. [B, 1, 1, L] key mask against [B, H, L, L] attention
    scores; a large negative entry gives its key probability 0, and a mask
    that does not broadcast to scores' shape is a ValueError. The forward
    works in place on one buffer the node owns, so attention keeps one
    [B, H, L, L] array alive instead of one per elementwise step.
    """
    y = scores.data * scale
    y += bias
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = _node(y, (scores,))
    if out._parents:
        def back():
            g = out.grad
            gx = g * y
            np.subtract(g, gx.sum(axis=-1, keepdims=True), out=gx)
            gx *= y
            gx *= scale
            scores._accum(gx, owned=True)
        out._backward = back
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float | None = None) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply an
    elementwise affine gain and bias."""
    if eps is None:
        eps = default_ln_eps()
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = _node(xhat * gain.data + bias.data, (x, gain, bias))
    if out._parents:
        def back():
            g = out.grad
            lead = tuple(range(g.ndim - 1))
            gain._accum((g * xhat).sum(axis=lead), owned=True)
            bias._accum(g.sum(axis=lead), owned=True)
            if x.requires_grad:
                gx = g * gain.data
                x._accum((gx - gx.mean(axis=-1, keepdims=True)
                          - xhat * (gx * xhat).mean(axis=-1, keepdims=True)) * inv,
                         owned=True)
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


def gather_rows(x: Tensor, rows: Rows) -> Tensor:
    """Pack a padded x [*rows.shape, *features] into its real rows
    [rows.count, *features]. Each row is taken once, so backward writes the
    gradient back in place, with zeros at padding."""
    if rows.index is None:
        return x.reshape((rows.count,) + x.data.shape[len(rows.shape):])
    out = _node(rows.pack(x.data), (x,))
    if out._parents:
        def back():
            g = np.zeros((rows.valid.size,) + out.grad.shape[1:], dtype=out.grad.dtype)
            g[rows.index] = out.grad
            x._accum(g.reshape(x.data.shape), owned=True)
        out._backward = back
    return out


def scatter_rows(x: Tensor, rows: Rows) -> Tensor:
    """Unpack real rows x [rows.count, *features] into a padded
    [*rows.shape, *features] array that is zero at padding; the inverse of
    gather_rows, whose forward is this op's backward."""
    features = x.data.shape[1:]
    if rows.index is None:
        return x.reshape(rows.shape + features)
    data = np.zeros((rows.valid.size,) + features, dtype=x.data.dtype)
    data[rows.index] = x.data
    out = _node(data.reshape(rows.shape + features), (x,))
    if out._parents:
        out._backward = lambda: x._accum(rows.pack(out.grad), owned=True)
    return out


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None,
            rows: Rows | None = None) -> Tensor:
    """Zero each element with probability p and rescale survivors by 1/(1-p)
    in training mode; identity in eval mode.

    When x holds the real rows of a padded array, rows says which: the mask
    is drawn over the padded shape and its real rows kept, so the generator
    advances as it would over the padded array.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability {p} outside [0, 1)")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    if rows is None:
        draw = rng.random(x.data.shape)
    else:
        draw = rows.pack(rng.random(rows.shape + x.data.shape[1:]))
    keep = (draw >= p).astype(get_dtype()) / (1.0 - p)
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
            g = np.zeros_like(table.data)
            np.add.at(g, ids.ravel(), out.grad.reshape(-1, table.data.shape[1]))
            table._accum(g, owned=True)
        out._backward = back
    return out


def cross_entropy(logits: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Negative log likelihood of integer targets under softmax(logits).

    logits are [N, K] with N >= 1; "mean" averages over the N rows, "sum"
    adds them.
    """
    if logits.data.ndim != 2:
        raise ValueError("cross_entropy expects [N, K] logits")
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
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
    total = float(nll.sum())
    scale = 1.0 / n if reduction == "mean" else 1.0
    out = _node(np.asarray(total * scale), (logits,))
    if out._parents:
        def back():
            p = np.exp(shifted)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(n), targets] -= 1.0
            logits._accum(p * (out.grad * scale), owned=True)
        out._backward = back
    return out


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the recorded graph.

    This consumes the graph. Once a node has passed its gradient on to its
    inputs it drops its gradient, its backward closure and its links to the
    inputs, so reference counting frees the graph while the walk goes on.
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
