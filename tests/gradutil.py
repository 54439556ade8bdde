"""Finite-difference gradient oracle shared by the numerics and model tests.

Central differences with step h, applied directly to parameter storage while
re-running a caller-supplied loss closure; completely independent of the
backward tape it is used to check. The checks run in float64 (cast_params).
"""

import numpy as np

from mccws import autodiff


def cast_params(model, dtype=np.float64):
    """Cast a model's parameters to dtype in place and return the model.
    Models are built in float32; float64 gives gradient checks and tight
    tolerances their headroom."""
    for p in model.params.values():
        p.data = p.data.astype(dtype)
    return model


def finite_diff(loss_fn, params, h: float = 1e-5):
    """Central-difference gradient of loss_fn() wrt each parameter tensor.
    A parameter may be a strided view; each element is written in place."""
    grads = []
    for p in params:
        g = np.zeros(p.data.shape, dtype=p.data.dtype)
        for i in np.ndindex(p.data.shape):
            orig = p.data[i]
            p.data[i] = orig + h
            with autodiff.no_grad():
                lp = loss_fn()
            p.data[i] = orig - h
            with autodiff.no_grad():
                lm = loss_fn()
            p.data[i] = orig
            g[i] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return grads


def max_violation(fd, tape, rel: float = 1e-4, abso: float = 1e-7) -> float:
    """How far the tape gradient strays outside tolerance, as a ratio.

    Tolerance per element: abso when |fd| < abso/rel, else rel*|fd|.
    Values <= 1.0 mean agreement.
    """
    fd = np.asarray(fd, dtype=np.float64)
    tape = np.asarray(tape if tape is not None else np.zeros_like(fd), dtype=np.float64)
    tol = np.maximum(abso, rel * np.abs(fd))
    if fd.size == 0:
        return 0.0
    return float((np.abs(fd - tape) / tol).max())


def assert_grads_match(loss_fn, params, h: float = 1e-5, rel: float = 1e-4, abso: float = 1e-7):
    fds = finite_diff(loss_fn, params, h=h)
    for p, fd in zip(params, fds):
        v = max_violation(fd, p.grad, rel=rel, abso=abso)
        assert v <= 1.0, f"gradient mismatch (violation {v:.3g}) for tensor of shape {p.data.shape}"
