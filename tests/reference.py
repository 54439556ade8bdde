"""Plain-numpy references that the numerics and model tests compare with.

They share no code with mccws.autodiff: a test that compares an op with its
reference checks the op's own arithmetic.
"""

import math

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-stochastic softmax with max-subtraction for stability."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def attention(q, k, v, valid, heads, key_bias):
    """(context [count, d], probabilities [B, heads, L, L]) of multi-head
    attention over the packed real rows q, k, v [count, d] of a padded
    [B, L] batch whose real positions are valid.

    This is the composition that autodiff.attention fuses, with the same
    floating-point operations in the same order, so it is bit-equal to it.
    """
    B, L = valid.shape
    d = q.shape[1]
    dk = d // heads

    def split(a):  # real rows -> [B, heads, L, dk], zero at padding
        padded = np.zeros((B, L, d), dtype=a.dtype)
        padded[valid] = a
        return padded.reshape(B, L, heads, dk).transpose(0, 2, 1, 3)

    scores = np.matmul(split(q), split(k).transpose(0, 1, 3, 2))
    p = softmax(scores * (1.0 / math.sqrt(dk)) + key_bias[:, None, None, :])
    ctx = np.matmul(p, split(v)).transpose(0, 2, 1, 3)[valid].reshape(-1, d)
    return ctx, p
