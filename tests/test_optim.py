import numpy as np
import pytest

from mccws.autodiff import parameter
from mccws.optim import AdamW, WarmupLinearSchedule


def test_lr_shape():
    sched = WarmupLinearSchedule(base_lr=2e-5, total_steps=100, warmup_ratio=0.1)
    assert sched.warmup_steps == 10
    assert sched.lr_at(0) == 0.0
    assert sched.lr_at(10) == 2e-5
    assert sched.lr_at(100) == 0.0
    with pytest.raises(ValueError):
        sched.lr_at(101)
    with pytest.raises(ValueError):
        sched.lr_at(-1)


def test_lr_piecewise_linear_and_peak():
    sched = WarmupLinearSchedule(base_lr=1.0, total_steps=40, warmup_ratio=0.25)
    lrs = [sched.lr_at(s) for s in range(41)]
    assert max(lrs) == 1.0 and lrs.index(1.0) == sched.warmup_steps
    up = np.diff(lrs[: sched.warmup_steps + 1])
    down = np.diff(lrs[sched.warmup_steps:])
    assert np.allclose(up, up[0])
    assert np.allclose(down, down[0])
    assert np.all(np.array(lrs) >= 0)


def test_lr_warmup_ceil():
    # 7 total steps at ratio 0.1 -> warmup lasts ceil(0.7) = 1 step
    sched = WarmupLinearSchedule(base_lr=1.0, total_steps=7, warmup_ratio=0.1)
    assert sched.warmup_steps == 1
    assert sched.lr_at(1) == 1.0


def test_one_step_hand_computed():
    # t=1: m_hat = g, v_hat = g^2, so the update is lr * g/(|g|+eps) = ~lr
    theta = parameter(np.array([[5.0]]))
    theta.grad = np.array([[1.0]])
    opt = AdamW({"w": theta}, lr=0.1, weight_decay=0.0)
    opt.step()
    assert abs((5.0 - theta.data[0, 0]) - 0.1) < 1e-6


def test_zero_grad_no_decay_is_identity():
    theta = parameter(np.array([[1.0, -2.0]]))
    theta.grad = np.zeros((1, 2))
    opt = AdamW({"w": theta}, lr=0.5, weight_decay=0.0)
    opt.step()
    assert np.array_equal(theta.data, [[1.0, -2.0]])


def test_decoupled_decay_isolated():
    w = parameter(np.array([[2.0, -4.0]]))
    b = parameter(np.array([3.0]))
    w.grad = np.zeros((1, 2))
    b.grad = np.zeros(1)
    opt = AdamW({"w": w, "b": b}, lr=0.1, weight_decay=0.01)
    opt.step()
    assert np.allclose(w.data, np.array([[2.0, -4.0]]) * (1 - 0.1 * 0.01), atol=0, rtol=0)
    assert np.array_equal(b.data, [3.0])  # 1-D tensors are excluded from decay


def test_none_grad_treated_as_zero():
    w = parameter(np.array([[2.0]]))
    opt = AdamW({"w": w}, lr=0.1, weight_decay=0.01)
    opt.step()
    assert np.allclose(w.data, [[2.0 * (1 - 0.001)]])


def test_quadratic_convergence():
    # loss = 0.5 * sum(a * (theta - c)^2), gradient a * (theta - c)
    a = np.array([1.0, 4.0, 0.5])
    c = np.array([3.0, -1.0, 7.0])
    theta = parameter(np.zeros((1, 3)))
    opt = AdamW({"w": theta}, lr=0.1, weight_decay=0.0)
    sched = WarmupLinearSchedule(base_lr=0.1, total_steps=500, warmup_ratio=0.1)

    def loss():
        return 0.5 * float(np.sum(a * (theta.data[0] - c) ** 2))

    initial = loss()
    for s in range(500):
        theta.grad = (a * (theta.data[0] - c))[None, :]
        opt.step(lr=sched.lr_at(s))
    assert loss() <= 0.01 * initial
