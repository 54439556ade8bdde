"""AdamW with decoupled weight decay, and the linear warmup-then-decay
learning-rate schedule used for training."""

import math

import numpy as np

from .autodiff import Tensor


class WarmupLinearSchedule:
    """Learning rate ramps linearly 0 -> base_lr over the first
    ceil(warmup_ratio * total_steps) steps, then falls linearly to 0 at
    total_steps."""

    def __init__(self, base_lr: float, total_steps: int, warmup_ratio: float = 0.1):
        if total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0.0 <= warmup_ratio < 1.0:
            raise ValueError("warmup_ratio must be in [0, 1)")
        self.base_lr = base_lr
        self.total_steps = total_steps
        self.warmup_steps = math.ceil(warmup_ratio * total_steps)

    def lr_at(self, step: int) -> float:
        if not 0 <= step <= self.total_steps:
            raise ValueError(f"step {step} outside [0, {self.total_steps}]")
        if step < self.warmup_steps:
            return self.base_lr * step / self.warmup_steps
        if self.total_steps == self.warmup_steps:
            return self.base_lr
        return self.base_lr * (self.total_steps - step) / (self.total_steps - self.warmup_steps)


class AdamW:
    """Adam with bias correction and weight decay applied decoupled from the
    moment estimates. Tensors with fewer than two dims (biases, layer-norm
    gains) are excluded from decay."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, lr: float | None = None) -> None:
        """Apply one update from the gradients currently on the parameters.

        A parameter whose grad is None is treated as having zero gradient,
        so decoupled decay still applies to it.
        """
        if lr is None:
            lr = self.lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            if isinstance(g, np.ndarray) and g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} does not match {name} {p.data.shape}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and p.data.ndim >= 2:
                update = update + self.weight_decay * p.data
            p.data -= lr * update
