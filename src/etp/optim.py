"""Adam optimizer for named parameter dictionaries."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

__all__ = ["Adam", "OptimizerError"]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class OptimizerError(RuntimeError):
    """Raised on a missing or non-finite gradient."""


class Adam:
    """Adam with bias correction; its moment buffers are built from the
    parameters themselves, so they always match their shapes."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.state = {
            name: (np.zeros_like(p.data), np.zeros_like(p.data)) for name, p in params.items()
        }

    def step(self) -> None:
        """Update every parameter, or none: all gradients are checked
        before the first update."""
        for name, p in self.params.items():
            if p.grad is None:
                raise OptimizerError(f"parameter {name!r} has no grad buffer")
            if not np.isfinite(p.grad).all():
                raise OptimizerError(f"non-finite gradient for parameter {name!r}")
        self.t += 1
        for name, p in self.params.items():
            m, v = self.state[name]
            m *= BETA1
            m += (1.0 - BETA1) * p.grad
            v *= BETA2
            v += (1.0 - BETA2) * p.grad * p.grad
            m_hat = m / (1.0 - BETA1**self.t)
            v_hat = v / (1.0 - BETA2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
