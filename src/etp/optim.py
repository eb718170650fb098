"""Adam optimizer for named parameter dictionaries."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

__all__ = ["Adam", "OptimizerError", "adam_step"]


class OptimizerError(RuntimeError):
    """Raised on non-finite gradients or mismatched state buffers."""


def adam_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One in-place Adam update with bias correction.

    ``t`` is the 1-based step count. ``m`` and ``v`` must have the
    parameter's shape and are updated in place alongside ``param``.
    """
    if m.shape != param.shape or v.shape != param.shape:
        raise OptimizerError(
            f"state shape {m.shape}/{v.shape} does not match parameter shape {param.shape}"
        )
    if not np.isfinite(grad).all():
        raise OptimizerError("non-finite gradient passed to adam_step")
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)


class Adam:
    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
            adam_step(p.data, p.grad, m, v, self.t, self.lr, self.beta1, self.beta2, self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
