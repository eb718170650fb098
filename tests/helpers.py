"""Shared test utilities: finite-difference gradient checking, and
stand-in sweep points for ``etp sweep``'s worker processes."""

import logging
import os

import numpy as np

from etp.autodiff import Tape


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar ``f()`` w.r.t. ``x``.

    ``f`` must read ``x`` afresh on every call; ``x`` is perturbed in
    place and restored. This is the independent oracle the gradient
    checks compare analytic gradients against.
    """
    grad = np.zeros_like(x)
    for i in range(x.size):
        saved = x.flat[i]
        x.flat[i] = saved + h
        fp = f()
        x.flat[i] = saved - h
        fm = f()
        x.flat[i] = saved
        grad.flat[i] = (fp - fm) / (2.0 * h)
    return grad


def fd_check(build_loss, tensors, h=1e-5, rtol=1e-4, atol=1e-8):
    """Assert analytic gradients match central finite differences.

    ``build_loss`` must construct the scalar loss from scratch on every
    call (it runs once under a tape for analytic gradients and many
    times tape-free while the inputs are perturbed in place).
    """
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    analytic = [t.grad.copy() for t in tensors]
    for t, grad in zip(tensors, analytic):
        fd = finite_difference(lambda: build_loss().item(), t.data, h=h)
        np.testing.assert_allclose(grad, fd, rtol=rtol, atol=atol)


def param_group(model, prefix):
    """A model's parameters whose flat names start with ``prefix``
    (``enc.``, ``exp.`` or ``task.``)."""
    return {k: p for k, p in model.parameters().items() if k.startswith(prefix)}


def state_as(model, dtype):
    """A model's parameter arrays cast to ``dtype``, for ``load_state``."""
    return {name: a.astype(dtype) for name, a in model.state_arrays().items()}


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env_point(cfg, data, out, criterion, index, lam) -> dict:
    """A sweep point that trains nothing and reports, in its ``error``
    cell, the BLAS thread variables of the process it ran in. It lives in
    an importable module so that a spawned worker can unpickle it."""
    return {"lambda": lam, "error": " ".join(str(os.getenv(v)) for v in BLAS_VARS)}


def logging_point(cfg, data, out, criterion, index, lam) -> dict:
    """A sweep point that trains nothing and logs one INFO line through
    etp's logger, to show how the process it ran in logs."""
    logging.getLogger("etp.cli").info("point lambda=%g ran", lam)
    return {"lambda": lam, "error": "logged"}
