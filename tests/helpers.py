"""Shared test utilities: finite-difference gradient checking."""

import numpy as np

from etp.autodiff import Tape, finite_difference


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
