"""GRU recurrent layers on top of the autodiff core.

Sequences are laid out time-major: row t*B + b of a (T*B, dim) matrix
is token t of sequence b. A step's input is then a contiguous row slice,
and a run's input projection and each recurrent weight's gradient are
one matmul over all steps instead of one per step.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = ["init_gru", "gru_run", "gru_sequence", "bigru", "init_bigru"]


def init_gru(rng: np.random.Generator, input_dim: int, hidden: int) -> dict[str, Tensor]:
    """Uniform(-1/sqrt(fan_in)) gate weights, zero biases.

    Layout: ``w_x`` maps input to the stacked (update, reset, candidate)
    pre-activations; ``u_zr`` and ``u_c`` are the recurrent weights.
    """
    kx = 1.0 / np.sqrt(input_dim)
    kh = 1.0 / np.sqrt(hidden)
    return {
        "w_x": Tensor(rng.uniform(-kx, kx, (input_dim, 3 * hidden)), requires_grad=True),
        "u_zr": Tensor(rng.uniform(-kh, kh, (hidden, 2 * hidden)), requires_grad=True),
        "u_c": Tensor(rng.uniform(-kh, kh, (hidden, hidden)), requires_grad=True),
        "b": Tensor(np.zeros(3 * hidden), requires_grad=True),
    }


def _step(xs: np.ndarray, h: np.ndarray, u_zr: np.ndarray, u_c: np.ndarray):
    """One GRU state update on plain arrays: (B, 3H), (B, H) -> (B, H).

    ``xs`` is the input projection x @ w_x + b holding the stacked
    update/reset/candidate contributions. The new state is
    h + z*(candidate - h): the update gate weights the fresh candidate,
    so zero weights leave a zero state fixed. Returns the new state and
    the gate values ``(zr, c)`` that :func:`_step_backward` needs besides
    the input state ``h``, which the run's output already holds.
    """
    hidden = h.shape[1]
    pre = h @ u_zr
    pre += xs[:, : 2 * hidden]
    zr = ad._sigmoid(pre)
    z, r = zr[:, :hidden], zr[:, hidden:]
    rh = r * h
    c = rh @ u_c
    c += xs[:, 2 * hidden :]
    np.tanh(c, out=c)
    return h + z * (c - h), (zr, c)


def _step_backward(
    g: np.ndarray, saved: tuple, h: np.ndarray, u_zr: np.ndarray, u_c: np.ndarray
):
    """Gradients of one :func:`_step` from its input state ``h`` and the
    gradient ``g`` of its new state: returns (d xs, d h); :func:`gru_run`
    derives the weights'."""
    zr, c = saved
    hidden = h.shape[1]
    z, r = zr[:, :hidden], zr[:, hidden:]
    gc = g * z * (1.0 - c * c)
    d_rh = gc @ u_c.T
    gr = d_rh * h * r * (1.0 - r)
    gz = g * (c - h) * z * (1.0 - z)
    dhu = np.concatenate([gz, gr], axis=1)
    dh = g * (1.0 - z) + d_rh * r + dhu @ u_zr.T
    return np.concatenate([dhu, gc], axis=1), dh


def gru_run(
    x_proj: Tensor,
    u_zr: Tensor,
    u_c: Tensor,
    seq_len: int,
    batch: int,
    step_mask: np.ndarray | None = None,
    reverse: bool = False,
) -> Tensor:
    """A whole recurrent pass as one fused op: (T*B, 3H) -> (T*B, H).

    ``x_proj`` holds the precomputed input projections for every step,
    time-major. ``step_mask`` is a (T, B) array of 1/0 flags; at masked
    (padding) steps the state is carried through unchanged, so a
    reversed run with the zero initial state starts fresh at each
    sequence's last real token and right-padding cannot leak into real
    positions.

    Fusing the time loop keeps the tape at one node per layer run
    instead of ~20 per token; the backward rule replays the loop in
    reverse and is exercised by the finite-difference suite. The recurrent
    weights' gradients are then one GEMM each over all steps' inputs.
    """
    x_proj = ad._as_tensor(x_proj)
    u_zr, u_c = ad._as_tensor(u_zr), ad._as_tensor(u_c)
    hidden = u_c.shape[0]
    if x_proj.shape != (seq_len * batch, 3 * hidden) or u_zr.shape != (hidden, 2 * hidden):
        raise ad.DimensionError(
            f"gru_run: x_proj {x_proj.shape} does not match T={seq_len}, B={batch}, H={hidden}"
        )
    if step_mask is not None and np.shape(step_mask) != (seq_len, batch):
        raise ad.DimensionError(
            f"gru_run: step_mask {np.shape(step_mask)} is not (T, B) = {(seq_len, batch)}"
        )
    order = range(seq_len - 1, -1, -1) if reverse else range(seq_len)
    # the steps where some sequence is padding; the rest take the plain update
    keep = None if step_mask is None else np.asarray(step_mask, dtype=bool)[:, :, None]
    partial = np.zeros(seq_len, bool) if keep is None else ~keep.all(axis=(1, 2))
    xp = x_proj.data
    uzr, uc = u_zr.data, u_c.data
    # the state buffers take the input's dtype, so an f32 run stays f32
    h = np.zeros((batch, hidden), xp.dtype)
    out = np.empty((seq_len * batch, hidden), xp.dtype)
    saved: list[tuple] = [()] * seq_len
    # hold step values only for a backward pass: holding them halves forward speed at B >= 16;
    # a step's input state is not held, since out already has it
    record = ad.Tape.current is not None
    for t in order:
        rows = slice(t * batch, (t + 1) * batch)
        h_new, step_saved = _step(xp[rows], h, uzr, uc)
        if record:
            saved[t] = step_saved
        h = np.where(keep[t], h_new, h) if partial[t] else h_new
        out[rows] = h

    def backward(g):
        # step t read the state written at the step before it in run order (zero at the first)
        n = (seq_len - 1) * batch
        h_prev = np.zeros_like(out)
        if reverse:
            h_prev[:n] = out[batch:]
        else:
            h_prev[batch:] = out[:n]
        dxs = np.empty_like(xp)
        dh_carry = np.zeros((batch, hidden), xp.dtype)
        for t in reversed(order):
            rows = slice(t * batch, (t + 1) * batch)
            g_t = g[rows] + dh_carry
            h = h_prev[rows]
            if partial[t]:
                dxs[rows], dh = _step_backward(np.where(keep[t], g_t, 0.0), saved[t], h, uzr, uc)
                # a masked step passed its input state straight through
                dh_carry = np.where(keep[t], dh, g_t)
            else:
                dxs[rows], dh_carry = _step_backward(g_t, saved[t], h, uzr, uc)
        h_in, d_in = (out[batch:], dxs[:n]) if reverse else (out[:n], dxs[batch:])
        rh = np.array([zr[:, hidden:] for zr, _ in saved]).reshape(seq_len * batch, hidden)
        rh *= h_prev
        return dxs, h_in.T @ d_in[:, : 2 * hidden], rh.T @ dxs[:, 2 * hidden :]

    return ad._node(out, (x_proj, u_zr, u_c), backward, "gru_run")


ad.OPS["gru_run"] = gru_run


def gru_sequence(
    x: Tensor,
    seq_len: int,
    batch: int,
    w: dict[str, Tensor],
    hidden: int,
    step_mask: np.ndarray | None = None,
    reverse: bool = False,
) -> Tensor:
    """Run a GRU over a time-major (T*B, in) block; returns (T*B, H).
    ``hidden`` must be the width H of the weights ``w``."""
    if w["u_c"].shape != (hidden, hidden):
        raise ad.DimensionError(f"gru_sequence: hidden={hidden} but u_c is {w['u_c'].shape}")
    xs_all = ad.affine(x, w["w_x"], w["b"])
    return gru_run(xs_all, w["u_zr"], w["u_c"], seq_len, batch, step_mask, reverse)


def init_bigru(rng: np.random.Generator, input_dim: int, hidden: int) -> dict[str, dict[str, Tensor]]:
    return {"fwd": init_gru(rng, input_dim, hidden), "bwd": init_gru(rng, input_dim, hidden)}


def bigru(
    x: Tensor,
    seq_len: int,
    batch: int,
    w: dict[str, dict[str, Tensor]],
    hidden: int,
    step_mask: np.ndarray | None = None,
) -> Tensor:
    """Bidirectional GRU; concatenates both directions to (T*B, 2H)."""
    fwd = gru_sequence(x, seq_len, batch, w["fwd"], hidden, step_mask, reverse=False)
    bwd = gru_sequence(x, seq_len, batch, w["bwd"], hidden, step_mask, reverse=True)
    return ad.concat([fwd, bwd], axis=1)
