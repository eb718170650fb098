"""The fused GRU op ``rnn.gru_run`` against the loop in ``reference.py``,
on random sizes, directions and padding masks, and its input checks."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etp.autodiff as ad
from etp.autodiff import Tape, Tensor
from etp.rnn import gru_run, gru_sequence, init_gru

import reference as ref


@st.composite
def gru_cases(draw):
    """B sequences of T steps with H hidden units, a direction, and a mask
    that is absent, all ones, or right padding after random lengths
    (0 included: a sequence that is padding throughout)."""
    B, T, H = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["none", "ones", "prefix"]))
    mask = None
    if kind == "ones":
        mask = np.ones((T, B))
    elif kind == "prefix":
        lengths = np.array([draw(st.integers(0, T)) for _ in range(B)])
        mask = (np.arange(T)[:, None] < lengths[None, :]).astype(np.float64)
    return B, T, H, mask, draw(st.booleans()), draw(st.integers(0, 2**16))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(gru_cases())
def test_gru_run_matches_reference_loop(case):
    B, T, H, mask, reverse, seed = case
    rng = np.random.default_rng(seed)
    xp = Tensor(rng.normal(size=(T * B, 3 * H)), requires_grad=True)
    u_zr = Tensor(rng.normal(size=(H, 2 * H)), requires_grad=True)
    u_c = Tensor(rng.normal(size=(H, H)), requires_grad=True)
    g = rng.normal(size=(T * B, H))
    with Tape() as tape:
        out = gru_run(xp, u_zr, u_c, T, B, mask, reverse)
        tape.backward(ad.tsum(ad.mul(out, g)))
    r_out, r_dxs, r_du_zr, r_du_c = ref.ref_gru_run(
        xp.data, u_zr.data, u_c.data, T, B, mask, reverse, g
    )
    np.testing.assert_allclose(out.data, r_out, rtol=0, atol=1e-12)
    for got, want in ((xp.grad, r_dxs), (u_zr.grad, r_du_zr), (u_c.grad, r_du_c)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


class TestStepMaskShape:
    def _run(self, mask):
        rng = np.random.default_rng(0)
        T, B, H = 4, 3, 2
        return gru_run(
            rng.normal(size=(T * B, 3 * H)), rng.normal(size=(H, 2 * H)),
            rng.normal(size=(H, H)), T, B, mask,
        )

    @pytest.mark.parametrize(
        "shape", [(4, 1), (4, 4), (3, 3)], ids=["one_column", "extra_column", "short"]
    )
    def test_wrong_shape_names_both_shapes(self, shape):
        with pytest.raises(ad.DimensionError, match=re.escape(str(shape)) + r".*\(4, 3\)"):
            self._run(np.ones(shape))

    def test_right_shape_runs(self):
        assert self._run(np.ones((4, 3))).shape == (12, 2)


def test_gru_sequence_rejects_a_hidden_size_its_weights_do_not_have():
    rng = np.random.default_rng(0)
    w = init_gru(rng, 4, 3)
    x = Tensor(rng.normal(size=(8, 4)))
    assert gru_sequence(x, 4, 2, w, 3).shape == (8, 3)
    with pytest.raises(ad.DimensionError, match=r"hidden=5 but u_c is \(3, 3\)"):
        gru_sequence(x, 4, 2, w, 5)


def test_recording_run_holds_its_output_and_two_gate_arrays_per_step():
    # a step's input state is the previous step's output, so only zr (2 units) and c are kept
    B, T, H = 16, 30, 64
    rng = np.random.default_rng(0)
    xp = Tensor(rng.normal(size=(T * B, 3 * H)), requires_grad=True)
    u_zr = Tensor(rng.normal(size=(H, 2 * H)) / 8, requires_grad=True)
    u_c = Tensor(rng.normal(size=(H, H)) / 8, requires_grad=True)
    unit = T * B * H * 8
    with Tape():
        tracemalloc.start()
        try:
            out = gru_run(xp, u_zr, u_c, T, B)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert out.data.nbytes == unit
    assert held <= 4.5 * unit, f"a recording run holds {held / unit:.2f} units of T*B*H f64"
