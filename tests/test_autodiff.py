"""Tensor-core tests: op semantics, backward correctness against finite
differences, softmax invariants, Adam, and the GRU cell."""

import numpy as np
import pytest

import etp.autodiff as ad
from etp.autodiff import Tape, Tensor
from etp.optim import Adam, OptimizerError
from etp.rnn import _step, gru_sequence, init_gru

from helpers import fd_check
from reference import ref_sigmoid


class TestSigmoid:
    X = np.array([-1e3, -40.0, -1.0, 0.0, 1.0, 40.0, 1e3])

    def test_extremes_raise_nothing_and_stay_in_range(self):
        x = self.X.copy()
        with np.errstate(all="raise"):
            out = ad.sigmoid(Tensor(x)).data
            mirrored = ad.sigmoid(Tensor(-x)).data
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert out[3] == 0.5
        assert np.all(np.abs(out + mirrored - 1.0) <= 2 * np.spacing(1.0))
        np.testing.assert_array_equal(x, self.X)

    def test_matches_branch_on_sign_form(self):
        x = np.linspace(-50.0, 50.0, 20001)
        np.testing.assert_allclose(ad.sigmoid(Tensor(x)).data, ref_sigmoid(x), rtol=0, atol=1e-15)


class TestForwardBasics:
    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 5))
        out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_masked_softmax_symmetry(self):
        out = ad.softmax(Tensor([[1.0, 1.0, 1.0]]), mask=np.array([0.0, -np.inf, 0.0]))
        np.testing.assert_array_equal(out.data, [[0.5, 0.0, 0.5]])

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ad.DimensionError, match=r"\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_concat_last_axis(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        assert ad.concat([a, b], axis=1).shape == (2, 5)

    def test_eval_mode_builds_no_graph(self):
        out = ad.mul(Tensor([2.0]), Tensor([3.0]))
        assert out.parents == () and out._backward is None


class TestBackwardExamples:
    def test_square_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.tsum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor(np.zeros(5), requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.tsum(ad.sigmoid(x)))
        np.testing.assert_allclose(x.grad, 0.25)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, 2.0)
            with pytest.raises(ad.UsageError, match="scalar"):
                tape.backward(y)

    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            # (x + x) * x = 2x^2, derivative 4x = 8
            tape.backward(ad.tsum(ad.mul(ad.add(x, x), x)))
        np.testing.assert_allclose(x.grad, [8.0])

    def test_mul_gives_no_gradient_to_a_constant_operand(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        w = rng.uniform(-1, 1, (4, 1))
        with Tape():
            y = ad.mul(x, w)
        grads = y._backward(np.ones((4, 3)))
        assert grads[1] is None
        np.testing.assert_array_equal(grads[0], np.broadcast_to(w, (4, 3)))

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-2, 2, (4, 3)))
        w1 = Tensor(rng.uniform(-2, 2, (3, 5)), requires_grad=True)
        b1 = Tensor(rng.uniform(-2, 2, 5), requires_grad=True)
        w2 = Tensor(rng.uniform(-2, 2, (5, 2)), requires_grad=True)

        def loss():
            h = ad.tanh(ad.add(ad.matmul(x, w1), b1))
            return ad.tsum(ad.sigmoid(ad.matmul(h, w2)))

        fd_check(loss, [w1, b1, w2])


def _rand(rng, *shape):
    return Tensor(rng.uniform(-2.0, 2.0, shape), requires_grad=True)


class TestPerOpGradients:
    """Every registered op against the central finite-difference oracle."""

    def test_add_broadcast(self):
        rng = np.random.default_rng(1)
        a, b = _rand(rng, 3, 4), _rand(rng, 4)
        fd_check(lambda: ad.tsum(ad.mul(ad.add(a, b), ad.add(a, b))), [a, b])

    def test_sub_and_neg(self):
        rng = np.random.default_rng(2)
        a, b = _rand(rng, 2, 3), _rand(rng, 2, 3)
        fd_check(lambda: ad.tsum(ad.mul(ad.sub(a, b), ad.neg(b))), [a, b])

    def test_mul_broadcast_column(self):
        rng = np.random.default_rng(3)
        a, b = _rand(rng, 3, 4), _rand(rng, 3, 1)
        fd_check(lambda: ad.tsum(ad.tanh(ad.mul(a, b))), [a, b])

    def test_matmul(self):
        rng = np.random.default_rng(4)
        a, b = _rand(rng, 3, 4), _rand(rng, 4, 2)
        fd_check(lambda: ad.tsum(ad.sigmoid(ad.matmul(a, b))), [a, b])

    def test_affine(self):
        rng = np.random.default_rng(4)
        x, w, b = _rand(rng, 3, 4), _rand(rng, 4, 2), _rand(rng, 2)
        fd_check(lambda: ad.tsum(ad.sigmoid(ad.affine(x, w, b))), [x, w, b])

    def test_concat(self):
        rng = np.random.default_rng(5)
        parts = [_rand(rng, 2, k) for k in (1, 3, 2)]
        w = np.arange(12.0).reshape(2, 6)
        fd_check(lambda: ad.tsum(ad.mul(ad.concat(parts, axis=1), w)), parts)

    def test_concat_axis0(self):
        rng = np.random.default_rng(6)
        parts = [_rand(rng, k, 3) for k in (2, 1)]
        fd_check(lambda: ad.tsum(ad.tanh(ad.concat(parts, axis=0))), parts)

    def test_sigmoid_tanh(self):
        rng = np.random.default_rng(7)
        a = _rand(rng, 4, 3)
        fd_check(lambda: ad.tsum(ad.sigmoid(ad.tanh(a))), [a])

    def test_softmax(self):
        rng = np.random.default_rng(8)
        a = _rand(rng, 3, 5)
        w = rng.uniform(-1, 1, (3, 5))
        fd_check(lambda: ad.tsum(ad.mul(ad.softmax(a), w)), [a])

    def test_softmax_masked(self):
        rng = np.random.default_rng(9)
        a = _rand(rng, 4, 4)
        mask = np.where(np.triu(np.ones((4, 4))) > 0, 0.0, -np.inf)
        w = rng.uniform(-1, 1, (4, 4))
        fd_check(lambda: ad.tsum(ad.mul(ad.softmax(a, mask=mask), w)), [a])

    def test_sum_axes(self):
        rng = np.random.default_rng(10)
        a = _rand(rng, 3, 4)
        fd_check(lambda: ad.tsum(ad.sigmoid(ad.tsum(a, axis=1))), [a])
        fd_check(lambda: ad.tsum(ad.sigmoid(ad.tsum(a, axis=0))), [a])

    def test_mean(self):
        rng = np.random.default_rng(11)
        a = _rand(rng, 4, 2)
        fd_check(lambda: ad.tmean(ad.mul(a, a)), [a])
        fd_check(lambda: ad.tsum(ad.tanh(ad.tmean(a, axis=0))), [a])

    def test_log_clip(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.uniform(0.3, 2.0, (3, 3)), requires_grad=True)
        fd_check(lambda: ad.tsum(ad.log(ad.clip_min(a, 1e-12))), [a])

    def test_clip_active_region_has_zero_grad(self):
        a = Tensor([0.5, 2.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.tsum(ad.clip_min(a, 1.0)))
        np.testing.assert_array_equal(a.grad, [0.0, 1.0])

    def test_dropout(self):
        rng = np.random.default_rng(13)
        a = _rand(rng, 6, 4)

        def loss():
            # fixed seed => identical mask on every re-evaluation
            return ad.tsum(ad.tanh(ad.dropout(a, 0.5, np.random.default_rng(99))))

        fd_check(loss, [a])

    def test_embedding_and_take_rows(self):
        rng = np.random.default_rng(14)
        table = _rand(rng, 7, 3)
        ids = np.array([0, 3, 3, 6, 1])
        fd_check(lambda: ad.tsum(ad.sigmoid(ad.embedding(table, ids))), [table])
        fd_check(lambda: ad.tsum(ad.mul(ad.take_rows(table, ids), 2.0)), [table])

    def test_transpose_reshape(self):
        rng = np.random.default_rng(16)
        a = _rand(rng, 3, 4)
        fd_check(lambda: ad.tsum(ad.mul(ad.transpose(a), ad.transpose(a))), [a])
        fd_check(lambda: ad.tsum(ad.tanh(ad.reshape(a, (2, 6)))), [a])

    def test_pick(self):
        rng = np.random.default_rng(17)
        a = _rand(rng, 4, 3)
        r, c = np.array([0, 1, 3, 3]), np.array([2, 0, 1, 1])
        fd_check(lambda: ad.tsum(ad.sigmoid(ad.pick(a, r, c))), [a])


class TestAffine:
    """``affine`` is one node for x @ w + b with exactly the arithmetic of the two-node graph."""

    @staticmethod
    def _run(project, seed, leaf_input):
        # one input feeding two projections, the way a BiGRU layer's input feeds both directions
        rng = np.random.default_rng(seed)
        x0 = _rand(rng, 5, 4)
        params = [_rand(rng, 4, 3), _rand(rng, 3), _rand(rng, 4, 3), _rand(rng, 1, 3)]
        g = rng.normal(size=(5, 6))
        with Tape() as tape:
            x = x0 if leaf_input else ad.tanh(x0)
            both = ad.concat([project(x, *params[:2]), project(x, *params[2:])], axis=1)
            out = ad.sigmoid(both)
            tape.backward(ad.tsum(ad.mul(out, g)))
        return [out.data, x0.grad] + [t.grad for t in params]

    @pytest.mark.parametrize("leaf_input", [True, False], ids=["leaf", "interior"])
    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal_to_add_of_matmul(self, seed, leaf_input):
        fused = self._run(ad.affine, seed, leaf_input)
        split = self._run(lambda x, w, b: ad.add(ad.matmul(x, w), b), seed, leaf_input)
        for got, want in zip(fused, split):
            np.testing.assert_array_equal(got, want)

    def test_records_one_node(self):
        x, w, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)), True), Tensor(np.ones(4), True)
        with Tape() as tape:
            out = ad.affine(x, w, b)
        assert [n.op for n in tape.nodes] == ["affine"] and out.parents == (x, w, b)

    @pytest.mark.parametrize(
        "x, w, b, match",
        [
            ((2, 3), (2, 4), (4,), r"\(2, 3\) x \(2, 4\)"),
            ((3,), (3, 4), (4,), r"\(3,\) x \(3, 4\)"),
            ((2, 3), (3, 4), (5,), r"bias \(5,\)"),
            ((2, 3), (3, 4), (3, 4), r"bias \(3, 4\)"),
        ],
        ids=["inner", "vector-input", "bias-width", "bias-rows"],
    )
    def test_bad_shapes_raise(self, x, w, b, match):
        with pytest.raises(ad.DimensionError, match=match):
            ad.affine(np.zeros(x), np.zeros(w), np.zeros(b))


class TestSoftmaxInvariants:
    def test_rows_sum_to_one_and_masked_exact_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            logits = Tensor(rng.uniform(-8, 8, (n, n)))
            mask = np.where(np.triu(np.ones((n, n))) > 0, 0.0, -np.inf)
            out = ad.softmax(logits, mask=mask).data
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            assert (out[np.tril_indices(n, k=-1)] == 0.0).all()

    def test_fully_masked_row_rejected(self):
        mask = np.full((2, 2), -np.inf)
        with pytest.raises(ad.DimensionError, match="masked"):
            ad.softmax(Tensor(np.ones((2, 2))), mask=mask)


class TestDeterminism:
    def test_replay_is_bit_identical(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
            w = Tensor(rng.uniform(-2, 2, (3, 2)), requires_grad=True)
            with Tape() as tape:
                loss = ad.tsum(ad.softmax(ad.matmul(ad.tanh(x), w)))
                tape.backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, np.ones((2, 2)))

    def test_first_step_with_unit_gradient(self):
        # step 1 with g=1: bias-corrected m=v=1, so the update is lr/(1+eps)
        p = Tensor(np.full(4, 3.0), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad[...] = 1.0
        opt.step()
        expected = 3.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(p.data, expected, atol=1e-15)
        np.testing.assert_allclose(p.data, 3.0 - 0.1, atol=1e-8)

    def test_nan_gradient_aborts_with_diagnostic(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad[...] = np.nan
        with pytest.raises(OptimizerError, match="'p'"):
            opt.step()

    def test_nan_in_last_gradient_leaves_every_parameter_unchanged(self):
        params = {name: Tensor(np.full(3, 2.0), requires_grad=True) for name in "abc"}
        opt = Adam(params, lr=0.1)
        for p in params.values():
            p.grad[...] = 1.0
        opt.step()
        before = {name: (p.data.copy(), *(b.copy() for b in opt.state[name]))
                  for name, p in params.items()}
        params["c"].grad[...] = np.nan
        with pytest.raises(OptimizerError, match="'c'"):
            opt.step()
        assert opt.t == 1
        for name, p in params.items():
            data, m, v = before[name]
            np.testing.assert_array_equal(p.data, data)
            np.testing.assert_array_equal(opt.state[name][0], m)
            np.testing.assert_array_equal(opt.state[name][1], v)

    def test_same_seed_bit_identical_runs(self):
        def run():
            rng = np.random.default_rng(5)
            p = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
            opt = Adam({"p": p}, lr=0.05)
            for _ in range(10):
                with Tape() as tape:
                    tape.backward(ad.tsum(ad.mul(ad.sigmoid(p), p)))
                opt.step()
                opt.zero_grad()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())


class TestGRUCell:
    def _zero_weight_step(self, h):
        w = init_gru(np.random.default_rng(0), 3, 4)
        for t in w.values():
            t.data[...] = 0.0
        xs = np.ones((2, 3)) @ w["w_x"].data + w["b"].data
        new, _ = _step(xs, h, w["u_zr"].data, w["u_c"].data)
        return new

    def test_zero_weights_zero_state(self):
        np.testing.assert_array_equal(self._zero_weight_step(np.zeros((2, 4))), np.zeros((2, 4)))

    def test_zero_weights_halve_state(self):
        v = np.arange(8.0).reshape(2, 4)
        np.testing.assert_allclose(self._zero_weight_step(v), 0.5 * v)

    def test_dimension_mismatch(self):
        w = init_gru(np.random.default_rng(0), 3, 4)
        with pytest.raises(ad.DimensionError):
            gru_sequence(Tensor(np.ones((2, 5))), 1, 2, w, 4)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        w = init_gru(rng, 3, 4)
        x = Tensor(rng.uniform(-2, 2, (6, 3)), requires_grad=True)
        mask = np.ones((3, 2))
        mask[2, 1] = 0.0
        fd_check(lambda: ad.tsum(gru_sequence(x, 3, 2, w, 4, mask)), [x] + list(w.values()))
