import re

import numpy as np
import pytest

from oracles import PerTensorAdam, PerTensorSgd, per_tensor_ema_update
from tailspin.errors import ConfigError, ContractError, NumericError, ValidationError
from tailspin.nn import build_model, ema_update
from tailspin.optim import (Adam, OptimizerConfig, ScheduleConfig, Sgd, lr_at, make_optimizer, scaled_lr,
                            train_epoch)
from tailspin.seeding import rng_for
from tailspin.ssl import SSLMethod, method_loss
from tailspin.tensor import Tape, Tensor, add, flatten, matmul, mlp, mul, relu, tensor_sum, transpose


class TestScaledLr:
    @pytest.mark.parametrize("base_lr", [float("nan"), float("inf"), 0.0])
    def test_nonpositive_or_non_finite_base_lr_rejected(self, base_lr):
        with pytest.raises(ValidationError, match="base_lr"):
            scaled_lr(base_lr, 64)

    def test_reference_operating_point(self):
        assert scaled_lr(0.03, 512) == pytest.approx(0.06, abs=1e-15)

    def test_batch_256_is_identity(self):
        assert scaled_lr(0.03, 256) == 0.03

    def test_direct_arithmetic(self):
        assert scaled_lr(0.003, 128) == pytest.approx(0.0015, abs=1e-18)


class TestSchedule:
    def test_warmup_end_reaches_effective_lr(self):
        sched = ScheduleConfig("cosine", warmup_epochs=10, total_epochs=100)
        assert lr_at(sched, 10, 0.06) == pytest.approx(0.06, abs=1e-15)
        # continuity: last warmup epoch already equals the effective lr
        assert lr_at(sched, 9, 0.06) == pytest.approx(0.06, abs=1e-15)

    def test_final_epoch_near_zero(self):
        sched = ScheduleConfig("cosine", warmup_epochs=10, total_epochs=100)
        last = lr_at(sched, 99, 0.06)
        expected = 0.06 * 0.5 * (1 + np.cos(np.pi * 89 / 90))
        assert last == pytest.approx(expected, abs=1e-15)
        assert last < 0.06 * 0.001

    def test_linear_warmup_midpoint(self):
        sched = ScheduleConfig("cosine", warmup_epochs=10, total_epochs=100)
        assert lr_at(sched, 4, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_nonincreasing_after_warmup(self):
        sched = ScheduleConfig("cosine", warmup_epochs=5, total_epochs=60)
        values = [lr_at(sched, e, 0.1) for e in range(5, 60)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kind", ["cosine", "constant"])
    def test_every_rate_is_a_python_float(self, kind):
        # a NumPy float64 rate would promote a float32 optimizer's update to float64
        sched = ScheduleConfig(kind, warmup_epochs=5, total_epochs=60)
        assert {type(lr_at(sched, e, 0.1)) for e in range(60)} == {float}

    def test_epoch_out_of_range(self):
        sched = ScheduleConfig("cosine", warmup_epochs=5, total_epochs=60)
        with pytest.raises(ContractError):
            lr_at(sched, 60, 0.1)

    def test_warmup_must_precede_total(self):
        with pytest.raises(ValidationError, match=re.escape("[0, total_epochs) = [0, 10), got 10")):
            ScheduleConfig("cosine", warmup_epochs=10, total_epochs=10)


class TestSgd:
    def test_plain_gradient_descent_step(self):
        theta = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            tape.backward(mul(tensor_sum(mul(theta, theta)), Tensor(0.5)))  # f = theta^2 / 2
        Sgd([theta], momentum=0.0, weight_decay=0.0).step(0.1)
        assert theta.data[0] == pytest.approx(0.9, abs=1e-15)

    def test_momentum_and_weight_decay_formula(self):
        theta = Tensor([2.0], requires_grad=True)
        opt = Sgd([theta], momentum=0.9, weight_decay=0.01)
        theta._grad = np.array([3.0])
        opt.step(0.1)
        v1 = 3.0 + 0.01 * 2.0
        assert theta.data[0] == pytest.approx(2.0 - 0.1 * v1, abs=1e-12)
        theta._grad = np.array([1.0])
        new_theta = theta.data[0]
        opt.step(0.1)
        v2 = 0.9 * v1 + 1.0 + 0.01 * new_theta
        assert theta.data[0] == pytest.approx(new_theta - 0.1 * v2, abs=1e-12)

    def test_nan_gradient_aborts(self):
        theta = Tensor([1.0], requires_grad=True)
        theta._grad = np.array([np.nan])
        with pytest.raises(NumericError):
            Sgd([theta]).step(0.1)


class TestAdam:
    def test_first_step_analytic(self):
        # on f = a/2 * theta^2 the first Adam step is lr * g / (|g| + eps)
        theta = Tensor([1.0], requires_grad=True)
        a = 4.0
        theta._grad = np.array([a * 1.0])
        Adam([theta], weight_decay=0.0).step(0.001)
        expected = 1.0 - 0.001 * a / (a + 1e-8)
        assert theta.data[0] == pytest.approx(expected, abs=1e-12)

    def test_constant_gradient_steady_state(self):
        theta = Tensor([0.0], requires_grad=True)
        opt = Adam([theta])
        for _ in range(200):
            theta._grad = np.array([2.0])
            opt.step(0.01)
        before = theta.data[0]
        theta._grad = np.array([2.0])
        opt.step(0.01)
        assert before - theta.data[0] == pytest.approx(0.01, rel=1e-3)  # lr * sign(g)

    # 1e300 * 10 is finite but its square overflows, leaving v = inf and theta unmoved;
    # 1e308 * 10 overflows in the decayed gradient itself
    @pytest.mark.parametrize("weight_decay, where", [(1e300, "adam"), (1e308, "weight decay")])
    def test_weight_decay_overflow_aborts(self, weight_decay, where):
        theta = Tensor([10.0], requires_grad=True)
        theta._grad = np.array([0.0])
        with pytest.raises(NumericError, match=where):
            Adam([theta], weight_decay=weight_decay).step(0.001)

    def test_coupled_weight_decay_enters_moments(self):
        theta = Tensor([10.0], requires_grad=True)
        opt = Adam([theta], weight_decay=0.1)
        theta._grad = np.array([0.0])
        opt.step(0.001)
        g = 0.1 * 10.0
        assert theta.data[0] == pytest.approx(10.0 - 0.001 * g / (g + 1e-8), abs=1e-12)


class TestStepErrors:
    """A step that raises leaves the parameters' bits as they were, with or without
    weight decay. Each runs outside ``train_epoch``, where the suite turns a NumPy
    RuntimeWarning into an error, so an overflow must be the NumericError alone."""

    @staticmethod
    def _optimizer(kind, weight_decay):
        params = [Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True),
                  Tensor([10.0, 0.5], requires_grad=True)]
        opt = Sgd(params, momentum=0.9, weight_decay=weight_decay) if kind == "sgd" else Adam(params, weight_decay)
        for p in params:  # one good step first, so the moments are not zero
            p._grad = np.ones_like(p.data)
        opt.step(0.01)
        return opt, params

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient(self, kind, weight_decay, bad):
        opt, params = self._optimizer(kind, weight_decay)
        before = opt.data.tobytes()
        params[0]._grad = np.ones((2, 3))
        params[1]._grad = np.array([0.0, bad])
        with pytest.raises(NumericError, match=re.escape("gradient (weight decay included) contains NaN or Inf")):
            opt.step(0.01)
        assert opt.data.tobytes() == before

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_weight_decay_that_overflows_the_gradient(self, kind):
        opt, params = self._optimizer(kind, 0.01)
        opt.weight_decay = 1e308  # 1e308 * 10 overflows
        before = opt.data.tobytes()
        for p in params:
            p._grad = np.zeros_like(p.data)
        with pytest.raises(NumericError, match=re.escape("gradient (weight decay included)")):
            opt.step(0.01)
        assert opt.data.tobytes() == before

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_adam_square_that_overflows(self, weight_decay):
        opt, params = self._optimizer("adam", weight_decay)
        before = opt.data.tobytes()
        params[0]._grad = np.full((2, 3), 1e200)  # finite, but its square is not
        params[1]._grad = np.zeros(2)
        with pytest.raises(NumericError, match="adam step: the squared gradient overflows float64"):
            opt.step(0.01)
        assert opt.data.tobytes() == before

    def test_adam_square_that_overflows_float32_names_float32(self):
        params = [Tensor(np.ones(3, np.float32), requires_grad=True)]
        opt = Adam(params)
        params[0]._grad = np.full(3, 1e21, np.float32)  # its square overflows float32, not float64
        with pytest.raises(NumericError, match="adam step: the squared gradient overflows float32"):
            opt.step(0.01)

    @pytest.mark.parametrize("dtype, big", [(np.float64, 1.5e154), (np.float32, 1e20)])
    def test_adam_bias_corrected_second_moment_that_overflows(self, dtype, big):
        # v = (1 - beta2) * big^2 is finite, but v / (1 - beta2) at t = 1 is not; unchecked,
        # the first coordinate's update would be exactly 0 and theta would read [1, 0.99]
        params = [Tensor(np.ones(2, dtype), requires_grad=True)]
        opt = Adam(params)
        params[0]._grad = np.array([big, 1.0], dtype)
        state = self._state(opt)
        with pytest.raises(NumericError, match=f"adam step: the bias-corrected second moment overflows "
                                               f"{np.dtype(dtype).name}"):
            opt.step(0.01)
        for got, want in zip(self._state(opt), state):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @staticmethod
    def _state(opt):
        return [opt.data.copy()] + ([opt.velocity.copy()] if isinstance(opt, Sgd) else [opt.m.copy(), opt.v.copy(), opt.t])

    @pytest.mark.parametrize("kind, bad", [("sgd", np.nan), ("sgd", np.inf), ("adam", np.nan), ("adam", -np.inf),
                                           ("adam", 1e200)])  # 1e200: Adam's square overflows
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_step_after_a_caught_error_is_a_fresh_optimizers_step(self, kind, bad, weight_decay):
        opt, params = self._optimizer(kind, weight_decay)
        state = self._state(opt)
        params[0]._grad, params[1]._grad = np.ones((2, 3)), np.array([0.0, bad])
        with pytest.raises(NumericError):
            opt.step(0.01)
        fresh_params = [Tensor(p.data.copy(), requires_grad=True) for p in params]
        fresh = Sgd(fresh_params, momentum=0.9, weight_decay=weight_decay) if kind == "sgd" else Adam(fresh_params,
                                                                                                      weight_decay)
        if kind == "sgd":
            fresh.velocity[:] = state[1]
        else:
            fresh.m[:], fresh.v[:], fresh.t = state[1], state[2], state[3]
        for o, ps in ((opt, params), (fresh, fresh_params)):
            ps[0]._grad, ps[1]._grad = np.full((2, 3), 0.5), np.array([0.25, -2.0])
            o.step(0.01)
        for got, want in zip(self._state(opt), self._state(fresh)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert opt.data.tobytes() != state[0].tobytes()


def test_make_optimizer_dispatch():
    p = [Tensor([1.0], requires_grad=True)]
    assert isinstance(make_optimizer(OptimizerConfig(kind="sgd"), p), Sgd)
    assert isinstance(make_optimizer(OptimizerConfig(kind="adam"), p), Adam)


class TestTrainEpoch:
    @pytest.mark.parametrize("batch_size, min_batch", [(0, 1), (-3, 1), (0, 0), (1, 2)])
    def test_batch_size_under_the_least_batch_is_contract_error_before_any_batch(self, batch_size, min_batch):
        def loss_fn(idx):
            raise AssertionError("no batch may run")

        opt = Sgd([Tensor([1.0], requires_grad=True)])
        with pytest.raises(ContractError, match=f"stage: batch_size={batch_size} trains no batch, "
                                                f"the least is {max(min_batch, 1)}"):
            train_epoch(opt, 0.1, loss_fn, 5, batch_size, 0, "stage", 0, min_batch=min_batch)


class TestOptimizerConfig:
    @pytest.mark.parametrize("field, value", [("base_lr", float("nan")), ("base_lr", float("inf")),
                                              ("weight_decay", float("nan")), ("weight_decay", float("inf"))])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            OptimizerConfig(**{field: value})


def _leaves():
    """W, b, c and z: W is used twice per graph, c takes a gradient on even
    steps only, z holds signed zeros and its gradient is -0.0."""
    rng = np.random.default_rng(0)
    return [Tensor(rng.normal(size=(3, 4)), requires_grad=True), Tensor(rng.normal(size=4), requires_grad=True),
            Tensor(rng.normal(size=4), requires_grad=True), Tensor([-0.0, 0.0, -0.0], requires_grad=True)]


def _backward(leaves, step):
    w, b, c, z = leaves
    x = Tensor(rng_for(0, "x", step).normal(size=(5, 3)))
    with Tape() as tape:
        h = matmul(relu(mlp(x, [w, b])), transpose(w))
        loss = add(tensor_sum(mul(h, h)), tensor_sum(mul(z, Tensor(-0.0))))
        if step % 2 == 0:
            loss = add(loss, tensor_sum(mul(c, c)))
        tape.backward(loss)


def _bits(arrays):
    return b"".join(a.tobytes() for a in arrays)


_FLAT = {"sgd": Sgd, "adam": Adam}
_PER_TENSOR = {"sgd": PerTensorSgd, "adam": PerTensorAdam}


class TestFlatBuffer:
    @pytest.mark.parametrize("kind, kwargs", [("sgd", {"momentum": 0.9, "weight_decay": 0.01}),
                                              ("sgd", {"momentum": 0.0, "weight_decay": 0.0}),
                                              ("adam", {"weight_decay": 0.01}),
                                              ("adam", {"weight_decay": 0.0})])
    @pytest.mark.parametrize("built_after_backward", [False, True])
    def test_fifty_steps_bit_equal_to_per_tensor_steps(self, kind, kwargs, built_after_backward):
        flat_leaves, ref_leaves = _leaves(), _leaves()
        if built_after_backward:  # step 0's gradients exist before either optimizer
            _backward(flat_leaves, 0)
            _backward(ref_leaves, 0)
        flat, ref = _FLAT[kind](flat_leaves, **kwargs), _PER_TENSOR[kind](ref_leaves, **kwargs)
        for step in range(50):
            if step or not built_after_backward:
                _backward(flat_leaves, step)
                _backward(ref_leaves, step)
            assert _bits(p.grad for p in flat_leaves) == _bits(p.grad for p in ref_leaves)
            assert np.signbit(flat_leaves[3].grad).all()
            flat.step(1e-3)
            ref.step(1e-3)
            flat.zero_grad()
            ref.zero_grad()
            assert flat.data.tobytes() == _bits(p.data for p in ref_leaves)
            assert _bits(p.data for p in flat_leaves) == _bits(p.data for p in ref_leaves)

    @pytest.mark.parametrize("kind, kwargs", [("sgd", {"momentum": 0.9, "weight_decay": 0.01}),
                                              ("adam", {"weight_decay": 0.01})])
    def test_float32_steps_stay_float32_and_equal_per_tensor_steps(self, kind, kwargs):
        # the per-tensor steps take Python-float constants, which NumPy applies in float32
        rng = np.random.default_rng(3)
        values = [rng.normal(size=(3, 4)).astype(np.float32), rng.normal(size=4).astype(np.float32)]
        flat_leaves, ref_leaves = ([Tensor(v.copy(), requires_grad=True) for v in values] for _ in range(2))
        flat, ref = _FLAT[kind](flat_leaves, **kwargs), _PER_TENSOR[kind](ref_leaves, **kwargs)
        for step in range(20):
            grads = [rng.normal(size=v.shape).astype(np.float32) for v in values]
            for leaves, opt in ((flat_leaves, flat), (ref_leaves, ref)):
                for p, g in zip(leaves, grads):
                    p._grad = g.copy()
                opt.step(lr_at(ScheduleConfig(warmup_epochs=0, total_epochs=20), step, 1e-2))
                opt.zero_grad()
            assert _bits(p.data for p in flat_leaves) == _bits(p.data for p in ref_leaves)
        state = [flat.velocity] if kind == "sgd" else [flat.m, flat.v]
        assert {a.dtype for a in [flat.data, *state]} == {np.dtype(np.float32)}

    def test_byol_steps_and_ema_bit_equal_to_per_tensor(self):
        flat_model, ref_model = (build_model("byol", 5, hidden_dim=6, rep_dim=4, proj_dim=4, pred_hidden=3, seed=4)
                                 for _ in range(2))
        method = SSLMethod("byol")
        flat = Sgd(flat_model.trainable_parameters(), momentum=0.9, weight_decay=5e-4)
        ref = PerTensorSgd(ref_model.trainable_parameters(), momentum=0.9, weight_decay=5e-4)
        for step in range(50):
            rng = rng_for(0, "views", step)
            views = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
            for model, opt, update in ((flat_model, flat, ema_update), (ref_model, ref, per_tensor_ema_update)):
                with Tape() as tape:
                    tape.backward(method_loss(model, method, *views))
                opt.step(0.05)
                opt.zero_grad()
                update(model, 0.9)
            for mlp in ("encoder", "projector", "predictor", "ema_encoder", "ema_projector"):
                assert (_bits(p.data for p in getattr(flat_model, mlp).parameters())
                        == _bits(p.data for p in getattr(ref_model, mlp).parameters()))

    def test_parameters_are_views_of_one_vector(self):
        leaves = _leaves()
        values = [p.data.copy() for p in leaves]
        opt = Sgd(leaves)
        assert opt.data.tobytes() == _bits(values)
        assert all(p.data.base is opt.data for p in leaves)
        opt.data[0] = 7.0
        assert leaves[0].data[0, 0] == 7.0

    def test_parameter_listed_twice_is_contract_error(self):
        theta = Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractError, match="twice"):
            Sgd([theta, Tensor([2.0], requires_grad=True), theta])

    def test_gradient_assigned_after_construction_is_not_dropped(self):
        for kind, kwargs in (("sgd", {"momentum": 0.9, "weight_decay": 0.01}), ("adam", {"weight_decay": 0.01})):
            theta, ref_theta = (Tensor([1.0, -2.0], requires_grad=True) for _ in range(2))
            opt, ref = _FLAT[kind]([theta], **kwargs), _PER_TENSOR[kind]([ref_theta], **kwargs)
            for grad in ([3.0, -0.0], [0.5, 1e-3]):
                theta._grad, ref_theta._grad = np.array(grad), np.array(grad)
                opt.step(0.1)
                ref.step(0.1)
                assert theta.data.tobytes() == ref_theta.data.tobytes()
            assert theta.data[0] != 1.0

    def test_gradient_of_another_optimizer_is_not_dropped(self):
        theta = Tensor([1.0], requires_grad=True)
        first, second = Sgd([theta]), Sgd([theta])
        assert np.shares_memory(second.data, first.data)  # the same vector
        with Tape() as tape:
            tape.backward(tensor_sum(mul(theta, Tensor(2.0))))
        assert theta.grad[0] == 2.0
        second.step(0.1)
        assert theta.data[0] == 1.0 - 0.1 * 2.0
        first.step(0.1)  # the same gradient, once more
        assert theta.data[0] == (1.0 - 0.1 * 2.0) - 0.1 * 2.0

    def test_tensor_zero_grad_clears_its_slice(self):
        """A cleared gradient reads as zeros in the vector the step gathers."""
        a, b = Tensor([1.0, 2.0], requires_grad=True), Tensor([3.0], requires_grad=True)
        opt = Sgd([a, b])
        with Tape() as tape:
            tape.backward(tensor_sum(mul(a, b)))
        assert a.grad.tolist() + b.grad.tolist() == [3.0, 3.0, 3.0]
        a.zero_grad()
        assert a.grad.tolist() + b.grad.tolist() == [0.0, 0.0, 3.0]
        opt.step(1.0)
        assert a.data.tolist() == [1.0, 2.0] and b.data.tolist() == [0.0]

    def test_flatten_returns_the_run_the_tensors_tile(self):
        leaves = _leaves()
        vector = flatten(leaves)
        run = flatten(leaves[1:3])
        assert run.base is vector and run.size == 4 + 4
        leaves[2].data = leaves[2].data.copy()  # no longer a view: the tensors tile nothing
        fresh = flatten(leaves[1:3])
        assert fresh.base is None and fresh.tobytes() == run.tobytes()


@pytest.mark.parametrize("optimizer", [Sgd, Adam])
def test_no_parameters_refused_when_built(optimizer):
    # built, it would fail at its first step inside the gradient gather, unclassed
    with pytest.raises(ContractError, match="an optimizer needs at least one parameter"):
        optimizer([])


@pytest.mark.parametrize("call, message", [
    (lambda: OptimizerConfig(kind="rmsprop"), "optimizer kind must be one of ('sgd', 'adam'), got 'rmsprop'"),
    (lambda: ScheduleConfig(kind="step"), "schedule kind must be one of ('cosine', 'constant'), got 'step'"),
], ids=["optimizer", "schedule"])
def test_kind_refusals(call, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        call()
