import numpy as np
import pytest

from tailspin.errors import ContractError, NumericError, ValidationError
from tailspin.optim import Adam, OptimizerConfig, ScheduleConfig, Sgd, lr_at, make_optimizer, scaled_lr
from tailspin.tensor import Tape, Tensor, mul, tensor_sum


class TestScaledLr:
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

    def test_epoch_out_of_range(self):
        sched = ScheduleConfig("cosine", warmup_epochs=5, total_epochs=60)
        with pytest.raises(ContractError):
            lr_at(sched, 60, 0.1)

    def test_warmup_must_precede_total(self):
        with pytest.raises(ValidationError):
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


def test_make_optimizer_dispatch():
    p = [Tensor([1.0], requires_grad=True)]
    assert isinstance(make_optimizer(OptimizerConfig(kind="sgd"), p), Sgd)
    assert isinstance(make_optimizer(OptimizerConfig(kind="adam"), p), Adam)
