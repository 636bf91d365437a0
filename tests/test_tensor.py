import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailspin.errors import ContractError, NumericError, OracleError, ShapeError, TapeError
from tailspin.tensor import (
    Tape,
    Tensor,
    add,
    concat_rows,
    finite_diff_check,
    gather_rows,
    l2_normalize,
    log_sum_exp,
    matmul,
    mean,
    mul,
    negative_cosine_similarity,
    power,
    relu,
    standardize_columns,
    stop_gradient,
    tensor_sum,
    transpose,
)


def rand(shape, seed, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


class TestForwardValues:
    def test_matmul_identity(self):
        a = rand((3, 5), 0)
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        assert np.allclose(out.data, a)

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_relu(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_log_sum_exp_overflow_safe(self):
        out = log_sum_exp(Tensor([1000.0, 1000.0]), axis=-1)
        # oracle: lse(x + c) = c + lse(x), checked at small magnitude
        small = log_sum_exp(Tensor([0.0, 0.0]), axis=-1).item()
        assert out.item() == pytest.approx(1000.0 + small, abs=1e-9)
        assert out.item() == pytest.approx(1000.0 + np.log(2.0), abs=1e-9)

    def test_log_sum_exp_large_magnitude(self):
        x = rand((4, 6), 3, lo=-1e4, hi=1e4)
        out = log_sum_exp(Tensor(x), axis=-1)
        assert np.all(np.isfinite(out.data))

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            Tensor([1.0, np.nan])

    def test_inf_from_op_rejected(self):
        with pytest.raises(NumericError, match="power"):
            power(Tensor([0.0]), -1.0)

    def test_add_broadcast_shape_error(self):
        with pytest.raises(ShapeError, match="add"):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_l2_normalize_zero_vector_maps_to_zero(self):
        out = l2_normalize(Tensor([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]))
        assert np.allclose(out.data[0], 0.0)
        assert np.allclose(out.data[1], [0.6, 0.8, 0.0])


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = tensor_sum(mul(x, x))
            tape.backward(out)
        assert x.grad.tolist() == [2.0, 4.0]

    def test_stop_gradient_values_bitwise_equal(self):
        x = Tensor(rand((3, 4), 2))
        sg = stop_gradient(x)
        assert sg.data is x.data or np.array_equal(sg.data, x.data)

    def test_stop_gradient_blocks_flow(self):
        x = Tensor(rand((4, 3), 5), requires_grad=True)
        y = Tensor(rand((4, 3), 6), requires_grad=True)
        with Tape() as tape:
            loss = negative_cosine_similarity(x, stop_gradient(y))
            tape.backward(loss)
        assert np.any(x.grad != 0.0)
        assert np.all(y.grad == 0.0)

    def test_non_participating_leaf_gets_exact_zeros(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([[5.0]], requires_grad=True)
        with Tape() as tape:
            out = tensor_sum(mul(x, x))
            tape.backward(out)
        assert np.array_equal(unused.grad, np.zeros((1, 1)))

    def test_backward_twice_is_error(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            out = tensor_sum(mul(x, x))
            tape.backward(out)
            with pytest.raises(TapeError):
                tape.backward(out)

    def test_non_scalar_output_is_error(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = mul(x, x)
            with pytest.raises(ContractError):
                tape.backward(out)

    def test_detached_output_is_error(self):
        x = Tensor([1.0], requires_grad=True)
        detached = tensor_sum(mul(x, x))  # built with no tape active
        with Tape() as tape:
            with pytest.raises(TapeError):
                tape.backward(detached)

    def test_spent_tape_releases_the_graph(self):
        # with the cyclic GC off, only reference counting can free the graph
        x = Tensor(rand((3, 4), 9), requires_grad=True)
        w = Tensor(rand((4, 2), 10))
        gc.disable()
        try:
            with Tape() as tape:
                hidden = relu(matmul(x, w))
                out = tensor_sum(mul(hidden, hidden))
                ref = weakref.ref(hidden.data)
                del hidden
                assert ref() is not None
                tape.backward(out)
            assert ref() is None
        finally:
            gc.enable()

    def test_backward_linearity(self):
        # gradient of f + g equals gradient of f plus gradient of g
        x = Tensor(rand((3, 3), 7), requires_grad=True)
        w = Tensor(rand((3, 3), 8), requires_grad=True)

        def f():
            return tensor_sum(mul(matmul(x, w), matmul(x, w)))

        def g():
            return mean(relu(matmul(x, w)))

        grads = {}
        for name, fn in [("f", f), ("g", g)]:
            x.zero_grad(), w.zero_grad()
            with Tape() as tape:
                tape.backward(fn())
            grads[name] = (x.grad.copy(), w.grad.copy())
        x.zero_grad(), w.zero_grad()
        with Tape() as tape:
            tape.backward(add(f(), g()))
        assert np.allclose(x.grad, grads["f"][0] + grads["g"][0], atol=1e-12)
        assert np.allclose(w.grad, grads["f"][1] + grads["g"][1], atol=1e-12)


class TestFiniteDifferenceOracle:
    def test_quadratic_is_nearly_exact(self):
        x = Tensor([3.0], requires_grad=True)
        err = finite_diff_check(lambda: tensor_sum(mul(x, x)), [x], step=1e-5)
        assert err <= 1e-9

    def test_nondeterministic_objective_detected(self):
        x = Tensor([1.0], requires_grad=True)
        state = {"n": 0}

        def f():
            state["n"] += 1
            return tensor_sum(mul(x, Tensor([float(state["n"])])))

        with pytest.raises(OracleError):
            finite_diff_check(f, [x])

    @pytest.mark.parametrize("seed", range(3))
    def test_three_layer_mlp_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        dims = [4, 6, 5, 3]
        params = []
        layers = []
        for i in range(3):
            w = Tensor(rng.uniform(-1, 1, size=(dims[i], dims[i + 1])), requires_grad=True)
            b = Tensor(rng.uniform(-0.5, 0.5, size=dims[i + 1]), requires_grad=True)
            layers.append((w, b))
            params += [w, b]
        x = Tensor(rng.uniform(-2, 2, size=(5, 4)))

        def f():
            h = x
            for j, (w, b) in enumerate(layers):
                h = add(matmul(h, w), b)
                if j < 2:
                    h = relu(h)
            return mean(mul(h, h))

        assert finite_diff_check(f, params, step=1e-5) <= 1e-4

    @pytest.mark.parametrize(
        "name,builder",
        [
            ("log_sum_exp", lambda t: tensor_sum(log_sum_exp(t, axis=-1))),
            ("l2_normalize", lambda t: tensor_sum(mul(l2_normalize(t), Tensor(rand((4, 5), 98))))),
            ("standardize", lambda t: tensor_sum(mul(standardize_columns(t), Tensor(rand((4, 5), 97))))),
            ("transpose", lambda t: tensor_sum(mul(transpose(t), transpose(t)))),
            ("gather", lambda t: tensor_sum(gather_rows(t, np.array([0, 2, 1, 4])))),
            ("concat", lambda t: tensor_sum(mul(concat_rows(t, t), concat_rows(t, t)))),
            ("power", lambda t: tensor_sum(power(add(mul(t, t), Tensor(1.0)), -0.5))),
        ],
    )
    def test_op_gradients_match_finite_differences(self, name, builder):
        t = Tensor(rand((4, 5), hash(name) % 1000), requires_grad=True)
        assert finite_diff_check(lambda: builder(t), [t], step=1e-5) <= 1e-4


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=6),
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=6),
)
def test_elementwise_gradients_property(xs, ys):
    n = min(len(xs), len(ys))
    a = Tensor(np.array(xs[:n]) + 0.001, requires_grad=True)
    b = Tensor(np.array(ys[:n]) - 0.001, requires_grad=True)

    def f():
        return tensor_sum(add(mul(a, b), relu(a)))

    assert finite_diff_check(f, [a, b], step=1e-5) <= 1e-4
