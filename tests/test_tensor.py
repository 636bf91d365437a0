import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import negative_cosine_similarity, standardize_columns, stop_gradient, unfused_mean
from tailspin.errors import ContractError, NumericError, OracleError, ShapeError, TapeError
from tailspin.losses import LOSS_KINDS, Priors, SuperLossParams, batch_loss
from tailspin.ssl import barlow_twins_loss, nt_xent_loss, simsiam_loss
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
    mlp,
    mul,
    power,
    relu,
    sub,
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

    def test_l2_normalize_overflowing_norm_rejected(self):
        # a finite row whose squared norm overflows must not map to zero
        with pytest.raises(NumericError, match="l2_normalize"):
            l2_normalize(Tensor([[1e200, 1e200]]))


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = tensor_sum(mul(x, x))
            tape.backward(out)
        assert x.grad.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("contributions, total", [((1.0, 1e16, -1e16), 1.0), ((-1e16, 1e16, 1.0), 0.0)])
    def test_leaf_sums_contributions_in_reverse_execution_order(self, contributions, total):
        # c1, c2, c3 from three ops in that order: the leaf gets (c3 + c2) + c1,
        # which is 1 for (1, 1e16, -1e16) while c1 + c2 + c3 is 0
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            uses = [mul(x, Tensor([c])) for c in contributions]
            tape.backward(tensor_sum(add(add(uses[0], uses[1]), uses[2])))
        assert x.grad.tolist() == [total]

    def test_first_contribution_is_copied(self):
        # add's vjp hands both inputs the same upstream array; x's later
        # in-place contribution must not reach y's gradient
        x, y = Tensor([1.0], requires_grad=True), Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            tripled = mul(x, Tensor([3.0]))
            tape.backward(tensor_sum(add(tripled, add(x, y))))
        assert x.grad.tolist() == [4.0] and y.grad.tolist() == [1.0]

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

    def test_graph_of_a_failed_forward_is_freed_with_its_tape(self):
        # tensors hold no pointer back to their tape, so the records form no
        # cycle and reference counting frees them when the tape goes
        def forward_that_raises(tape, refs):
            x = Tensor(rand((3, 4), 11), requires_grad=True)
            with tape:
                hidden = relu(matmul(x, Tensor(rand((4, 3), 12))))
                refs.append(weakref.ref(hidden.data))
                add(hidden, Tensor(np.zeros(5)))  # (3, 3) + (5,): ShapeError

        refs = []
        tape = Tape()
        gc.disable()
        try:
            try:
                forward_that_raises(tape, refs)
            except ShapeError:
                pass
            assert refs[0]() is not None  # the tape's records hold the graph
            del tape
            assert refs[0]() is None
        finally:
            gc.enable()

    def test_output_of_another_tape_is_error(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as outer:
            out = tensor_sum(mul(x, x))
            with Tape() as inner:
                tensor_sum(mul(x, x))
                with pytest.raises(TapeError, match="not produced on this tape"):
                    inner.backward(out)
            outer.backward(out)
        assert x.grad.tolist() == [2.0]

    def test_backward_linearity(self):
        # gradient of f + g equals gradient of f plus gradient of g
        x = Tensor(rand((3, 3), 7), requires_grad=True)
        w = Tensor(rand((3, 3), 8), requires_grad=True)

        def f():
            return tensor_sum(mul(matmul(x, w), matmul(x, w)))

        def g():
            return unfused_mean(relu(matmul(x, w)))

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


def leaves(*shapes, seed=0):
    return [Tensor(rand(shape, seed + i), requires_grad=True) for i, shape in enumerate(shapes)]


# every op that writes a tape record, on leaves that all require a gradient
# (broadcast operands, views and a tensor used twice by one op included), and
# ``mlp`` also on an input that requires none
RECORDING_OPS = {
    "add-broadcast": lambda: add(*leaves((3, 4), (4,))),
    "add-same-tensor": lambda: add(*[leaves((3, 4))[0]] * 2),
    "sub-broadcast": lambda: sub(*leaves((3, 4), (3, 1))),
    "mul-broadcast": lambda: mul(*leaves((3, 1), (4,))),
    "matmul": lambda: matmul(*leaves((3, 4), (4, 2))),
    **{f"mlp-layers{layers}": lambda layers=layers: mlp(
        leaves((4, 3))[0], leaves(*[(3, 2), (2,), (2, 2), (2,)][:2 * layers], seed=1)) for layers in (1, 2)},
    "mlp-input-without-grad": lambda: mlp(Tensor(rand((4, 3), 0)), leaves((3, 2), (2,), (2, 2), (2,))),
    "transpose": lambda: transpose(*leaves((3, 4))),
    "relu": lambda: relu(*leaves((3, 4))),
    "power": lambda: power(Tensor(rand((3, 4), 0, lo=0.5), requires_grad=True), 3.0),
    **{f"tensor_sum-axis{axis}-keepdims{keepdims}": lambda axis=axis, keepdims=keepdims: tensor_sum(
        *leaves((3, 4)), axis=axis, keepdims=keepdims) for axis in (None, 0) for keepdims in (False, True)},
    "gather_rows": lambda: gather_rows(*leaves((3, 4)), [0, 3, 1]),
    "concat_rows": lambda: concat_rows(*leaves((2, 4), (3, 4))),
    "log_sum_exp": lambda: log_sum_exp(*leaves((3, 4))),
    "l2_normalize": lambda: l2_normalize(*leaves((3, 4))),
    "simsiam-stop_grad": lambda: simsiam_loss(*leaves((4, 3), (4, 3)), stop_grad=True),
    "simsiam-no_stop_grad": lambda: simsiam_loss(*leaves((4, 3), (4, 3)), stop_grad=False),
    "nt_xent": lambda: nt_xent_loss(*leaves((4, 3)), 0.5),
    "barlow_twins": lambda: barlow_twins_loss(*leaves((6, 3)), 0.01),
    **{f"batch_loss-{kind}": lambda kind=kind: batch_loss(
        kind, *leaves((3, 4)), [0, 3, 1], Priors(np.array([0.4, 0.3, 0.2, 0.1])), SuperLossParams())[0]
       for kind in LOSS_KINDS},
}


class TestVjpContract:
    @pytest.mark.parametrize("name", RECORDING_OPS)
    def test_vjp_returns_a_new_float64_array_of_its_inputs_shape(self, name):
        # each record's vjp pairs inputs that require a gradient with fresh, writable
        # float64 gradients of their shapes, which the tape may keep as they are
        with Tape() as tape:
            RECORDING_OPS[name]()
        records = tape._records
        assert records
        upstream = [np.random.default_rng(5).normal(size=node.shape) for node, _ in records]
        pairs = [vjp(g) for (_, vjp), g in zip(records, upstream)]
        assert all(pairs)
        tensors = [node for node, _ in records] + [t for record in pairs for t, _ in record]
        results = []
        for g, record in zip(upstream, pairs):
            for t, grad in record:
                assert t.requires_grad
                assert isinstance(grad, np.ndarray) and grad.dtype == np.float64 and grad.shape == t.shape
                assert grad.flags.writeable
                assert not np.shares_memory(grad, g)
                assert not any(np.shares_memory(grad, other.data) for other in tensors)
                assert not any(np.shares_memory(grad, other) for other in results)
                results.append(grad)


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
            return unfused_mean(mul(h, h))

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
