"""One tape record per layer and per loss term.

The fused ops (``linear``, ``mean``, ``softmax_nll`` and SuperLoss's wrap)
must give the values and leaf gradients of the unfused chains in
``oracles`` bit for bit, and a training step must write exactly its budget
of records, so that un-fusing a layer fails here and not only in the
benchmark.
"""
import numpy as np
import pytest

from oracles import (
    unfused_batch_loss,
    unfused_linear,
    unfused_mean,
    unfused_mlp,
    unfused_nll,
    unfused_nt_xent,
)
from tailspin.data import AugmentationSpec, generate_synthetic
from tailspin.errors import NumericError
from tailspin.losses import CLAMP_MODES, LOSS_KINDS, Priors, SuperLossParams, batch_loss, cross_entropy, la_loss
from tailspin.nn import Mlp, build_model
from tailspin.optim import OptimizerConfig, make_optimizer
from tailspin.pipeline import FULL_HEAD, LAST_LAYER_ONLY, FinetuneSettings, build_finetune_head, finetune
from tailspin.ssl import SSLMethod, nt_xent_loss, pretrain_epoch
from tailspin.tensor import Tape, Tensor, add, linear, mean, mul, tensor_sum


def leaf(shape, seed, requires_grad=True, scale=1.0):
    return Tensor(scale * np.random.default_rng(seed).normal(size=shape), requires_grad=requires_grad)


def traced(build, leaves):
    """The bytes of build()'s output and of each leaf's gradient after one backward;
    build returns (output, scalar objective)."""
    for t in leaves:
        t.zero_grad()
    with Tape() as tape:
        out, objective = build()
        tape.backward(objective)
    return out.data.tobytes(), [t.grad.tobytes() for t in leaves]


def weighted_sum(out, seed):
    """A scalar whose gradient is a signed normal draw, so products with zero masks give -0.0 too."""
    return tensor_sum(mul(out, Tensor(np.random.default_rng(seed).normal(size=out.shape))))


def assert_same(fused, unfused, leaves):
    assert traced(fused, leaves) == traced(unfused, leaves)


class TestLinear:
    @pytest.mark.parametrize("use_relu", [False, True])
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_bit_equal_to_matmul_add_relu(self, use_relu, batch, x_grad):
        x = leaf((batch, 4), 1, requires_grad=x_grad)
        w, b = leaf((4, 3), 2), leaf(3, 3)
        # pre-activations of exactly 0: a zero input row against a zero bias, and
        # a bias that cancels one product
        x.data[0] = 0.0
        b.data[1] = 0.0
        b.data[2] = -(x.data @ w.data)[-1, 2]
        pre = x.data @ w.data + b.data
        assert pre[0, 1] == 0.0 and pre[-1, 2] == 0.0

        def build(layer):
            out = layer(x, w, b, use_relu)
            return out, weighted_sum(out, 4)

        leaves = [w, b] + ([x] if x_grad else [])
        assert_same(lambda: build(linear), lambda: build(unfused_linear), leaves)

    @pytest.mark.parametrize("use_relu", [False, True])
    def test_one_weight_used_by_two_views(self, use_relu):
        xa, xb = leaf((6, 4), 5, requires_grad=False), leaf((6, 4), 6, requires_grad=False)
        w, b = leaf((4, 3), 7), leaf(3, 8)

        def build(layer):
            view_a, view_b = layer(xa, w, b, use_relu), layer(xb, w, b, use_relu)
            return view_a, add(weighted_sum(view_a, 9), weighted_sum(view_b, 10))

        assert_same(lambda: build(linear), lambda: build(unfused_linear), [w, b])

    @pytest.mark.parametrize("batch", [1, 7])
    def test_mlp_bit_equal_to_unfused_chain(self, batch):
        mlp = Mlp.init([4, 6, 5, 3], np.random.default_rng(11))
        x = leaf((batch, 4), 12, requires_grad=False)

        def build(forward):
            out = forward(x)
            return out, weighted_sum(out, 13)

        assert_same(lambda: build(mlp), lambda: build(lambda v: unfused_mlp(mlp, v)), mlp.parameters())

    def test_negative_overflow_before_relu_raises(self):
        # x @ W is -inf, which the ReLU would turn into 0; the check reads the pre-activation
        x, w, b = Tensor([[1e200, 1.0]]), Tensor([[-1e200], [0.0]]), Tensor([0.0])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="linear"):
            linear(x, w, b, relu=True)


class TestMean:
    @pytest.mark.parametrize("shape, axis, keepdims", [
        ((5,), None, False), ((4, 3), None, False), ((4, 3), 0, True), ((4, 3), -1, False), ((1, 3), 0, False),
    ])
    def test_bit_equal_to_sum_times_reciprocal(self, shape, axis, keepdims):
        a = leaf(shape, 14)

        def build(reduce):
            out = reduce(a, axis=axis, keepdims=keepdims)
            return out, weighted_sum(out, 15)

        assert_same(lambda: build(mean), lambda: build(unfused_mean), [a])


def _logit_cases():
    rng = np.random.default_rng(16)
    tied = rng.normal(size=(6, 4))
    tied[0] = 0.7  # a whole row tied
    tied[1, 2] = tied[1, 0] = tied[1].max() + 1.0  # two tied maxima
    return [
        pytest.param(tied, np.array([0, 2, 1, 3, 3, 0]), id="ties"),
        pytest.param(rng.normal(size=(1, 4)), np.array([2]), id="one-row"),
        pytest.param(5.0 * rng.normal(size=(5, 4)), np.full(5, 3), id="repeated-labels"),
    ]


class TestNll:
    @pytest.mark.parametrize("logits, labels", _logit_cases())
    @pytest.mark.parametrize("adjusted", [False, True])
    def test_bit_equal_to_lse_gather_sub(self, logits, labels, adjusted):
        x = Tensor(logits, requires_grad=True)
        priors = Priors(np.array([0.5, 0.3, 0.15, 0.05]))

        def fused():
            out = la_loss(x, labels, priors) if adjusted else cross_entropy(x, labels)
            return out, weighted_sum(out, 17)

        def unfused():
            out = unfused_nll(x, labels, np.log(priors.pi) if adjusted else None)
            return out, weighted_sum(out, 17)

        assert_same(fused, unfused, [x])


class TestBatchLoss:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @pytest.mark.parametrize("clamp_mode", CLAMP_MODES)
    @pytest.mark.parametrize("lam", [0.5, 4.0])
    @pytest.mark.parametrize("logits, labels", _logit_cases())
    def test_bit_equal_to_unfused_chain(self, kind, clamp_mode, lam, logits, labels):
        # the logits come out of a linear layer, so the gradient also crosses a fused layer;
        # at lambda 0.5 the confident rows reach the lower_bound clamp
        x = Tensor(logits)
        w, b = Tensor(np.eye(4) * 3.0, requires_grad=True), leaf(4, 18)
        priors = Priors(np.array([0.5, 0.3, 0.15, 0.05]))
        params = SuperLossParams(tau=float(np.log(4)), lam=lam, clamp_mode=clamp_mode)

        def fused():
            loss, _ = batch_loss(kind, linear(x, w, b), labels, priors, params)
            return loss, loss

        def unfused():
            loss = unfused_batch_loss(kind, unfused_linear(x, w, b), labels, priors, params)
            return loss, loss

        assert_same(fused, unfused, [w, b])

    @pytest.mark.parametrize("clamp_mode", CLAMP_MODES)
    def test_unresolved_tau_is_log_c(self, clamp_mode):
        x = leaf((5, 4), 19, scale=3.0)
        labels = np.array([0, 1, 1, 3, 0])
        priors = Priors.uniform(4)
        resolved = SuperLossParams(tau=float(np.log(4)), clamp_mode=clamp_mode)

        def fused():
            loss, _ = batch_loss("la_sl", x, labels, priors, SuperLossParams(clamp_mode=clamp_mode))
            return loss, loss

        def unfused():
            loss = unfused_batch_loss("la_sl", x, labels, priors, resolved)
            return loss, loss

        assert_same(fused, unfused, [x])


class TestNtXent:
    @pytest.mark.parametrize("batch", [2, 5])
    @pytest.mark.parametrize("temperature", [0.5, 1e-4])
    def test_bit_equal_to_unfused_chain(self, batch, temperature):
        za, zb = leaf((batch, 3), 20), leaf((batch, 3), 21)

        def build(loss_fn):
            loss = loss_fn(za, zb, temperature)
            return loss, loss

        assert_same(lambda: build(nt_xent_loss), lambda: build(unfused_nt_xent), [za, zb])


# ---------------------------------------------------------------------------
# record budget: records on the tape when one training step calls backward

@pytest.fixture
def records_per_step(monkeypatch):
    counts = []
    backward = Tape.backward

    def counting(tape, output):
        counts.append(len(tape._records))
        return backward(tape, output)

    monkeypatch.setattr(Tape, "backward", counting)
    return counts


@pytest.fixture(scope="module")
def train_set():
    return generate_synthetic(3, 32, 8, 6.0, seed=2)


# one record per layer plus one per loss term (the NLL, then SuperLoss or the mean)
@pytest.mark.parametrize("method, policy, budget", [
    ("simsiam", FULL_HEAD, 4),
    ("simsiam", LAST_LAYER_ONLY, 3),
    ("simclr", FULL_HEAD, 3),
])
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_finetune_step_record_budget(records_per_step, train_set, method, policy, budget, kind):
    model = build_model(method, 8, seed=3)
    head = build_finetune_head(model, 3, method, seed=4)
    settings = FinetuneSettings(loss=kind, epochs=1,
                                optimizer=OptimizerConfig(kind="adam", base_lr=0.01, weight_decay=0.0, batch_size=32))
    finetune(model, head, train_set, settings, policy, run_seed=5)
    assert records_per_step == [budget] * 3


# 2 views x (2 encoder + 2 projector [+ 2 predictor]) layers, then the objective's records
@pytest.mark.parametrize("method, budget", [("simsiam", 25), ("simclr", 15), ("byol", 25), ("barlow_twins", 34)])
def test_pretrain_step_record_budget(records_per_step, train_set, method, budget):
    model = build_model(method, 8, seed=3)
    opt = make_optimizer(OptimizerConfig(batch_size=32), model.trainable_parameters())
    pretrain_epoch(model, train_set, SSLMethod(method), opt, 0.01, 0, 1, AugmentationSpec(0.4, 0.1, 0.2), 32)
    assert records_per_step == [budget] * 3
