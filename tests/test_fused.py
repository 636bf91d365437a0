"""One tape record per network call and per loss, and both views in one pass.

The fused ops (``mlp``, ``batch_loss`` with its softmax NLL and SuperLoss's
wrap, and the four SSL objectives on stacked views) must give the values and
leaf gradients of the chains of single ops in ``oracles`` bit for bit. A
network's chain runs on the same stacked rows as ``mlp``; an objective's
chain runs once per view. ``method_loss`` and a pretraining epoch must equal
the chains on the stacked rows bit for bit, and one pass per view to within
rounding. A training step must write exactly its budget of records, so that
un-fusing a network or a loss fails here and not only in the benchmark. Both
sides of every bitwise comparison form the same products, so the comparisons
hold whatever kernels the BLAS picks on a CPU.
"""
import numpy as np
import pytest

from oracles import (
    params_digest,
    two_pass_method_loss,
    unfused_barlow_twins,
    unfused_batch_loss,
    unfused_linear,
    unfused_mean,
    unfused_method_loss,
    unfused_mlp,
    unfused_nll,
    unfused_nt_xent,
    unfused_simsiam,
)
from tailspin.data import AugmentationSpec, generate_synthetic
from tailspin.errors import NumericError
from tailspin.losses import CLAMP_MODES, LOSS_KINDS, Priors, SuperLossParams, batch_loss
from tailspin.nn import SSL_METHODS, Mlp, build_model, ema_update
from tailspin.optim import OptimizerConfig, make_optimizer, train_epoch
from tailspin.pipeline import FULL_HEAD, LAST_LAYER_ONLY, FinetuneSettings, build_finetune_head, finetune
from tailspin.ssl import (
    SSLMethod,
    barlow_twins_loss,
    build_views,
    method_loss,
    nt_xent_loss,
    pretrain_epoch,
    simsiam_loss,
)
from tailspin.tensor import Tape, Tensor, add, mlp, mul, relu, tensor_sum


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


def two_views(batch, width, seed, requires_grad=True, scale=1.0):
    """A stacked (2B, width) leaf, view a first, and its two views as separate leaves."""
    data = scale * np.random.default_rng(seed).normal(size=(2 * batch, width))
    return [Tensor(v.copy(), requires_grad=requires_grad) for v in (data, data[:batch], data[batch:])]


def assert_same_stacked(fused, unfused, stacked):
    """fused() on stacked leaves against unfused() on their views as separate leaves
    (``stacked`` holds tuples of a stacked leaf and its views): the same output bytes,
    and each stacked leaf's gradient bytes are its views' in order."""
    out, grads = traced(fused, [t for t, *_ in stacked])
    want_out, want = traced(unfused, [v for _, *views in stacked for v in views])
    assert out == want_out
    per_leaf = iter(want)
    assert grads == [b"".join(next(per_leaf) for _ in views) for _, *views in stacked]


BATCHES = [2, 5, 41, 64]


class TestLinear:
    """One layer: ``mlp`` against the unfused chain, and its per-layer checks."""

    @pytest.mark.parametrize("batch", [1, 7])
    def test_mlp_bit_equal_to_unfused_chain(self, batch):
        mlp = Mlp.init([4, 6, 5, 3], np.random.default_rng(11))
        x = leaf((batch, 4), 12, requires_grad=False)

        def build(forward):
            out = forward(x)
            return out, weighted_sum(out, 13)

        assert_same(lambda: build(mlp), lambda: build(lambda v: unfused_mlp(mlp, v)), mlp.parameters())

    @pytest.mark.parametrize("use_relu", [False, True])
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("fan_in, fan_out", [(32, 16), (16, 32)])  # the predictor's layers
    def test_two_blocks_bit_equal_to_one_record_per_view(self, use_relu, batch, fan_in, fan_out):
        # named for the per-view products it once pinned: now one layer over both
        # views' stacked rows against the unfused chain on the same rows
        x = leaf((2 * batch, fan_in), 22)
        w, b = leaf((fan_in, fan_out), 23), leaf(fan_out, 24)
        # a later use of W and b: its gradient arrives first, so the order in
        # which the terms are added to it shows in the bits
        later = leaf((3, fan_in), 26, requires_grad=False)

        def fused():
            out = mlp(x, [w, b])
            out = relu(out) if use_relu else out
            return out, add(weighted_sum(out, 25), weighted_sum(mlp(later, [w, b]), 27))

        def unfused():
            out = unfused_linear(x, w, b, use_relu)
            return out, add(weighted_sum(out, 25), weighted_sum(unfused_linear(later, w, b), 27))

        assert_same(fused, unfused, [x, w, b])

    def test_negative_overflow_before_relu_raises(self):
        # x @ W is -inf, which the ReLU would turn into 0; the check reads the pre-activation
        x, w, b = Tensor([[1e200, 1.0]]), Tensor([[-1e200], [0.0]]), Tensor([0.0])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="mlp: layer 0"):
            mlp(x, [w, b, Tensor([[1.0]]), Tensor([0.0])])


class TestMlp:
    @pytest.mark.parametrize("views", [1, 2])
    @pytest.mark.parametrize("batch", [2, 41, 64])
    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("frozen_first", [False, True])
    def test_one_record_bit_equal_to_one_linear_record_per_layer(self, views, batch, x_grad, frozen_first):
        # one mlp record over one view or two stacked views against the unfused
        # chain, one matmul, add and ReLU per layer, on the same rows. The
        # predictor's widths, then a 10-way head layer; a frozen first layer takes
        # no gradient, and none flows below it unless x requires one. The biases
        # start at 0, so x's zero row meets every first-layer ReLU at its kink
        net = Mlp.init([32, 16, 32, 10], np.random.default_rng(36))
        if frozen_first:
            net.layers[0] = Mlp(net.layers[:1]).copy(requires_grad=False).layers[0]
        data = np.random.default_rng(37).normal(size=(views * batch, 32))
        data[0] = 0.0
        x = Tensor(data, requires_grad=x_grad)
        later = leaf((3, 32), 38, requires_grad=False)

        def build(forward):
            out = forward(x)
            return out, add(weighted_sum(out, 39), weighted_sum(forward(later), 40))

        trained = [p for p in net.parameters() if p.requires_grad]
        assert_same(lambda: build(net), lambda: build(lambda v: unfused_mlp(net, v)), [x] * x_grad + trained)


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
        # batch_loss's per-sample NLL, read from its report, and the gradient of its mean
        x = Tensor(logits, requires_grad=True)
        priors = Priors(np.array([0.5, 0.3, 0.15, 0.05]))
        shift = np.log(priors.pi) if adjusted else None
        _, report = batch_loss("la_sl" if adjusted else "ce_sl", x, labels, priors, SuperLossParams())
        assert report.base_losses.tobytes() == unfused_nll(x, labels, shift).data.tobytes()

        def fused():
            loss, _ = batch_loss("la" if adjusted else "ce", x, labels, priors, SuperLossParams())
            return loss, loss

        def unfused():
            loss = unfused_mean(unfused_nll(x, labels, shift))
            return loss, loss

        assert_same(fused, unfused, [x])


class TestBatchLoss:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @pytest.mark.parametrize("clamp_mode", CLAMP_MODES)
    @pytest.mark.parametrize("lam", [0.5, 4.0])
    @pytest.mark.parametrize("logits, labels", _logit_cases())
    def test_bit_equal_to_unfused_chain(self, kind, clamp_mode, lam, logits, labels):
        # the logits come out of a layer, so the gradient also crosses a network record;
        # at lambda 0.5 the confident rows reach the lower_bound clamp
        x = Tensor(logits)
        w, b = Tensor(np.eye(4) * 3.0, requires_grad=True), leaf(4, 18)
        priors = Priors(np.array([0.5, 0.3, 0.15, 0.05]))
        params = SuperLossParams(tau=float(np.log(4)), lam=lam, clamp_mode=clamp_mode)

        def fused():
            loss, _ = batch_loss(kind, mlp(x, [w, b]), labels, priors, params)
            return loss, loss

        def unfused():
            loss = unfused_batch_loss(kind, unfused_linear(x, w, b), labels, priors, params)
            return loss, loss

        assert_same(fused, unfused, [w, b])

    @pytest.mark.parametrize("clamp_mode", CLAMP_MODES)
    def test_unresolved_tau_is_log_c(self, clamp_mode):
        x = leaf((5, 4), 19, scale=3.0)
        labels = np.array([0, 1, 1, 3, 0])
        priors = Priors(np.full(4, 1 / 4))
        resolved = SuperLossParams(tau=float(np.log(4)), clamp_mode=clamp_mode)

        def fused():
            loss, _ = batch_loss("la_sl", x, labels, priors, SuperLossParams(clamp_mode=clamp_mode))
            return loss, loss

        def unfused():
            loss = unfused_batch_loss("la_sl", x, labels, priors, resolved)
            return loss, loss

        assert_same(fused, unfused, [x])


class TestSimsiam:
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("stop_grad", [True, False])
    def test_bit_equal_to_unfused_chain(self, batch, stop_grad):
        views = [two_views(batch, 6, 26), two_views(batch, 6, 27)]

        def fused():
            loss = simsiam_loss(views[0][0], views[1][0], stop_grad)
            return loss, loss

        def unfused():
            loss = unfused_simsiam(views[0][1], views[1][1], views[0][2], views[1][2], stop_grad)
            return loss, loss

        assert_same_stacked(fused, unfused, views)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_byol_target_takes_no_gradient(self, batch):
        p, t = two_views(batch, 6, 28), two_views(batch, 6, 29, requires_grad=False)

        def fused():
            loss = simsiam_loss(p[0], t[0], stop_grad=False)
            return loss, loss

        def unfused():
            loss = unfused_simsiam(p[1], t[1], p[2], t[2], stop_grad=False)
            return loss, loss

        assert_same_stacked(fused, unfused, [p])


class TestNtXent:
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("temperature", [0.5, 1e-4])
    def test_bit_equal_to_unfused_chain(self, batch, temperature):
        z = two_views(batch, 3, 20)

        def fused():
            loss = nt_xent_loss(z[0], temperature)
            return loss, loss

        def unfused():
            loss = unfused_nt_xent(z[1], z[2], temperature)
            return loss, loss

        assert_same_stacked(fused, unfused, [z])


class TestBarlowTwins:
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("lambda_bt", [0.005, 1.0])
    def test_bit_equal_to_unfused_chain(self, batch, lambda_bt):
        z = two_views(batch, 7, 31, scale=3.0)
        for t in z:
            t.data[:, 2] = 1.5  # a constant column: the variance is eps alone

        def fused():
            loss = barlow_twins_loss(z[0], lambda_bt)
            return loss, loss

        def unfused():
            loss = unfused_barlow_twins(z[1], z[2], lambda_bt)
            return loss, loss

        assert_same_stacked(fused, unfused, [z])


def _ssl_cases():
    return [pytest.param(m, True, id=m) for m in SSL_METHODS] + [pytest.param("simsiam", False, id="simsiam-no-sg")]


def _method_loss_case(method, stop_grad, batch):
    """A model, its SSLMethod and two views of a batch of 8-wide rows."""
    rng = np.random.default_rng(33)
    return (build_model(method, 8, seed=32), SSLMethod(method, stop_gradient=stop_grad),
            (rng.normal(size=(batch, 8)), rng.normal(size=(batch, 8))))


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("method, stop_grad", _ssl_cases())
def test_method_loss_bit_equal_to_two_passes(method, stop_grad, batch):
    # named for the two passes it once pinned: now the unfused chains with each
    # network run once on the same stacked rows
    model, ssl_method, views = _method_loss_case(method, stop_grad, batch)

    def build(loss_fn):
        loss = loss_fn(model, ssl_method, *views)
        return loss, loss

    assert_same(lambda: build(method_loss), lambda: build(unfused_method_loss), model.trainable_parameters())


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("method, stop_grad", _ssl_cases())
def test_method_loss_agrees_with_two_passes_to_rounding(method, stop_grad, batch):
    # one product over both views' rows against one pass per view: the loss and
    # every gradient agree within 1e-12 relative to max(1, |value|)
    model, ssl_method, views = _method_loss_case(method, stop_grad, batch)
    params = model.trainable_parameters()
    results = []
    for loss_fn in (method_loss, two_pass_method_loss):
        for p in params:
            p.zero_grad()
        with Tape() as tape:
            loss = loss_fn(model, ssl_method, *views)
            tape.backward(loss)
        results.append([loss.data] + [p.grad for p in params])
    for got, want in zip(*results):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("method, stop_grad", _ssl_cases())
def test_pretrain_epochs_bit_equal_to_two_pass_loop(method, stop_grad):
    # named for the two-pass loop it once pinned: now the loop over the unfused
    # chains on each batch's stacked rows, with views from build_views per batch
    # 39 samples in batches of 16: the last batch of every epoch is ragged
    dataset = generate_synthetic(3, 13, 8, 6.0, seed=34)
    ssl_method, aug = SSLMethod(method, stop_gradient=stop_grad), AugmentationSpec(0.4, 0.1, 0.2)
    models = [build_model(method, 8, seed=35) for _ in range(2)]
    opts = [make_optimizer(OptimizerConfig(batch_size=16), m.trainable_parameters()) for m in models]
    for epoch in range(3):
        got = pretrain_epoch(models[0], dataset, ssl_method, opts[0], 0.05, epoch, 36, aug, 16)

        def loss_fn(idx):
            views = build_views(dataset.features[idx], idx, aug, 36, epoch)
            return unfused_method_loss(models[1], ssl_method, *views)

        after = (lambda: ema_update(models[1], ssl_method.ema_momentum)) if method == "byol" else None
        want = train_epoch(opts[1], 0.05, loss_fn, dataset.num_samples, 16, 36, "pretrain", epoch,
                           min_batch=2, after_step=after)
        assert got == want
    networks = ("encoder", "projector", "predictor", "ema_encoder", "ema_projector")
    digests = [[params_digest(getattr(m, n).parameters()) for n in networks if getattr(m, n) is not None]
               for m in models]
    assert digests[0] == digests[1]


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


# 2 per step: one record for the head's trained layers, one for the loss
@pytest.mark.parametrize("method, policy", [("simsiam", FULL_HEAD), ("simsiam", LAST_LAYER_ONLY), ("simclr", FULL_HEAD)])
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_finetune_step_record_budget(records_per_step, train_set, method, policy, kind):
    model = build_model(method, 8, seed=3)
    head = build_finetune_head(model, 3, seed=4)
    settings = FinetuneSettings(loss=kind, epochs=1, optimizer=OptimizerConfig(
        kind="adam", base_lr=0.01, weight_decay=0.0, batch_size=32))
    finetune(model, head, train_set, settings, policy, run_seed=5)
    assert records_per_step == [2] * 3


# one record per network over both views (the encoder, the projector and, for
# SimSiam and BYOL, the predictor), then one for the objective
PRETRAIN_BUDGET = {"simsiam": 4, "simclr": 3, "byol": 4, "barlow_twins": 3}


@pytest.mark.parametrize("method", PRETRAIN_BUDGET)
def test_pretrain_step_record_budget(records_per_step, train_set, method):
    model = build_model(method, 8, seed=3)
    opt = make_optimizer(OptimizerConfig(batch_size=32), model.trainable_parameters())
    pretrain_epoch(model, train_set, SSLMethod(method), opt, 0.01, 0, 1, AugmentationSpec(0.4, 0.1, 0.2), 32)
    assert records_per_step == [PRETRAIN_BUDGET[method]] * 3
