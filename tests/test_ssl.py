import re

import numpy as np
import pytest

from oracles import barlow_direct, in_dtype, ntxent_enumerate, params_digest
from tailspin.data import AugmentationSpec, generate_synthetic
from tailspin.errors import ConfigError, ContractError, NumericError, ValidationError
from tailspin.nn import NETWORKS, Mlp, Model, build_model, ema_update
from tailspin import ssl
from tailspin.optim import OptimizerConfig, make_optimizer, train_epoch
from tailspin.seeding import rng_for
from tailspin.ssl import (
    SSLMethod,
    barlow_twins_loss,
    build_views,
    method_loss,
    nt_xent_loss,
    pretrain_epoch,
    simsiam_loss,
)
from tailspin.tensor import Tape, Tensor, l2_normalize


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


@pytest.fixture()
def tiny_model():
    return build_model("simsiam", input_dim=6, hidden_dim=8, rep_dim=4, proj_dim=4, pred_hidden=3, seed=0)


class TestBuildViews:
    def test_identity_augmentation_gives_equal_views(self):
        feats = rand((5, 6), 1)
        view_a, view_b = build_views(feats, np.arange(5), AugmentationSpec(), 0, 0)
        assert np.array_equal(view_a, view_b)
        assert np.array_equal(view_a, feats)

    def test_fixed_seeds_reproducible(self):
        feats = rand((5, 6), 2)
        aug = AugmentationSpec(0.5, 0.1, 0.2)
        va1, vb1 = build_views(feats, np.arange(5), aug, 42, 3)
        va2, vb2 = build_views(feats, np.arange(5), aug, 42, 3)
        assert np.array_equal(va1, va2)
        assert np.array_equal(vb1, vb2)
        assert not np.array_equal(va1, vb1)
        va3, _ = build_views(feats, np.arange(5), aug, 43, 3)
        assert all(not np.array_equal(va1[r], va3[r]) for r in range(5))

    def test_views_independent_of_batch_order_and_company(self):
        feats = rand((12, 6), 3)
        aug = AugmentationSpec(0.5, 0.3, 0.2)
        shuffled = np.random.default_rng(4).permutation(12)

        def views_of(idx):
            return dict(zip(idx.tolist(), zip(*build_views(feats[idx], idx, aug, 42, 3))))

        in_order, in_shuffle = views_of(np.arange(12)), views_of(shuffled)
        in_other = {**views_of(shuffled[:5]), **views_of(shuffled[5:])}
        for i in range(12):
            alone = views_of(np.array([i]))[i]
            for views in (in_order[i], in_shuffle[i], in_other[i]):
                assert alone[0].tobytes() == views[0].tobytes()
                assert alone[1].tobytes() == views[1].tobytes()

    def test_empty_batch_is_contract_error(self):
        with pytest.raises(ContractError):
            build_views(rand((0, 6), 1), np.arange(0), AugmentationSpec(), 0, 0)


def stacked(view_a, view_b, requires_grad=False):
    """Two views of one batch as the (2B, d) tensor the objectives take, view a first."""
    return Tensor(np.concatenate([np.asarray(view_a), np.asarray(view_b)]), requires_grad=requires_grad)


class TestSimsiamLoss:
    def test_matched_normalized_views_give_minus_one(self):
        v = rand((4, 5), 4)
        p = stacked(v, v)
        z = stacked(v * 2.0, v * 2.0)  # same direction, different scale
        loss = simsiam_loss(p, z)
        assert loss.item() == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_views_give_zero(self):
        p = stacked([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
        z = stacked([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]])
        assert simsiam_loss(p, z).item() == pytest.approx(0.0, abs=1e-12)

    def test_gradient_never_reaches_target_branch(self):
        p = stacked(rand((4, 5), 5), rand((4, 5), 6), requires_grad=True)
        z = stacked(rand((4, 5), 7), rand((4, 5), 8), requires_grad=True)
        with Tape() as tape:
            tape.backward(simsiam_loss(p, z))
        assert np.all(z.grad == 0.0)
        assert np.any(p.grad[:4] != 0.0)

    def test_ablation_switch_lets_gradient_through(self):
        p = stacked(rand((4, 5), 5), rand((4, 5), 6), requires_grad=True)
        z = stacked(rand((4, 5), 7), rand((4, 5), 8), requires_grad=True)
        with Tape() as tape:
            tape.backward(simsiam_loss(p, z, stop_grad=False))
        assert np.any(z.grad[:4] != 0.0)

    def test_bounded(self):
        for seed in range(5):
            loss = simsiam_loss(
                stacked(rand((6, 4), seed), rand((6, 4), seed + 100)),
                stacked(rand((6, 4), seed + 50), rand((6, 4), seed + 150)),
            )
            assert -1.0 - 1e-12 <= loss.item() <= 1.0 + 1e-12

    @pytest.mark.parametrize("shape", [(5, 4), (4,), (0, 4)])
    def test_unstacked_shape_is_contract_error(self, shape):
        t = Tensor(np.ones(shape))
        with pytest.raises(ContractError, match="stacked"):
            simsiam_loss(t, t)


class TestNtXent:
    def test_simclr_batch_of_one_rejected(self):
        z = rand((1, 4), 3)
        with pytest.raises(ContractError, match="batch size must be >= 2"):
            nt_xent_loss(stacked(z, z), 0.5)

    def test_odd_row_count_rejected(self):
        with pytest.raises(ContractError, match="stacked"):
            nt_xent_loss(Tensor(rand((5, 4), 3)), 0.5)

    def test_b2_matches_enumeration_oracle(self):
        z_a, z_b = rand((2, 3), 9), rand((2, 3), 10)
        got = nt_xent_loss(stacked(z_a, z_b), 0.5).item()
        want = ntxent_enumerate(z_a, z_b, 0.5)
        assert got == pytest.approx(want, abs=1e-10)

    def test_identical_embeddings_give_log_2b_minus_1(self):
        row = rand((1, 4), 11)
        z = np.repeat(row, 3, axis=0)
        # every pairwise similarity is equal, so the softmax is uniform over 2B-1
        assert nt_xent_loss(stacked(z, z), 0.5).item() == pytest.approx(np.log(5.0), abs=1e-9)

    def test_high_temperature_limit(self):
        loss = nt_xent_loss(stacked(rand((4, 3), 12), rand((4, 3), 13)), temperature=1e6).item()
        assert loss == pytest.approx(np.log(7.0), abs=1e-4)

    def test_nonnegative(self):
        for seed in range(5):
            loss = nt_xent_loss(stacked(rand((5, 4), seed), rand((5, 4), seed + 31)), 0.5)
            assert loss.item() >= -1e-9


class TestByol:
    def test_momentum_one_leaves_target_bitwise(self):
        model = build_model("byol", 6, seed=1)
        before = params_digest(model.ema_encoder.parameters() + model.ema_projector.parameters())
        model.encoder.layers[0].weight.data += 1.0
        ema_update(model, 1.0)
        after = params_digest(model.ema_encoder.parameters() + model.ema_projector.parameters())
        assert before == after

    def test_momentum_zero_copies_online(self):
        model = build_model("byol", 6, seed=2)
        model.encoder.layers[0].weight.data += 1.0
        ema_update(model, 0.0)
        assert np.array_equal(model.ema_encoder.layers[0].weight.data, model.encoder.layers[0].weight.data)

    def test_geometric_recursion(self):
        model = build_model("byol", 6, seed=3)
        xi = model.ema_encoder.layers[0].weight
        theta = model.encoder.layers[0].weight
        xi.data[...] = 0.0
        theta.data[...] = 1.0
        for _ in range(10):
            ema_update(model, 0.99)
        assert np.allclose(xi.data, 1.0 - 0.99**10, atol=1e-12)
        assert xi.data[0, 0] == pytest.approx(0.0956179249911955, abs=1e-12)

    def test_missing_ema_is_config_error(self, tiny_model):
        with pytest.raises(ConfigError):
            ema_update(tiny_model, 0.9)

    def test_loss_ignores_target_gradients(self):
        p = stacked(rand((4, 5), 20), rand((4, 5), 21), requires_grad=True)
        t = stacked(rand((4, 5), 22), rand((4, 5), 23))
        with Tape() as tape:
            tape.backward(simsiam_loss(p, t, stop_grad=False))
        assert np.any(p.grad[:4] != 0.0)


class TestBarlowTwins:
    def test_decorrelated_identical_views_give_zero(self):
        # zero-mean, unit-variance, mutually orthogonal columns: C is the identity
        base = np.array(
            [[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]
        ).T
        loss = barlow_twins_loss(stacked(base, base), lambda_bt=0.005)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_lambda_zero_keeps_only_diagonal_term(self):
        z_a, z_b = rand((6, 4), 30), rand((6, 4), 31)
        tiny = barlow_twins_loss(stacked(z_a, z_b), lambda_bt=1e-12).item()
        want = barlow_direct(z_a, z_b, lam=0.0)
        assert tiny == pytest.approx(want, abs=1e-9)

    def test_random_batch_matches_dense_oracle(self):
        z_a, z_b = rand((4, 3), 32), rand((4, 3), 33)
        got = barlow_twins_loss(stacked(z_a, z_b), lambda_bt=0.005).item()
        assert got == pytest.approx(barlow_direct(z_a, z_b, 0.005), abs=1e-10)

    def test_zero_variance_dimension_survives(self):
        z = rand((5, 3), 34)
        z[:, 1] = 2.5  # constant column
        loss = barlow_twins_loss(stacked(z, z), lambda_bt=0.005)
        assert np.isfinite(loss.item())

    def test_nonnegative(self):
        for seed in range(5):
            loss = barlow_twins_loss(stacked(rand((5, 4), seed), rand((5, 4), seed + 61)), 0.005)
            assert loss.item() >= 0.0

    def test_batch_of_one_rejected(self):
        z = rand((1, 4), 35)
        with pytest.raises(ContractError, match="batch size >= 2"):
            barlow_twins_loss(stacked(z, z), 0.005)

    def test_odd_row_count_rejected(self):
        with pytest.raises(ContractError, match="stacked"):
            barlow_twins_loss(Tensor(rand((5, 4), 36)), 0.005)

    def test_overflowing_variance_raises(self):
        z = rand((3, 2), 37)
        z[0, 0] = 1e200
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="barlow_twins"):
            barlow_twins_loss(stacked(z, z), 0.005)


class TestMethodLoss:
    def test_views_of_different_shapes_rejected(self, tiny_model):
        with pytest.raises(ContractError, match="view shapes differ"):
            method_loss(tiny_model, SSLMethod("simsiam"), rand((3, 6), 38), rand((5, 6), 39))

    @pytest.mark.parametrize("built, method", [("simclr", "simsiam"), ("simsiam", "barlow_twins"), ("simsiam", "byol")])
    def test_method_of_another_model_is_contract_error(self, built, method):
        # the method decides which networks exist: a SimCLR model has no predictor,
        # a SimSiam one no EMA target, and Barlow Twins would leave its predictor untrained
        model = build_model(built, 6, seed=0)
        with pytest.raises(ContractError, match=f"{method} loss on a {built} model"):
            method_loss(model, SSLMethod(method), rand((3, 6), 38), rand((3, 6), 39))


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(3, 40, 6, 6.0, seed=5)


class TestPretrainEpoch:
    """pretrain_epoch on a model in ``dtype``; TestPretrainEpochInFloat32 repeats every
    case in the float32 that pipeline.pretrain trains in. A reference loop runs
    at the model's dtype, on views rounded to it."""

    dtype = np.float64

    def _model(self, method_name, dataset, seed=7):
        return in_dtype(build_model(method_name, dataset.feature_dim, hidden_dim=16, rep_dim=8, proj_dim=8,
                                    pred_hidden=4, seed=seed), self.dtype)

    def _views(self, *args):
        return tuple(v.astype(self.dtype) for v in build_views(*args))

    def _run(self, method_name, dataset, epochs, seed=7, permute_labels=False):
        if permute_labels:
            # pretraining must not read labels; feed a label-scrambled clone
            rng = np.random.default_rng(0)
            from tailspin.data import Dataset

            dataset = Dataset(
                dataset.features.copy(),
                rng.permutation(dataset.labels_observed),
                dataset.labels_true.copy(),
                dataset.num_classes,
                split=dataset.split,
            )
        model = self._model(method_name, dataset, seed)
        method = SSLMethod(method_name)
        opt_cfg = OptimizerConfig(kind="adam", base_lr=0.002, weight_decay=0.0, batch_size=16)
        opt = make_optimizer(opt_cfg, model.trainable_parameters())
        aug = AugmentationSpec(0.4, 0.1, 0.1)
        losses = []
        for epoch in range(epochs):
            losses.append(
                pretrain_epoch(model, dataset, method, opt, 0.002, epoch, seed, aug, 16)
            )
        return model, losses

    @pytest.mark.parametrize("method", ["simsiam", "simclr", "byol", "barlow_twins"])
    def test_loss_decreases_over_training(self, method, dataset):
        _, losses = self._run(method, dataset, epochs=50)
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_rerun_bitwise_identical(self, dataset):
        m1, l1 = self._run("simsiam", dataset, epochs=3)
        m2, l2 = self._run("simsiam", dataset, epochs=3)
        assert l1 == l2
        assert params_digest(m1.trainable_parameters()) == params_digest(m2.trainable_parameters())

    def test_batch_size_one_is_contract_error_before_any_step(self, dataset):
        # every batch of one sample is under min_batch=2: the epoch would train nothing and return NaN
        model = self._model("simsiam", dataset)
        before = params_digest(model.trainable_parameters())
        opt = make_optimizer(OptimizerConfig(kind="adam", batch_size=1), model.trainable_parameters())
        with pytest.raises(ContractError, match="pretrain: batch_size=1 trains no batch, the least is 2"):
            pretrain_epoch(model, dataset, SSLMethod("simsiam"), opt, 0.002, 0, 7, AugmentationSpec(), 1)
        assert params_digest(model.trainable_parameters()) == before

    @pytest.mark.parametrize("method", ["simsiam", "simclr", "byol", "barlow_twins"])
    def test_epoch_loss_is_method_loss_on_the_epochs_views(self, method, dataset):
        # one batch holding the whole shuffled epoch: the reported loss is
        # method_loss on that batch's views, before the step
        model = self._model(method, dataset)
        ssl_method = SSLMethod(method)
        aug = AugmentationSpec(0.4, 0.1, 0.1)
        n, seed, epoch = dataset.num_samples, 7, 2
        order = rng_for(seed, "shuffle", "pretrain", epoch).permutation(n)
        views = self._views(dataset.features[order], order, aug, seed, epoch)
        want = method_loss(model, ssl_method, *views).item()
        opt = make_optimizer(OptimizerConfig(kind="adam", base_lr=0.002, weight_decay=0.0, batch_size=n),
                             model.trainable_parameters())
        assert pretrain_epoch(model, dataset, ssl_method, opt, 0.002, epoch, seed, aug, n) == want

    def test_epoch_views_sliced_per_batch_equal_build_views_on_the_batch(self, dataset):
        aug = AugmentationSpec(0.4, 0.1, 0.1)
        n = dataset.num_samples
        for epoch in range(5):
            whole = self._views(dataset.features, np.arange(n), aug, 7, epoch)
            order = rng_for(7, "shuffle", "pretrain", epoch).permutation(n)
            for start in range(0, n, 17):  # 120 = 7 * 17 + 1: the last batch holds one row
                idx = order[start : start + 17]
                for epoch_view, batch_view in zip(whole, self._views(dataset.features[idx], idx, aug, 7, epoch)):
                    assert epoch_view[idx].tobytes() == batch_view.tobytes()

    @pytest.mark.parametrize("block_rows", [7, 1024])  # 120 rows: 16 blocks of 7 and one of 8, or one
    @pytest.mark.parametrize("method", ["simsiam", "simclr", "byol", "barlow_twins"])
    def test_epoch_equals_per_batch_views_training(self, method, block_rows, dataset, monkeypatch):
        monkeypatch.setattr(ssl, "_FORWARD_ROWS", block_rows)
        aug, n, cfg = AugmentationSpec(0.4, 0.1, 0.1), dataset.num_samples, OptimizerConfig(batch_size=17)
        ssl_method = SSLMethod(method)
        models = [self._model(method, dataset) for _ in range(2)]
        opts = [make_optimizer(cfg, m.trainable_parameters()) for m in models]
        for epoch in range(2):
            got = pretrain_epoch(models[0], dataset, ssl_method, opts[0], 0.03, epoch, 7, aug, 17)

            def loss_fn(idx):
                return method_loss(models[1], ssl_method, *self._views(dataset.features[idx], idx, aug, 7, epoch))

            after = (lambda: ema_update(models[1], ssl_method.ema_momentum)) if method == "byol" else None
            want = train_epoch(opts[1], 0.03, loss_fn, n, 17, 7, "pretrain", epoch, min_batch=2, after_step=after)
            assert got == want
        assert params_digest(models[0].trainable_parameters()) == params_digest(models[1].trainable_parameters())

    @pytest.mark.parametrize("method", ["simsiam", "simclr", "byol", "barlow_twins"])
    def test_label_tamper_leaves_parameters_bitwise_identical(self, method, dataset):
        m1, _ = self._run(method, dataset, epochs=2)
        m2, _ = self._run(method, dataset, epochs=2, permute_labels=True)
        assert params_digest(m1.trainable_parameters()) == params_digest(m2.trainable_parameters())
        assert {p.data.dtype for p in m1.trainable_parameters()} == {np.dtype(self.dtype)}


class TestPretrainEpochInFloat32(TestPretrainEpoch):
    dtype = np.float32


class TestMethodValidation:
    def test_temperature_positive(self):
        with pytest.raises(ValidationError):
            SSLMethod("simclr", temperature=0.0)

    @pytest.mark.parametrize("temperature", [float("nan"), 1e-310])
    def test_temperature_reciprocal_finite(self, temperature):
        with pytest.raises(ValidationError, match=r"\btemperature\b"):
            SSLMethod("simclr", temperature=temperature)

    # 1e-300 and 1e-100 have finite reciprocals but overflow the gradients mid-run
    @pytest.mark.parametrize("temperature", [1e-300, 1e-100, 0.99e-4])
    def test_temperature_below_floor_rejected(self, temperature):
        with pytest.raises(ValidationError, match=r"\btemperature must be >= 0\.0001\b"):
            SSLMethod("simclr", temperature=temperature)

    def test_temperature_at_floor_accepted(self):
        assert SSLMethod("simclr", temperature=1e-4).temperature == 1e-4

    @pytest.mark.parametrize("lambda_bt", [float("nan"), float("inf"), 0.0, -1.0])
    def test_lambda_bt_positive_and_finite(self, lambda_bt):
        with pytest.raises(ValidationError, match=r"\blambda_bt\b"):
            SSLMethod("barlow_twins", lambda_bt=lambda_bt)

    @pytest.mark.parametrize("key, width, dims", [
        ("hidden_dim", 0, "[8, 0, 32]"),
        ("rep_dim", 0, "[8, 64, 0]"),
        ("input_dim", 0, "[0, 64, 32]"),
        ("proj_dim", -1, "[32, -1, -1]"),
    ])
    def test_nonpositive_width_rejected_at_model_build(self, key, width, dims):
        with pytest.raises(ValidationError, match=re.escape(f"widths must be >= 1, got {dims}")):
            build_model("simsiam", **{"input_dim": 8, key: width})

    def test_unknown_method_rejected_at_model_build(self):
        with pytest.raises(ConfigError):
            build_model("moco", 8)

    @pytest.mark.parametrize("method, networks", [
        ("moco", NETWORKS[:2]),
        ("simsiam", NETWORKS[:2]),  # no predictor
        ("simclr", NETWORKS[:3]),  # a predictor
        ("barlow_twins", NETWORKS),  # an EMA target
        ("byol", NETWORKS[:4]),  # half an EMA target
    ])
    def test_model_with_networks_its_method_lacks_is_validation_error(self, method, networks):
        # a model has what build_model makes: a predictor for simsiam and byol, an EMA target for byol only
        byol = build_model("byol", 6, seed=0)
        with pytest.raises(ValidationError, match=method):
            Model(method, **{name: getattr(byol, name) for name in networks})

    def test_misspelt_method_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="unknown SSL method 'simsam'"):
            SSLMethod("simsam")

    @pytest.mark.parametrize("method", ["simclr", "byol", "barlow_twins"])
    def test_stop_gradient_switch_is_simsiam_only(self, method):
        with pytest.raises(ValidationError, match=r"\bstop_gradient\b"):
            SSLMethod(method, stop_gradient=False)
        assert not SSLMethod("simsiam", stop_gradient=False).stop_gradient


def test_l2_normalize_rows_unit_norm():
    z = Tensor(rand((6, 5), 40))
    norms = np.linalg.norm(l2_normalize(z).data, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


# nn's refusals, next to the SSL methods that build their networks
@pytest.mark.parametrize("call, message", [
    (lambda: Mlp.init([4], np.random.default_rng(0)), "mlp needs at least two dims, got [4]"),
    (lambda: ema_update(build_model("byol", 4, hidden_dim=8, rep_dim=4, proj_dim=4, seed=1), 1.5),
     "ema momentum must be in [0, 1], got 1.5"),
    (lambda: ema_update(build_model("byol", 4, hidden_dim=8, rep_dim=4, proj_dim=4, seed=1), float("nan")),
     "ema momentum must be in [0, 1], got nan"),
], ids=["dims", "momentum", "nan momentum"])
def test_nn_refusals(call, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        call()


def test_simsiam_refuses_predictor_and_target_shapes_that_differ():
    with pytest.raises(ContractError, match=re.escape("simsiam: predictor and target shapes differ, (4, 3) vs (4, 2)")):
        simsiam_loss(Tensor(np.ones((4, 3))), Tensor(np.ones((4, 2))))
