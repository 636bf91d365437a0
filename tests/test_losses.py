import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import explicit_softmax_nll, golden_section_sigma, newton_lambert, reference_lambert_w0
from oracles import logit_adjust as oracle_logit_adjust
from tailspin.errors import ContractError, NumericError, ShapeError, ValidationError
from tailspin.losses import LOSS_KINDS, Priors, SuperLossParams, _wrap, batch_loss, lambert_w0, superloss_sigma
from tailspin.tensor import Tape, Tensor, finite_diff_check


class TestLambertW:
    def test_defining_identities(self):
        assert lambert_w0(0.0) == pytest.approx(0.0, abs=1e-12)
        assert lambert_w0(np.e) == pytest.approx(1.0, abs=1e-12)
        assert lambert_w0(-np.exp(-1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_w_of_one_against_newton_oracle(self):
        assert lambert_w0(1.0) == pytest.approx(newton_lambert(1.0), abs=1e-12)
        assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-10)

    def test_residual_over_log_uniform_range(self):
        # offsets from the branch point, log-uniform out to 1e6
        rng = np.random.default_rng(0)
        offsets = np.exp(rng.uniform(np.log(1e-9), np.log(1e6 + np.exp(-1)), size=20000))
        x = -np.exp(-1.0) + offsets
        w = lambert_w0(x)
        residual = np.abs(w * np.exp(w) - x)
        assert np.all(residual <= 1e-12 * np.maximum(1.0, np.abs(x)))
        assert np.all(w >= -1.0)

    def test_domain_error_below_branch(self):
        with pytest.raises(ValidationError):
            lambert_w0(-np.exp(-1.0) - 1e-6)

    def test_within_rounding_of_branch_is_clamped(self):
        assert lambert_w0(-np.exp(-1.0) - 1e-13) == pytest.approx(-1.0, abs=1e-12)

    def test_no_runtime_warning_at_the_edges(self):
        # -1/e divides by w + 1 = 0 and x = 0 divides 0 by 0 before both are set;
        # exp(w) and w * exp(w) stay finite at 1e308
        x = np.array([-np.exp(-1.0), 0.0, -0.0, 1e300, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = lambert_w0(x)
        assert w[0] == -1.0 and w[1] == 0.0 and w[2] == 0.0
        assert np.signbit(w[1:3]).tolist() == [False, True]
        assert np.all(np.abs(w * np.exp(w) - x) <= 1e-12 * np.maximum(1.0, np.abs(x)))

    def test_near_branch_and_huge_arguments_in_one_call(self):
        # the branch-point series is evaluated only near -1/e; its cube overflows at 1e300
        x = np.array([-np.exp(-1.0) + 1e-6, 1e300])
        w = lambert_w0(x)
        assert w == pytest.approx([newton_lambert(v) for v in x], rel=1e-10)


def _superloss_arguments(clamp_mode):
    """The arguments superloss_sigma hands lambert_w0 for a spread of base losses."""
    rng = np.random.default_rng(21)
    ell = np.concatenate([rng.uniform(0.0, 12.0, size=64), [0.0, np.log(5.0), 1e-9, 40.0]])
    args = []
    for lam in (0.5, 4.0):
        beta = (ell - np.log(5.0)) / lam
        bound = 2.0 / np.e
        args.append(0.5 * (np.maximum(beta, -bound) if clamp_mode == "lower_bound" else np.maximum(beta, bound)))
    return args


def _agrees(got, want, x):
    """got is lambert_w0(x), want the Halley oracle's: the same type, dtype and shape,
    criterion 2's residual bound per element, and agreement to 2e-15 relative. Where
    x < -0.25 the tolerance widens to 1e-8: W0 is ill-conditioned near -1/e (dW/dx
    grows as 1/(1 + W)), and within 1e-16 of -1/e the two iterations differ by up to
    2.7e-9, each meeting the residual bound."""
    assert type(got) is type(want)
    if not isinstance(want, float):
        assert got.dtype == want.dtype and got.shape == want.shape
    w, ref = np.atleast_1d(got), np.atleast_1d(want)
    z = np.maximum(np.asarray(x, dtype=np.float64), -np.exp(-1.0))
    assert np.all(np.abs(w * np.exp(w) - z) <= 1e-12 * np.maximum(1.0, np.abs(z)))
    assert np.all(np.abs(w - ref) <= np.where(z < -0.25, 1e-8, 2e-15) * np.abs(ref))


class TestLambertWBitEqual:
    """lambert_w0's two Fritsch-Shafer-Crowley steps against the Halley iteration in
    ``oracles.reference_lambert_w0``, to within the tolerances ``_agrees`` states."""

    @pytest.mark.parametrize("clamp_mode", ["lower_bound", "as_written"])
    def test_superloss_arguments(self, clamp_mode):
        for args in _superloss_arguments(clamp_mode):
            _agrees(lambert_w0(args), reference_lambert_w0(args), args)
            for chunk in np.array_split(args, 7):  # batches with and without clamped samples
                _agrees(lambert_w0(chunk), reference_lambert_w0(chunk), chunk)

    @pytest.mark.parametrize("x", [
        [-np.exp(-1.0)],
        [-np.exp(-1.0) - 1e-13],
        [-np.exp(-1.0) - 1e-13, 0.3, 5.0],
        np.linspace(-np.exp(-1.0), -0.25, 50)[1:],
        np.linspace(-0.3, 0.2, 41),
        np.geomspace(np.e, 1e300, 300),
        [np.e],
        [np.e, np.nextafter(np.e, 10.0)],
        [-0.3, np.e, 1e300],
        [0.0, -0.0],
        [-0.0],
        [-np.exp(-1.0), -0.2, 3.0, 1e10],  # w = -1 exactly takes the oracle's guarded Halley step
    ])
    def test_arrays_across_the_branches(self, x):
        x = np.asarray(x, dtype=np.float64)
        _agrees(lambert_w0(x), reference_lambert_w0(x), x)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_batches_straddling_the_thresholds(self, seed):
        # a few values each side of -1/e, -0.25 and e in one call, as a SuperLoss batch has
        rng = np.random.default_rng(seed)
        x = np.concatenate([rng.uniform(lo, hi, size=rng.integers(0, 3)) for lo, hi in
                            ((-np.exp(-1.0), -0.25), (-0.25, np.e), (np.e, 3.0), (3.0, 1e3))])
        _agrees(lambert_w0(x), reference_lambert_w0(x), x)

    @pytest.mark.parametrize("x", [0.0, -0.0, 1.0, np.e, 1e300, -np.exp(-1.0), -np.exp(-1.0) - 1e-13,
                                   np.float64(0.5), np.array(-0.3), np.array([2.0]), 7])
    def test_scalars_and_return_type(self, x):
        _agrees(lambert_w0(x), reference_lambert_w0(x), x)

    def test_matrix_and_empty_shapes(self):
        x = np.linspace(-0.36, 30.0, 12).reshape(3, 4)
        _agrees(lambert_w0(x), reference_lambert_w0(x), x)
        _agrees(lambert_w0(np.zeros((0, 3))), reference_lambert_w0(np.zeros((0, 3))), np.zeros((0, 3)))

    @pytest.mark.parametrize("x", [[np.nan, 1.0], [1.0, np.inf], [-np.inf], [-0.5, 1.0]])
    def test_same_errors(self, x):
        with pytest.raises(ValidationError) as want:
            reference_lambert_w0(np.array(x))
        with pytest.raises(ValidationError, match=re.escape(str(want.value))):
            lambert_w0(np.array(x))


def uniform(c):
    return Priors(np.full(c, 1 / c))


def base_losses(kind, logits, labels, priors):
    """Per-sample cross-entropy (``ce_sl``) or logit-adjusted cross-entropy
    (``la_sl``), read from ``batch_loss``'s report."""
    return batch_loss(kind, logits, labels, priors, SuperLossParams())[1].base_losses


class TestLogitAdjust:
    """The prior shift, through ``batch_loss`` and through the oracle copy of the
    former ``logit_adjust``, which the ``la*`` kinds equal bit for bit."""

    def test_uniform_priors_shift_by_log_c(self):
        logits = Tensor(np.random.default_rng(1).normal(size=(4, 5)))
        adjusted = oracle_logit_adjust(logits, uniform(5))
        assert np.allclose(adjusted.data - logits.data, np.log(1 / 5), atol=1e-15)
        labels = [0, 1, 4, 2]
        assert (base_losses("la_sl", logits, labels, uniform(5)).tobytes()
                == base_losses("ce_sl", adjusted, labels, uniform(5)).tobytes())

    def test_zero_row_becomes_log_priors(self):
        pri = Priors(np.array([0.5, 0.3, 0.2]))
        adjusted = oracle_logit_adjust(Tensor([[0.0, 0.0, 0.0]]), pri)
        assert np.allclose(adjusted.data[0], np.log([0.5, 0.3, 0.2]), atol=1e-15)
        # softmax(log pi) = pi, so the loss of each label y is -log(pi_y)
        losses = base_losses("la_sl", Tensor(np.zeros((3, 3))), [0, 1, 2], pri)
        assert np.allclose(-losses, np.log([0.5, 0.3, 0.2]), atol=1e-15)

    def test_rare_class_decision_flip(self):
        # evaluated numerically on both sides: argmax moves to the dominant class
        pri = Priors(np.array([0.9, 0.1]))
        raw = np.array([[1.0, 1.1]])
        adjusted = oracle_logit_adjust(Tensor(raw), pri)
        expected = raw + np.log([0.9, 0.1])
        assert np.allclose(adjusted.data, expected, atol=1e-15)
        assert np.argmax(raw) == 1 and np.argmax(adjusted.data) == 0
        # the label of least loss is the decision: it moves from 1 to 0 as well
        both = Tensor(np.repeat(raw, 2, axis=0))
        assert np.argmin(base_losses("ce_sl", both, [0, 1], pri)) == 1
        la = base_losses("la_sl", both, [0, 1], pri)
        assert np.argmin(la) == 0
        assert la[1] - la[0] == pytest.approx(expected[0, 0] - expected[0, 1], abs=1e-15)

    def test_class_count_mismatch(self):
        with pytest.raises(ShapeError, match="batch_loss"):
            batch_loss("la", Tensor(np.zeros((2, 4))), [0, 1], uniform(3), SuperLossParams())


class TestLaLoss:
    def test_uniform_priors_equal_cross_entropy(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(6, 10)))
        labels = rng.integers(0, 10, size=6)
        la = base_losses("la_sl", logits, labels, uniform(10))
        ce = base_losses("ce_sl", logits, labels, uniform(10))
        assert np.all(np.abs(la - ce) <= 1e-12)

    def test_zero_logits_give_log_c(self):
        losses = base_losses("la_sl", Tensor(np.zeros((3, 10))), [0, 4, 9], uniform(10))
        assert np.allclose(losses, np.log(10.0), atol=1e-12)

    def test_random_batch_against_explicit_softmax(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(8, 6))
        labels = rng.integers(0, 6, size=8)
        raw_pi = rng.uniform(0.5, 2.0, size=6)
        pri = Priors(raw_pi / raw_pi.sum())
        got = base_losses("la_sl", Tensor(logits), labels, pri)
        want = explicit_softmax_nll(logits, labels, log_prior=np.log(pri.pi))
        assert np.all(np.abs(got - want) <= 1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 7))
        labels = rng.integers(0, 7, size=5)
        pri = uniform(7)
        base = base_losses("la_sl", Tensor(logits), labels, pri)
        shifted = base_losses("la_sl", Tensor(logits + 3.7), labels, pri)
        assert np.all(np.abs(base - shifted) <= 1e-12)


class TestSuperlossSigma:
    def test_sigma_is_one_at_tau(self):
        params = SuperLossParams(tau=2.0, lam=4.0)
        assert superloss_sigma(2.0, params) == pytest.approx(1.0, abs=1e-15)

    def test_floor_value_is_e_exactly(self):
        params = SuperLossParams(tau=1.0, lam=1.0)
        # ell <= tau - 2*lam/e clamps the ratio at -2/e, so sigma* = e
        assert superloss_sigma(1.0 - 2.0 / np.e, params) == np.e
        assert superloss_sigma(-50.0, params) == np.e

    def test_value_at_tau_plus_lambda_matches_golden_section(self):
        params = SuperLossParams(tau=1.0, lam=4.0)
        got = superloss_sigma(5.0, params)
        assert got == pytest.approx(0.7034674224983917, abs=1e-9)
        assert got == pytest.approx(golden_section_sigma(5.0, 1.0, 4.0), rel=1e-6)

    def test_as_written_mode_caps_sigma(self):
        params = SuperLossParams(tau=1.0, lam=1.0, clamp_mode="as_written")
        # printed clamp max((l - tau)/lam, 2/e) never lets sigma exceed exp(-W(1/e))
        cap = float(np.exp(-newton_lambert(1.0 / np.e)))
        assert superloss_sigma(-100.0, params) == pytest.approx(cap, abs=1e-12)
        assert superloss_sigma(1.0, params) == pytest.approx(cap, abs=1e-12)
        assert cap == pytest.approx(0.757, abs=5e-4)

    @pytest.mark.parametrize("trial", range(25))
    def test_minimizer_property_against_golden_section(self, trial):
        rng = np.random.default_rng(trial)
        ell = rng.uniform(-5.0, 10.0)
        tau = rng.uniform(0.0, 3.0)
        lam = rng.uniform(0.1, 10.0)
        got = superloss_sigma(ell, SuperLossParams(tau=tau, lam=lam))
        want = golden_section_sigma(ell, tau, lam)
        assert got == pytest.approx(want, rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_sigma_monotone_nonincreasing_in_loss(self, ell_a, ell_b, lam):
        params = SuperLossParams(tau=1.5, lam=lam)
        lo, hi = sorted([ell_a, ell_b])
        assert superloss_sigma(lo, params) >= superloss_sigma(hi, params) - 1e-12


class TestSuperloss:
    def test_zero_at_tau(self):
        params = SuperLossParams(tau=np.log(10), lam=4.0)
        sigma, per_sample = _wrap(np.full(3, np.log(10)), params)
        assert np.allclose(per_sample, 0.0, atol=1e-12)
        assert np.allclose(sigma, 1.0, atol=1e-12)
        assert np.mean(per_sample) == pytest.approx(0.0, abs=1e-12)

    def test_value_at_tau_plus_lambda(self):
        # frozen from the golden-section oracle: sigma* = exp(-W(1/2))
        params = SuperLossParams(tau=1.0, lam=4.0)
        _, per_sample = _wrap(np.array([5.0]), params)
        sig = 0.7034674224983917
        assert per_sample[0] == pytest.approx(4 * sig + 4 * np.log(sig) ** 2, abs=1e-9)
        assert per_sample[0] == pytest.approx(3.308736104510097, abs=1e-9)

    def test_hard_samples_downweighted(self):
        params = SuperLossParams(tau=1.0, lam=4.0)
        sigma, _ = _wrap(np.array([1.0, 5.0, 50.0]), params)
        assert sigma[0] > sigma[1] > sigma[2] > 0.0

    def test_gradient_wrt_base_loss_equals_sigma(self):
        # two-class rows [log(e^l - 1), 0] with label 1 have cross-entropy l; the
        # chain rule makes row i's logits gradient under ce_sl sigma*_i / n times
        # d(l_i)/d(logits_i), which is n times row i's gradient under ce
        params = SuperLossParams(tau=2.0, lam=4.0)
        ell = np.array([1.0, 2.0, 7.0])
        logits = Tensor(np.stack([np.log(np.expm1(ell)), np.zeros(3)], axis=1), requires_grad=True)
        labels = np.ones(3, dtype=int)
        grads = {}
        for kind in ("ce", "ce_sl"):
            logits.zero_grad()
            with Tape() as tape:
                loss, report = batch_loss(kind, logits, labels, uniform(2), params)
                tape.backward(loss)
            grads[kind] = logits.grad.copy()
        assert np.allclose(report.base_losses, ell, atol=1e-12)
        assert np.allclose(grads["ce_sl"], grads["ce"] * report.sigma[:, None], atol=1e-14)


class TestComposedLoss:
    def test_uniform_priors_at_tau_gives_zero(self):
        c = 4
        logits = Tensor(np.zeros((5, c)))  # every sample sits at loss log(C) = tau
        labels = np.zeros(5, dtype=int)
        loss, _ = batch_loss("la_sl", logits, labels, uniform(c), SuperLossParams())
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_sigma_ordering_reverses_base_loss_ordering(self):
        rng = np.random.default_rng(7)
        logits = Tensor(rng.normal(size=(12, 10), scale=3.0))
        labels = rng.integers(0, 10, size=12)
        raw = rng.uniform(0.2, 3.0, size=10)
        pri = Priors(raw / raw.sum())
        _, report = batch_loss("la_sl", logits, labels, pri, SuperLossParams())
        order_base = np.argsort(report.base_losses)
        order_sigma = np.argsort(-report.sigma, kind="stable")
        assert np.array_equal(
            np.sort(report.base_losses[order_base]), np.sort(report.base_losses[order_sigma])
        )
        # direct check of monotone pairing
        for i in range(len(report.sigma) - 1):
            a, b = order_base[i], order_base[i + 1]
            assert report.sigma[a] >= report.sigma[b] - 1e-12

    @pytest.mark.parametrize("kind", ["la_sl", "ce_sl"])
    def test_batch_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(11)
        logits = Tensor(rng.uniform(-2, 2, size=(6, 5)), requires_grad=True)
        labels = rng.integers(0, 5, size=6)
        raw = rng.uniform(0.5, 2.0, size=5)
        pri = Priors(raw / raw.sum())
        params = SuperLossParams()  # tau = log(5)

        def f():
            return batch_loss(kind, logits, labels, pri, params)[0]

        assert finite_diff_check(f, [logits], step=1e-5) <= 1e-4

    def test_plain_losses_match_finite_differences(self):
        rng = np.random.default_rng(12)
        logits = Tensor(rng.uniform(-2, 2, size=(6, 5)), requires_grad=True)
        labels = rng.integers(0, 5, size=6)
        raw = rng.uniform(0.5, 2.0, size=5)
        pri = Priors(raw / raw.sum())
        for kind in ("ce", "la"):
            assert finite_diff_check(lambda: batch_loss(kind, logits, labels, pri, SuperLossParams())[0], [logits]) <= 1e-6


class TestBatchLossChecks:
    # one shape check for every kind: 2-d logits, one column per prior, one label per row
    @pytest.mark.parametrize("kind, logits, labels", [
        ("ce", np.zeros(4), [0]),
        ("ce", np.zeros((2, 4)), [0, 1, 2]),
        ("ce_sl", np.zeros((2, 4)), [[0], [1]]),
        ("ce", np.zeros((2, 3)), [0, 1]),
    ])
    def test_shape_error_names_batch_loss(self, kind, logits, labels):
        with pytest.raises(ShapeError, match="batch_loss"):
            batch_loss(kind, Tensor(logits), labels, uniform(4), SuperLossParams())

    @pytest.mark.parametrize("label", [-1, 4])
    def test_label_out_of_range(self, label):
        with pytest.raises(ValidationError, match="batch_loss: label out of range"):
            batch_loss("la", Tensor(np.zeros((2, 4))), [0, label], uniform(4), SuperLossParams())

    # bool labels would index as a mask ([True, False] picks row 0's entries, not
    # column 1 of row 0 and column 0 of row 1) and float labels cannot index
    @pytest.mark.parametrize("labels", [np.array([True, False]), np.array([1.0, 0.0]), [1.0, 0.0], ["1", "0"]],
                             ids=["bool", "float", "float-list", "str"])
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_labels_that_are_not_integers(self, kind, labels):
        with pytest.raises(ValidationError, match="batch_loss: labels must be integers"):
            batch_loss(kind, Tensor([[2.0, 0.0], [0.0, 3.0]]), labels, uniform(2), SuperLossParams())

    @pytest.mark.parametrize("labels", [np.array([1, 0], dtype=np.int8), np.array([1, 0], dtype=np.uint64), [1, 0]])
    def test_integer_labels_of_any_width(self, labels):
        loss, _ = batch_loss("ce", Tensor([[2.0, 0.0], [0.0, 3.0]]), labels, uniform(2), SuperLossParams())
        assert loss.item() == pytest.approx((np.log1p(np.exp(2.0)) + np.log1p(np.exp(3.0))) / 2, abs=1e-15)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_overflowing_cross_entropy_is_numeric_error(self, kind):
        # max(s) - s[y] = 2e308 overflows, for the mean and the SuperLoss wrap alike
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="batch_loss: the cross-entropy"):
            batch_loss(kind, Tensor([[1e308, -1e308]]), [1], uniform(2), SuperLossParams())

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_report_is_the_per_sample_view_of_the_loss(self, kind):
        rng = np.random.default_rng(14)
        logits = Tensor(rng.normal(size=(7, 5), scale=3.0))
        labels = rng.integers(0, 5, size=7)
        pri = Priors(np.array([0.4, 0.25, 0.15, 0.12, 0.08]))
        params = SuperLossParams(tau=1.2, lam=2.0)
        loss, report = batch_loss(kind, logits, labels, pri, params)
        if not kind.endswith("_sl"):
            assert report is None
            return
        sigma, per_sample = _wrap(report.base_losses, params)
        assert report.sigma.tobytes() == sigma.tobytes()
        assert report.per_sample.tobytes() == per_sample.tobytes()
        assert loss.item() == np.sum(report.per_sample) * (1.0 / 7)


class TestParamValidation:
    def test_priors_must_be_positive(self):
        with pytest.raises(ValidationError):
            Priors(np.array([0.5, 0.5, 0.0]))

    @pytest.mark.parametrize("pi", [[float("nan"), 0.5], [0.5, float("nan"), 0.5]])
    def test_nan_priors_rejected(self, pi):
        with pytest.raises(ValidationError, match="priors"):
            Priors(np.array(pi))

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            Priors(np.array([0.5, 0.6]))

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValidationError):
            SuperLossParams(tau=1.0, lam=0.0)

    def test_clamp_mode_checked(self):
        with pytest.raises(ValidationError):
            SuperLossParams(tau=1.0, lam=1.0, clamp_mode="sideways")

    # the first overflows (l - tau) * sigma*, the second (l - tau) / lambda
    @pytest.mark.parametrize("tau, lam", [(1e308, 4.0), (-1e300, 1e-300), (float("nan"), 4.0)])
    def test_tau_that_overflows_the_loss_rejected(self, tau, lam):
        with pytest.raises(ValidationError, match=r"\btau\b"):
            SuperLossParams(tau=tau, lam=lam)

    def test_default_tau_is_log_num_classes(self):
        rng = np.random.default_rng(13)
        logits = Tensor(rng.normal(size=(6, 5)))
        labels = rng.integers(0, 5, size=6)
        pri = uniform(5)
        _, default = batch_loss("la_sl", logits, labels, pri, SuperLossParams())
        _, explicit = batch_loss("la_sl", logits, labels, pri, SuperLossParams(tau=float(np.log(5))))
        assert np.array_equal(default.per_sample, explicit.per_sample)
        with pytest.raises(ContractError):
            superloss_sigma(1.0, SuperLossParams())


@pytest.mark.parametrize("call, message", [
    (lambda: Priors(np.array([1.0])), "priors must be a vector over >= 2 classes, got shape (1,)"),
    (lambda: Priors(np.array([[0.5, 0.5]])), "priors must be a vector over >= 2 classes, got shape (1, 2)"),
    (lambda: batch_loss("mse", Tensor(np.zeros((2, 2))), [0, 1], uniform(2), SuperLossParams()),
     f"unknown loss kind 'mse', expected one of {LOSS_KINDS}"),
], ids=["one class", "2-d", "kind"])
def test_refusals(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()
