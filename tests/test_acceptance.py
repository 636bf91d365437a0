"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines live.
The behavioral criteria (7, 8, 9) reuse module-scoped desk runs; everything
else checks analytic oracles and invariants directly.
"""
import time

import numpy as np
import pytest

from oracles import brute_knn, golden_section_sigma, params_digest
from tailspin.cli import main as cli_main
from tailspin.data import (
    AugmentationSpec,
    Dataset,
    NoiseSpec,
    exponential_profile,
    generate_synthetic,
    inject_symmetric_noise,
)
from tailspin.evaluation import KNNConfig, knn_classify
from tailspin.gradcheck import battery
from tailspin.losses import LOSS_KINDS, Priors, SuperLossParams, batch_loss, lambert_w0, superloss_sigma
from tailspin.nn import SSL_METHODS, build_model
from tailspin.optim import OptimizerConfig, make_optimizer
from tailspin.pipeline import (
    FinetuneSettings,
    PretrainSettings,
    build_finetune_head,
    corrupt_train,
    evaluate_classifier,
    finetune,
    make_datasets,
    pretrain,
    run_single_stage,
)
from tailspin.seeding import derive
from tailspin.ssl import SSLMethod, pretrain_epoch
from tailspin.tensor import Tensor


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_superloss_closed_form_vs_golden_section():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        lam = rng.uniform(0.1, 10.0)
        tau = rng.uniform(0.0, 3.0)
        ell = rng.uniform(-10.0, 15.0)
        closed = superloss_sigma(ell, SuperLossParams(tau=tau, lam=lam))
        searched = golden_section_sigma(ell, tau, lam)
        worst = max(worst, abs(closed - searched) / searched)
    elapsed = time.perf_counter() - start
    exact_one = superloss_sigma(1.7, SuperLossParams(tau=1.7, lam=4.0)) == 1.0
    exact_floor = superloss_sigma(-100.0, SuperLossParams(tau=1.0, lam=1.0)) == np.e
    ok = worst <= 1e-6 and exact_one and exact_floor and elapsed < 2.0
    report(1, ok, f"sigma* vs golden section: max rel err {worst:.2e} (<=1e-6), "
                  f"sigma*(tau)==1 {exact_one}, floor==e {exact_floor}, runtime {elapsed:.2f}s (<2s)")
    assert worst <= 1e-6
    assert exact_one and exact_floor
    assert elapsed < 2.0


def test_criterion_2_lambert_w_residuals():
    rng = np.random.default_rng(102)
    offsets = np.exp(rng.uniform(np.log(1e-9), np.log(1e6 + np.exp(-1.0)), size=100_000))
    x = -np.exp(-1.0) + offsets
    w = lambert_w0(x)
    residual = np.abs(w * np.exp(w) - x)
    bound = 1e-12 * np.maximum(1.0, np.abs(x))
    worst = float(np.max(residual / bound))
    anchors = (
        abs(lambert_w0(0.0)) <= 1e-12
        and abs(lambert_w0(np.e) - 1.0) <= 1e-12
        and abs(lambert_w0(-np.exp(-1.0)) + 1.0) <= 1e-12
    )
    ok = worst <= 1.0 and anchors
    report(2, ok, f"100k log-uniform residuals: worst residual/bound {worst:.3f} (<=1), "
                  f"W(0)/W(e)/W(-1/e) exact to 1e-12: {anchors}")
    assert worst <= 1.0
    assert anchors


def test_criterion_3_gradient_suite():
    results = battery(instances=20, seed=103)
    worst = {name: err for name, err in results}
    ok = all(err <= 1e-4 for err in worst.values())
    covered = list(worst) == [*LOSS_KINDS, *SSL_METHODS]
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report(3, ok and covered, f"20 instances each, max rel err <= 1e-4: {detail}")
    assert covered
    for name, err in results:
        assert err <= 1e-4, f"{name} gradient error {err}"


def test_criterion_4_corruption_arithmetic():
    counts = exponential_profile(5000, 100.0, 10)
    min_is_50 = counts[-1] == 50 and counts.min() == 50
    identity = np.array_equal(exponential_profile(5000, 1.0, 10), np.full(10, 5000))

    c, nu = 10, 0.8
    ds = generate_synthetic(c, 1000, 4, 5.0, seed=104)
    noisy = inject_symmetric_noise(ds, NoiseSpec(nu, seed=104))
    p = (1 - nu) + nu / c
    sd = np.sqrt(p * (1 - p) / ds.num_samples)
    observed = float(np.mean(noisy.labels_observed == noisy.labels_true))
    retention_ok = abs(observed - p) <= 3 * sd

    ok = min_is_50 and identity and retention_ok
    report(4, ok, f"gamma=100 min class {counts[-1]} (==50), gamma=1 identity {identity}, "
                  f"retention {observed:.4f} vs {p:.4f} within 3sd ({3*sd:.4f}): {retention_ok}")
    assert min_is_50 and identity and retention_ok


def test_criterion_5_logit_adjustment_equivalence():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10):
        b, c = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        logits = Tensor(rng.normal(size=(b, c), scale=3.0))
        labels = rng.integers(0, c, size=b)
        uniform = Priors(np.full(c, 1 / c))
        la = batch_loss("la_sl", logits, labels, uniform, SuperLossParams())[1].base_losses
        ce = batch_loss("ce_sl", logits, labels, uniform, SuperLossParams())[1].base_losses
        worst = max(worst, float(np.max(np.abs(la - ce))))
    ok = worst <= 1e-12
    report(5, ok, f"uniform priors: max per-sample |LA - CE| base loss = {worst:.2e} (<=1e-12)")
    assert worst <= 1e-12


def test_criterion_6_ssl_label_blindness():
    data = generate_synthetic(3, 30, 6, 5.0, seed=106)
    rng = np.random.default_rng(0)
    tampered = Dataset(
        data.features.copy(),
        rng.permutation(data.labels_observed),
        data.labels_true.copy(),
        data.num_classes,
    )
    outcomes = {}
    for method_name in ("simsiam", "simclr", "byol", "barlow_twins"):
        digests = []
        for ds in (data, tampered):
            model = build_model(method_name, 6, hidden_dim=12, rep_dim=6, proj_dim=6, pred_hidden=4, seed=107)
            method = SSLMethod(method_name)
            opt = make_optimizer(OptimizerConfig(kind="adam", base_lr=0.002, weight_decay=0.0, batch_size=16),
                                 model.trainable_parameters())
            aug = AugmentationSpec(0.4, 0.0, 0.2)
            for epoch in range(2):
                pretrain_epoch(model, ds, method, opt, 0.002, epoch, 106, aug, 16)
            params = model.trainable_parameters()
            if model.has_ema():
                params = params + model.ema_encoder.parameters() + model.ema_projector.parameters()
            digests.append(params_digest(params))
        outcomes[method_name] = digests[0] == digests[1]
    ok = all(outcomes.values())
    report(6, ok, f"label permutation leaves pretrained parameters bitwise identical: {outcomes}")
    assert ok


@pytest.fixture(scope="module")
def anti_collapse_runs():
    def dispersion(model, ds):
        z = model.projector(model.encoder(Tensor(ds.features.astype(np.float64)))).data
        zn = z / np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
        return float(np.sqrt(zn.var(axis=0).mean()))

    clusters = generate_synthetic(8, 40, 8, 6.0, seed=2)
    out = {}
    for ablate in (False, True):
        model = build_model("simsiam", 8, seed=12)
        pretrain(model, clusters, PretrainSettings(SSLMethod("simsiam", stop_gradient=not ablate)), 2)
        out["ablated" if ablate else "healthy"] = dispersion(model, clusters)
    return out


def test_criterion_7_anti_collapse(anti_collapse_runs):
    dim = 32
    healthy = anti_collapse_runs["healthy"]
    ablated = anti_collapse_runs["ablated"]
    hi, lo = 0.5 / np.sqrt(dim), 0.1 / np.sqrt(dim)
    ok = healthy >= hi and ablated <= lo
    report(7, ok, f"200-epoch SimSiam normalized per-dim std: healthy {healthy:.4f} (>= {hi:.4f}), "
                  f"stop-gradient disabled {ablated:.4f} (<= {lo:.4f})")
    assert healthy >= hi
    assert ablated <= lo


@pytest.fixture(scope="module")
def fig2_runs():
    """Five-seed desk analogue of the two-stage vs single-stage comparison,
    plus the four-loss ablation, sharing one pretraining per seed."""
    start = time.perf_counter()
    rows = []
    for seed in range(5):
        train, test = make_datasets(3, 300, 8, 3.0, run_seed=seed, test_per_class=100)
        noisy_train = corrupt_train(train, 10.0, 0.4, seed)
        clean_train = corrupt_train(train, 10.0, 0.0, seed)
        model = build_model("simsiam", 8, seed=derive(seed, "model"))
        pretrain(model, noisy_train, PretrainSettings(), seed)  # labels unread; shared across nu
        row = {}
        for loss in ("la_sl", "ce", "ce_sl", "la"):
            head = build_finetune_head(model, 3, derive(seed, "model"))
            finetune(model, head, noisy_train, FinetuneSettings(loss=loss), "full_head", seed)
            row[f"two_noisy_{loss}"] = evaluate_classifier(model, head, test).balanced
        head = build_finetune_head(model, 3, derive(seed, "model"))
        finetune(model, head, clean_train, FinetuneSettings(loss="la_sl"), "full_head", seed)
        row["two_clean_la_sl"] = evaluate_classifier(model, head, test).balanced
        for name, single_train, loss in (("single_noisy_ce", noisy_train, "ce"),
                                         ("single_clean_la_sl", clean_train, "la_sl")):
            baseline = build_model("simsiam", 8, seed=derive(seed, "model"))
            head = build_finetune_head(baseline, 3, derive(seed, "model"))
            run_single_stage(baseline, head, single_train, FinetuneSettings(loss=loss, epochs=60), seed)
            row[name] = evaluate_classifier(baseline, head, test).balanced
        rows.append(row)
    means = {k: float(np.mean([r[k] for r in rows])) for k in rows[0]}
    means["elapsed"] = time.perf_counter() - start
    return means


def test_criterion_8_two_stage_vs_single_stage(fig2_runs):
    gap = 100.0 * (fig2_runs["two_noisy_la_sl"] - fig2_runs["single_noisy_ce"])
    clean_diff = 100.0 * (fig2_runs["two_clean_la_sl"] - fig2_runs["single_clean_la_sl"])
    elapsed = fig2_runs["elapsed"]
    ok = gap >= 5.0 and -3.0 <= clean_diff <= 3.0 and elapsed <= 600.0
    report(8, ok, f"nu=0.4: two-stage {100*fig2_runs['two_noisy_la_sl']:.1f} vs single-stage CE "
                  f"{100*fig2_runs['single_noisy_ce']:.1f}, gap {gap:.1f} (>=5); "
                  f"nu=0: two-stage minus single-stage {clean_diff:+.1f} (within 3 points); "
                  f"runtime {elapsed:.0f}s (<=600)")
    assert gap >= 5.0
    assert -3.0 <= clean_diff <= 3.0
    assert elapsed <= 600.0


def test_criterion_9_loss_ablation(fig2_runs):
    best = fig2_runs["two_noisy_la_sl"]
    margins = {
        other: 100.0 * (best - fig2_runs[f"two_noisy_{other}"]) for other in ("ce", "ce_sl", "la")
    }
    ok = all(m >= -1.0 for m in margins.values())
    report(9, ok, "LA+SL mean balanced accuracy vs others (points, ties to -1 allowed): "
                  + ", ".join(f"{k}: {v:+.2f}" for k, v in margins.items()))
    for other, margin in margins.items():
        assert margin >= -1.0, f"la_sl worse than {other} by {-margin:.2f} points"


def test_criterion_10_knn_exactness():
    rng = np.random.default_rng(110)
    # the same draws in the same order; each set's one label draw fills both tracks
    ref_features, ref_labels = rng.normal(size=(1000, 8)), rng.integers(0, 5, size=1000)
    ref = Dataset(ref_features, ref_labels, ref_labels, 5)
    qry_labels = np.zeros(1000, dtype=int)
    qry = Dataset(rng.normal(size=(1000, 8)), qry_labels, qry_labels, 5)
    mismatches = {}
    for k in (1, 5, 20):
        got = knn_classify(ref, qry, KNNConfig(k=k, metric="cosine", weighting="similarity"))
        want = brute_knn(ref.features, ref.labels_true, qry.features, k, 5)
        mismatches[k] = int(np.sum(got != want))
    ok = all(v == 0 for v in mismatches.values())
    report(10, ok, f"1000-point sets, k in (1, 5, 20): prediction mismatches vs oracle {mismatches}")
    assert ok


def test_criterion_11_run_determinism(tmp_path):
    args = [
        "--set", "data.per_class=40", "--set", "data.test_per_class=20",
        "--set", "data.gamma=5", "--set", "data.nu=0.3",
        "--set", "pretrain.epochs=5", "--set", "pretrain.batch_size=32",
        "--set", "finetune.epochs=3", "--set", "eval.knn_k=5",
    ]
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["run", "--seed", "7", "--output", str(out)] + args)
        assert code == 0
        outputs.append(((out / "metrics.jsonl").read_bytes(), (out / "summary.json").read_bytes()))
    same_metrics = outputs[0][0] == outputs[1][0]
    same_summary = outputs[0][1] == outputs[1][1]
    ok = same_metrics and same_summary
    report(11, ok, f"repeated `run` with seed 7: metrics.jsonl byte-identical {same_metrics}, "
                   f"summary.json byte-identical {same_summary}")
    assert ok
