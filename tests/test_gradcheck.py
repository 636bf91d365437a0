"""The gradcheck battery's draw conditioning, against the copy it replaced."""
import pytest

from oracles import _conditioned as reference_conditioned
from tailspin import gradcheck
from tailspin.nn import SSL_METHODS, build_model
from tailspin.seeding import rng_for
from tailspin.tensor import Tensor


def test_battery_draws_get_the_reference_verdict(monkeypatch):
    # every draw battery(20, 103) makes, with the finite differences skipped:
    # they consume no random numbers, so the draws are the battery's own
    verdicts = {name: [] for name in SSL_METHODS}
    conditioned = gradcheck._conditioned

    def both(name, model, view_a, view_b):
        verdict = conditioned(name, model, view_a, view_b)
        verdicts[name].append((verdict, reference_conditioned(name, model, view_a, view_b)))
        return verdict

    monkeypatch.setattr(gradcheck, "_conditioned", both)
    monkeypatch.setattr(gradcheck, "finite_diff_check", lambda f, params: 0.0)
    gradcheck.battery(instances=20, seed=103)
    for name, pairs in verdicts.items():
        assert len(pairs) >= 20, name
        assert all(new == old for new, old in pairs), name
    assert not all(new for pairs in verdicts.values() for new, _ in pairs)  # some draws were rejected


@pytest.mark.parametrize("name", SSL_METHODS)
def test_fresh_draws_get_the_reference_verdict(name):
    # drawn as _ssl_case draws them; a third to a half fail the margin, norm or column-std check
    rng = rng_for(7, "conditioning", name)
    verdicts = []
    for _ in range(600):
        model = build_model(name, input_dim=4, hidden_dim=6, rep_dim=4, proj_dim=4, pred_hidden=6,
                            seed=int(rng.integers(0, 2**63 - 1)))
        view_a = Tensor(rng.uniform(-2.0, 2.0, size=(5, 4)))
        view_b = Tensor(rng.uniform(-2.0, 2.0, size=(5, 4)))
        verdict = gradcheck._conditioned(name, model, view_a, view_b)
        assert verdict == reference_conditioned(name, model, view_a, view_b)
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)
