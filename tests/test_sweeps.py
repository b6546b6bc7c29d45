"""Gamma and beta sweeps: shared initials, guards, kappa column."""

import numpy as np
import pytest

from qib import engine, model
from qib.exceptions import InvariantError
from qib.experiments.sweeps import beta_sweep, gamma_sweep
from qib.model import ObjectiveConfig

from helpers import random_cq_state


def _state_and_config(seed=0, **kw):
    state = random_cq_state(seed, size_x=4, dim_y=2, tag="sweep")
    defaults = dict(alpha=1.0, beta=2.0, dim_t=2, seed=seed, tol=1e-9, max_iters=150)
    defaults.update(kw)
    return state, ObjectiveConfig(**defaults)


def test_gamma_sweep_shares_the_initial_channel():
    state, config = _state_and_config()
    gammas = [0.5, 1.0, 2.0]
    results, initial = gamma_sweep(state, config, gammas)
    initial.validate()
    assert [g for g, _ in results] == gammas
    f0 = model.objective_f_alpha(state, initial, config.alpha, config.beta)
    for _, trace in results:
        assert abs(trace.records[0].f_alpha - f0) < 1e-12


def test_gamma_sweep_descends_at_gamma_equal_alpha():
    state, config = _state_and_config(seed=1)
    results, _ = gamma_sweep(state, config, [1.0])
    _, trace = results[0]
    assert not trace.violations
    assert np.all(np.diff(trace.f_values()) <= 1e-9)


def test_gamma_sweep_guards():
    state, config = _state_and_config()
    with pytest.raises(InvariantError, match="empty"):
        gamma_sweep(state, config, [])
    with pytest.raises(InvariantError, match="positive"):
        gamma_sweep(state, config, [0.5, 0.0])


def test_beta_sweep_rows():
    state, config = _state_and_config(seed=3)
    betas = [0.05, 1.0, 5.0]
    rows = beta_sweep(state, config, betas, kappa_samples=50)
    assert [r["beta"] for r in rows] == betas
    kappas = {r["kappa_lower_bound"] for r in rows}
    assert len(kappas) == 1
    kappa = kappas.pop()
    assert 0.0 <= kappa <= 1.0
    for r in rows:
        assert set(r) == {"beta", "f", "H_T", "I_TX", "I_TY", "kappa_lower_bound"}
        assert r["I_TY"] >= -1e-10
        # columns are tied together: f = H - alpha(H - I_TX) - beta I_TY
        h_cond = r["H_T"] - r["I_TX"]
        assert abs(r["f"] - (r["H_T"] - config.alpha * h_cond - r["beta"] * r["I_TY"])) < 1e-9


def test_beta_sweep_small_beta_is_trivial():
    # far below the contraction threshold the iteration settles on a constant
    # channel: no information retained about either X or Y.  The resting
    # marginal itself is not pinned (any constant channel is a fixed point).
    state, config = _state_and_config(seed=5, tol=1e-12, max_iters=400)
    rows = beta_sweep(state, config, [0.05], kappa_samples=40)
    assert rows[0]["I_TY"] < 1e-6
    assert rows[0]["I_TX"] < 1e-6
    assert 0.0 < rows[0]["H_T"] <= np.log(config.dim_t) + 1e-9


def test_beta_sweep_guards():
    state, config = _state_and_config()
    with pytest.raises(InvariantError, match="empty"):
        beta_sweep(state, config, [])
    with pytest.raises(InvariantError, match=">= 0"):
        beta_sweep(state, config, [1.0, -0.5])
