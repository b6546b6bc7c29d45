"""Solver core: the F-operator identity, the accelerated update, descent."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qib import engine, linalg, model, qdib
from qib.exceptions import InvariantError, NumericalError
from qib.model import CQChannel, CQState, ObjectiveConfig
from qib.rng import derive_rng

from helpers import (
    matrix_exp,
    matrix_log_supported,
    random_channel_for,
    random_cq_state,
    sparse_table_instance,
)


@given(
    st.integers(0, 300),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.5, 2.0, 10.0]),
)
def test_objective_equals_averaged_f_operator(seed, alpha, beta):
    state = random_cq_state(seed)
    chan = random_channel_for(state, 3, seed)
    fam = engine.f_operator(state, chan, alpha, beta)
    direct = model.objective_f_alpha(state, chan, alpha, beta)
    averaged = float(
        np.einsum("x,xij,xji->", state.px, chan.sigma_t_given_x, fam).real
    )
    assert abs(direct - averaged) < 1e-10


def test_f_operator_family_is_hermitian():
    state = random_cq_state(1)
    chan = random_channel_for(state, 2, 1)
    fam = engine.f_operator(state, chan, 0.5, 2.0)
    assert fam.shape == (state.size_x, 2, 2)
    assert linalg.hermiticity_residual(fam) < 1e-12


def test_update_produces_valid_channel_and_keeps_classical():
    state = random_cq_state(2)
    for classical in (False, True):
        chan = random_channel_for(state, 3, 2, classical=classical)
        new = engine.update(state, chan, 0.8, 0.8, 2.0)
        new.validate()
        assert new.classical == classical


def test_update_matches_exponentiated_f_at_unit_step():
    # gamma = alpha = 1 reduces to sigma-hat ∝ exp(log sigma - F)
    state = random_cq_state(3)
    chan = random_channel_for(state, 3, 3)
    fam = engine.f_operator(state, chan, 1.0, 1.5)
    new = engine.update(state, chan, 1.0, 1.0, 1.5)
    for x in range(state.size_x):
        lg = matrix_log_supported(chan.sigma_t_given_x[x])
        e = matrix_exp(linalg.hermitize(lg - fam[x]))
        ref = e / np.trace(e).real
        assert np.max(np.abs(new.sigma_t_given_x[x] - ref)) < 1e-10


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_classical_update_matches_soft_clustering_formula(alpha):
    """At gamma = alpha on an all-classical instance the update must equal
    the textbook soft-assignment rule q(t|x) ∝ [q(t) exp(beta E_x log
    (m(y|t)/p(y)))]^(1/alpha)."""
    beta = 3.0
    gen = derive_rng(17, "soft")
    nx, dy, dt = 4, 3, 3
    px = gen.dirichlet(np.ones(nx))
    pygx = gen.dirichlet(np.ones(dy), size=nx)
    ptgx = gen.dirichlet(np.ones(dt), size=nx)
    state = CQState(px, linalg.diag_embed(pygx))
    chan = CQChannel(linalg.diag_embed(ptgx), classical=True)

    q = px @ ptgx
    joint = np.einsum("x,xt,xy->ty", px, ptgx, pygx)
    py = px @ pygx
    log_ratio = np.log(joint / q[:, None]) - np.log(py)[None, :]
    expo = (np.log(q)[None, :] + beta * pygx @ log_ratio.T) / alpha
    ref = np.exp(expo - expo.max(axis=1)[:, None])
    ref /= ref.sum(axis=1)[:, None]

    new = engine.update(state, chan, alpha, alpha, beta)
    got = np.einsum("xii->xi", new.sigma_t_given_x).real
    assert np.max(np.abs(got - ref)) < 1e-10


@given(
    st.integers(0, 10**6),
    st.booleans(),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.5, 2.0, 20.0]),
)
def test_table_analysis_matches_dense_diagonal(seed, classical_rho, alpha, beta):
    # A diagonal channel has a diagonal F for any source, so the table
    # analysis must reproduce the dense one on the diagonal embedding.
    state, q = sparse_table_instance(seed, classical_rho)
    table = engine.f_operator(state, CQChannel(q, classical=True), alpha, beta)
    dense = engine.f_operator(state, CQChannel(q), alpha, beta)
    assert np.max(np.abs(table - dense)) < 1e-10
    ctx = engine._StateCtx(state)
    a = engine._Analysis(ctx, q, alpha, beta)
    b = engine._Analysis(ctx, linalg.diag_embed(q), alpha, beta)
    for name in ("f_alpha", "h_t", "h_t_given_x", "i_tx", "i_ty"):
        assert abs(getattr(a, name) - getattr(b, name)) < 1e-12


@given(
    st.integers(0, 10**6),
    st.booleans(),
    st.sampled_from([(1.0, None), (0.5, None), (1.0, 0.6), (0.0, None)]),
    st.sampled_from([2.0, 20.0]),
)
def test_classical_run_matches_dense_run(seed, classical_rho, step, beta):
    # The same table iterated as a classical channel and, densely, as a
    # quantum channel started from its diagonal embedding; alpha = 0 takes
    # the deterministic runner.
    state, q = sparse_table_instance(seed, classical_rho)
    (alpha, gamma), runs = step, []
    runner = qdib.run_qdib if alpha == 0.0 else engine.run_qib
    for classical in (True, False):
        cfg = ObjectiveConfig(
            alpha=alpha, beta=beta, gamma=gamma, dim_t=q.shape[1], classical=classical,
            tol=1e-10, max_iters=8,
        )
        runs.append(runner(state, cfg, initial=CQChannel(q, classical=classical)))
    (chan, trace), (dense_chan, dense_trace) = runs
    assert (trace.status, trace.violations) == (dense_trace.status, dense_trace.violations)
    assert len(trace) == len(dense_trace)
    for a, b in zip(trace.records, dense_trace.records):
        assert a.support_t == b.support_t
        for name in ("f_alpha", "h_t", "i_tx", "i_ty", "step_divergence", "fixed_point_residual"):
            assert abs(getattr(a, name) - getattr(b, name)) < 1e-10
        if np.isnan(a.gamma_ratio) or np.isnan(b.gamma_ratio):
            assert np.isnan(a.gamma_ratio) and np.isnan(b.gamma_ratio)
        else:
            assert abs(a.gamma_ratio - b.gamma_ratio) * b.step_divergence < 1e-10
    assert np.max(np.abs(chan.sigma_t_given_x - dense_chan.sigma_t_given_x)) < 1e-10


def test_gamma_ratio_constant_channels():
    # constant channels make the beta term drop out and the ratio collapse
    # to alpha - 1 exactly
    state = random_cq_state(5)
    gen = derive_rng(5, "const")
    for alpha in (0.0, 0.5, 1.0):
        a = CQChannel(np.stack([linalg.random_density(3, gen)] * state.size_x))
        b = CQChannel(np.stack([linalg.random_density(3, gen)] * state.size_x))
        r = engine.gamma_ratio(state, a, b, alpha, 2.0)
        assert abs(r - (alpha - 1.0)) < 1e-10


def test_gamma_ratio_bounded_by_alpha_on_update_pairs():
    for seed in range(20):
        state = random_cq_state(seed, tag="ratio-pairs")
        chan = random_channel_for(state, 2, seed, tag="ratio-pairs")
        alpha = 0.25 + 0.25 * (seed % 4)
        new = engine.update(state, chan, 0.5 * alpha, alpha, 2.0)
        r = engine.gamma_ratio(state, new, chan, alpha, 2.0)
        assert r <= alpha + 1e-9


def test_gamma_ratio_rejects_identical_channels():
    state = random_cq_state(6)
    chan = random_channel_for(state, 2, 6)
    with pytest.raises(NumericalError, match="vanishes"):
        engine.gamma_ratio(state, chan, chan, 1.0, 2.0)


def test_j_function_diagonal_equals_objective():
    state = random_cq_state(7)
    chan = random_channel_for(state, 3, 7)
    j = engine.j_function(state, chan, chan, 0.6, 0.6, 2.0)
    f = model.objective_f_alpha(state, chan, 0.6, 2.0)
    assert abs(j - f) < 1e-12


def test_j_function_decomposes_around_the_update():
    # J(sigma, sigma') - J(sigma_hat, sigma') = gamma sum_x P D(sigma || sigma_hat)
    state = random_cq_state(8)
    anchor = random_channel_for(state, 3, 8)
    probe = random_channel_for(state, 3, 9)
    gamma, alpha, beta = 0.7, 0.7, 2.0
    best = engine.update(state, anchor, gamma, alpha, beta)
    lhs = engine.j_function(state, probe, anchor, gamma, alpha, beta) - engine.j_function(
        state, best, anchor, gamma, alpha, beta
    )
    rhs = gamma * model.channel_divergence(probe, best, state)
    assert abs(lhs - rhs) < 1e-9
    assert lhs >= -1e-10  # the update minimizes J in its first slot


def test_run_qib_monotone_at_default_step():
    state = random_cq_state(20)
    cfg = ObjectiveConfig(alpha=1.0, beta=2.0, dim_t=2, seed=20, tol=1e-10, max_iters=500)
    chan, trace = engine.run_qib(state, cfg)
    chan.validate()
    fs = trace.f_values()
    assert np.all(np.diff(fs) <= 1e-9)
    assert trace.status == engine.STATUS_CONVERGED
    assert not trace.violations
    assert abs(fs[-1] - fs[-2]) <= cfg.tol


def test_run_qib_trace_has_one_row_per_iterate():
    state = random_cq_state(21)
    cfg = ObjectiveConfig(alpha=1.0, beta=2.0, dim_t=2, seed=21, max_iters=7, tol=1e-16)
    _, trace = engine.run_qib(state, cfg)
    assert trace.status == engine.STATUS_MAX_ITERS
    assert len(trace) == 8  # 7 updates plus the prospective final row
    assert [r.iteration for r in trace.records] == list(range(1, 9))


def test_run_qib_starts_from_given_initial():
    state = random_cq_state(22)
    initial = random_channel_for(state, 2, 22)
    cfg = ObjectiveConfig(alpha=1.0, beta=2.0, dim_t=2, seed=0, max_iters=3, tol=1e-16)
    _, trace = engine.run_qib(state, cfg, initial=initial)
    f0 = model.objective_f_alpha(state, initial, 1.0, 2.0)
    assert abs(trace.records[0].f_alpha - f0) < 1e-12


def test_run_qib_product_source_fixed_point():
    # On a maximally mixed start every update is a fixed point: f stays
    # (1 - alpha) ln dimT and the run converges after one step.
    state = random_cq_state(23)
    alpha, dt = 0.5, 3
    cfg = ObjectiveConfig(alpha=alpha, beta=2.0, dim_t=dt, seed=23, tol=1e-10)
    initial = model.maximally_mixed_channel(dt, state.size_x)
    chan, trace = engine.run_qib(state, cfg, initial=initial)
    assert trace.status == engine.STATUS_CONVERGED
    assert len(trace) == 2
    expected = (1.0 - alpha) * np.log(dt)
    assert abs(trace.final_f - expected) < 1e-9
    assert np.isnan(trace.records[-1].gamma_ratio)


def test_run_qib_classical_keeps_iterates_diagonal():
    state = random_cq_state(24)
    cfg = ObjectiveConfig(
        alpha=1.0, beta=2.0, dim_t=3, classical=True, seed=24, max_iters=40, tol=1e-10
    )
    chan, _ = engine.run_qib(state, cfg)
    assert chan.classical
    chan.validate()  # includes the 1e-12 off-diagonal check


def test_run_qib_rejects_zero_gamma_at_alpha_zero():
    state = random_cq_state(25)
    cfg = ObjectiveConfig(alpha=0.0, beta=2.0, dim_t=2, seed=25)
    with pytest.raises(InvariantError, match="gamma"):
        engine.run_qib(state, cfg)


def test_small_gamma_runs_flag_violations_but_satisfy_conditional_bound():
    flagged = 0
    for seed in range(12):
        state = random_cq_state(seed, tag="flag")
        cfg = ObjectiveConfig(
            alpha=1.0, beta=4.0, gamma=0.3, dim_t=3, seed=seed, tol=1e-12, max_iters=60
        )
        _, trace = engine.run_qib(state, cfg)
        fs = trace.f_values()
        for k in range(len(fs) - 1):
            ratio = trace.records[k].gamma_ratio
            if not np.isnan(ratio) and ratio <= cfg.gamma:
                assert fs[k + 1] - fs[k] <= 1e-9
        flagged += bool(trace.violations)
    assert flagged > 0


def test_trace_gamma_ratio_matches_public_gamma_ratio_bitwise():
    # Each row's ratio is the step from its iterate to the next one; the
    # public op recomputes it from the two channels.  The final row's step
    # leaves the returned channel.
    state = random_cq_state(27)
    alpha, beta = 1.0, 3.0
    cfg = ObjectiveConfig(alpha=alpha, beta=beta, gamma=0.6, dim_t=3, seed=27, max_iters=6)
    initial = random_channel_for(state, 3, 27)
    _, trace = engine.run_qib(state, cfg, initial=initial)
    iterates = [initial]
    for _ in trace.records:
        iterates.append(engine.update(state, iterates[-1], cfg.gamma, alpha, beta))
    for row, cur, nxt in zip(trace.records, iterates, iterates[1:]):
        assert row.gamma_ratio == engine.gamma_ratio(state, nxt, cur, alpha, beta)


def test_fixed_point_residual_small_at_convergence():
    state = random_cq_state(26)
    cfg = ObjectiveConfig(alpha=1.0, beta=2.0, dim_t=2, seed=26, tol=1e-13, max_iters=3000)
    chan, trace = engine.run_qib(state, cfg)
    res = engine.fixed_point_residual(state, chan, 1.0, 1.0, 2.0)
    assert res < 1e-5
    assert abs(res - trace.records[-1].fixed_point_residual) < 1e-12


def test_estimate_kappa_extremes():
    # identical conditionals contract everything; the estimate is zero up to
    # eigenvalue round-off in the sampled divergences
    rho = np.diag([1.0, 0.0]).astype(complex)
    same = CQState(np.array([0.5, 0.5]), np.stack([rho, rho]))
    assert engine.estimate_kappa(same, samples=20) < 1e-8
    orth = CQState(
        np.array([0.5, 0.5]),
        np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex),
    )
    assert abs(engine.estimate_kappa(orth, samples=20) - 1.0) < 1e-9


def test_estimate_kappa_is_a_contraction_bound():
    state = random_cq_state(27)
    k = engine.estimate_kappa(state, samples=100, seed=3)
    assert 0.0 <= k <= 1.0 + 1e-9


def test_random_channel_rejects_bad_sizes():
    with pytest.raises(InvariantError):
        engine.random_channel(0, 3)
    with pytest.raises(InvariantError):
        engine.random_channel(2, 0)


def test_state_channel_size_mismatch_raises():
    state = random_cq_state(28, size_x=3)
    chan = engine.random_channel(2, 4, seed=28)
    with pytest.raises(InvariantError, match="sizeX"):
        engine.f_operator(state, chan, 1.0, 2.0)


@pytest.mark.parametrize("runner, alpha", [(engine.run_qib, 1.0), (qdib.run_qdib, 0.0)])
def test_runners_reject_an_initial_channel_that_does_not_fit(runner, alpha):
    # Checked in the shared loop, so library calls get the checks the CLI had.
    state = random_cq_state(29, size_x=3, dim_y=2)
    quantum = random_channel_for(state, 2, 29)
    config = ObjectiveConfig(alpha=alpha, beta=2.0, dim_t=3, max_iters=3)
    with pytest.raises(InvariantError, match="^initial channel has dimT 2, config has 3$"):
        runner(state, config, initial=quantum)
    with pytest.raises(InvariantError, match="^initial channel has sizeX 2, state has 3$"):
        runner(state, config, initial=engine.random_channel(3, 2))
    classical = ObjectiveConfig(alpha=alpha, beta=2.0, dim_t=2, classical=True, max_iters=3)
    with pytest.raises(InvariantError, match="classical run but the initial channel is not classical"):
        runner(state, classical, initial=quantum)
