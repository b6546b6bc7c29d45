"""Solver core: the F-operator identity, the accelerated update, descent."""

import ast
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qib import engine, linalg, model, qdib
from qib.exceptions import InvariantError, NumericalError
from qib.experiments import classify, ensembles
from qib.model import CQChannel, CQState, ObjectiveConfig
from qib.rng import derive_rng

import reference
from helpers import (
    eigenvector_step,
    matrix_exp,
    matrix_log_supported,
    random_channel_for,
    random_cq_state,
    random_densities,
    random_density,
    random_unitary,
    sparse_table_instance,
    symmetrize,
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
    direct = reference.objective_f_alpha(state, chan, alpha, beta)
    averaged = float(
        np.einsum("x,xij,xji->", state.px, chan.sigma_t_given_x, fam).real
    )
    assert abs(direct - averaged) < 1e-10


def test_f_operator_family_is_hermitian():
    state = random_cq_state(1)
    chan = random_channel_for(state, 2, 1)
    fam = engine.f_operator(state, chan, 0.5, 2.0)
    assert fam.shape == (state.size_x, 2, 2)
    assert np.max(np.abs(fam - np.conj(np.swapaxes(fam, -1, -2)))) < 1e-12


def test_update_produces_valid_channel_and_keeps_classical():
    state = random_cq_state(2)
    for classical in (False, True):
        chan = random_channel_for(state, 3, 2, classical=classical)
        new = engine.update(state, chan, 0.8, 0.8, 2.0)
        new.validate()
        assert new.classical == classical


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan])
def test_update_rejects_a_step_that_is_not_positive(gamma):
    state = random_cq_state(2)
    with pytest.raises(InvariantError, match="^gamma must be > 0"):
        engine.update(state, random_channel_for(state, 2, 2), gamma, 1.0, 2.0)


def test_update_matches_exponentiated_f_at_unit_step():
    # gamma = alpha = 1 reduces to sigma-hat ∝ exp(log sigma - F)
    state = random_cq_state(3)
    chan = random_channel_for(state, 3, 3)
    fam = engine.f_operator(state, chan, 1.0, 1.5)
    new = engine.update(state, chan, 1.0, 1.0, 1.5)
    for x in range(state.size_x):
        lg = matrix_log_supported(chan.sigma_t_given_x[x])
        e = matrix_exp(symmetrize(lg - fam[x]))
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
    dense = engine.f_operator(state, CQChannel(linalg.diag_embed(q)), alpha, beta)
    assert table.shape == q.shape and np.max(np.abs(linalg.diag_embed(table) - dense)) < 1e-10
    ctx = engine._StateCtx(state)
    a = engine._Analysis(ctx, CQChannel(q, classical=True), True, alpha, beta)
    b = engine._Analysis(ctx, CQChannel(linalg.diag_embed(q)), False, alpha, beta)
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
        initial = q if classical else linalg.diag_embed(q)
        runs.append(runner(state, cfg, initial=CQChannel(initial, classical=classical)))
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


@given(
    st.integers(0, 10**6),
    st.booleans(),
    st.sampled_from([(1.0, None), (1.0, 0.6), (0.0, None)]),
)
def test_runs_from_a_table_and_from_its_dense_embedding_agree(seed, classical_rho, step):
    # Both classical; only the stored form of the initial channel differs.
    state, q = sparse_table_instance(seed, classical_rho)
    (alpha, gamma), runs = step, []
    runner = qdib.run_qdib if alpha == 0.0 else engine.run_qib
    cfg = ObjectiveConfig(
        alpha=alpha, beta=5.0, gamma=gamma, dim_t=q.shape[1], classical=True,
        tol=1e-10, max_iters=8,
    )
    for initial in (q, linalg.diag_embed(q)):
        runs.append(runner(state, cfg, initial=CQChannel(initial, classical=True)))
    (chan, trace), (dense_chan, dense_trace) = runs
    assert (trace.status, trace.violations) == (dense_trace.status, dense_trace.violations)
    assert repr(trace.records) == repr(dense_trace.records)
    assert chan.table().tobytes() == dense_chan.table().tobytes()


def test_solvers_take_no_evaluation_code_from_the_oracle(monkeypatch):
    # reference is the independent check of _Analysis, so the solvers must not call it.
    def oracle(*args):
        raise AssertionError("reference called")

    for name, value in vars(reference).items():
        if inspect.isfunction(value) and value.__module__ == reference.__name__:
            monkeypatch.setattr(reference, name, oracle)
    state = random_cq_state(3)
    for runner, alpha in ((engine.run_qib, 1.0), (qdib.run_qdib, 0.0)):
        for classical in (False, True):
            cfg = ObjectiveConfig(alpha=alpha, beta=3.0, dim_t=2, classical=classical, max_iters=3)
            assert len(runner(state, cfg)[1]) >= 2



def test_reference_imports_none_of_the_code_it_checks():
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(reference))):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert "qib.model" in imported
    checked = ("qib.engine", "qib.qdib", "qib.benchmarks", "qib.experiments")
    assert [m for m in imported if any(m == c or m.startswith(c + ".") for c in checked)] == []

def test_gamma_ratio_constant_channels():
    # constant channels make the beta term drop out and the ratio collapse
    # to alpha - 1 exactly
    state = random_cq_state(5)
    gen = derive_rng(5, "const")
    for alpha in (0.0, 0.5, 1.0):
        a = CQChannel(np.stack([random_density(3, gen)] * state.size_x))
        b = CQChannel(np.stack([random_density(3, gen)] * state.size_x))
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
    f = reference.objective_f_alpha(state, chan, 0.6, 2.0)
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
    rhs = gamma * reference.channel_divergence(probe, best, state)
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
    f0 = reference.objective_f_alpha(state, initial, 1.0, 2.0)
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
    chan.validate()
    CQChannel(chan.sigma_t_given_x, classical=True)  # the 1e-12 off-diagonal check


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


def test_estimate_kappa_scores_pairs_as_it_draws_them():
    # A list of every drawn pair held 2 * samples * sizeX floats: 32.7 MB here.
    state = random_cq_state(27, size_x=1000, dim_y=2)
    tracemalloc.start()
    try:
        engine.estimate_kappa(state, samples=2000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("size_x, samples, message", [
    (1, 10, "^kappa needs at least two source symbols$"),
    (2, -1, "^samples must be >= 0, got -1$"),
], ids=["size_x", "samples"])
def test_estimate_kappa_rejects_bad_arguments(size_x, samples, message):
    with pytest.raises(InvariantError, match=message):
        engine.estimate_kappa(random_cq_state(30, size_x=size_x, dim_y=2), samples=samples)


def test_estimate_kappa_skips_pairs_without_classical_divergence(monkeypatch):
    # Past 12 symbols no vertex pairs are scored, so every pair is drawn; a
    # pair of equal distributions has no ratio and must be skipped, not
    # divided by zero.
    class Repeating:
        def dirichlet(self, alpha):
            return np.full(len(alpha), 1.0 / len(alpha))

    monkeypatch.setattr(engine.rng, "derive_rng", lambda *parts: Repeating())
    state = random_cq_state(31, size_x=13, dim_y=2)
    assert engine.estimate_kappa(state, samples=3) == 0.0


def test_random_channel_rejects_bad_sizes():
    with pytest.raises(InvariantError):
        engine.random_channel(0, 3)
    with pytest.raises(InvariantError):
        engine.random_channel(2, 0)


@pytest.mark.parametrize("dim_t", [1, 2, 3, 8, 16, 64])
@pytest.mark.parametrize("classical", [False, True])
def test_random_channel_equals_per_x_draws(dim_t, classical):
    # The quantum branch draws per x but normalizes its spectra and builds its
    # bases in one batch; dimT 8 is where a pairwise sum would change bits.
    gen, ref = derive_rng(4, "draws"), derive_rng(4, "draws")
    batched = engine.random_channel(dim_t, 9, classical=classical, seed=gen)
    assert batched.classical == classical
    if classical:
        assert np.array_equal(batched.table(), [ref.dirichlet(np.ones(dim_t)) for _ in range(9)])
    else:
        p, v = zip(*[(ref.dirichlet(np.ones(dim_t)), random_unitary(dim_t, ref)) for _ in range(9)])
        # The channel derives its stack and floored log from (p, V) once, by the matmul.
        assert np.array_equal(batched.floored_log[0], p)
        logs = [(u * linalg.log_floor(pp)) @ np.conj(u.T) for pp, u in zip(p, v)]
        assert np.array_equal(batched.floored_log[1], logs)
    # Both consumed the same stretch of the stream.
    assert gen.random() == ref.random()
    looped = random_densities(dim_t, 9, derive_rng(4, "draws"), classical)
    assert np.array_equal(batched.sigma_t_given_x, looped)


@pytest.mark.parametrize("dim_t, classical", [(2, False), (3, False), (3, True)])
def test_second_run_plans_no_einsum_path(monkeypatch, dim_t, classical):
    # Every contraction has a fixed shape and is written as its product, so
    # no run plans a path, the first included: not directly, not through
    # np.einsum(optimize=).
    calls = []
    plan = np.einsum_path

    def counting(*args, **kwargs):
        calls.append(args[0])
        return plan(*args, **kwargs)

    monkeypatch.setattr(np, "einsum_path", counting)
    monkeypatch.setitem(inspect.unwrap(np.einsum).__globals__, "einsum_path", counting)
    state = random_cq_state(30, size_x=4, dim_y=2)
    for seed in (0, 1):
        for runner, alpha in [(engine.run_qib, 1.0), (qdib.run_qdib, 0.0)]:
            cfg = ObjectiveConfig(
                alpha=alpha, beta=5.0, dim_t=dim_t, classical=classical, max_iters=3, seed=seed
            )
            runner(state, cfg)
    feats = random_densities(2, 5, derive_rng(30, "gram"))
    classify.hs_gram(feats, feats[:3])
    assert calls == []


def _floored_log_ref(h):
    w, v = linalg.eig_hermitian(h)
    return w, np.einsum("...ij,...j,...kj->...ik", v, linalg.log_floor(w), np.conj(v))


def _analysis_ref(state, mats, alpha, beta):
    """(h_t, i_tx, i_ty, F) of ``engine._Analysis`` with its contractions
    spelled as ``np.einsum`` subscripts; ``mats`` is a stack or a table."""
    px, rhos = state.px, state.rho_y_given_x
    wy, log_rho_y = _floored_log_ref(reference.rho_y(state))
    if mats.ndim == 2:
        evals, log_mats = mats, linalg.log_floor(mats)
        sigma_t_evals = px @ mats
        log_sigma_t = linalg.log_floor(sigma_t_evals)
        joint = np.einsum("x,xt,xij->tij", px, mats, rhos)
    else:
        dt, dy = mats.shape[-1], rhos.shape[-1]
        evals, log_mats = _floored_log_ref(mats)
        sigma_t_evals, log_sigma_t = _floored_log_ref(
            symmetrize(np.einsum("x,xij->ij", px, mats))
        )
        joint = np.einsum("x,xik,xjl->ijkl", px, mats, rhos).reshape(dt * dy, dt * dy)
    wj, log_joint = _floored_log_ref(symmetrize(joint))
    h_t = linalg.entropy(sigma_t_evals)
    i_tx = h_t - px @ linalg.entropy(evals)
    i_ty = h_t + linalg.entropy(wy) - linalg.entropy(wj.ravel())
    if mats.ndim == 2:
        beta_term = log_sigma_t + np.einsum("xij,tji->xt", rhos, log_rho_y - log_joint).real
        fam = linalg.diag_embed(-log_sigma_t + alpha * log_mats + beta * beta_term)
    else:
        log_prod = np.kron(log_sigma_t, np.eye(dy)) + np.kron(np.eye(dt), log_rho_y)
        b4 = (log_prod - log_joint).reshape(dt, dy, dt, dy)
        beta_term = np.einsum("ijkl,xlj->xik", b4, rhos)
        fam = symmetrize(-log_sigma_t + alpha * log_mats + beta * beta_term)
    return h_t, i_tx, i_ty, fam


@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
    st.integers(0, 10**6),
)
@example(1, 1, 1, False, False, 0)
@example(1, 1, 1, True, True, 0)
@example(3, 4, 2, False, False, 1)
@example(3, 4, 2, True, False, 1)
def test_products_match_their_einsum_subscripts(size_x, dim_t, dim_y, classical, classical_rho, seed):
    state = random_cq_state(seed, size_x=size_x, dim_y=dim_y, classical=classical_rho)
    gen = derive_rng(seed, "products")
    if classical:
        channel = CQChannel(gen.dirichlet(np.ones(dim_t), size=size_x), classical=True)
    else:
        channel = CQChannel(random_densities(dim_t, size_x, gen))
    mats = channel.table() if classical else channel.sigma_t_given_x
    for h in (state.rho_y_given_x, channel.sigma_t_given_x, reference.rho_y(state)):
        _, log_h = linalg.floored_log(h)
        assert np.abs(log_h - _floored_log_ref(h)[1]).max() < 1e-12
    alpha, beta = 1.0, 5.0
    h_t, i_tx, i_ty, fam = _analysis_ref(state, mats, alpha, beta)
    _, (got,) = engine._analyses(state, alpha, beta, channel)
    assert abs(got.h_t - h_t) < 1e-12
    assert abs(got.i_tx - i_tx) < 1e-12
    assert abs(got.i_ty - i_ty) < 1e-12
    got = engine.f_operator(state, channel, alpha, beta)
    assert np.abs((linalg.diag_embed(got) if classical else got) - fam).max() < 1e-12
    trace = np.einsum("xij,xji->x", channel.sigma_t_given_x, fam).real
    assert np.abs(engine._tr(channel.sigma_t_given_x, fam) - trace).max() < 1e-12
    other = random_densities(dim_t, 3, gen)
    gram = np.einsum("aij,bji->ab", fam, other).real
    assert np.abs(classify.hs_gram(fam, other) - gram).max() < 1e-12


@pytest.mark.parametrize("dim_t, dim_y", [(2, 2), (2, 3), (16, 2), (64, 2), (3, 5)])
@pytest.mark.parametrize("classical_rho", [False, True])
def test_analysis_log_product_equals_the_kron_sum_bit_for_bit(dim_t, dim_y, classical_rho):
    """F from the broadcast log(sigma_T (x) I) + log(I (x) rho_Y) has the
    bytes, signed zeros included, of F from the two np.kron calls."""
    state = random_cq_state(dim_t, size_x=3, dim_y=dim_y, classical=classical_rho)
    alpha, beta = 1.0, 5.0
    # A channel constant in x makes the joint a product state, where the
    # log-product and log_joint cancel to zeros.
    for channel in (random_channel_for(state, dim_t, dim_y),
                    CQChannel(np.repeat(random_densities(dim_t, 1, derive_rng(dim_y, "one")), 3, axis=0))):
        ctx, (got,) = engine._analyses(state, alpha, beta, channel)
        joint = engine._joint(ctx.px, channel.sigma_t_given_x, ctx.rhos)
        joint = joint.transpose(0, 2, 1, 3).reshape(dim_t * dim_y, dim_t * dim_y)
        log_joint = linalg.floored_log(joint)[1]
        a, b = got.log_sigma_t, ctx.log_rho_y
        terms = np.kron(a, np.eye(dim_y)), np.kron(np.eye(dim_t), b)
        # The engine's broadcast form of each term, signed zeros included
        # (a negative log times an off-diagonal 0 of the identity is -0.0).
        broadcast = (a[:, None, :, None] * np.eye(dim_y)[None, :, None, :],
                     np.eye(dim_t)[:, None, :, None] * b[None, :, None, :])
        for term, cast in zip(terms, broadcast):
            assert cast.reshape(term.shape).tobytes() == term.tobytes()
        assert np.any(np.signbit(terms[0].real) & (terms[0].real == 0))
        log_prod = terms[0] + terms[1]
        assert (broadcast[0] + broadcast[1]).reshape(log_prod.shape).tobytes() == log_prod.tobytes()
        b4 = (log_prod - log_joint).reshape(dim_t, dim_y, dim_t, dim_y)
        beta_term = ctx.rhos.reshape(3, -1) @ b4.transpose(3, 1, 0, 2).reshape(dim_y**2, dim_t**2)
        beta_term = beta_term.reshape(3, dim_t, dim_t)
        ref = -got.log_sigma_t + alpha * got.log_mats + beta * beta_term
        assert got.f_family.dtype == ref.dtype and got.f_family.tobytes() == ref.tobytes()


def _spectra(gen, size_x, dim_t, kind):
    """(sizeX, dimT) spectra: flat Dirichlet, near-degenerate (a tie split
    by 1e-13) or rank-deficient (every entry but one or two zeroed)."""
    p = gen.dirichlet(np.ones(dim_t), size=size_x)
    if kind == "near-degenerate":
        p = np.full((size_x, dim_t), 1.0 / dim_t)
        p[:, 0] += 1e-13
    elif kind == "rank-deficient":
        p[:, min(2, dim_t):] = 0.0
    return p / p.sum(axis=1)[:, None]


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from(["dirichlet", "near-degenerate", "rank-deficient"]),
    st.sampled_from(["spectral", "dense", "updated"]),
    st.integers(0, 10**6),
)
@example(1, 1, "dirichlet", "updated", 0)
@example(1, 3, "rank-deficient", "updated", 1)
@example(3, 4, "near-degenerate", "dense", 2)
@example(4, 3, "rank-deficient", "spectral", 3)
def test_carried_eigenpairs_match_recomputed_ones(size_x, dim_t, kind, origin, seed):
    # A quantum channel carries its spectra p and floored log: derived from
    # random_channel's (p, V), decomposed once from a dense stack, or produced
    # by the update.  p must be the stack's spectrum, the log must commute with
    # the stack and pair log_floor(p) with it, and an analysis of the channel
    # must match the tests/reference.py oracle, which decomposes the stack itself.
    state = random_cq_state(seed, size_x=size_x, tag="carried")
    gen = derive_rng(seed, "carried")
    shape = (size_x, dim_t, dim_t)
    u = linalg.haar_unitary(gen.standard_normal(shape) + 1j * gen.standard_normal(shape))
    spectral = CQChannel((_spectra(gen, size_x, dim_t, kind), u))
    channel = {
        "spectral": spectral,
        "dense": CQChannel(symmetrize(spectral.sigma_t_given_x)),
        "updated": engine.update(state, spectral, 0.7, 1.0, 5.0),
    }[origin]
    p, log = channel.floored_log
    stack = channel.sigma_t_given_x
    assert np.abs(np.sort(p, axis=1) - np.linalg.eigvalsh(stack)).max() < 1e-12
    assert np.abs(np.linalg.eigvalsh(log) - np.sort(linalg.log_floor(p), axis=1)).max() < 1e-12
    assert np.abs(stack @ log - log @ stack).max() < 1e-12
    pairing = np.einsum("xij,xji->x", stack, log).real
    assert np.abs(pairing - np.sum(p * linalg.log_floor(p), axis=1)).max() < 1e-12
    alpha, beta = 1.0, 5.0
    _, (got,) = engine._analyses(state, alpha, beta, channel)
    assert abs(got.h_t - reference.von_neumann_entropy(reference.sigma_t(channel, state))) < 1e-10
    assert abs(got.i_tx - reference.mutual_info_tx(state, channel)) < 1e-10
    assert abs(got.i_ty - reference.mutual_info_ty(state, channel)) < 1e-10
    assert abs(got.f_alpha - reference.objective_f_alpha(state, channel, alpha, beta)) < 1e-10


@pytest.mark.parametrize("dim_t", [2, 3])
@pytest.mark.parametrize("dense_start", [False, True])
def test_quantum_run_decomposes_two_stacks_per_iteration(monkeypatch, dim_t, dense_start):
    # Per iteration: the update exponent and the residual's difference.  The
    # conditionals are never decomposed again: the update hands its (p, sigma,
    # log sigma) to the next iterate, random_channel draws (p, V), and a dense
    # start is decomposed once.  dimT 3 takes LAPACK.  dimT 2 takes the closed
    # forms, and a qubit run never asks for an eigenvector stack.
    state = random_cq_state(31, size_x=5, dim_y=2)
    stacked = []
    eig = linalg.eig_hermitian

    def counting(h, vectors=True):
        if np.shape(h) == (state.size_x, dim_t, dim_t):
            stacked.append(vectors)
        return eig(h, vectors)

    monkeypatch.setattr(linalg, "eig_hermitian", counting)
    initial = random_channel_for(state, dim_t, 31) if dense_start else None
    cfg = ObjectiveConfig(alpha=1.0, beta=5.0, gamma=0.8, dim_t=dim_t, seed=31, max_iters=7)
    _, trace = engine.run_qib(state, cfg, initial=initial)
    assert len(trace) == 8
    if dim_t == 2:
        assert stacked == [False] * (dense_start + 2 * len(trace))
    else:
        assert stacked == [True] * dense_start + [True, False] * len(trace)


@pytest.mark.parametrize("gamma", [1.0, 0.7], ids=["gamma=alpha", "gamma<alpha"])
@pytest.mark.parametrize("dense_start", [False, True])
def test_qubit_run_matches_the_eigenvector_path(gamma, dense_start):
    # At dimT 2 the update lifts p and log_floor(p) from the exponent's
    # eigenvalues alone (Sylvester's formula); the oracle lifts them through
    # LAPACK's eigenvectors.  A dense start holds a zero eigenvalue, so the
    # floor is in play from the first row.
    state = random_cq_state(41, size_x=6, dim_y=2)
    initial = None
    if dense_start:
        initial = CQChannel(np.stack([np.diag([1.0, 0.0]).astype(complex)] * 3 + [np.eye(2) / 2] * 3))
    cfg = ObjectiveConfig(alpha=1.0, beta=5.0, gamma=gamma, dim_t=2, tol=1e-300, max_iters=30, seed=41)
    _, got = engine.run_qib(state, cfg, initial=initial)
    _, want = engine._iterate(state, cfg, initial, "run-qib", eigenvector_step(gamma), deterministic=False)
    assert len(got) == len(want) and got.status == want.status
    for a, b in zip(got.records, want.records):
        for name in ("f_alpha", "h_t", "i_tx", "i_ty", "step_divergence", "fixed_point_residual"):
            assert abs(getattr(a, name) - getattr(b, name)) < 1e-12, (a.iteration, name)
        assert abs(a.gamma_ratio - b.gamma_ratio) * a.step_divergence < 1e-12 or (
            np.isnan(a.gamma_ratio) and np.isnan(b.gamma_ratio))


@pytest.mark.parametrize("k", [2, 3, 4, 16])
@pytest.mark.parametrize("table", [True, False], ids=["table", "stack"])
def test_row_results_do_not_depend_on_stack_length(k, table):
    # The per-x reductions of an iteration (the update's softmax normaliser,
    # the residual's row sums and the traces) give each row the bits it gets
    # alone or in a block of 7; at k = 2 they are also the bits of the np.sum
    # form.  With OpenBLAS 0.3.31 a BLAS row sum (``@ np.ones(k)``) fails at k = 4.
    n, gen = 1000, derive_rng(k, "rows")
    if table:
        a, b = gen.dirichlet(np.ones(k), size=(2, n))
        z = gen.standard_normal((n, k)) * 30.0
        top = z.max(axis=1)
    else:
        a, b = (engine.random_channel(k, n, seed=s).sigma_t_given_x for s in gen.integers(2**31, size=2))
        z = np.sort(gen.standard_normal((n, k)) * 30.0, axis=1)  # ascending, as eigenvalues
        top = z[:, -1]
    px = gen.dirichlet(np.ones(n))
    soft, tr, residual = engine._softmax(z, top), engine._tr(a, b), engine._residual(px, a, b)
    for m in (1, 7):
        blocks = [slice(x, x + m) for x in range(0, n, m)]
        assert soft.tobytes() == np.concatenate([engine._softmax(z[s], top[s]) for s in blocks]).tobytes()
        assert tr.tobytes() == np.concatenate([engine._tr(a[s], b[s]) for s in blocks]).tobytes()
        # A unit weight picks one row's norm out of a block exactly.
        norms = [engine._residual(e, a[s], b[s]) for s in blocks for e in np.eye(len(a[s]))]
        assert residual == float(px @ np.array(norms))
    if k == 2:
        shifted = np.exp(z - top[:, None])
        assert soft.tobytes() == (shifted / np.sum(shifted, axis=1)[:, None]).tobytes()
        w = b - a if table else linalg.eig_hermitian(b - a, vectors=False)
        assert residual == float(px @ np.sum(np.abs(w), axis=-1))
        if table:
            assert tr.tobytes() == np.sum(a * b, axis=1).tobytes()


@pytest.mark.parametrize("gamma", [1.0, 0.8], ids=["gamma=alpha", "gamma<alpha"])
def test_final_objective_does_not_depend_on_the_log_floor(monkeypatch, gamma):
    # A source whose converged conditionals have null directions (below both
    # floors).  At gamma = alpha the two log sigma terms of the update exponent
    # cancel; at this gamma < alpha every step ratio stays below gamma, and the
    # floored directions still do not move the result.
    state = ensembles.gen_random_qubit_ensemble(8, 4)
    cfg = ObjectiveConfig(alpha=1.0, beta=30.0, dim_t=4, gamma=gamma, tol=1e-12, max_iters=500, seed=1)
    finals = []
    for floor in (1e-10, 1e-14):
        monkeypatch.setattr(linalg, "LOG_FLOOR", floor)
        channel, trace = engine.run_qib(state, cfg)
        assert trace.status == engine.STATUS_CONVERGED
        assert not any(r.gamma_ratio > gamma for r in trace.records)
        assert (channel.floored_log[0] < 1e-14).sum() > 0
        finals.append(trace.final_f)
    assert abs(finals[0] - finals[1]) < 1e-10


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
