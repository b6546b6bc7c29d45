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
    f_values,
    matrix_exp,
    matrix_log_supported,
    random_channel_for,
    random_cq_state,
    random_densities,
    random_density,
    random_unitary,
    sparse_table_instance,
    stack_carry,
    symmetrize,
    table_carry,
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


def _with_sub_floor_entries(seed, q):
    """``q`` with, in every row, its largest entry kept, one exact zero and
    one entry below LOG_FLOOR (the table needs dimT >= 3)."""
    gen, x, top = derive_rng(seed, "sub-floor"), np.arange(len(q)), q.argmax(axis=1)
    q[x, (top + 1) % q.shape[1]] = q[x, (top + 2) % q.shape[1]] = 0.0
    q /= q.sum(axis=1)[:, None]
    tiny = linalg.LOG_FLOOR * gen.uniform(1e-4, 0.9, len(q))
    q[x, (top + 1) % q.shape[1]] = tiny
    q[x, top] -= tiny
    return q


@given(
    st.integers(0, 10**6),
    st.booleans(),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.5, 2.0, 20.0]),
    st.booleans(),
)
def test_table_analysis_matches_dense_diagonal(seed, classical_rho, alpha, beta, sub_floor):
    # A diagonal channel has a diagonal F for any source, so the table
    # analysis must reproduce the dense one on the diagonal embedding, also
    # where entries fall below LOG_FLOOR: both forms read a conditional's
    # entropy off its floored log.
    state, q = sparse_table_instance(seed, classical_rho)
    if sub_floor:
        q = _with_sub_floor_entries(seed, q)
    assert ((q > 0) & (q < linalg.LOG_FLOOR)).any() == sub_floor
    table = engine.f_operator(state, CQChannel(q, classical=True), alpha, beta)
    dense = engine.f_operator(state, CQChannel(linalg.diag_embed(q)), alpha, beta)
    assert table.shape == q.shape and np.max(np.abs(linalg.diag_embed(table) - dense)) < 1e-10
    a = engine._Table(state, CQChannel(q, classical=True).carry, alpha, beta)
    b = engine._Stack(state, CQChannel(linalg.diag_embed(q)).carry, alpha, beta)
    for name in ("f_alpha", "h_t", "h_t_given_x", "i_tx", "i_ty"):
        assert abs(getattr(a, name) - getattr(b, name)) < 1e-12
    assert abs(a.divergence(a) - b.divergence(b)) < 1e-12


@given(st.integers(0, 10**6), st.booleans(), st.sampled_from([0.0, 1.0]), st.sampled_from(["table", "stack", "qubit"]))
def test_self_divergence_vanishes(seed, classical_rho, alpha, form):
    # A conditional's entropy and the divergence's trace read the same floored
    # log, so D(sigma || sigma) vanishes, also where 0 log 0 and q log q for q
    # below LOG_FLOOR leave the floored log: to the bit on a table (one einsum
    # on the same operands), within round-off on the terms of order
    # |log LOG_FLOOR| of the stack's and the Pauli form's traces.  Read with
    # q log q instead, it would be sum_x P(x) q log(q / LOG_FLOOR), of order
    # -1e-13 on these instances.
    state, q = sparse_table_instance(seed, classical_rho)
    q = _with_sub_floor_entries(seed, q)
    gen = derive_rng(seed, "self-divergence")
    if form == "table":
        a = engine._Table(state, CQChannel(q, classical=True).carry, alpha, 5.0)
        assert a.divergence(a) == 0.0
        return
    if form == "stack":  # each row in a Haar basis
        u = np.stack([random_unitary(q.shape[1], gen) for _ in q])
        a = engine._Stack(state, CQChannel((u * q[:, None, :]) @ np.conj(np.swapaxes(u, 1, 2))).carry, alpha, 5.0)
    else:  # spectra (q, 1 - q), q each row's entry below LOG_FLOOR, on random Bloch axes
        tiny = np.where(q < linalg.LOG_FLOOR, q, 0.0).sum(axis=1)
        p, axes = np.column_stack([tiny, 1.0 - tiny]), gen.standard_normal((len(q), 3))
        pl = np.stack([p, linalg.log_floor(p)])
        a = engine._Bloch(state, CQChannel((*pl, *linalg.pauli_of(pl, axes, linalg.norms(axes)))).carry, alpha, 5.0)
    assert abs(a.divergence(a)) <= 32 * np.finfo(float).eps * abs(np.log(linalg.LOG_FLOOR))


class _TrackedTable(np.ndarray):
    """A real table that records, in ``promotions``, each ufunc (``@``
    included) in which it, or a real array computed from it, meets a complex
    operand: the ops that make a complex temporary of the table."""

    promotions: list[str] = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(args):
            return tuple(a.view(np.ndarray) if isinstance(a, _TrackedTable) else a for a in args)

        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        if (any(isinstance(a, _TrackedTable) and not np.iscomplexobj(a) for a in inputs)
                and any(map(np.iscomplexobj, inputs))):
            self.promotions.append(ufunc.__name__)
        out = getattr(ufunc, method)(*plain(inputs), **kwargs)
        return out.view(_TrackedTable) if isinstance(out, np.ndarray) and not np.iscomplexobj(out) else out


@pytest.mark.parametrize("size_x1, size_x2", [(2, 3), (3, 4)])
def test_suffstats_table_analysis_is_real_and_matches_the_dense_one(monkeypatch, size_x1, size_x2):
    # The suffstats run's shape (a qubit source, dimT = sizeX, alpha 0) on a
    # Dirichlet table and on its projected one-hot table: the analysis of the
    # table matches the dense one of its diagonal embedding (the bounds of
    # test_table_analysis_matches_dense_diagonal), calls no np.tensordot and
    # never mixes the table with complex operands.
    tensordots = []
    tensordot = np.tensordot

    def counting(*args, **kwargs):
        tensordots.append(args)
        return tensordot(*args, **kwargs)

    monkeypatch.setattr(np, "tensordot", counting)
    monkeypatch.setattr(_TrackedTable, "promotions", [])
    state = ensembles.gen_suffstats_ensemble(ensembles.SuffStatsSpec(size_x1=size_x1, size_x2=size_x2)).state
    n, beta = state.size_x, 20.0
    q = derive_rng(n, "suffstats-table").dirichlet(np.ones(n), size=n)
    (_, _, one_hot, _), gone = engine._Table(state, CQChannel(q, classical=True).carry, 0.0, beta).project()
    assert gone == [] and np.array_equal(np.sort(one_hot, axis=1)[:, :-1], np.zeros((n, n - 1)))
    for table in (q, one_hot):
        a = engine._Table(state, table_carry(table.view(_TrackedTable)), 0.0, beta)
        a.project()
        b = engine._Stack(state, CQChannel(linalg.diag_embed(table)).carry, 0.0, beta)
        assert np.max(np.abs(linalg.diag_embed(a.f_family) - b.f_family)) < 1e-10
        for name in ("f_alpha", "h_t", "h_t_given_x", "i_tx", "i_ty"):
            assert abs(getattr(a, name) - getattr(b, name)) < 1e-12
    assert tensordots == [] and _TrackedTable.promotions == []


@given(
    st.integers(0, 10**6),
    st.booleans(),
    st.sampled_from([(1.0, None), (0.5, None), (1.0, 0.6), (0.0, None)]),
    st.sampled_from([2.0, 20.0]),
)
@example(999999, True, (1.0, None), 20.0)  # row 7's ratio denominator straddles RATIO_DENOM_TOL
@example(262144, False, (0.5, None), 20.0)  # row 5: sub-floor entries, a ratio denominator near RATIO_DENOM_TOL
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
        initial = CQChannel(q if classical else linalg.diag_embed(q), classical=classical)
        runs.append((cfg, initial, *runner(state, cfg, initial=initial)))
    (_, _, chan, trace), (_, _, dense_chan, dense_trace) = runs
    assert (trace.status, trace.violations) == (dense_trace.status, dense_trace.violations)
    assert len(trace) == len(dense_trace)
    for a, b in zip(trace.records, dense_trace.records):
        assert a.support_t == b.support_t
        for name in ("f_alpha", "h_t", "i_tx", "i_ty", "step_divergence", "fixed_point_residual"):
            assert abs(getattr(a, name) - getattr(b, name)) < 1e-10
        if np.isnan(a.gamma_ratio) != np.isnan(b.gamma_ratio):
            # Undecided: each form's denominator is within its round-off of the
            # threshold (see _ratio_denominator).
            (den, margin), (dense_den, dense_margin) = (
                _ratio_denominator(state, cfg, initial, a.iteration) for cfg, initial, *_ in runs
            )
            info = (a.iteration, den, dense_den, margin)
            assert den - margin <= engine.RATIO_DENOM_TOL <= den + margin, info
            assert dense_den - dense_margin <= engine.RATIO_DENOM_TOL <= dense_den + dense_margin, info
        elif not np.isnan(a.gamma_ratio):
            assert abs(a.gamma_ratio - b.gamma_ratio) * b.step_divergence < 1e-10
    assert np.max(np.abs(chan.sigma_t_given_x - dense_chan.sigma_t_given_x)) < 1e-10


def _ratio_denominator(state, cfg, initial, n):
    """D(sigma_n || sigma_{n-1}), the denominator of row n's ratio in the soft
    run of ``cfg`` from a diagonal ``initial`` (replayed by ``engine.update``,
    whose iterates are the run's to the bit), and the round-off margin of its
    evaluation.  The margin is (2 dimT^2 + sizeX) eps S, the a-priori bound on
    a floating-point sum of that many terms (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 4) for the longest sum either form takes,
    S the magnitudes of every term, sum_x P(x) sum_t (|s'_t log s'_t| + |s'_t
    log s_t|) over the diagonals s, s' of the two iterates.  Both forms read
    an entropy off the floored log, so on the diagonals s, s' the table's and
    the dense denominators are checked to agree within the margin."""
    chans = [initial]
    for _ in range(n):
        chans.append(engine.update(state, chans[-1], cfg.effective_gamma, cfg.alpha, cfg.beta))
    cur, nxt = engine._analyses(state, cfg.alpha, cfg.beta, *chans[-2:])
    s_old, s = (np.diagonal(c.sigma_t_given_x, axis1=1, axis2=2).real for c in chans[-2:])
    terms = np.abs(s * linalg.log_floor(s)) + np.abs(s * linalg.log_floor(s_old))
    margin = (2 * cfg.dim_t**2 + state.size_x) * np.finfo(float).eps * float(state.px @ terms.sum(axis=1))
    forms = []
    for pair in ([CQChannel(d, classical=True) for d in (s_old, s)], [CQChannel(linalg.diag_embed(d)) for d in (s_old, s)]):
        old, new = engine._analyses(state, cfg.alpha, cfg.beta, *pair)
        forms.append(new.divergence(old))
    assert abs(forms[0] - forms[1]) <= margin, (forms, margin)
    return nxt.divergence(cur), margin


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
    assert chan.carry[2].tobytes() == dense_chan.carry[2].tobytes()


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


def j_function(state, channel, channel2, gamma, alpha, beta):
    """Surrogate objective gamma sum_x P D(sigma_x || sigma'_x) + sum_x P Tr[sigma_x F[sigma'](x)]:
    the objective on the diagonal, minimized in its first argument by one
    update step from the second."""
    f = engine.f_operator(state, channel2, alpha, beta)
    pairing = np.einsum("xij,xji->x", channel.sigma_t_given_x, f).real
    return gamma * reference.channel_divergence(channel, channel2, state) + float(state.px @ pairing)


def test_j_function_diagonal_equals_objective():
    state = random_cq_state(7)
    chan = random_channel_for(state, 3, 7)
    j = j_function(state, chan, chan, 0.6, 0.6, 2.0)
    f = reference.objective_f_alpha(state, chan, 0.6, 2.0)
    assert abs(j - f) < 1e-12


def test_j_function_decomposes_around_the_update():
    # J(sigma, sigma') - J(sigma_hat, sigma') = gamma sum_x P D(sigma || sigma_hat)
    state = random_cq_state(8)
    anchor = random_channel_for(state, 3, 8)
    probe = random_channel_for(state, 3, 9)
    gamma, alpha, beta = 0.7, 0.7, 2.0
    best = engine.update(state, anchor, gamma, alpha, beta)
    lhs = j_function(state, probe, anchor, gamma, alpha, beta) - j_function(
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
    fs = f_values(trace)
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
        fs = f_values(trace)
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


def test_estimate_kappa_skips_a_pair_of_infinite_divergence():
    # rho_1 has a null direction that rho_0 reaches with mass 1e-8: the vertex
    # pair leaning on rho_1 in the second slot breaks the support condition,
    # so its ratio is skipped and the bound stays finite.
    rhos = np.stack([np.diag([1 - 1e-8, 1e-8]), np.diag([1.0, 0.0])]).astype(complex)
    state = CQState(np.array([0.5, 0.5]), rhos)
    with pytest.warns(RuntimeWarning, match="support violation"):
        kappa = engine.estimate_kappa(state, samples=0)
    assert np.isfinite(kappa) and 0.0 < kappa < 1e-8


def test_update_reports_an_eigensolver_failure_as_such(monkeypatch):
    # The exponent is finite, so a failure of its eigensolver is not renamed
    # a non-finite exponent.
    state = random_cq_state(3, size_x=4, dim_y=2, tag="lapack")
    channel = engine.random_channel(3, 4, seed=1)
    (analysis,) = engine._analyses(state, 1.0, 3.0, channel)

    def fail(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match=r"^eigensolver failed on shape \(4, 3, 3\)"):
        analysis.advance(1.0)


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
        assert np.array_equal(batched.carry[2], [ref.dirichlet(np.ones(dim_t)) for _ in range(9)])
    else:
        p, v = zip(*[(ref.dirichlet(np.ones(dim_t)), random_unitary(dim_t, ref)) for _ in range(9)])
        # random_channel derives the stack and floored log from (p, V) once, by the
        # matmul; a qubit channel from p and the Bloch axis of V's first column,
        # the same operators to round-off.
        assert np.array_equal(batched.carry[0], p)
        logs = [(u * linalg.log_floor(pp)) @ np.conj(u.T) for pp, u in zip(p, v)]
        _assert_same_bits_or_qubit_round_off(stack_carry(batched.carry)[3], np.array(logs), dim_t == 2)
    # Both consumed the same stretch of the stream.
    assert gen.random() == ref.random()
    looped = random_densities(dim_t, 9, derive_rng(4, "draws"), classical)
    _assert_same_bits_or_qubit_round_off(batched.sigma_t_given_x, looped, dim_t == 2 and not classical)


def _assert_same_bits_or_qubit_round_off(got, want, qubit):
    if qubit:
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    else:
        assert np.array_equal(got, want)


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
    spelled as ``np.einsum`` subscripts, and the (T, Y) joint's eigenvalues;
    ``mats`` is a stack or a table."""
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
    return h_t, i_tx, i_ty, fam, wj


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
@example(1, 3, 2, False, False, 6)  # cond(J) = 2.3e4: F carries eps beta cond(J) = 2.5e-11 of round-off
def test_products_match_their_einsum_subscripts(size_x, dim_t, dim_y, classical, classical_rho, seed):
    state = random_cq_state(seed, size_x=size_x, dim_y=dim_y, classical=classical_rho)
    gen = derive_rng(seed, "products")
    if classical:
        channel = CQChannel(gen.dirichlet(np.ones(dim_t), size=size_x), classical=True)
    else:
        channel = CQChannel(random_densities(dim_t, size_x, gen))
    mats = channel.carry[2] if classical else channel.sigma_t_given_x
    for h in (state.rho_y_given_x, channel.sigma_t_given_x, reference.rho_y(state)):
        _, log_h = linalg.floored_log(h)
        assert np.abs(log_h - _floored_log_ref(h)[1]).max() < 1e-12
    alpha, beta = 1.0, 5.0
    h_t, i_tx, i_ty, fam, wj = _analysis_ref(state, mats, alpha, beta)
    (got,) = engine._analyses(state, alpha, beta, channel)
    assert abs(got.h_t - h_t) < 1e-12
    assert abs(got.i_tx - i_tx) < 1e-12
    assert abs(got.i_ty - i_ty) < 1e-12
    got = engine.f_operator(state, channel, alpha, beta)
    # log J, and with it F, is accurate to about eps cond(J) absolute, eps beta
    # cond(J) in F (the eigenvalue floor caps cond(J)): on an ill-conditioned
    # joint neither side holds 1e-12, and well-conditioned ones keep it.
    bound = max(1e-12, np.finfo(float).eps * beta * wj.max() / max(wj.min(), linalg.LOG_FLOOR))
    assert np.abs((linalg.diag_embed(got) if classical else got) - fam).max() < bound
    trace = np.einsum("xij,xji->x", channel.sigma_t_given_x, fam).real
    assert np.abs(engine._tr(channel.sigma_t_given_x, fam) - trace).max() < 1e-12
    other = random_densities(dim_t, 3, gen)
    gram = np.einsum("aij,bji->ab", fam, other).real
    assert np.abs(classify.hs_gram(fam, other) - gram).max() < 1e-12


@pytest.mark.parametrize("dim_t, dim_y", [(2, 2), (2, 3), (16, 2), (64, 2), (3, 5)])
@pytest.mark.parametrize("classical_rho", [False, True])
def test_analysis_log_product_equals_the_kron_sum_bit_for_bit(dim_t, dim_y, classical_rho):
    """F from the broadcast log(sigma_T (x) I) + log(I (x) rho_Y) has the
    bytes, signed zeros included, of F from the two np.kron calls: the stack
    form's F, built directly at dimT 2, where runs take the Pauli form."""
    state = random_cq_state(dim_t, size_x=3, dim_y=dim_y, classical=classical_rho)
    alpha, beta = 1.0, 5.0
    # A channel constant in x makes the joint a product state, where the
    # log-product and log_joint cancel to zeros.
    for channel in (random_channel_for(state, dim_t, dim_y),
                    CQChannel(np.repeat(random_densities(dim_t, 1, derive_rng(dim_y, "one")), 3, axis=0))):
        got = engine._Stack(state, stack_carry(channel.carry), alpha, beta)
        a, b = got.log_sigma_t, state.rho_y_log[1]
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
        b4 = (log_prod - got.log_joint).reshape(dim_t, dim_y, dim_t, dim_y)
        beta_term = state.rho_y_given_x.reshape(3, -1) @ b4.transpose(3, 1, 0, 2).reshape(dim_y**2, dim_t**2)
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
    # A quantum channel carries its spectra p and floored log: given as the
    # carry (p, log p, sigma, log sigma) of a spectrum in a Haar basis, Pauli
    # rows at dimT 2, as random_channel builds it, decomposed once from a dense stack, or
    # produced by the update.  p must be the stack's spectrum, the log must
    # commute with the stack and pair log_floor(p) with it, and an analysis of
    # the channel must match the tests/reference.py oracle, which decomposes
    # the stack itself.
    state = random_cq_state(seed, size_x=size_x, tag="carried")
    gen = derive_rng(seed, "carried")
    shape = (size_x, dim_t, dim_t)
    u = linalg.haar_unitary(gen.standard_normal(shape) + 1j * gen.standard_normal(shape))
    p = _spectra(gen, size_x, dim_t, kind)
    mats = linalg.from_eig(p, u), linalg.from_eig(linalg.log_floor(p), u)
    spectral = CQChannel((p, linalg.log_floor(p), *(map(linalg.to_pauli, mats) if dim_t == 2 else mats)))
    channel = {
        "spectral": spectral,
        "dense": CQChannel(symmetrize(spectral.sigma_t_given_x)),
        "updated": engine.update(state, spectral, 0.7, 1.0, 5.0),
    }[origin]
    p, _, _, log = stack_carry(channel.carry)
    stack = channel.sigma_t_given_x
    assert np.abs(np.sort(p, axis=1) - np.linalg.eigvalsh(stack)).max() < 1e-12
    assert np.abs(np.linalg.eigvalsh(log) - np.sort(linalg.log_floor(p), axis=1)).max() < 1e-12
    assert np.abs(stack @ log - log @ stack).max() < 1e-12
    pairing = np.einsum("xij,xji->x", stack, log).real
    assert np.abs(pairing - np.sum(p * linalg.log_floor(p), axis=1)).max() < 1e-12
    alpha, beta = 1.0, 5.0
    (got,) = engine._analyses(state, alpha, beta, channel)
    assert abs(got.h_t - reference.von_neumann_entropy(reference.sigma_t(channel, state))) < 1e-10
    assert abs(got.i_tx - reference.mutual_info_tx(state, channel)) < 1e-10
    assert abs(got.i_ty - reference.mutual_info_ty(state, channel)) < 1e-10
    assert abs(got.f_alpha - reference.objective_f_alpha(state, channel, alpha, beta)) < 1e-10


@pytest.mark.parametrize("dim_t", [2, 3])
@pytest.mark.parametrize("dense_start", [False, True])
def test_quantum_run_decomposes_two_stacks_per_iteration(monkeypatch, dim_t, dense_start):
    # Per iteration: the update exponent and the residual's difference.  The
    # conditionals are never decomposed again: the update hands its (p, sigma,
    # log sigma) to the next iterate, random_channel builds its triple from
    # (p, V), and a dense start is decomposed once.  dimT 3 takes LAPACK.
    # dimT 2 takes the Pauli form's closed forms and decomposes no stack at all,
    # a dense start included.
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
        assert stacked == []
    else:
        assert stacked == [True] * dense_start + [True, False] * len(trace)


class _QubitStack(engine._Stack):
    """The stack form at dimT 2: the first iterate's Pauli carry read as
    stacks.  No channel holds a qubit stack carry, so the run returns none."""

    def __init__(self, state, carry, alpha, beta):
        super().__init__(state, stack_carry(carry), alpha, beta)

    def channel(self, carry):
        return None


@pytest.mark.parametrize("gamma", [1.0, 0.7], ids=["gamma=alpha", "gamma<alpha"])
@pytest.mark.parametrize("dense_start", [False, True])
def test_qubit_run_matches_the_eigenvector_path(monkeypatch, gamma, dense_start):
    # At dimT 2 the run reads Pauli coordinates and steps in closed form; the
    # oracle reads stacks (the qubit form swapped for the stack form) and
    # lifts p and log_floor(p) through LAPACK's eigenvectors.  A dense start
    # holds a zero eigenvalue, so the floor is in play from the first row.
    state = random_cq_state(41, size_x=6, dim_y=2)
    initial = None
    if dense_start:
        initial = CQChannel(np.stack([np.diag([1.0, 0.0]).astype(complex)] * 3 + [np.eye(2) / 2] * 3))
    cfg = ObjectiveConfig(alpha=1.0, beta=5.0, gamma=gamma, dim_t=2, tol=1e-300, max_iters=30, seed=41)
    _, got = engine.run_qib(state, cfg, initial=initial)
    monkeypatch.setattr(engine, "_Bloch", _QubitStack)
    _, want = engine._iterate(state, cfg, initial, "run-qib", eigenvector_step(gamma), deterministic=False)
    assert len(got) == len(want) and got.status == want.status
    for a, b in zip(got.records, want.records):
        for name in ("f_alpha", "h_t", "i_tx", "i_ty", "step_divergence", "fixed_point_residual"):
            assert abs(getattr(a, name) - getattr(b, name)) < 1e-12, (a.iteration, name)
        assert abs(a.gamma_ratio - b.gamma_ratio) * a.step_divergence < 1e-12 or (
            np.isnan(a.gamma_ratio) and np.isnan(b.gamma_ratio))


def _residual(table, px, a, b):
    """The residual of an analysis of ``a`` with weights ``px`` to the next
    iterate's ``b``: an analysis holding only what the residual reads."""
    cur = object.__new__(engine._Table if table else engine._Stack)
    cur.px, cur.mats = px, a
    return cur.residual(b)


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
    soft, tr, residual = engine._softmax(z, top), engine._tr(a, b), _residual(table, px, a, b)
    for m in (1, 7):
        blocks = [slice(x, x + m) for x in range(0, n, m)]
        assert soft.tobytes() == np.concatenate([engine._softmax(z[s], top[s]) for s in blocks]).tobytes()
        assert tr.tobytes() == np.concatenate([engine._tr(a[s], b[s]) for s in blocks]).tobytes()
        # A unit weight picks one row's norm out of a block exactly.
        norms = [_residual(table, e, a[s], b[s]) for s in blocks for e in np.eye(len(a[s]))]
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
        assert (channel.carry[0] < 1e-14).sum() > 0
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


@pytest.mark.parametrize("kinds", [(False, False), (True, True), (True, False)], ids=["quantum", "classical", "mixed"])
def test_gamma_ratio_rejects_channels_of_different_dim_t(kinds):
    state = random_cq_state(28, size_x=3)
    a, b = (engine.random_channel(d, 3, classical=c, seed=28) for d, c in zip((2, 3), kinds))
    with pytest.raises(InvariantError, match="^channels have dimT 2 and 3$"):
        engine.gamma_ratio(state, a, b, 1.0, 2.0)


@pytest.mark.parametrize("dim_t", [2, 3])
@pytest.mark.parametrize("runner, alpha, gamma", [(engine.run_qib, 1.0, None), (engine.run_qib, 1.0, 0.6),
                                                  (qdib.run_qdib, 0.0, None)], ids=["qib", "qib-gamma", "qdib"])
def test_quantum_run_from_a_classical_start_is_the_run_from_its_stack(runner, alpha, gamma, dim_t):
    # A quantum run lifts a classical initial channel to the quantum channel of
    # its stack, once, and a mixed ratio pair lifts its classical channel.
    state = random_cq_state(33, size_x=5, dim_y=2)
    initial = engine.random_channel(dim_t, 5, classical=True, seed=33)
    lifted = CQChannel(initial.sigma_t_given_x)
    cfg = ObjectiveConfig(alpha=alpha, beta=5.0, gamma=gamma, dim_t=dim_t, max_iters=6, seed=33)
    (chan, trace), (want, want_trace) = (runner(state, cfg, initial=c) for c in (initial, lifted))
    assert not chan.classical and (trace.status, trace.violations) == (want_trace.status, want_trace.violations)
    assert repr(trace.records) == repr(want_trace.records)
    assert chan.sigma_t_given_x.tobytes() == want.sigma_t_given_x.tobytes()
    other = engine.random_channel(dim_t, 5, seed=34)
    for pair, stacks in (((initial, other), (lifted, other)), ((other, initial), (other, lifted))):
        assert engine.gamma_ratio(state, *pair, 1.0, 5.0) == engine.gamma_ratio(state, *stacks, 1.0, 5.0)


@pytest.mark.parametrize("classical", [False, True])
def test_single_shot_ops_build_the_analyses_their_phase_probes_assume(monkeypatch, classical):
    # perfbench's phase probes time these ops and take differences: step =
    # update - f_operator, residual = fixed_point_residual - update, ratio =
    # gamma_ratio - 2 f_operator, projector = qdib_update - f_operator.  Each
    # op builds this many analyses, of the channel's form (a quantum channel's
    # Pauli coordinates at dimT 2, its stack at dimT 3), and the source's rho_Y
    # log is derived once for them all.
    built, derived = [], []
    init, floored_log = engine._Analysis.__init__, linalg.floored_log

    def counting_init(self, *args):
        built.append(type(self))
        init(self, *args)

    def counting_log(h):
        derived.append(h is state.rho_y)
        return floored_log(h)

    monkeypatch.setattr(engine._Analysis, "__init__", counting_init)
    monkeypatch.setattr(linalg, "floored_log", counting_log)
    state = random_cq_state(35, size_x=4, dim_y=2)
    for dim_t, form in ((2, engine._Bloch), (3, engine._Stack)):
        chan, other = (engine.random_channel(dim_t, 4, classical=classical, seed=s) for s in (35, 36))
        ops = [
            (lambda: engine.f_operator(state, chan, 1.0, 5.0), 1),
            (lambda: engine.update(state, chan, 0.8, 1.0, 5.0), 1),
            (lambda: engine.fixed_point_residual(state, chan, 0.8, 1.0, 5.0), 1),
            (lambda: engine.gamma_ratio(state, chan, other, 1.0, 5.0), 2),
            (lambda: qdib.qdib_update(state, chan, 5.0), 1),
        ]
        for op, count in ops:
            built.clear()
            op()
            assert built == [engine._Table if classical else form] * count
    assert sum(derived) == 1


def _qubit_case(kind, seed):
    """(state, dimT 2 channel in the Pauli form, beta)."""
    if kind == "floored":  # a run at beta 200 floors about 40% of the eigenvalues
        state = ensembles.gen_random_qubit_ensemble(200, seed)
        cfg = ObjectiveConfig(alpha=1.0, beta=200.0, dim_t=2, tol=1e-300, max_iters=60, seed=seed)
        channel = engine.run_qib(state, cfg)[0]
        assert (channel.carry[0] < linalg.LOG_FLOOR).sum() > 100
        return state, channel, 200.0
    if kind == "maximally mixed, dimY 1":  # every Bloch vector is 0: sigma_T's, the joint's, F's
        return CQState(np.full(4, 0.25), np.ones((4, 1, 1))), model.maximally_mixed_channel(2, 4), 5.0
    state = random_cq_state(seed, size_x=6, dim_y=3 if kind == "dimY 3" else 2)
    if kind == "maximally mixed":  # sigma_T's Bloch vector is 0
        return state, model.maximally_mixed_channel(2, 6), 5.0
    channel = engine.random_channel(2, 6, seed=seed)
    if kind == "pure":  # p = (0, 1) on the drawn axes
        c = channel.carry[2]
        p = np.tile([0.0, 1.0], (6, 1))
        pl = np.stack([p, linalg.log_floor(p)])
        channel = CQChannel((*pl, *linalg.pauli_of(pl, c[:, 1:], linalg.norms(c[:, 1:]))))
    return state, channel, 5.0


@pytest.mark.parametrize("kind", ["dimY 2", "dimY 3", "floored", "pure", "maximally mixed", "maximally mixed, dimY 1"])
@pytest.mark.parametrize("seed", [0, 1])
def test_qubit_analysis_matches_the_stack_analysis(kind, seed):
    # The Pauli form against the stack form, the oracle, on the same conditionals:
    # the objective, F as a stack, the update's (p, sigma, log sigma), and the
    # step's divergence, residual and ratio; then the projector step.
    state, channel, beta = _qubit_case(kind, seed)
    twin = stack_carry(channel.carry)
    alpha, gamma = 1.0, 0.8
    a, b = engine._Bloch(state, channel.carry, alpha, beta), engine._Stack(state, twin, alpha, beta)
    for name in ("f_alpha", "h_t", "i_tx", "i_ty"):
        assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12, name
    assert np.abs(linalg.from_pauli(a.f_family) - b.f_family).max() <= 1e-12
    (p, _, c, log), (q, _, sigma, log_sigma) = steps = a.advance(gamma), b.advance(gamma)
    assert np.abs(p - np.sort(q, axis=1)).max() <= 1e-12
    assert np.abs(linalg.from_pauli(c) - sigma).max() <= 1e-12
    assert np.abs(linalg.from_pauli(log) - log_sigma).max() <= 1e-12
    na, nb = (type(x)(state, step, alpha, beta) for x, step in zip((a, b), steps))
    assert abs(a.divergence(na) - b.divergence(nb)) <= 1e-12
    assert abs(a.residual(na.mats) - b.residual(nb.mats)) <= 1e-12
    ra, rb = na.ratio(a), nb.ratio(b)
    assert abs(ra - rb) * nb.divergence(b) <= 1e-12 or np.isnan(ra) and np.isnan(rb)
    if kind == "maximally mixed":
        return  # F_0 is 0 up to round-off, which picks either form's projector
    a0, b0 = engine._Bloch(state, channel.carry, 0.0, beta), engine._Stack(state, twin, 0.0, beta)
    ((p, _, c, log), gone), ((_, _, stepped, _), stack_gone) = a0.project(), b0.project()
    assert gone == stack_gone
    assert np.abs(linalg.from_pauli(c) - stepped).max() <= 1e-12
    if kind == "maximally mixed, dimY 1":  # a tie in every x: P = I keeps sigma / Tr sigma
        assert gone == [] and np.abs(c - channel.carry[2]).max() <= 1e-15 and np.abs(p - 0.5).max() <= 1e-15


def test_gamma_ratio_of_a_pauli_and_a_stack_channel_matches_the_stack_oracle():
    # A qubit pair of one channel built in the Pauli form and one given as a
    # dense stack is analyzed in the Pauli form, the stack's coordinates
    # derived from it, and matches the stack form's ratio.
    state = random_cq_state(37, size_x=5, dim_y=2)
    pauli, stack = engine.random_channel(2, 5, seed=37), random_channel_for(state, 2, 37)
    assert [type(x) for x in engine._analyses(state, 1.0, 5.0, pauli, stack)] == [engine._Bloch] * 2
    for pair in ((pauli, stack), (stack, pauli)):
        a, b = (engine._Stack(state, stack_carry(c.carry), 1.0, 5.0) for c in pair)
        assert abs(engine.gamma_ratio(state, *pair, 1.0, 5.0) - a.ratio(b)) * a.divergence(b) <= 1e-12


_FORMS = {"table": (engine._Table, 3, True), "stack": (engine._Stack, 3, False), "qubit": (engine._Bloch, 2, False)}


def _form_case(form, seed, tag):
    """(state, random channel of ``form``): a table and a stack at dimT 3, a qubit channel."""
    _, dim_t, classical = _FORMS[form]
    state = random_cq_state(seed, tag=tag)
    return state, engine.random_channel(dim_t, state.size_x, classical=classical, seed=seed)


def _stored_arrays(channel):
    """Every array a channel holds or derives: its stack and its carry."""
    return [channel.sigma_t_given_x, *channel.carry]


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("step", ["soft", "projector"])
@pytest.mark.parametrize("form", list(_FORMS))
def test_carried_iterate_analyses_as_its_rebuilt_channel(form, step):
    # The loop hands each step's carry to the next analysis, and a run returns
    # one channel.  Rebuilt as that channel, the same iterate analyses to the
    # same bits: f, F, the entropies, the divergence, ratio and residual of the
    # step into it.  No carried array, and no array of a returned channel, is
    # writable.
    state, channel = _form_case(form, 43, "carried-form")
    alpha, beta, gamma = (1.0, 5.0, 0.8) if step == "soft" else (0.0, 5.0, None)
    (cur,) = engine._analyses(state, alpha, beta, channel)
    assert type(cur) is _FORMS[form][0]
    for _ in range(3):
        carry = cur.advance(gamma) if step == "soft" else cur.project()[0]
        assert not any(a.flags.writeable for a in carry)
        nxt = type(cur)(state, carry, alpha, beta)
        (rebuilt,) = engine._analyses(state, alpha, beta, cur.channel(carry))
        assert type(rebuilt) is type(nxt)
        for name in ("f_alpha", "f_family", "h_t", "i_tx", "i_ty"):
            assert _bits(getattr(nxt, name)) == _bits(getattr(rebuilt, name)), name
        assert _bits(cur.divergence(nxt)) == _bits(cur.divergence(rebuilt))
        assert _bits(nxt.ratio(cur)) == _bits(rebuilt.ratio(cur))
        assert _bits(cur.residual(nxt.mats)) == _bits(cur.residual(rebuilt.mats))
        cur = nxt
    runner = engine.run_qib if step == "soft" else qdib.run_qdib
    cfg = ObjectiveConfig(alpha=alpha, beta=beta, gamma=gamma, dim_t=channel.dim_t, classical=channel.classical,
                          max_iters=3)
    returned, _ = runner(state, cfg, initial=channel)
    assert not any(a.flags.writeable for a in _stored_arrays(returned))


def _relabelled(channel, perm):
    """``channel`` with its x permuted by ``perm``, as its form's carry."""
    return CQChannel(tuple(a[perm] for a in channel.carry), channel.classical)


def _rotated(channel, u):
    """``channel`` with each conditional turned to U sigma U^H, a quantum stack."""
    return CQChannel(u @ channel.sigma_t_given_x @ np.conj(u.T))


@given(
    st.integers(0, 10**6),
    st.sampled_from(list(_FORMS)),
    st.sampled_from([(1.0, 5.0, 0.8), (0.5, 20.0, 0.5), (1.0, 0.5, 1.0)]),
    st.sampled_from(["relabel X", "rotate T", "rotate Y"]),
)
def test_objective_is_invariant_under_relabelling_x_and_rotating_t(seed, form, params, symmetry):
    # Permuting P(x), rho_x and sigma_x together, turning every sigma_x to
    # U sigma_x U^H, or turning every rho_x to W rho_x W^H, leaves f, H(T),
    # I(T:X), I(T:Y), the divergence and the ratio of a step unchanged, the
    # rotated update is the update rotated, and the update from the rotated
    # source is the update: F is a partial trace over Y, which W leaves as it
    # is.  A rotated table is a stack channel; a rotated qubit channel stays in
    # the Pauli form.  The pair is a channel and its carried update.  Bounds are
    # 4 eps times the size of the terms, S = (1 + alpha + 3 beta) |log
    # LOG_FLOOR| dimT dimY: dimT dimY eigenvalue terms of F's summands, each at
    # most |log LOG_FLOOR| (see _Analysis._f0_scale).  The divergence's trace
    # against log sigma' also carries sigma' to absolute accuracy eps only, so
    # its bound adds 4 eps dimT / w, w sigma''s least eigenvalue (at least
    # LOG_FLOOR), the conditioning of the log.  The update's bound is 4 eps
    # dimT times the exponent's size, |log LOG_FLOOR| (1 + (1 + alpha + 3 beta) / gamma), and
    # 4 eps dimT dimY times it from the rotated source, whose round-off enters
    # the exponent through F's dimT dimY eigenvalue terms.
    alpha, beta, gamma = params
    state, channel = _form_case(form, seed, "symmetry")
    (cur,) = engine._analyses(state, alpha, beta, channel)
    nxt = type(cur)(state, cur.advance(gamma), alpha, beta)
    stepped = cur.channel(nxt.carry)
    gen = derive_rng(seed, "symmetry")
    dim_t, eps, log_floor = channel.dim_t, np.finfo(float).eps, -np.log(linalg.LOG_FLOOR)
    if symmetry == "relabel X":
        perm = gen.permutation(state.size_x)
        other = CQState(state.px[perm], state.rho_y_given_x[perm])
        pair = _relabelled(channel, perm), _relabelled(stepped, perm)
    elif symmetry == "rotate T":
        u = random_unitary(dim_t, gen)
        other, pair = state, (_rotated(channel, u), _rotated(stepped, u))
    else:
        w = random_unitary(state.dim_y, gen)
        other, pair = CQState(state.px, w @ state.rho_y_given_x @ np.conj(w.T)), (channel, stepped)
    a, b = engine._analyses(other, alpha, beta, *pair)
    assert type(a) is (engine._Stack if form == "table" and symmetry == "rotate T" else type(cur))
    bound = 4 * eps * (1 + alpha + 3 * beta) * log_floor * dim_t * state.dim_y
    for x, y in ((cur, a), (nxt, b)):
        for name in ("f_alpha", "h_t", "i_tx", "i_ty"):
            assert abs(getattr(x, name) - getattr(y, name)) <= bound, name
    least = max(float(nxt.carry[0].min()), linalg.LOG_FLOOR)
    assert abs(cur.divergence(nxt) - a.divergence(b)) <= bound + 4 * eps * dim_t / least
    ratio, den = nxt.ratio(cur), nxt.divergence(cur)
    assert abs(ratio - b.ratio(a)) * den <= bound * (1 + abs(ratio))
    size = 4 * eps * dim_t * log_floor * (1 + (1 + alpha + 3 * beta) / gamma)
    turned = engine.update(other, pair[0], gamma, alpha, beta).sigma_t_given_x
    if symmetry == "rotate T":
        assert np.abs(turned - u @ stepped.sigma_t_given_x @ np.conj(u.T)).max() <= size
    elif symmetry == "rotate Y":
        assert np.abs(turned - stepped.sigma_t_given_x).max() <= size * state.dim_y
