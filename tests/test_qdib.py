"""Deterministic bottleneck: projectors, the hard update, the runner."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qib import config as qconfig, engine, linalg, qdib
from qib.exceptions import InvariantError, NumericalError
from qib.model import CQChannel, CQState, ObjectiveConfig, maximally_mixed_channel
from qib.rng import derive_rng

import reference
from helpers import (
    f_values,
    projected_step_loop,
    random_channel_for,
    random_cq_state,
    random_hermitian,
    sparse_table_instance,
)


def test_min_eigenspace_projector_properties():
    gen = derive_rng(1, "proj")
    h = random_hermitian(4, gen)
    p = linalg.min_eigenspace_projector(h)
    assert np.max(np.abs(p - np.conj(p.T))) < 1e-12
    assert np.max(np.abs(p @ p - p)) < 1e-12
    w = np.linalg.eigvalsh(h)
    assert np.max(np.abs(h @ p - w[0] * p)) < 1e-8


def test_min_eigenspace_projector_handles_degeneracy():
    p = linalg.min_eigenspace_projector(np.diag([0.0, 0.0, 1.0]).astype(complex))
    assert abs(np.trace(p).real - 2.0) < 1e-12
    full = linalg.min_eigenspace_projector(2.5 * np.eye(3, dtype=complex))
    assert np.max(np.abs(full - np.eye(3))) < 1e-12


_TIED = {
    "diag001": np.diag([0.0, 0.0, 1.0]),
    "scalar": 2.5 * np.eye(3),
    "zero": np.zeros((3, 3)),
}


@given(
    st.integers(0, 10**6), st.lists(st.sampled_from(["random", *_TIED]), min_size=1, max_size=6)
)
def test_stacked_projector_equals_per_matrix_call(seed, kinds):
    # Exactly tied minima must get the same tie window in a stack as alone.
    gen = derive_rng(seed, "proj-stack")
    h = np.stack(
        [random_hermitian(3, gen) if k == "random" else _TIED[k] for k in kinds]
    ).astype(complex)
    stacked = linalg.min_eigenspace_projector(h)
    for x in range(h.shape[0]):
        assert np.max(np.abs(stacked[x] - linalg.min_eigenspace_projector(h[x]))) <= 1e-12


def test_projector_consistency_min_f0_equals_max_score():
    for seed in range(30):
        state = random_cq_state(seed, tag="consist")
        chan = random_channel_for(state, 3, seed, tag="consist")
        f0 = engine.f_operator(state, chan, 0.0, 5.0)
        score = -f0
        for x in range(state.size_x):
            p_min = linalg.min_eigenspace_projector(f0[x])
            # max eigenspace of the score is the min eigenspace of F_0
            w, v = np.linalg.eigh(score[x])
            top = v[:, w >= w[-1] - 1e-9 * max(w[-1] - w[0], 1e-300)]
            p_top = top @ np.conj(top.T)
            assert np.max(np.abs(p_min - p_top)) < 1e-9


def test_qdib_update_projects_and_renormalizes():
    state = random_cq_state(2)
    chan = random_channel_for(state, 3, 2)
    new = qdib.qdib_update(state, chan, 4.0)
    new.validate()
    fam = engine.f_operator(state, chan, 0.0, 4.0)
    for x in range(state.size_x):
        p = linalg.min_eigenspace_projector(fam[x])
        comp = p @ chan.sigma_t_given_x[x] @ p
        ref = comp / np.trace(comp).real
        assert np.max(np.abs(new.sigma_t_given_x[x] - ref)) < 1e-12


def _orthogonal_flip_instance(beta=45.0):
    """Both symbols sit on t=0 while F_0 votes t=1, so the projected mass
    vanishes: the bare update must refuse, the runner must fall back."""
    px = np.array([0.5, 0.5])
    rho = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    state = CQState(px, rho)
    mats = np.stack([np.diag([1.0, 0.0])] * 2).astype(complex)
    return state, CQChannel(mats, classical=True), beta


def test_qdib_update_raises_on_vanishing_overlap():
    state, chan, beta = _orthogonal_flip_instance()
    with pytest.raises(NumericalError, match="x=0"):
        qdib.qdib_update(state, chan, beta)


@pytest.mark.parametrize("classical", [False, True])
def test_qdib_update_equals_one_runner_step(classical):
    for seed in range(6):
        state = random_cq_state(seed, classical=classical, tag="qdib-diff")
        chan = random_channel_for(state, 3, seed, classical=classical, tag="qdib-diff")
        cfg = ObjectiveConfig(
            alpha=0.0, beta=5.0, dim_t=3, classical=classical, seed=seed, max_iters=1
        )
        stepped, trace = qdib.run_qdib(state, cfg, initial=chan)
        assert len(trace) == 2  # one update, then the prospective row
        new = qdib.qdib_update(state, chan, cfg.beta)
        assert np.array_equal(new.sigma_t_given_x, stepped.sigma_t_given_x)


def test_runner_fallback_set_holds_the_x_qdib_update_names():
    state, chan, beta = _orthogonal_flip_instance()
    with pytest.raises(NumericalError, match=r"x=(\d+)") as err:
        qdib.qdib_update(state, chan, beta)
    named = int(re.search(r"x=(\d+)", str(err.value)).group(1))
    (analysis,) = engine._analyses(state, 0.0, beta, chan)
    (_, _, out, _), vanished = analysis.project()
    assert named in vanished
    fam, out = linalg.diag_embed(engine.f_operator(state, chan, 0.0, beta)), linalg.diag_embed(out)
    for x in vanished:
        proj = linalg.min_eigenspace_projector(fam[x])
        assert np.max(np.abs(out[x] - proj / np.trace(proj).real)) < 1e-12


def _dense(analysis, a):
    """A table, Pauli rows or stack of ``analysis``'s form as the stack."""
    if isinstance(analysis, engine._Bloch):
        return linalg.from_pauli(a)
    return linalg.diag_embed(a) if a.ndim == 2 else a


@given(st.integers(0, 10**6), st.booleans())
def test_projected_step_equals_per_x_loop(seed, classical):
    # A classical channel steps on its table, a quantum qubit channel on its
    # Pauli coordinates; the loop runs on the dense embedding.  The flip
    # instance (dimT 2) covers the vanishing-overlap fallback.
    state = random_cq_state(seed, classical=classical, tag="proj-loop")
    chan = random_channel_for(state, 3, seed, classical=classical, tag="proj-loop")
    flip_state, flip, flip_beta = _orthogonal_flip_instance()
    flip = CQChannel(flip.sigma_t_given_x, classical)
    for st_, ch, beta in ((state, chan, 5.0), (flip_state, flip, flip_beta)):
        (a,) = engine._analyses(st_, 0.0, beta, ch)
        assert type(a) is (engine._Table if classical else engine._Bloch if ch.dim_t == 2 else engine._Stack)
        (_, _, out, _), vanished = a.project()
        ref, ref_vanished = projected_step_loop(_dense(a, a.f_family), _dense(a, a.mats))
        assert vanished == ref_vanished
        assert np.max(np.abs(_dense(a, out) - ref)) <= 1e-12


@given(st.integers(0, 10**6), st.booleans(), st.sampled_from([1.0, 5.0, 45.0]))
def test_table_projected_step_matches_dense_loop(seed, classical_rho, beta):
    # Zeros in q leave some rows with no mass on their tied minima (the
    # P/rank(P) fallback); the second family puts t = 0 just inside each
    # row's tie window.
    state, q = sparse_table_instance(seed, classical_rho)
    a = engine._Table(state, CQChannel(q, classical=True).carry, 0.0, beta)
    near = a.f_family.copy()
    rest = near[:, 1:]
    near[:, 0] = rest.min(axis=1) + 1e-12 * (rest.max(axis=1) - rest.min(axis=1))
    for fam in (a.f_family, near):
        a.f_family = fam
        (_, _, out, _), vanished = a.project()
        ref, ref_vanished = projected_step_loop(linalg.diag_embed(fam), linalg.diag_embed(q))
        assert vanished == ref_vanished
        assert np.max(np.abs(linalg.diag_embed(out) - ref)) <= 1e-12


def test_run_qdib_survives_vanishing_overlap_without_ascent():
    state, chan, beta = _orthogonal_flip_instance()
    cfg = ObjectiveConfig(
        alpha=0.0, beta=beta, dim_t=2, classical=True, seed=0, tol=1e-10, max_iters=50
    )
    _, trace = qdib.run_qdib(state, cfg, initial=chan)
    fs = f_values(trace)
    assert np.all(np.diff(fs) <= 1e-9)
    assert trace.status != engine.STATUS_MONOTONICITY_VIOLATED


def test_run_qdib_requires_alpha_zero():
    state = random_cq_state(3)
    cfg = ObjectiveConfig(alpha=0.5, beta=2.0, dim_t=2, seed=3)
    with pytest.raises(InvariantError, match="alpha"):
        qdib.run_qdib(state, cfg)


@pytest.mark.parametrize("beta", [1.0, 5.0, 20.0])
def test_run_qdib_descends(beta):
    for seed in range(8):
        state = random_cq_state(seed, tag="qdib-mono")
        cfg = ObjectiveConfig(
            alpha=0.0, beta=beta, dim_t=3, seed=seed, tol=1e-10, max_iters=80
        )
        chan, trace = qdib.run_qdib(state, cfg)
        chan.validate()
        fs = f_values(trace)
        assert np.all(np.diff(fs) <= 1e-9)
        assert trace.status != engine.STATUS_MONOTONICITY_VIOLATED


@pytest.mark.parametrize(
    "spec",
    [{"generator": "random-qubit-ensemble", "sizeX": 40}, {"generator": "copy-state", "d": 2},
     {"generator": "copy-state", "d": 3}, {"generator": "suffstats-ensemble"}],
    ids=["qubits", "copy2", "copy3", "suffstats"],
)
@pytest.mark.parametrize("classical", [False, True], ids=["quantum", "classical"])
def test_maximally_mixed_start_is_a_qdib_fixed_point(spec, classical):
    # There F_0 = ln(dimT) I for every source: sigma_T = I/dimT, the joint is
    # I/dimT (x) rho_Y, and the beta term cancels up to round-off that grows
    # with beta.  Quantum dimT 2 runs the Pauli form, 3 and 4 the stack, a
    # classical run the table; each must keep the whole space at the tie.
    state = qconfig.resolve_state(spec, seed=7)
    for dim_t in (2, 3, 4):
        start = maximally_mixed_channel(dim_t, state.size_x, classical)
        for beta in (5.0, 50.0, 200.0, 1000.0):
            run = ObjectiveConfig(alpha=0.0, beta=beta, dim_t=dim_t, classical=classical, max_iters=3)
            final, trace = qdib.run_qdib(state, run, initial=start)
            assert [r.support_t for r in trace.records] == [dim_t] * len(trace), (dim_t, beta)
            assert np.max(np.abs(final.sigma_t_given_x - start.sigma_t_given_x)) <= 1e-12, (dim_t, beta)
            assert abs(trace.final_f - np.log(dim_t)) <= 1e-9, (dim_t, beta)


def test_run_qdib_trace_support_column():
    state = random_cq_state(4)
    cfg = ObjectiveConfig(alpha=0.0, beta=5.0, dim_t=3, seed=4, max_iters=40)
    chan, trace = qdib.run_qdib(state, cfg)
    final = trace.records[-1]
    assert final.support_t is not None
    evals = np.linalg.eigvalsh(reference.sigma_t(chan, state))
    assert final.support_t == int(np.sum(evals > 1e-9))
    assert all(np.isnan(r.gamma_ratio) for r in trace.records)


def test_run_qdib_classical_iterates_stay_diagonal():
    state = random_cq_state(5, classical=True)
    cfg = ObjectiveConfig(
        alpha=0.0, beta=10.0, dim_t=4, classical=True, seed=5, max_iters=60
    )
    chan, _ = qdib.run_qdib(state, cfg)
    assert chan.classical
    chan.validate()
    CQChannel(chan.sigma_t_given_x, classical=True)  # the 1e-12 off-diagonal check
    # deterministic assignments: each conditional is a point mass
    diags = np.einsum("xii->xi", chan.sigma_t_given_x).real
    assert np.max(np.abs(np.sort(diags, axis=1)[:, -1] - 1.0)) < 1e-9


def test_run_qdib_large_classical_instance_stays_normalized():
    # Regression for the layout bug that silently zeroed iterates at
    # dimension 100: every visited conditional must keep unit trace.
    gen = derive_rng(6, "big")
    nx, dt = 12, 100
    px = gen.dirichlet(np.ones(nx))
    rhos = np.stack(
        [np.diag(gen.dirichlet(np.ones(2))).astype(complex) for _ in range(nx)]
    )
    state = CQState(px, rhos)
    cfg = ObjectiveConfig(
        alpha=0.0, beta=20.0, dim_t=dt, classical=True, seed=6, tol=1e-9, max_iters=30
    )
    chan, trace = qdib.run_qdib(state, cfg)
    chan.validate()
    traces = np.einsum("xii->x", chan.sigma_t_given_x).real
    assert np.max(np.abs(traces - 1.0)) < 1e-9
    assert trace.status != engine.STATUS_MONOTONICITY_VIOLATED
    assert np.all(np.diff(f_values(trace)) <= 1e-9)
