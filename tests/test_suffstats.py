"""Sufficient-statistics recovery experiment at reduced size."""

import tracemalloc

import numpy as np
import pytest

from qib import model
from qib.exceptions import InvariantError
from qib.experiments.ensembles import SuffStatsSpec, gen_suffstats_ensemble
from qib.experiments.suffstats import baseline_discard_x2, suffstats_pipeline
from qib.model import CQChannel

import reference


def _small_spec(**kw):
    defaults = dict(size_x1=3, size_x2=4, nu=25.0)
    defaults.update(kw)
    return SuffStatsSpec(**defaults)


def test_baseline_identity_permutation_noiseless():
    # with nu = inf the X1 groups are exact, so discarding X2 keeps all of
    # I(X:Y): the baseline must report i_x1y = I(X:Y) and f = ln n1 - beta it
    spec = _small_spec(nu=np.inf)
    inst = gen_suffstats_ensemble(spec)
    base = baseline_discard_x2(inst.state, inst.permutation, 3, 4, beta=10.0)
    i_xy = model.holevo_information(inst.state)
    assert abs(base["i_x1y"] - i_xy) < 1e-10
    assert abs(base["h_t"] - np.log(3)) < 1e-12
    assert abs(base["f_dib"] - (np.log(3) - 10.0 * i_xy)) < 1e-10


def _check_baseline_grouping(spec, beta):
    n1, n2 = spec.size_x1, spec.size_x2
    inst = gen_suffstats_ensemble(spec)
    state = inst.state
    base = baseline_discard_x2(state, inst.permutation, n1, n2, beta=beta)
    # recompute from the structured states directly
    structured = state.rho_y_given_x[inst.permutation]
    h_y = reference.von_neumann_entropy(reference.rho_y(state))
    avg = 0.0
    for g in range(n1):
        rbar = structured[g * n2 : (g + 1) * n2].mean(axis=0)
        avg += (1.0 / n1) * reference.von_neumann_entropy(rbar)
    assert abs(base["i_x1y"] - (h_y - avg)) < 1e-10
    # noisy groups lose a little against the full source
    assert base["i_x1y"] <= model.holevo_information(state) + 1e-12
    # and the reference evaluator scores the same one-hot channel alike
    one_hot = CQChannel(np.eye(n1)[np.argsort(inst.permutation) // n2], classical=True)
    assert abs(base["h_t"] - reference.von_neumann_entropy(reference.sigma_t(one_hot, state))) < 1e-12
    assert abs(base["i_x1y"] - reference.mutual_info_ty(state, one_hot)) < 1e-12
    assert abs(base["f_dib"] - reference.objective_f_alpha(state, one_hot, 0.0, beta)) < 1e-12


def test_baseline_grouping_uses_the_inverse_permutation():
    _check_baseline_grouping(_small_spec(), beta=5.0)


@pytest.mark.parametrize("n1,n2,nu,seed,beta", [
    (2, 5, 4.0, 3, 20.0),
    (4, 3, 100.0, 7, 1.5),
    (5, 2, 9.0, 11, 8.0),
])
def test_baseline_grouping_uses_the_inverse_permutation_across_sizes(n1, n2, nu, seed, beta):
    spec = _small_spec(size_x1=n1, size_x2=n2, nu=nu, permutation_seed=seed, noise_seed=seed)
    _check_baseline_grouping(spec, beta)


def test_baseline_size_guard():
    inst = gen_suffstats_ensemble(_small_spec())
    with pytest.raises(InvariantError, match="do not match"):
        baseline_discard_x2(inst.state, inst.permutation, 3, 5, beta=5.0)


def test_pipeline_beats_discard_baseline():
    # at the smallest sizes the solver can park in a local minimum above the
    # baseline, so this uses the first size where the crossing is robust
    spec = SuffStatsSpec(size_x1=4, size_x2=8, nu=25.0)
    rep = suffstats_pipeline(spec, beta=20.0, seed=2, max_iters=80)
    m = rep.metrics
    assert rep.trace.status == "converged"
    assert not rep.trace.violations
    fs = [row[1] for row in rep.fdib_rows]
    assert np.all(np.diff(fs) <= 1e-9)
    assert m["f_dib_final"] < m["f_dib_baseline"] - 0.05
    assert 0 < m["crossing_iteration"] <= 10
    assert m["i_ty_final"] >= 0.95 * m["i_x1y_baseline"]
    assert m["i_ty_final"] <= m["i_xy"] + 1e-9
    assert abs(m["epsilon"] - (m["i_xy"] - m["i_ty_final"])) < 1e-15
    # |T| = |X| gives room to keep every group separate, never more groups
    # than symbols
    assert 1 <= m["support_t_final"] <= 32


def test_pipeline_rows_share_the_trace_iterations():
    rep = suffstats_pipeline(_small_spec(), beta=20.0, seed=1, max_iters=60)
    assert len(rep.fdib_rows) == len(rep.trace.records)
    assert len(rep.ity_rows) == len(rep.trace.records)
    for row, rec in zip(rep.fdib_rows, rep.trace.records):
        assert row[0] == rec.iteration
        assert row[1] == rec.f_alpha
        assert row[2] == rep.metrics["f_dib_baseline"]
    for row, rec in zip(rep.ity_rows, rep.trace.records):
        assert row[1] == rec.i_ty
        assert row[2] == rep.metrics["i_x1y_baseline"]
        assert row[3] == rep.metrics["i_xy"]


def test_crossing_iteration_matches_rows():
    rep = suffstats_pipeline(_small_spec(), beta=20.0, seed=2, max_iters=80)
    cross = 0
    for it, f, base in rep.fdib_rows:
        if f < base:
            cross = it
            break
    assert rep.metrics["crossing_iteration"] == float(cross)


def test_pipeline_tiny_beta_collapses_to_one_atom():
    # with beta = 0.1 the objective is dominated by H(T), so the solver
    # merges everything into a single cluster and bottoms out at f = 0
    rep = suffstats_pipeline(_small_spec(), beta=0.1, seed=0, max_iters=40)
    assert -1e-12 <= rep.metrics["f_dib_final"] <= 1e-9
    assert rep.metrics["support_t_final"] == 1.0


def test_pipeline_dim_t_override():
    rep = suffstats_pipeline(_small_spec(), beta=20.0, dim_t=3, seed=0, max_iters=80)
    assert rep.metrics["support_t_final"] <= 3
    assert not rep.trace.violations


def test_classical_run_allocates_no_dense_stack():
    # At the paper's scale (X = T = 100) one dense (sizeX, dimT, dimT) complex
    # stack is 16 MB; the run iterates the 80 KB table and never builds one.
    tracemalloc.start()
    try:
        suffstats_pipeline(SuffStatsSpec(), max_iters=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"
