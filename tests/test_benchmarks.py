"""Closed-form compression bounds, the Fourier construction, and the
exhaustive classical oracle they are checked against."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qib import linalg, model
from qib.benchmarks import (
    advantage_gap,
    classical_bound,
    copy_state,
    fourier_feature_channel,
    quantum_bound,
)
from qib.exceptions import InvariantError
from qib.model import CQChannel
from qib.rng import derive_rng

import reference
from reference import brute_force_classical_opt
from helpers import random_cq_state, random_unitary


def test_quantum_bound_value():
    assert abs(quantum_bound(2, 2.0) + np.log(2)) < 1e-15
    assert abs(quantum_bound(3, 1.0)) == 0.0


def test_classical_bound_anchor():
    assert abs(classical_bound(3, 2, 2.0) - (-0.6365141682948128)) < 1e-12


def test_gap_anchor():
    rep = advantage_gap(3, 2, 1.0, 2.0)
    assert abs(rep.gap - 0.05663301226513251) < 1e-12
    assert abs(rep.quantum + np.log(2)) < 1e-15
    assert abs(rep.classical - (-0.6365141682948128)) < 1e-12
    assert abs(rep.achieved_quantum - rep.quantum) < 1e-9


def test_gap_vanishes_when_buckets_divide_evenly():
    # d = m n leaves no remainder, so even bucketing is lossless in the
    # counting argument and the classical optimum meets the quantum one.
    for d, n in [(4, 2), (6, 2), (6, 3), (9, 3)]:
        rep = advantage_gap(d, n, 1.0, 3.0)
        assert abs(rep.gap) < 1e-12


@given(
    d=st.integers(min_value=3, max_value=9),
    n=st.integers(min_value=2, max_value=4),
    beta=st.floats(min_value=1.0, max_value=6.0),
)
def test_gap_is_nonnegative(d, n, beta):
    assume(n < d)
    gap = classical_bound(d, n, beta) - quantum_bound(n, beta)
    assert gap >= -1e-12
    if d % n != 0 and beta > 1.0:
        assert gap > 0.0


def test_bound_guards():
    with pytest.raises(InvariantError, match=">= 2"):
        quantum_bound(1, 2.0)
    with pytest.raises(InvariantError, match="beta"):
        quantum_bound(2, 0.5)
    with pytest.raises(InvariantError, match="n < d"):
        classical_bound(3, 3, 2.0)
    with pytest.raises(InvariantError, match=">= 2"):
        classical_bound(3, 1, 2.0)
    with pytest.raises(InvariantError, match="beta"):
        classical_bound(3, 2, 0.9)
    with pytest.raises(InvariantError, match="alpha"):
        advantage_gap(3, 2, 1.5, 2.0)
    with pytest.raises(InvariantError, match="alpha"):
        advantage_gap(3, 2, 1.0, 0.5)
    with pytest.raises(InvariantError, match=r"0 <= alpha <= min\(1, beta\)"):
        advantage_gap(3, 2, -0.5, 2.0)


def test_copy_state_shape_and_redundancy():
    state = copy_state(3, 2)
    state.validate()
    assert state.size_x == 6
    assert state.dim_y == 3
    assert np.max(np.abs(state.px - 1.0 / 6.0)) < 1e-15
    # x2 is redundant: both x sharing an x1 carry the same output state
    assert np.array_equal(state.rho_y_given_x[0], state.rho_y_given_x[1])
    assert abs(model.holevo_information(state) - np.log(3)) < 1e-12
    with pytest.raises(InvariantError):
        copy_state(1)
    with pytest.raises(InvariantError):
        copy_state(2, 0)


def test_fourier_channel_is_valid_and_flat():
    chan = fourier_feature_channel(5, 3)
    chan.validate()
    mats = chan.sigma_t_given_x
    # pure states
    purity = np.einsum("xij,xji->x", mats, mats).real
    assert np.max(np.abs(purity - 1.0)) < 1e-12
    # uniform mixture is exactly maximally mixed
    marginal = reference.sigma_t(chan, copy_state(5))
    assert np.max(np.abs(marginal - np.eye(3) / 3.0)) < 1e-12


def test_fourier_channel_replicates_over_x2():
    repeated = np.repeat(fourier_feature_channel(4, 2).sigma_t_given_x, 3, axis=0)
    chan = CQChannel(repeated, classical=False)
    assert chan.size_x == 12
    assert np.array_equal(chan.sigma_t_given_x[0], chan.sigma_t_given_x[2])
    marginal = reference.sigma_t(chan, copy_state(4, 3))
    assert np.max(np.abs(marginal - np.eye(2) / 2.0)) < 1e-12
    with pytest.raises(InvariantError, match="2 <= n <= d"):
        fourier_feature_channel(3, 4)


@pytest.mark.parametrize("d,n", [(3, 2), (5, 2), (5, 4)])
def test_fourier_channel_attains_quantum_bound(d, n):
    f = reference.objective_f_alpha(
        copy_state(d), fourier_feature_channel(d, n), 1.0, 2.0
    )
    assert abs(f - quantum_bound(n, 2.0)) < 1e-9


@pytest.mark.parametrize("d,n", [(3, 2), (5, 2), (4, 3)])
def test_brute_force_matches_closed_form(d, n):
    best, _ = brute_force_classical_opt(copy_state(d), n, 1.0, 2.0)
    assert abs(best - classical_bound(d, n, 2.0)) < 1e-12


def test_brute_force_beta_one_is_flat_at_zero():
    best, _ = brute_force_classical_opt(copy_state(4), 2, 1.0, 1.0)
    assert abs(best) < 1e-12
    assert abs(classical_bound(4, 2, 1.0)) == 0.0


@pytest.mark.parametrize("block", [1, 2, None], ids=["block1", "block2", "default"])
def test_brute_force_tie_break_is_lexicographic(block, monkeypatch):
    # Small blocks spread the tied optima over many blocks, so the strict
    # comparison across blocks is what keeps the first one.  A block of
    # ``block`` maps on copy_state(d) with n outputs holds block * n * d^2
    # matrix entries.
    def search(d, n):
        if block is not None:
            monkeypatch.setattr(reference, "BRUTE_FORCE_BLOCK", block * n * d**2)
        return brute_force_classical_opt(copy_state(d), n, 1.0, 2.0)

    assert search(3, 2)[1] == (0, 0, 1)
    found = search(4, 3)
    monkeypatch.undo()
    assert found == brute_force_classical_opt(copy_state(4), 3, 1.0, 2.0)
    assert found[1] == (0, 0, 1, 2)


@pytest.mark.parametrize("budget", [50, 1000, None])
def test_brute_force_blocks_stay_within_budget(budget, monkeypatch):
    # copy_state(6) with n = 3: 729 maps of 3 * 6^2 = 108 entries each.  A
    # budget below one map still scores one map per block.
    if budget is not None:
        monkeypatch.setattr(reference, "BRUTE_FORCE_BLOCK", budget)
    budget, score, scored = reference.BRUTE_FORCE_BLOCK, reference.assignment_terms, []

    def spy(state, maps, dim_t):
        scored.append(maps)
        return score(state, maps, dim_t)

    monkeypatch.setattr(reference, "assignment_terms", spy)
    found = brute_force_classical_opt(copy_state(6), 3, 1.0, 2.0)
    assert max(len(m) * 108 for m in scored) <= max(budget, 108)
    assert np.array_equal(np.vstack(scored), np.array(list(np.ndindex(*[3] * 6))))
    monkeypatch.undo()
    assert found == brute_force_classical_opt(copy_state(6), 3, 1.0, 2.0)


def test_brute_force_ignores_redundant_x2():
    plain, _ = brute_force_classical_opt(copy_state(3), 2, 1.0, 2.0)
    doubled, _ = brute_force_classical_opt(copy_state(3, 2), 2, 1.0, 2.0)
    assert abs(plain - doubled) < 1e-12


def test_brute_force_value_independent_of_alpha():
    a, map_a = brute_force_classical_opt(copy_state(4), 2, 0.3, 2.0)
    b, map_b = brute_force_classical_opt(copy_state(4), 2, 1.0, 2.0)
    assert a == b
    assert map_a == map_b


def test_brute_force_dense_path_agrees_under_rotation():
    # A global unitary on Y changes no entropy, so the optimum cannot move;
    # which of the tied maps wins may change at rounding level, so only the
    # value is compared.
    base = copy_state(4)
    u = random_unitary(4, derive_rng(7, "rot"))
    rotated = np.einsum("ij,xjk,lk->xil", u, base.rho_y_given_x, np.conj(u))
    spun = model.CQState(base.px.copy(), rotated)
    fast, _ = brute_force_classical_opt(base, 2, 1.0, 2.0)
    dense, _ = brute_force_classical_opt(spun, 2, 1.0, 2.0)
    assert abs(fast - dense) < 1e-9


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    classical=st.booleans(),
    dim_t=st.integers(min_value=1, max_value=4),
)
def test_assignment_terms_match_model_oracle(seed, classical, dim_t):
    state = random_cq_state(seed, classical=classical)
    gen = derive_rng(seed, "maps")
    # The last row sends every x to t = 0 and leaves every other t empty.
    maps = np.vstack([
        gen.integers(0, dim_t, (6, state.size_x)),
        np.zeros((1, state.size_x), dtype=int),
    ])
    h_t, i_ty = reference.assignment_terms(state, maps, dim_t)
    for n, row in enumerate(maps):
        channel = CQChannel(linalg.diag_embed(np.eye(dim_t)[row]), classical=True)
        assert abs(h_t[n] - reference.von_neumann_entropy(reference.sigma_t(channel, state))) < 1e-12
        assert abs(i_ty[n] - reference.mutual_info_ty(state, channel)) < 1e-12


def test_brute_force_guards():
    with pytest.raises(InvariantError, match="exceeds"):
        brute_force_classical_opt(copy_state(5, 5), 2, 1.0, 2.0)
    with pytest.raises(InvariantError, match="dim_t"):
        brute_force_classical_opt(copy_state(3), 0, 1.0, 2.0)


def test_advantage_report_fields():
    rep = advantage_gap(5, 3, 0.5, 4.0)
    assert rep.d == 5 and rep.n == 3
    assert rep.alpha == 0.5 and rep.beta == 4.0
    assert abs(rep.gap - (rep.classical - rep.quantum)) < 1e-15
    assert abs(rep.achieved_quantum - rep.quantum) < 1e-9
