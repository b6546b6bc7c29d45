"""Qubit ensemble generators."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qib.exceptions import InvariantError
from qib.experiments import ensembles
from qib.experiments.ensembles import (
    SuffStatsSpec,
    gen_random_qubit_ensemble,
    gen_suffstats_ensemble,
    qubit_ensemble,
)

from helpers import assert_valid_density


def rho_qubit(theta, lam):
    """The one conditional of a one-element ``qubit_ensemble``."""
    return qubit_ensemble(theta, lam).rho_y_given_x[0]


def reference_qubit(theta, lam):
    """e^{i theta X} diag(1-lam, lam) e^{-i theta X}, one matrix at a time."""
    u = np.array([[math.cos(theta), 1j * math.sin(theta)], [1j * math.sin(theta), math.cos(theta)]])
    return u @ np.diag([1.0 - lam, lam]).astype(np.complex128) @ np.conj(u.T)


@given(
    theta=st.floats(min_value=-10.0, max_value=10.0),
    lam=st.floats(min_value=0.0, max_value=1.0),
)
def test_rho_qubit_is_density_with_fixed_spectrum(theta, lam):
    rho = rho_qubit(theta, lam)
    assert_valid_density(rho)
    w = np.linalg.eigvalsh(rho)
    assert np.max(np.abs(np.sort(w) - np.sort([lam, 1.0 - lam]))) < 1e-12


def test_rho_qubit_special_angles():
    lam = 0.2
    assert np.max(np.abs(rho_qubit(0.0, lam) - np.diag([0.8, 0.2]))) < 1e-15
    # a half-turn conjugates by X and swaps the populations
    swapped = rho_qubit(np.pi / 2.0, lam)
    assert np.max(np.abs(swapped - np.diag([0.2, 0.8]))) < 1e-12
    with pytest.raises(InvariantError, match="bias"):
        rho_qubit(0.3, 1.2)
    with pytest.raises(InvariantError, match="bias"):
        rho_qubit(0.3, -0.01)


def test_qubit_spec_to_state():
    state = qubit_ensemble(np.array([0.0, 1.0]), np.array([0.1, 0.3]))
    state.validate()
    assert state.size_x == 2
    assert np.max(np.abs(state.px - 0.5)) < 1e-15
    with pytest.raises(InvariantError, match="shape"):
        qubit_ensemble(np.zeros(3), np.zeros(2))


def test_random_qubit_ensemble_reproducible():
    a = gen_random_qubit_ensemble(6, seed=11)
    b = gen_random_qubit_ensemble(6, seed=11)
    c = gen_random_qubit_ensemble(6, seed=12)
    a.validate()
    assert np.array_equal(a.rho_y_given_x, b.rho_y_given_x)
    assert not np.array_equal(a.rho_y_given_x, c.rho_y_given_x)
    # biases stay below 1/2, so no conditional is maximally mixed
    w = np.linalg.eigvalsh(a.rho_y_given_x)
    assert np.all(w[:, 0] < 0.5) and np.all(w[:, 1] > 0.5)
    with pytest.raises(InvariantError, match="size_x"):
        gen_random_qubit_ensemble(0, seed=0)


def test_suffstats_spec_validation():
    SuffStatsSpec().validate()
    with pytest.raises(InvariantError, match="size_x1"):
        SuffStatsSpec(size_x1=1).validate()
    with pytest.raises(InvariantError, match="nu"):
        SuffStatsSpec(nu=0.0).validate()
    SuffStatsSpec(nu=np.inf).validate()


@given(
    st.lists(
        st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 1.0)), min_size=1, max_size=20
    )
)
def test_stack_qubits_equals_stacked_rho_qubit(pairs):
    thetas, lams = (np.array(column) for column in zip(*pairs))
    looped = np.stack([reference_qubit(t, l) for t, l in zip(thetas, lams)])
    assert np.array_equal(ensembles._stack_qubits(thetas, lams), looped)


@pytest.mark.parametrize("bad", [-0.01, 1.2, np.nan])
@pytest.mark.parametrize("x", [0, 3, 5])
def test_stack_qubits_rejects_a_bias_outside_unit_interval_at_any_x(x, bad):
    thetas, lams = np.linspace(0.0, 3.0, 6), np.linspace(0.0, 1.0, 6)
    lams[x] = bad
    with pytest.raises(InvariantError) as expected:
        rho_qubit(thetas[x], lams[x])
    with pytest.raises(InvariantError) as raised:
        ensembles._stack_qubits(thetas, lams)
    assert str(raised.value) == str(expected.value)


def test_suffstats_instance_layout():
    spec = SuffStatsSpec(size_x1=3, size_x2=4, nu=25.0)
    inst = gen_suffstats_ensemble(spec)
    size = 12
    inst.state.validate()
    assert inst.state.size_x == size
    assert np.max(np.abs(inst.state.px - 1.0 / size)) < 1e-15
    assert sorted(inst.permutation) == list(range(size))
    # permutation maps structured cells to recorded indices
    rebuilt = ensembles._stack_qubits(inst.thetas, inst.lams)
    assert np.max(np.abs(inst.state.rho_y_given_x[inst.permutation] - rebuilt)) < 1e-12


def test_suffstats_noise_is_bounded_multiplicative():
    spec = SuffStatsSpec(size_x1=4, size_x2=5, nu=16.0)
    inst = gen_suffstats_ensemble(spec)
    x1 = np.repeat(np.arange(4), 5)
    base_theta = np.pi * x1 / 4.0
    base_lam = x1 / 16.0
    half = 1.0 / 4.0
    with np.errstate(invalid="ignore"):
        r_t = np.where(base_theta > 0, inst.thetas / base_theta - 1.0, 0.0)
        r_l = np.where(base_lam > 0, inst.lams / base_lam - 1.0, 0.0)
    assert np.max(np.abs(r_t)) <= half + 1e-12
    assert np.max(np.abs(r_l)) <= half + 1e-12
    # the x1 = 0 group is exactly the pure ground state regardless of noise
    zero_group = inst.state.rho_y_given_x[inst.permutation[:5]]
    assert np.max(np.abs(zero_group - np.diag([1.0, 0.0]))) < 1e-12


def test_suffstats_extreme_noise_clamps_biases():
    spec = SuffStatsSpec(size_x1=5, size_x2=8, nu=0.01)
    with pytest.warns(RuntimeWarning, match="clamping"):
        inst = gen_suffstats_ensemble(spec)
    inst.state.validate()
    assert np.all(inst.lams >= 0.0) and np.all(inst.lams <= 1.0)
    # with half-width 10 some draw must actually sit on a clamp boundary
    assert np.any(inst.lams == 0.0) or np.any(inst.lams == 1.0)


def test_suffstats_infinite_nu_collapses_groups():
    spec = SuffStatsSpec(size_x1=3, size_x2=4, nu=np.inf)
    inst = gen_suffstats_ensemble(spec)
    structured = inst.state.rho_y_given_x[inst.permutation]
    for g in range(3):
        block = structured[g * 4 : (g + 1) * 4]
        assert np.max(np.abs(block - block[0])) < 1e-15


def test_suffstats_seeds_are_independent_knobs():
    base = gen_suffstats_ensemble(SuffStatsSpec(size_x1=3, size_x2=4))
    same = gen_suffstats_ensemble(SuffStatsSpec(size_x1=3, size_x2=4))
    other_perm = gen_suffstats_ensemble(
        SuffStatsSpec(size_x1=3, size_x2=4, permutation_seed=9)
    )
    other_noise = gen_suffstats_ensemble(
        SuffStatsSpec(size_x1=3, size_x2=4, noise_seed=9)
    )
    assert np.array_equal(base.permutation, same.permutation)
    assert np.array_equal(base.thetas, same.thetas)
    assert not np.array_equal(base.permutation, other_perm.permutation)
    assert np.array_equal(base.thetas, other_perm.thetas)
    assert np.array_equal(base.permutation, other_noise.permutation)
    assert not np.array_equal(base.thetas, other_noise.thetas)
