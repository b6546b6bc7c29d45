"""States, channels, entropies and the objective."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qib import linalg, model
from qib.exceptions import InvariantError
from qib.model import CQChannel, CQState, ObjectiveConfig
from qib.rng import derive_rng

from helpers import (
    partial_trace,
    random_channel_for,
    random_cq_state,
    random_density,
    shannon,
    sparse_table_instance,
)


def test_state_construction_validates_shapes():
    with pytest.raises(InvariantError):
        CQState(np.array([[0.5, 0.5]]), np.zeros((2, 2, 2)))
    with pytest.raises(InvariantError):
        CQState(np.array([0.5, 0.5]), np.zeros((3, 2, 2)))
    with pytest.raises(InvariantError):
        CQState(np.array([0.5, 0.5]), np.zeros((2, 2, 3)))


def test_state_validate_rejects_bad_distributions():
    rho = np.stack([np.eye(2, dtype=complex) / 2] * 2)
    CQState(np.array([0.3, 0.7]), rho).validate()
    with pytest.raises(InvariantError, match="sums"):
        CQState(np.array([0.3, 0.4]), rho).validate()
    with pytest.raises(InvariantError, match="negative"):
        CQState(np.array([1.2, -0.2]), rho).validate()
    with pytest.raises(InvariantError, match="non-finite"):
        CQState(np.array([np.nan, 1.0]), rho).validate()
    with pytest.raises(InvariantError, match="sums"):
        CQState(np.array([np.inf, 0.0]), rho).validate()
    bad = np.stack([np.eye(2, dtype=complex)] * 2)
    with pytest.raises(InvariantError, match=r"rho_y_given_x\[0\]"):
        CQState(np.array([0.5, 0.5]), bad).validate()


def test_state_arrays_are_frozen():
    state = random_cq_state(0)
    with pytest.raises(ValueError):
        state.px[0] = 0.0
    with pytest.raises(ValueError):
        state.rho_y_given_x[0, 0, 0] = 0.0


def test_classical_channel_flag_enforced_by_validate():
    mats = np.stack([np.diag([0.4, 0.6]).astype(complex)] * 2)
    CQChannel(mats, classical=True).validate()
    off = mats.copy()
    off[0, 0, 1] = off[0, 1, 0] = 0.1
    with pytest.raises(InvariantError, match="off-diagonal"):
        CQChannel(off, classical=True).validate()
    CQChannel(off, classical=False).validate()


def _verdict(channel):
    try:
        channel.validate()
    except InvariantError as exc:
        return str(exc)
    return None


@given(st.integers(0, 10**6), st.sampled_from(["valid", "negative", "unnormalized"]))
def test_table_backed_classical_channel_matches_its_dense_embedding(seed, defect):
    _, q = sparse_table_instance(seed, classical_rho=True)
    if defect == "negative":
        # Row sums kept: only the sign of one entry is wrong.
        i, j = q[0].argmin(), q[0].argmax()
        q[0, j] += q[0, i] + 0.01
        q[0, i] = -0.01
    elif defect == "unnormalized":
        q[-1] *= 1.1
    table = CQChannel(q, classical=True)
    dense = CQChannel(linalg.diag_embed(q), classical=True)
    assert table.table() is table.table() and not table.table().flags.writeable
    assert table.table().tobytes() == dense.table().tobytes()
    assert np.array_equal(table.sigma_t_given_x, dense.sigma_t_given_x)
    verdict = _verdict(table)
    assert verdict == _verdict(dense)
    assert (verdict is None) == (defect == "valid"), verdict


def test_entropy_values():
    assert linalg.entropy(np.array([1.0, 0.0])) == 0.0
    assert abs(linalg.entropy(np.full(4, 0.25)) - np.log(4)) < 1e-12
    # Batched over the last axis; zeros and round-off below zero count as 0 log 0.
    stack = np.array(
        [[0.5, 0.5, 0.0, 0.0], [-1e-17, 0.2, 0.3, 0.5], [0.25, 0.25, 0.25, 0.25]]
    )
    rows = [np.log(2), -(0.2 * np.log(0.2) + 0.3 * np.log(0.3) + 0.5 * np.log(0.5)), np.log(4)]
    assert np.max(np.abs(linalg.entropy(stack) - rows)) < 1e-15
    assert [linalg.entropy(row) for row in stack] == list(linalg.entropy(stack))
    assert model.von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    mixed = np.eye(3, dtype=complex) / 3
    assert abs(model.von_neumann_entropy(mixed) - np.log(3)) < 1e-12


@given(st.integers(0, 100))
def test_relative_entropy_klein_inequality(seed):
    gen = derive_rng(seed, "klein")
    a = random_density(3, gen)
    b = random_density(3, gen)
    d = model.relative_entropy(a, b)
    assert d >= -1e-10
    assert model.relative_entropy(a, a) < 1e-10


def test_relative_entropy_classical_reduction():
    p = np.array([0.2, 0.3, 0.5])
    q = np.array([0.4, 0.4, 0.2])
    d = model.relative_entropy(np.diag(p).astype(complex), np.diag(q).astype(complex))
    assert abs(d - np.sum(p * np.log(p / q))) < 1e-12


def test_relative_entropy_unsupported_is_infinite():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sig = np.diag([1.0, 0.0]).astype(complex)
    with pytest.warns(RuntimeWarning, match="support"):
        assert model.relative_entropy(rho, sig) == np.inf


def test_marginals_are_partial_traces_of_joint():
    state = random_cq_state(11)
    chan = random_channel_for(state, 3, 11)
    joint = model.sigma_yt(chan, state)
    dims = (chan.dim_t, state.dim_y)
    st_marg = partial_trace(joint, dims, keep="first")
    ry_marg = partial_trace(joint, dims, keep="second")
    assert np.max(np.abs(st_marg - model.sigma_t(chan, state))) < 1e-12
    assert np.max(np.abs(ry_marg - model.rho_y(state))) < 1e-12
    assert abs(np.trace(joint).real - 1.0) < 1e-12


def test_joint_puts_t_factor_first():
    state = random_cq_state(12)
    tau = random_density(3, derive_rng(12, "tau"))
    chan = CQChannel(np.stack([tau] * state.size_x))
    joint = model.sigma_yt(chan, state)
    assert np.max(np.abs(joint - np.kron(tau, model.rho_y(state)))) < 1e-12


def test_mutual_informations_nonnegative_and_bounded():
    state = random_cq_state(13)
    chan = random_channel_for(state, 2, 13)
    i_tx = model.mutual_info_tx(state, chan)
    i_ty = model.mutual_info_ty(state, chan)
    assert i_tx >= -1e-10
    assert i_ty >= -1e-10
    # data processing through X: T sees Y only via X
    assert i_ty <= model.holevo_information(state) + 1e-9


def test_product_channel_carries_no_information():
    state = random_cq_state(14)
    tau = random_density(2, derive_rng(14, "tau"))
    chan = CQChannel(np.stack([tau] * state.size_x))
    assert abs(model.mutual_info_tx(state, chan)) < 1e-10
    assert abs(model.mutual_info_ty(state, chan)) < 1e-10
    h_tau = model.von_neumann_entropy(tau)
    for alpha in (0.0, 0.5, 1.0):
        f = model.objective_f_alpha(state, chan, alpha, 3.0)
        assert abs(f - (1.0 - alpha) * h_tau) < 1e-10


def test_holevo_of_orthogonal_pure_states_is_shannon():
    px = np.array([0.2, 0.8])
    rho = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    state = CQState(px, rho)
    assert abs(model.holevo_information(state) - shannon(px)) < 1e-12


def test_channel_divergence_zero_iff_equal():
    state = random_cq_state(15)
    chan = random_channel_for(state, 2, 15)
    other = random_channel_for(state, 2, 16)
    assert model.channel_divergence(chan, chan, state) < 1e-10
    assert model.channel_divergence(chan, other, state) > 1e-6


def test_maximally_mixed_channel_is_valid():
    chan = model.maximally_mixed_channel(3, 4, classical=True)
    chan.validate()
    assert chan.dim_t == 3 and chan.size_x == 4


def test_objective_config_gamma_defaults_to_alpha():
    cfg = ObjectiveConfig(alpha=0.7, beta=2.0, dim_t=2)
    assert cfg.effective_gamma == 0.7
    assert ObjectiveConfig(alpha=0.7, beta=2.0, dim_t=2, gamma=0.2).effective_gamma == 0.2


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        (dict(alpha=-0.1, beta=1.0, dim_t=2), "alpha"),
        (dict(alpha=1.0, beta=-1.0, dim_t=2), "beta"),
        (dict(alpha=1.0, beta=1.0, dim_t=0), "dim_t"),
        (dict(alpha=1.0, beta=1.0, dim_t=2, gamma=0.0), "gamma"),
        (dict(alpha=1.0, beta=1.0, dim_t=2, tol=0.0), "tol"),
        (dict(alpha=1.0, beta=1.0, dim_t=2, max_iters=0), "max_iters"),
    ],
)
def test_objective_config_validation(kwargs, msg):
    with pytest.raises(InvariantError, match=msg):
        ObjectiveConfig(**kwargs).validate()

