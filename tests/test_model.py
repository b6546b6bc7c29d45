"""States, channels, entropies and the objective."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qib import linalg, model
from qib.exceptions import InvariantError
from qib.model import CQChannel, CQState, ObjectiveConfig
from qib.rng import derive_rng

import reference
from helpers import (
    partial_trace,
    random_channel_for,
    random_cq_state,
    random_density,
    random_unitary,
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
    with pytest.raises(ValueError):
        state.rho_y[0, 0] = 0.0
    assert state.rho_y.tobytes() == np.einsum("x,xij->ij", state.px, state.rho_y_given_x).tobytes()


def test_state_caches_the_entropy_and_floored_log_of_rho_y():
    state = random_cq_state(0)
    h_y, log = state.rho_y_log
    w, want = linalg.floored_log(state.rho_y)
    assert h_y == linalg.entropy(w) and log.tobytes() == want.tobytes()
    assert state.rho_y_log is state.rho_y_log
    with pytest.raises(ValueError):
        log[0, 0] = 0.0


def test_classical_channel_flag_enforced_by_validate():
    mats = np.stack([np.diag([0.4, 0.6]).astype(complex)] * 2)
    CQChannel(mats, classical=True).validate()
    off = mats.copy()
    off[0, 0, 1] = off[0, 1, 0] = 0.1
    with pytest.raises(InvariantError, match="off-diagonal"):
        CQChannel(off, classical=True).validate()
    CQChannel(off, classical=False).validate()


@pytest.mark.parametrize("entry, value, within, magnitude", [
    ((0, 1), 1e-9, 1e-13, "1.000e-09"),
    ((1, 1), 2e-9j, 1e-13j, "2.000e-09"),
    ((1, 0), np.nan, 1e-13, "nan"),
], ids=["off-diagonal", "imaginary-diagonal", "nan-off-diagonal"])
def test_classical_channel_rejects_a_non_diagonal_stack_when_built(entry, value, within, magnitude):
    def stack(delta):
        mats = np.stack([np.diag([0.4, 0.6]).astype(complex)] * 3)
        mats[1][entry] += delta
        return mats

    with pytest.raises(
        InvariantError, match=f"^classical channel has off-diagonal magnitude {magnitude} above 1.0e-12$"
    ):
        CQChannel(stack(value), classical=True)
    CQChannel(stack(value))  # a quantum channel is checked by validate()
    # Within the tolerance only the real diagonal is kept.
    assert np.array_equal(CQChannel(stack(within), classical=True).carry[2], [[0.4, 0.6]] * 3)


def test_classical_channel_built_from_a_stack_holds_only_its_table():
    _, q = sparse_table_instance(0, classical_rho=True)
    chan = CQChannel(linalg.diag_embed(q), classical=True)
    assert max(np.ndim(v) for v in vars(chan).values()) == 2
    assert np.array_equal(chan.carry[2], q) and chan.carry[2].flags.c_contiguous
    assert np.array_equal(chan.sigma_t_given_x, linalg.diag_embed(q))
    assert max(np.ndim(v) for v in vars(chan).values()) == 3


_CARRY = r"^a carry must be float64 \(p, log p\) of shape \(sizeX, dimT\) and \(mats, log mats\) of its form"


@pytest.mark.parametrize("form, classical, message", [
    ((np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3, 3), complex)), False, _CARRY),
    ((np.ones(2), np.ones(2), np.ones((2, 2)), np.ones((2, 2))), True, _CARRY),
    ((np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3, 3), complex), np.ones((2, 2, 2), complex)), False, _CARRY),
    ((np.ones((2, 2)),), True, _CARRY),
    (np.zeros((2, 2, 3)), False, "^sigma_t_given_x must be stacked square matrices, got shape \\(2, 2, 3\\)$"),
    (np.zeros((2, 2, 2, 2)), False, "^sigma_t_given_x must be stacked square matrices"),
], ids=["p-V-sizes", "p-vector", "triple-sizes", "p-alone", "non-square", "4-d"])
def test_channel_construction_validates_shapes(form, classical, message):
    # A carry is four arrays in one form's shapes and dtypes: a short tuple,
    # a vector p, a log of another size are rejected, each by the one check.
    with pytest.raises(InvariantError, match=message):
        CQChannel(form, classical)


@pytest.mark.parametrize("form, classical", [
    ((np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 4))), False),
    ((np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 4)), np.ones((3, 4))), False),
    ((np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 3))), False),
    ((np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 4)), np.ones((2, 2, 2))), False),
    ((np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 4)), np.full((2, 4), 1j)), False),
    ((np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2, 2), complex), np.ones((2, 2, 2), complex)), False),
    ((np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 4)), np.ones((2, 4))), True),
    ((np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)), [[1.0, 1.0]] * 2), True),
], ids=["p-sizes", "log-rows", "three-coordinates", "log-a-stack", "complex", "qubit-stack", "classical-rows",
        "classical-list"])
def test_pauli_channel_construction_validates_its_triple(form, classical):
    # The Pauli form's (p, c, log c) in the carry (p, log p, c, log c): a qubit
    # channel is held only as real (sizeX, 4) rows, never as a stack, and a
    # classical one only as its table, each array a float64 ndarray.
    with pytest.raises(InvariantError, match=_CARRY):
        CQChannel(form, classical)


@pytest.mark.parametrize("kind", ["random", "pure", "maximally mixed"])
def test_pauli_channel_derives_the_stack_and_floored_log_of_its_spectra(kind):
    # Given the carry (p, log p, c, log c), the channel holds it as given and
    # the stack and floored log are the matrices of the coordinates; given the
    # stack, the carry is derived in closed form, p ascending.  Every array is
    # read-only, and the Pauli rows are a quantum channel's alone.
    gen = derive_rng(5, "pauli", kind)
    u = linalg.haar_unitary(gen.standard_normal((6, 2, 2)) + 1j * gen.standard_normal((6, 2, 2)))
    p = {"random": gen.dirichlet(np.ones(2), size=6), "pure": np.tile([1.0, 0.0], (6, 1)),
         "maximally mixed": np.full((6, 2), 0.5)}[kind]
    log_p = linalg.log_floor(p)
    sigma, log = linalg.from_eig(p, u), linalg.from_eig(log_p, u)
    carry = (p, log_p, linalg.to_pauli(sigma), linalg.to_pauli(log))
    chan = CQChannel(carry)
    assert (chan.classical, chan.size_x, chan.dim_t) == (False, 6, 2)
    assert all(a is b for a, b in zip(chan.carry, carry))
    assert np.abs(chan.sigma_t_given_x - sigma).max() <= 1e-15
    assert np.abs(linalg.from_pauli(chan.carry[3]) - log).max() <= 1e-13
    assert not any(a.flags.writeable for a in (chan.sigma_t_given_x, *chan.carry))
    chan.validate()
    dense = CQChannel(sigma)
    assert np.abs(dense.carry[0] - np.sort(p, axis=1)).max() <= 1e-15
    assert np.array_equal(dense.carry[1], linalg.log_floor(dense.carry[0]))
    assert np.abs(dense.carry[2] - chan.carry[2]).max() <= 1e-15
    assert np.abs(dense.carry[3] - chan.carry[3]).max() <= 1e-13
    assert not any(a.flags.writeable for a in dense.carry)
    with pytest.raises(InvariantError, match=_CARRY):
        CQChannel(chan.carry, classical=True)


def test_pauli_channel_validate_rejects_a_negative_eigenvalue():
    p = np.array([[-0.1, 1.1], [0.5, 0.5]])
    c = linalg.to_pauli(linalg.diag_embed(p))
    with pytest.raises(InvariantError, match=r"^sigma_t_given_x\[0\]: negative eigenvalue"):
        CQChannel((p, linalg.log_floor(p), c, c)).validate()


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
    assert table.carry is table.carry and not any(a.flags.writeable for a in table.carry)
    assert table.carry[2].tobytes() == dense.carry[2].tobytes()
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
    assert reference.von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    mixed = np.eye(3, dtype=complex) / 3
    assert abs(reference.von_neumann_entropy(mixed) - np.log(3)) < 1e-12


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


def _in_random_basis(spectrum, seed):
    u = random_unitary(3, derive_rng(seed, "basis"))
    return (u * np.asarray(spectrum)) @ np.conj(u.T)


@pytest.mark.parametrize("seed", range(5))
def test_relative_entropy_against_a_rank_one_sigma_in_a_random_basis(seed):
    # Two null directions, neither a standard basis vector.
    sigma = _in_random_basis([1.0, 0.0, 0.0], seed)
    d = model.relative_entropy(sigma, sigma)
    assert np.isfinite(d) and abs(d) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_relative_entropy_within_a_rank_two_support_in_a_random_basis(seed):
    # One null direction off the standard basis, which rho also leaves empty.
    rho = _in_random_basis([0.3, 0.7, 0.0], seed)
    sigma = _in_random_basis([0.6, 0.4, 0.0], seed)
    d = model.relative_entropy(rho, sigma)
    assert abs(d - (0.3 * np.log(0.3 / 0.6) + 0.7 * np.log(0.7 / 0.4))) < 1e-10


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("spectrum", [[1.0, 0.0, 0.0], [0.6, 0.4, 0.0]], ids=["rank-1", "rank-2"])
def test_relative_entropy_off_a_random_basis_support_is_infinite(seed, spectrum):
    rho = _in_random_basis([0.2, 0.3, 0.5], seed)
    with pytest.warns(RuntimeWarning, match="support"):
        assert model.relative_entropy(rho, _in_random_basis(spectrum, seed)) == np.inf


@pytest.mark.parametrize("seed", range(5))
def test_relative_entropy_reads_null_mass_orthogonal_to_the_all_ones_vector(seed):
    # rho = |w><w| with w the null direction v of sigma less its (1, 1, 1)
    # component: the overlap is |<v|w>|^2 > 0, where a contraction that sums
    # rows instead of taking the trace reads <v|rho|1> <1|v> = 0.
    v = random_unitary(3, derive_rng(seed, "basis"))[:, 2]
    w = v - v.sum() / 3
    w /= np.linalg.norm(w)
    rho = np.outer(w, np.conj(w))
    with pytest.warns(RuntimeWarning, match="support"):
        assert model.relative_entropy(rho, _in_random_basis([0.6, 0.4, 0.0], seed)) == np.inf


def test_relative_entropy_rejects_a_shape_mismatch():
    with pytest.raises(InvariantError, match=r"^shape mismatch in relative entropy: \(2, 2\) vs \(3, 3\)$"):
        model.relative_entropy(np.eye(2) / 2, np.eye(3) / 3)


def test_marginals_are_partial_traces_of_joint():
    state = random_cq_state(11)
    chan = random_channel_for(state, 3, 11)
    joint = reference.sigma_yt(chan, state)
    dims = (chan.dim_t, state.dim_y)
    st_marg = partial_trace(joint, dims, keep="first")
    ry_marg = partial_trace(joint, dims, keep="second")
    assert np.max(np.abs(st_marg - reference.sigma_t(chan, state))) < 1e-12
    assert np.max(np.abs(ry_marg - reference.rho_y(state))) < 1e-12
    assert abs(np.trace(joint).real - 1.0) < 1e-12


def test_joint_puts_t_factor_first():
    state = random_cq_state(12)
    tau = random_density(3, derive_rng(12, "tau"))
    chan = CQChannel(np.stack([tau] * state.size_x))
    joint = reference.sigma_yt(chan, state)
    assert np.max(np.abs(joint - np.kron(tau, reference.rho_y(state)))) < 1e-12


def test_mutual_informations_nonnegative_and_bounded():
    state = random_cq_state(13)
    chan = random_channel_for(state, 2, 13)
    i_tx = reference.mutual_info_tx(state, chan)
    i_ty = reference.mutual_info_ty(state, chan)
    assert i_tx >= -1e-10
    assert i_ty >= -1e-10
    # data processing through X: T sees Y only via X
    assert i_ty <= model.holevo_information(state) + 1e-9


def test_product_channel_carries_no_information():
    state = random_cq_state(14)
    tau = random_density(2, derive_rng(14, "tau"))
    chan = CQChannel(np.stack([tau] * state.size_x))
    assert abs(reference.mutual_info_tx(state, chan)) < 1e-10
    assert abs(reference.mutual_info_ty(state, chan)) < 1e-10
    h_tau = reference.von_neumann_entropy(tau)
    for alpha in (0.0, 0.5, 1.0):
        f = reference.objective_f_alpha(state, chan, alpha, 3.0)
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
    assert reference.channel_divergence(chan, chan, state) < 1e-10
    assert reference.channel_divergence(chan, other, state) > 1e-6


def test_channel_divergence_rejects_differing_t_dimensions():
    state = random_cq_state(15)
    with pytest.raises(InvariantError, match="^channels act on different T dimensions: 2 vs 3$"):
        reference.channel_divergence(random_channel_for(state, 2, 15), random_channel_for(state, 3, 15), state)


def test_reference_rejects_a_channel_of_another_size_x():
    state = random_cq_state(15, size_x=3)
    chan = random_channel_for(random_cq_state(15, size_x=2), 2, 15)
    with pytest.raises(InvariantError, match="^state has sizeX 3 but channel has 2$"):
        reference.sigma_t(chan, state)


def test_channel_divergence_skips_symbols_of_zero_probability():
    # At x = 1 the divergence is infinite, but P(1) = 0 leaves it out.
    rho = np.stack([np.eye(2, dtype=complex) / 2] * 2)
    state = CQState(np.array([1.0, 0.0]), rho)
    p = np.diag([0.2, 0.8]).astype(complex)
    chan = CQChannel(np.stack([p, np.eye(2) / 2]))
    other = CQChannel(np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])]))
    want = model.relative_entropy(p, np.eye(2) / 2)
    assert reference.channel_divergence(chan, other, state) == want


def test_maximally_mixed_channel_is_valid():
    chan = model.maximally_mixed_channel(3, 4, classical=True)
    chan.validate()
    assert chan.dim_t == 3 and chan.size_x == 4
    for dim_t, size_x in ((0, 4), (3, 0)):
        with pytest.raises(InvariantError, match=f"^dim_t and size_x must be >= 1, got {dim_t}, {size_x}$"):
            model.maximally_mixed_channel(dim_t, size_x)


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

