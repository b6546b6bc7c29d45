"""Hermitian calculus: decompositions, density checks, random densities;
plus the log/exp/partial-trace oracles kept in the test helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qib import linalg
from qib.exceptions import InvariantError, NumericalError
from qib.rng import derive_rng

from helpers import (
    charpoly_eigenvalues,
    matrix_exp,
    matrix_log_supported,
    partial_trace,
    random_hermitian,
)


@given(st.integers(0, 200), st.integers(2, 5))
def test_eig_hermitian_reconstructs(seed, dim):
    gen = derive_rng(seed, "eig")
    h = random_hermitian(dim, gen)
    w, v = linalg.eig_hermitian(h)
    assert np.all(np.diff(w) >= 0)
    rebuilt = v @ np.diag(w) @ np.conj(v.T)
    assert np.max(np.abs(rebuilt - h)) < 1e-10
    gram = np.conj(v.T) @ v
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-10


@pytest.mark.parametrize("seed", range(25))
def test_eigenvalues_match_characteristic_polynomial(seed):
    # independent oracle: trace-recursion coefficients + np.roots
    gen = derive_rng(seed, "charpoly")
    dim = int(gen.integers(2, 5))
    h = random_hermitian(dim, gen)
    w, _ = linalg.eig_hermitian(h)
    ref = charpoly_eigenvalues(h)
    assert np.max(np.abs(w - ref)) < 1e-7


def test_eig_hermitian_stacked_matches_loop():
    gen = derive_rng(3, "stack")
    hs = np.stack([random_hermitian(3, gen) for _ in range(5)])
    w, v = linalg.eig_hermitian(hs)
    assert w.shape == (5, 3)
    for i in range(5):
        wi, _ = linalg.eig_hermitian(hs[i])
        assert np.max(np.abs(w[i] - wi)) < 1e-12


def test_matrix_log_exp_roundtrip():
    gen = derive_rng(0, "roundtrip")
    h = random_hermitian(4, gen)
    assert np.max(np.abs(matrix_log_supported(matrix_exp(h)) - h)) < 1e-9
    rho = linalg.random_density(4, gen)
    back = matrix_exp(matrix_log_supported(rho))
    assert np.max(np.abs(back - rho)) < 1e-9


def test_matrix_log_floors_null_directions():
    rho = np.diag([1.0, 0.0]).astype(complex)
    for log in (matrix_log_supported(rho), linalg.floored_log(rho)[2]):
        w = np.sort(np.linalg.eigvalsh(log))
        assert abs(w[1]) < 1e-12
        assert abs(w[0] - np.log(1e-12)) < 1e-9


def test_matrix_exp_overflow_guard():
    with pytest.raises(NumericalError):
        matrix_exp(np.diag([800.0, 0.0]).astype(complex))


@pytest.mark.parametrize("da,db", [(2, 3), (3, 2), (2, 2)])
def test_partial_trace_of_product(da, db):
    gen = derive_rng(da * 10 + db, "ptrace")
    a = linalg.random_density(da, gen)
    b = linalg.random_density(db, gen)
    m = np.kron(a, b)
    assert np.max(np.abs(partial_trace(m, (da, db), keep="first") - a)) < 1e-12
    assert np.max(np.abs(partial_trace(m, (da, db), keep="second") - b)) < 1e-12


def test_partial_trace_preserves_trace_and_is_linear():
    gen = derive_rng(9, "ptrace-lin")
    m1 = random_hermitian(6, gen)
    m2 = random_hermitian(6, gen)
    for keep in ("first", "second"):
        t1 = partial_trace(m1, (2, 3), keep=keep)
        assert abs(np.trace(t1) - np.trace(m1)) < 1e-12
        combo = partial_trace(2.0 * m1 - 0.5 * m2, (2, 3), keep=keep)
        ref = 2.0 * t1 - 0.5 * partial_trace(m2, (2, 3), keep=keep)
        assert np.max(np.abs(combo - ref)) < 1e-12


def test_check_density_rejects_bad_matrices():
    good = np.diag([0.5, 0.5]).astype(complex)
    linalg.check_density(good)
    with pytest.raises(InvariantError, match="trace"):
        linalg.check_density(2.0 * good)
    with pytest.raises(InvariantError, match="mylabel"):
        linalg.check_density(np.diag([1.5, -0.5]).astype(complex), label="mylabel")
    skew = good.copy()
    skew[0, 1] = 0.3
    with pytest.raises(InvariantError):
        linalg.check_density(skew)
    for bad in (np.nan, np.inf):
        poisoned = good.copy()
        poisoned[1, 1] = bad
        with pytest.raises(InvariantError, match="not Hermitian"):
            linalg.check_density(poisoned)
    # A stack names its first failing matrix, with the same checks in order.
    stack = np.stack([good] * 4)
    linalg.check_density(stack, label="s")
    for bad, message in (
        (skew, "not Hermitian"),
        (2.0 * good, "trace"),
        (np.diag([1.5, -0.5]), "negative eigenvalue"),
        (poisoned, "not Hermitian"),
    ):
        broken = stack.copy()
        broken[2] = bad
        broken[3] = 2.0 * good
        with pytest.raises(InvariantError, match=rf"^s\[2\]: {message}"):
            linalg.check_density(broken, label="s")


def test_random_unitary_is_unitary_and_seeded():
    u1 = linalg.random_unitary(4, derive_rng(7, "u"))
    u2 = linalg.random_unitary(4, derive_rng(7, "u"))
    assert np.array_equal(u1, u2)
    assert np.max(np.abs(np.conj(u1.T) @ u1 - np.eye(4))) < 1e-12


@pytest.mark.parametrize("classical", [False, True])
def test_random_density_is_valid(classical):
    rho = linalg.random_density(3, derive_rng(2, "rho"), classical=classical)
    linalg.check_density(rho)
    if classical:
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0


def test_hermitize_projects_and_is_idempotent():
    gen = derive_rng(5, "herm")
    a = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    h = linalg.hermitize(a)
    assert linalg.hermiticity_residual(h) < 1e-15
    assert np.max(np.abs(linalg.hermitize(h) - h)) == 0.0


def test_hermitize_output_is_c_contiguous_for_large_stacks():
    # Regression: numpy can lay out the symmetrized sum with the last two
    # axes swapped on big stacks, and reshape views of such output silently
    # turn into copies downstream.
    gen = derive_rng(6, "herm-big")
    big = gen.normal(size=(20, 100, 100)) + 1j * gen.normal(size=(20, 100, 100))
    out = linalg.hermitize(big)
    assert out.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("dim", [3, 100])
def test_diag_embed_reconstructs_diagonals(dim):
    gen = derive_rng(dim, "embed")
    d = gen.random((7, dim))
    out = linalg.diag_embed(d)
    assert out.shape == (7, dim, dim)
    assert out.flags["C_CONTIGUOUS"]
    for i in range(7):
        assert np.array_equal(out[i], np.diag(d[i]).astype(np.complex128))
