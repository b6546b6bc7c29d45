"""Shared builders and independent oracles for the test suite."""

import numpy as np

from qib import engine, linalg
from qib.exceptions import InvariantError, NumericalError
from qib.linalg import LOG_FLOOR, eig_hermitian, haar_unitary
from qib.model import CQChannel, CQState
from qib.rng import derive_rng

EXP_OVERFLOW = 700.0


def symmetrize(m):
    """Hermitian part (M + M^H)/2 (stacked OK), for references only: the
    package passes matrices on as computed and reads their lower triangle."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def random_unitary(dim, gen):
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    return haar_unitary(gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim)))


def random_density(dim, gen):
    """Random density matrix: flat-Dirichlet spectrum, Haar eigenbasis."""
    p = gen.dirichlet(np.ones(dim))
    u = random_unitary(dim, gen)
    return (u * p) @ np.conj(u.T)


def random_diagonal_density(dim, gen):
    """Diagonal density with a flat-Dirichlet spectrum: the spectrum draw of
    ``random_density`` without its eigenbasis."""
    return np.diag(gen.dirichlet(np.ones(dim))).astype(np.complex128)


def random_densities(dim, count, gen, classical=False):
    """``count`` draws of ``random_density`` (``random_diagonal_density``
    when classical) one after another: the per-x reference for the batched
    draws of ``engine.random_channel``."""
    draw = random_diagonal_density if classical else random_density
    return np.stack([draw(dim, gen) for _ in range(count)])


def random_cq_state(seed, size_x=None, dim_y=None, classical=False, tag="state"):
    """Seeded random source; sizes drawn when not pinned."""
    gen = derive_rng(seed, tag)
    if size_x is None:
        size_x = int(gen.integers(2, 6))
    if dim_y is None:
        dim_y = int(gen.integers(2, 4))
    px = gen.dirichlet(np.ones(size_x))
    return CQState(px, random_densities(dim_y, size_x, gen, classical))


def random_channel_for(state, dim_t, seed, classical=False, tag="chan"):
    mats = random_densities(dim_t, state.size_x, derive_rng(seed, tag), classical)
    return CQChannel(mats, classical=classical)


def sparse_table_instance(seed, classical_rho):
    """Source and classical channel table with zeros in P_X and in q[x, t]
    (every row keeps its largest entry) and dimT > dimY."""
    gen = derive_rng(seed, "sparse-table")
    size_x, dim_y = int(gen.integers(2, 6)), int(gen.integers(2, 4))
    dim_t = dim_y + int(gen.integers(1, 3))
    px = gen.dirichlet(np.ones(size_x))
    px[gen.integers(size_x)] = 0.0
    rhos = random_densities(dim_y, size_x, gen, classical_rho)
    q = gen.dirichlet(np.ones(dim_t), size=size_x)
    q[(gen.random(q.shape) < 0.3) & (q < q.max(axis=1)[:, None])] = 0.0
    return CQState(px / px.sum(), rhos), q / q.sum(axis=1)[:, None]


def random_hermitian(dim, gen, scale=1.0):
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return scale * (a + np.conj(a.T)) / 2.0


def charpoly_eigenvalues(h):
    """Eigenvalues via Faddeev-LeVerrier coefficients and polynomial roots.

    Independent of any LAPACK eigensolver: the characteristic polynomial
    is built from traces of matrix powers alone, then handed to np.roots.
    Accurate to ~1e-8 for well separated spectra at small dimension.
    """
    h = np.asarray(h, dtype=np.complex128)
    n = h.shape[0]
    coeffs = np.empty(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    m = np.zeros_like(h)
    eye = np.eye(n, dtype=np.complex128)
    for k in range(1, n + 1):
        m = h @ m + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(h @ m) / k
    return np.sort(np.roots(coeffs).real)


def assert_valid_density(mat, tol=1e-9):
    mat = np.asarray(mat)
    assert np.max(np.abs(mat - np.conj(mat.T))) < tol
    assert abs(np.trace(mat).real - 1.0) < tol
    assert np.linalg.eigvalsh(mat).min() > -tol


def shannon(p):
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def _spectral(fn, w, v):
    """V f(w) V^H, written out here so the oracles share no code with qib."""
    return (v * fn(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def matrix_log_supported(rho, floor=LOG_FLOOR):
    """Matrix logarithm with eigenvalues clamped below at ``floor``.

    Keeps log well defined on rank-deficient density operators: eigenvalues
    under the floor contribute log(floor) rather than -inf.
    """
    if floor <= 0:
        raise InvariantError(f"log floor must be positive, got {floor}")
    w, v = eig_hermitian(rho)
    return _spectral(lambda x: np.log(np.maximum(x, floor)), w, v)


def matrix_exp(h):
    """Matrix exponential of a Hermitian matrix via its eigensystem.

    Raises NumericalError if any eigenvalue exceeds 700 (exp would
    overflow float64).
    """
    w, v = eig_hermitian(h)
    wmax = float(np.max(w)) if w.size else 0.0
    if wmax > EXP_OVERFLOW:
        raise NumericalError(
            f"matrix_exp overflow: max eigenvalue {wmax:.6g} exceeds {EXP_OVERFLOW:g}"
        )
    return _spectral(np.exp, w, v)


def eigenvector_step(gamma):
    """The soft update of ``engine.run_qib`` through the eigenvectors of its
    exponent, the oracle of the eigenvalue-only update: LAPACK's (w, V), the
    spectra p = softmax(w), and the carry (p, V p V^H, V log_floor(p) V^H)."""

    def step(cur):
        w, v = np.linalg.eigh(cur.log_mats - cur.f_family / gamma)
        shifted = np.exp(w - w[:, -1:])
        p = shifted / shifted.sum(axis=1, keepdims=True)
        return p, _spectral(lambda _: p, w, v), _spectral(lambda _: np.log(np.maximum(p, LOG_FLOOR)), w, v)

    return step


def partial_trace(m, dims, keep="first"):
    """Trace out one factor of an operator on a bipartite space.

    ``dims = (d1, d2)`` with the first factor leading (total dimension
    d1*d2); ``keep`` selects which factor survives.  Stacked inputs keep
    their leading axes.
    """
    m = np.asarray(m)
    d1, d2 = dims
    if d1 <= 0 or d2 <= 0:
        raise InvariantError(f"factor dimensions must be positive, got {dims}")
    if m.shape[-1] != d1 * d2 or m.shape[-2] != d1 * d2:
        raise InvariantError(
            f"operator of shape {m.shape} does not factor as ({d1}*{d2}, {d1}*{d2})"
        )
    r = m.reshape(m.shape[:-2] + (d1, d2, d1, d2))
    if keep == "first":
        return np.einsum("...ijkj->...ik", r)
    if keep == "second":
        return np.einsum("...ijil->...jl", r)
    raise InvariantError(f"keep must be 'first' or 'second', got {keep!r}")


def projected_step_loop(fam, mats):
    """The deterministic step one x at a time: the reference for the stacked
    ``project`` of ``engine``'s stack analysis, with the same P/rank(P) fallback."""
    out = np.empty_like(mats)
    vanished = []
    for x in range(mats.shape[0]):
        proj = linalg.min_eigenspace_projector(fam[x])
        comp = proj @ mats[x] @ proj
        overlap = float(np.trace(comp).real)
        if overlap <= engine.OVERLAP_TOL:
            vanished.append(x)
            out[x] = proj / float(np.trace(proj).real)
        else:
            out[x] = comp / overlap
    return symmetrize(out), vanished


def dual_ridge_scores(train, labels, queries, num_classes, ridge):
    """One-vs-rest kernel ridge in its dual form, the oracle of the
    feature-space classifier: the n x n Gram matrix Tr[A_i B_j] of stacked
    features (dot products of rows), the n x n solve (G + ridge I) a_c = z_c
    with z_c = +/-1 per class, offsets b_c the mean residuals.  Returns the
    (m, C) class scores of ``queries``."""

    def gram(a, b):
        return a @ b.T if a.ndim == 2 else np.einsum("aij,bji->ab", a, b).real

    z = np.where(np.arange(num_classes)[None, :] == np.asarray(labels)[:, None], 1.0, -1.0)
    g = gram(train, train)
    coef = np.linalg.solve(g + ridge * np.eye(len(train)), z)
    return gram(queries, train) @ coef + np.mean(z - g @ coef, axis=0)
