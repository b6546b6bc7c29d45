"""Dense Hermitian matrix calculus: Hermitian projection, spectral
decompositions, the floored logarithm, entropy of a spectrum, density
checks and random densities.

All functions accept stacked operands: an array of shape ``(..., d, d)`` is
treated as a batch of ``d x d`` matrices and the result keeps the leading
axes.  Natural logarithms throughout; entropic quantities downstream are in
nats.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvariantError, NumericalError

HERMITICITY_TOL = 1e-10
DENSITY_EIG_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-9
LOG_FLOOR = 1e-12


def hermitize(m: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (M + M^H)/2.

    The result is forced into C order: for large stacks numpy may lay the
    sum out with the last two axes swapped, and downstream code that takes
    reshape views of the output would silently operate on copies.
    """
    m = np.asarray(m)
    return np.ascontiguousarray(0.5 * (m + np.conj(np.swapaxes(m, -1, -2))))


def diag_embed(diags: np.ndarray, dtype=np.complex128) -> np.ndarray:
    """Stack of diagonal matrices out[x] = diag(diags[x])."""
    diags = np.asarray(diags)
    n, k = diags.shape
    out = np.zeros((n, k, k), dtype=dtype)
    out.reshape(n, -1)[:, :: k + 1] = diags
    return out


def hermiticity_residual(m: np.ndarray) -> float:
    """Max absolute entry of M - M^H over the whole stack."""
    m = np.asarray(m)
    d = m - np.conj(np.swapaxes(m, -1, -2))
    return float(np.max(np.abs(d))) if d.size else 0.0


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix (stacked OK).

    Eigenvalues ascend; eigenvectors are orthonormal columns, so
    ``H = V diag(w) V^H`` per stack element.  Raises
    NumericalError with the hermiticity residual if LAPACK fails to
    converge, which in practice means the input was far from Hermitian.
    """
    h = np.asarray(h)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed on shape {h.shape}: {exc}; "
            f"hermiticity residual {hermiticity_residual(h):.3e}"
        ) from exc
    return w, v


def floored_log(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigensystem ``(w, v)`` of a Hermitian matrix (stacked OK) and its log
    ``V log(max(w, LOG_FLOOR)) V^H``, the one place the floor is applied:
    null directions of a singular density get log(LOG_FLOOR), not -inf."""
    w, v = eig_hermitian(h)
    log_w = np.log(np.maximum(w, LOG_FLOOR))
    return w, v, np.einsum("...ij,...j,...kj->...ik", v, log_w, np.conj(v), optimize=True)


def entropy(w: np.ndarray) -> np.ndarray:
    """Entropy in nats over the last axis of eigenvalue vectors, with
    eigenvalues clipped at zero and 0 log 0 = 0."""
    w = np.clip(np.asarray(w, dtype=np.float64), 0.0, None)
    return -np.sum(np.where(w > 0, w * np.log(np.where(w > 0, w, 1.0)), 0.0), axis=-1)


def check_density(
    m: np.ndarray,
    eig_tol: float = DENSITY_EIG_TOL,
    trace_tol: float = DENSITY_TRACE_TOL,
    label: str = "matrix",
) -> None:
    """Validate a density operator: Hermitian, PSD up to -eig_tol, unit trace.

    Raises InvariantError naming the violated property and ``label``.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvariantError(f"{label}: expected a square matrix, got shape {m.shape}")
    # Every comparison is phrased so that a NaN residual fails it.
    res = hermiticity_residual(m)
    if not res <= HERMITICITY_TOL:
        raise InvariantError(f"{label}: not Hermitian (residual {res:.3e})")
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= trace_tol:
        raise InvariantError(f"{label}: trace {tr.real:.12g} deviates from 1 beyond {trace_tol:.1e}")
    w = np.linalg.eigvalsh(hermitize(m))
    wmin = float(w[0])
    if not wmin >= -eig_tol:
        raise InvariantError(f"{label}: negative eigenvalue {wmin:.3e} below -{eig_tol:.1e}")


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # Fix the phase ambiguity so the distribution is exactly Haar.
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def random_density(dim: int, rng: np.random.Generator, classical: bool = False) -> np.ndarray:
    """Random density matrix: flat-Dirichlet spectrum, Haar eigenbasis.

    With ``classical`` the matrix is diagonal in the computational basis.
    """
    p = rng.dirichlet(np.ones(dim))
    if classical:
        return np.diag(p).astype(np.complex128)
    u = random_unitary(dim, rng)
    return (u * p) @ np.conj(u.T)
