"""Dense Hermitian matrix calculus: spectral decompositions, the floored
logarithm, entropy of a spectrum, density checks and Haar unitaries.

``eig_hermitian`` owns Hermiticity: it reads the Hermitian matrix of the lower
triangle, so callers pass their matrices on as computed, never symmetrized.
``eig_lift`` maps values f(w) on a stack's eigenvalues to the matrix function
f(H).  Stacks of 2 x 2 matrices take closed forms, elementwise over the
stack: ``eig_hermitian`` calls no LAPACK, and ``eig_lift`` asks it for
eigenvalues only, so ``floored_log`` and the solver's update at dimT = 2
build no eigenvectors.

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


def diag_embed(diags: np.ndarray) -> np.ndarray:
    """Stack of diagonal matrices out[x] = diag(diags[x])."""
    diags = np.asarray(diags)
    n, k = diags.shape
    out = np.zeros((n, k, k), dtype=np.complex128)
    out.reshape(n, -1)[:, :: k + 1] = diags
    return out


def _eig2(h: np.ndarray, vectors: bool):
    """Closed form for a finite (..., 2, 2) stack.  With H - mean I = radius
    [[cos t, e^{-i phi} sin t], ...], the top eigenvector is (cos t/2,
    e^{i phi} sin t/2) up to phase: the larger half-angle factor comes from a
    square root, the other from sin t = 2 cos(t/2) sin(t/2); neither cancels."""
    a, c, b = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 1, 0]
    mean, half = 0.5 * a + 0.5 * c, 0.5 * a - 0.5 * c
    radius = np.hypot(half, np.abs(b))
    w = np.empty(h.shape[:-1])
    w[..., 0], w[..., 1] = mean - radius, mean + radius
    if not vectors:
        return w
    safe = np.where(radius > 0, radius, 1.0)  # radius 0 keeps the standard basis
    big = np.sqrt(0.5 + 0.5 * np.where(radius > 0, np.abs(half) / safe, 1.0))
    small = b / (2.0 * safe * big)
    x, y = np.where(half >= 0, big, np.conj(small)), np.where(half >= 0, small, big)
    v = np.empty(h.shape, dtype=y.dtype)
    v[..., 0, 0], v[..., 0, 1], v[..., 1, 0], v[..., 1, 1] = -np.conj(y), x, np.conj(x), y
    return w, v


def eig_hermitian(h: np.ndarray, vectors: bool = True):
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix (stacked OK), or
    ``w`` alone when not ``vectors``.

    Eigenvalues ascend; eigenvectors are orthonormal columns, so
    ``H = V diag(w) V^H`` per stack element.  2 x 2 matrices are solved in
    closed form, larger ones by LAPACK; both read the lower triangle.  Raises
    NumericalError on non-finite input, or if LAPACK fails to converge.
    """
    h = np.asarray(h)
    if not np.all(np.isfinite(h)):
        raise NumericalError(f"eigensolver input of shape {h.shape} is not finite")
    if h.shape[-2:] == (2, 2):
        return _eig2(h, vectors)
    try:
        return tuple(np.linalg.eigh(h)) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on shape {h.shape}: {exc}") from exc


def from_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``V diag(w) V^H`` per stack element, the inverse of ``eig_hermitian``."""
    return (v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def eig_lift(h: np.ndarray):
    """Eigenvalues ``w`` of a Hermitian matrix (stacked OK), ascending, and
    ``lift``, which maps the values f(w) of any function on them to f(H):
    V f(w) V^H, or on 2 x 2 stacks Sylvester's formula from w alone, f(H) =
    (f0 + f1)/2 I + (f1 - f0)/(w1 - w0) (H - (w0 + w1)/2 I), slope 0 where
    w0 = w1, exactly Hermitian with a real diagonal.  That slope is accurate
    for f Lipschitz on the gap's scale; an indicator (a projector) is not."""
    if h.shape[-2:] != (2, 2):
        w, v = eig_hermitian(h)
        return w, lambda fw: from_eig(fw, v)
    w = eig_hermitian(h, vectors=False)
    half, b, gap = 0.5 * h[..., 0, 0].real - 0.5 * h[..., 1, 1].real, h[..., 1, 0], w[..., 1] - w[..., 0]

    def lift(fw: np.ndarray) -> np.ndarray:
        f0, f1 = fw[..., 0], fw[..., 1]
        slope = np.divide(f1 - f0, gap, out=np.zeros(gap.shape), where=gap > 0)
        mid, tilt = 0.5 * f0 + 0.5 * f1, slope * half
        out = np.empty(h.shape, dtype=np.result_type(fw, h))
        out[..., 0, 0], out[..., 1, 1], out[..., 1, 0] = mid + tilt, mid - tilt, slope * b
        out[..., 0, 1] = np.conj(out[..., 1, 0])
        return out

    return w, lift


def log_floor(w: np.ndarray) -> np.ndarray:
    """log(max(w, LOG_FLOOR)) elementwise, the one place the floor is applied:
    null directions of a singular density get log(LOG_FLOOR), not -inf."""
    return np.log(np.maximum(w, LOG_FLOOR))


def floored_log(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``w`` of a Hermitian matrix (stacked OK) and its log
    ``V log_floor(w) V^H``, lifted by ``eig_lift``."""
    w, lift = eig_lift(h)
    return w, lift(log_floor(w))


def entropy(w: np.ndarray) -> np.ndarray:
    """Entropy in nats over the last axis of eigenvalue vectors; eigenvalues
    not above zero (round-off below it included) add nothing, 0 log 0 = 0."""
    w = np.asarray(w, dtype=np.float64)
    return -np.sum(np.where(pos := w > 0, w * np.log(np.where(pos, w, 1.0)), 0.0), axis=-1)


def check_density(m: np.ndarray, label: str = "matrix") -> None:
    """Validate a density operator, or a ``(..., d, d)`` stack of them:
    Hermitian, unit trace within DENSITY_TRACE_TOL, PSD up to
    -DENSITY_EIG_TOL.

    Raises InvariantError naming the first failing matrix (``label``, or
    ``label[x]`` in a stack) and the first of these properties it violates.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvariantError(f"{label}: expected a square matrix, got shape {m.shape}")
    flat = m.reshape((-1,) + m.shape[-2:])
    # inf - inf on an infinite diagonal entry is a NaN residual, not a warning.
    with np.errstate(invalid="ignore"):
        res = np.max(np.abs(flat - np.conj(np.swapaxes(flat, -1, -2))), axis=(1, 2), initial=0.0)
    tr = np.trace(flat, axis1=1, axis2=2)
    # Every comparison is phrased so that a NaN residual fails it.
    ok = (res <= HERMITICITY_TOL) & (np.abs(tr - 1.0) <= DENSITY_TRACE_TOL)
    wmin = np.full(len(flat), np.nan)
    wmin[ok] = eig_hermitian(flat[ok], vectors=False)[:, 0]
    bad = np.flatnonzero(~(wmin >= -DENSITY_EIG_TOL))
    if not bad.size:
        return
    i = bad[0]
    label += "".join(f"[{k}]" for k in np.unravel_index(i, m.shape[:-2]))
    if not res[i] <= HERMITICITY_TOL:
        raise InvariantError(f"{label}: not Hermitian (residual {res[i]:.3e})")
    if not ok[i]:
        raise InvariantError(
            f"{label}: trace {tr[i].real:.12g} deviates from 1 beyond {DENSITY_TRACE_TOL:.1e}"
        )
    raise InvariantError(f"{label}: negative eigenvalue {wmin[i]:.3e} below -{DENSITY_EIG_TOL:.1e}")


def haar_unitary(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitary from a complex Gaussian matrix (stacked OK)."""
    q, r = np.linalg.qr(z)
    # Fix the phase ambiguity so the distribution is exactly Haar.
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
