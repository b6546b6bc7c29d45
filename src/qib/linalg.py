"""Dense Hermitian matrix calculus: spectral decompositions, the floored
logarithm, entropy of a spectrum, trace rows, Pauli coordinates, projectors,
density checks, Haar unitaries.

``eig_hermitian`` owns Hermiticity: it reads the Hermitian matrix of the lower
triangle, so callers pass their matrices on as computed, never symmetrized.
``eig_lift`` maps values f(w) on a stack's eigenvalues to the matrix function
f(H).  Eigenvalue-only calls may take a closed form: on stacks of 2 x 2
matrices, mean +- radius, elementwise over the stack.  Every call that asks
for eigenvectors goes to LAPACK, so the eigenvalues of the two calls may
differ in the last bits, as those of ``eigh`` and ``eigvalsh`` do at larger
sizes.  ``eig_lift`` asks for eigenvalues only on 2 x 2 stacks, so
``floored_log`` builds no eigenvectors there (a classical channel's joint
blocks at dimY = 2); one 2 x 2 matrix (rho_Y of a qubit source, the qubit
joint at dimY = 1) takes the same formulas in Python floats.  Qubit
operators have orthonormal Pauli coordinates (``to_pauli``,
``from_pauli``), real rows in which Tr[A B] is a dot product and the
spectrum and floored log come in closed form (``pauli_floored_log``,
``pauli_of``): the solver's qubit form, which reads sigma_T's spectrum off
its coordinates, not through the 2 x 2 path above.  ``haar_unitary``
orthonormalizes by LAPACK's QR.

All functions accept stacked operands: an array of shape ``(..., d, d)`` is
treated as a batch of ``d x d`` matrices and the result keeps the leading
axes.  Natural logarithms throughout; entropic quantities downstream are in
nats.
"""

from __future__ import annotations

import cmath
import contextlib
import ctypes
import functools
import math
import threading

import numpy as np

from .exceptions import InvariantError, NumericalError

HERMITICITY_TOL = 1e-10
DENSITY_EIG_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-9
LOG_FLOOR = 1e-12
PROJECTOR_REL_TOL = 1e-9


def diag_embed(diags: np.ndarray) -> np.ndarray:
    """Stack of diagonal matrices out[x] = diag(diags[x])."""
    diags = np.asarray(diags)
    n, k = diags.shape
    out = np.zeros((n, k, k), dtype=np.complex128)
    out.reshape(n, -1)[:, :: k + 1] = diags
    return out


def _eig2(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues mean -+ radius of a finite (..., 2, 2) stack."""
    a, c = 0.5 * h[..., 0, 0].real, 0.5 * h[..., 1, 1].real
    mean, radius = a + c, np.hypot(a - c, np.abs(h[..., 1, 0]))
    w = np.empty(h.shape[:-1])
    np.subtract(mean, radius, out=w[..., 0])
    np.add(mean, radius, out=w[..., 1])
    return w


def eig_hermitian(h: np.ndarray, vectors: bool = True):
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix (stacked OK), or
    ``w`` alone when not ``vectors``.

    Eigenvalues ascend; eigenvectors are orthonormal columns, so
    ``H = V diag(w) V^H`` per stack element.  The eigenvalues alone of 2 x 2
    matrices come in closed form; every other call goes to LAPACK, so a 2 x 2
    call's ``w`` may differ from the closed form's in the last bits.  Both
    read the lower triangle.  Raises NumericalError on non-finite input, or
    if LAPACK fails to converge.
    """
    h = np.asarray(h)
    if not np.all(np.isfinite(h)):
        raise NumericalError(f"eigensolver input of shape {h.shape} is not finite")
    if not vectors and h.shape[-2:] == (2, 2):
        return _eig2(h)
    try:
        return tuple(np.linalg.eigh(h)) if vectors else np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on shape {h.shape}: {exc}") from exc


def from_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``V diag(w) V^H`` per stack element, the inverse of ``eig_hermitian``."""
    return (v * w[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def min_eigenspace_projector(h: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the minimal eigenspace of a Hermitian
    matrix (stacked OK).

    Eigenvalues within PROJECTOR_REL_TOL * (spread) of the minimum count as tied and
    are kept, so a multiple of the identity yields the full identity.  ``h`` is
    read through its lower triangle; the projector is Hermitian up to round-off.
    """
    w, v = eig_hermitian(h)
    window = w[..., :1] + PROJECTOR_REL_TOL * (w[..., -1:] - w[..., :1])
    keep = w <= window  # a prefix of the columns, since w ascends
    k = int(keep.sum(axis=-1).max())
    return from_eig(keep[..., :k].astype(np.float64), v[..., :k])


def eig_lift(h: np.ndarray):
    """Eigenvalues ``w`` of a Hermitian matrix (stacked OK), ascending, and
    ``lift``, which maps the values f(w) of any function on them to f(H):
    V f(w) V^H, or on 2 x 2 stacks Sylvester's formula from w alone, f(H) =
    (f0 + f1)/2 I + (f1 - f0)/(w1 - w0) (H - (w0 + w1)/2 I), slope 0 where
    w0 = w1, exactly Hermitian with a real diagonal; on a stack, ``fw`` may
    hold several f on leading axes of its own.  That slope is accurate for f
    Lipschitz on the gap's scale; an indicator (a projector) is not."""
    if h.shape == (2, 2):
        return _eig_lift_one(h)
    if h.shape[-2:] != (2, 2):
        w, v = eig_hermitian(h)
        return w, lambda fw: from_eig(fw, v)
    w = eig_hermitian(h, vectors=False)
    half, b, gap = 0.5 * h[..., 0, 0].real - 0.5 * h[..., 1, 1].real, h[..., 1, 0], w[..., 1] - w[..., 0]

    def lift(fw: np.ndarray) -> np.ndarray:
        f0, f1 = fw[..., 0], fw[..., 1]
        slope = np.divide(f1 - f0, gap, out=np.zeros(f0.shape), where=gap > 0)
        mid, tilt = 0.5 * f0 + 0.5 * f1, slope * half
        out = np.empty(f0.shape + (2, 2), dtype=np.result_type(fw, h))
        out[..., 0, 0], out[..., 1, 1], out[..., 1, 0] = mid + tilt, mid - tilt, slope * b
        out[..., 0, 1] = np.conj(out[..., 1, 0])
        return out

    return w, lift


def _eig_lift_one(h: np.ndarray):
    """``eig_lift`` of one 2 x 2 matrix in Python floats, where numpy's per-call
    cost is the work: the stacked formulas, but Python's hypot."""
    entries = h.tolist()
    if not all(map(cmath.isfinite, entries[0] + entries[1])):
        raise NumericalError(f"eigensolver input of shape {h.shape} is not finite")
    (a, _), (b, c) = entries
    a, c = 0.5 * a.real, 0.5 * c.real
    half, mean, radius = a - c, a + c, math.hypot(a - c, abs(b))
    w0, w1 = mean - radius, mean + radius
    gap = w1 - w0

    def lift(fw: np.ndarray) -> np.ndarray:
        f0, f1 = fw.tolist()
        slope = (f1 - f0) / gap if gap > 0 else 0.0
        mid, tilt, off = 0.5 * f0 + 0.5 * f1, slope * half, slope * b
        return np.array([[mid + tilt, off.conjugate()], [off, mid - tilt]], dtype=np.result_type(fw, h))

    return np.array([w0, w1]), lift


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
    """Entropy in nats over the last axis of eigenvalue vectors, by ``np.sum``, whose order
    the bits of every spectrum's entropy follow (not a table's rows: the engine reads those
    off their floored log); values not above zero count as 1: 1 log 1 = 0 log 0 = 0."""
    m = np.where(w > 0, w, 1.0)
    terms = m * np.log(m)
    # A pair is summed as np.sum sums it, without its per-row cost on a short axis.
    return -(terms[..., 0] + terms[..., 1]) if w.shape[-1] == 2 else -np.sum(terms, axis=-1)


def rows(m: np.ndarray) -> np.ndarray:
    """Real rows with dot products Re Tr[A B] = Re sum_ij a_ij conj(b_ij), A or B
    Hermitian: an (n, d, d) stack's entries as (re, im) pairs; a table as it is."""
    return m if m.ndim == 2 else m.reshape(len(m), -1).view(np.float64)


SQRT2 = math.sqrt(2.0)
# sigma_mu / sqrt2 for sigma_0 = I and the Pauli matrices: an orthonormal basis of
# the 2 x 2 Hermitian matrices under Tr[A B].
PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]) / SQRT2
# From a 2 x 2 stack's ``rows`` to Pauli coordinates, reading the lower triangle.
_TO_PAULI = np.zeros((4, 8))
_TO_PAULI[[0, 0, 3, 3], [0, 6, 0, 6]] = np.array([1, 1, 1, -1]) / SQRT2
_TO_PAULI[[1, 2], [4, 5]] = SQRT2
# From Pauli coordinates to a stack's entries as (re, im) pairs.
_FROM_PAULI = PAULI.reshape(4, 4).view(np.float64)


def to_pauli(m: np.ndarray) -> np.ndarray:
    """Pauli coordinates c_mu = Tr[M sigma_mu] / sqrt2 (sigma_0 = I) of an (n, 2, 2)
    Hermitian stack, read through its lower triangle: real (n, 4) rows, in which
    Tr[A B] = a . b and M = sum_mu c_mu sigma_mu / sqrt2.  Pauli rows are stored
    coordinate-major, each coordinate's n values contiguous, so that work on
    them runs along x."""
    return (_TO_PAULI @ rows(m).T).T


def from_pauli(c: np.ndarray) -> np.ndarray:
    """The (n, 2, 2) Hermitian stack of (n, 4) Pauli coordinates, exactly Hermitian."""
    return (c @ _FROM_PAULI).view(np.complex128).reshape(-1, 2, 2)


def norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean length of each row of an (n, k) array."""
    return np.sqrt(np.einsum("xk,xk->x", v, v))


def pauli_of(fw: np.ndarray, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Pauli coordinates ((f0 + f1), (f1 - f0) v / r) / sqrt2 of the qubit
    Hermitian with eigenvalues fw[..., 0] and fw[..., 1], the latter's
    eigenvector on the Bloch axis of the (n, 3) rows v of lengths r (any axis
    where r = 0); ``fw`` may hold several f on leading axes of its own."""
    f0, f1 = fw[..., 0], fw[..., 1]
    out = np.empty(f0.shape[:-1] + (4, len(r)))
    np.add(f0, f1, out=out[..., 0, :])
    slope = np.divide(f1 - f0, r, out=np.zeros(f0.shape), where=r > 0)
    np.multiply(slope[..., None, :], v.T, out=out[..., 1:, :])
    out *= 1 / SQRT2
    return np.swapaxes(out, -1, -2)


def pauli_floored_log(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending eigenvalues (c0 -+ |c|) / sqrt2 of each row of Pauli
    coordinates, and the coordinates of its floored log, in closed form."""
    v = c[:, 1:]
    r = norms(v)
    w = np.empty((2, len(c)))
    np.subtract(c[:, 0], r, out=w[0])
    np.add(c[:, 0], r, out=w[1])
    w *= 1 / SQRT2
    return w.T, pauli_of(log_floor(w.T), v, r)


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


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None where
    this build exports no such pair; looked up on first use, not at import."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    try:
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None


_pin_lock, _pin = threading.Lock(), {"holders": 0, "before": None}


@contextlib.contextmanager
def one_blas_thread():
    """Pin OpenBLAS to one thread, process-wide; yields whether it pinned,
    False where ``_openblas`` is None.  Pins may overlap across threads: the
    first holder saves the count and pins it, the last to leave restores it."""
    if (blas := _openblas()) is None:
        yield False
        return
    with _pin_lock:
        if not _pin["holders"]:
            _pin["before"] = blas[0]()
            blas[1](1)
        _pin["holders"] += 1
    try:
        yield True
    finally:
        with _pin_lock:
            _pin["holders"] -= 1
            if not _pin["holders"]:
                blas[1](_pin["before"])


def haar_unitary(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitary from a complex Gaussian matrix (stacked OK): the
    Q of z = QR with R's diagonal positive, which makes the distribution exactly
    Haar."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
