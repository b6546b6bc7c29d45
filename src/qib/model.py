"""Classical-quantum states and channels, the solver configuration, and the
two source quantities outside the iteration: the relative entropy behind
``engine.estimate_kappa`` and the source's Holevo information.

A source is a classical random variable X correlated with a quantum system Y
through conditional densities rho_{Y|x}; a compression channel assigns each x
a density sigma_{T|x} on the bottleneck system T.  Joint operators over (T, Y)
put the T factor first in the tensor order.  The objective itself is
evaluated by ``engine``'s analyses, one class per form of a channel's stored
carry: a classical channel's table, a quantum channel's Pauli rows at dimT 2
and its stack otherwise.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import InvariantError

CLASSICAL_OFFDIAG_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CQState:
    """Classical-quantum source: P_X and conditional densities rho_{Y|x}.

    ``px`` has shape (sizeX,), ``rho_y_given_x`` shape (sizeX, dimY, dimY)
    stacked along x.  Construction normalizes dtypes and freezes the arrays;
    call ``validate()`` at trust boundaries.  The marginal ``rho_y``,
    ``rho_y_log``, its entropy with its floored log, and ``pauli_rows`` are
    derived once, when first read, and every analysis of a channel against
    the state reads them.
    """

    px: np.ndarray
    rho_y_given_x: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.px, dtype=np.float64)
        rho = np.asarray(self.rho_y_given_x, dtype=np.complex128)
        if px.ndim != 1:
            raise InvariantError(f"px must be a vector, got shape {px.shape}")
        if rho.ndim != 3 or rho.shape[1] != rho.shape[2]:
            raise InvariantError(f"rho_y_given_x must be stacked square matrices, got shape {rho.shape}")
        if rho.shape[0] != px.shape[0]:
            raise InvariantError(f"px has {px.shape[0]} entries but rho_y_given_x has {rho.shape[0]}")
        object.__setattr__(self, "px", _freeze(px))
        object.__setattr__(self, "rho_y_given_x", _freeze(rho))

    @property
    def size_x(self) -> int:
        return self.px.shape[0]

    @property
    def dim_y(self) -> int:
        return self.rho_y_given_x.shape[1]

    @functools.cached_property
    def rho_y(self) -> np.ndarray:
        """Source marginal rho_Y = sum_x P(x) rho_{Y|x}, read-only."""
        return _freeze(np.einsum("x,xij->ij", self.px, self.rho_y_given_x))

    @functools.cached_property
    def rho_y_log(self) -> tuple[float, np.ndarray]:
        """(H(rho_Y), floored log rho_Y), the source's share of every analysis."""
        w, log = linalg.floored_log(self.rho_y)
        return linalg.entropy(w), _freeze(log)

    @functools.cached_property
    def pauli_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(vec I_Y, sqrt2 vec conj(log rho_Y)^T): the source's rows in the beta
        term of a qubit channel's F, which ``engine._Bloch`` assembles."""
        log = self.rho_y_log[1]
        return _freeze(np.eye(self.dim_y).ravel()), _freeze(linalg.SQRT2 * np.conj(log.T).ravel())

    def validate(self) -> None:
        # Phrased so that NaN entries fail the checks.
        if not np.all(self.px >= -1e-12):
            raise InvariantError(f"px has a negative or non-finite entry: min {self.px.min():.3e}")
        s = float(self.px.sum())
        if not abs(s - 1.0) <= 1e-9:
            raise InvariantError(f"px sums to {s:.12g}, expected 1 within 1e-9")
        linalg.check_density(self.rho_y_given_x, label="rho_y_given_x")


@dataclass(frozen=True, init=False, eq=False)
class CQChannel:
    """Compression channel x -> sigma_{T|x}, optionally restricted classical.

    A channel stores its form's ``carry``, the read-only arrays (p, log p,
    mats, log mats) that ``engine``'s analysis of the form reads: per x the
    spectrum p[x] of sigma_{T|x}, its floored log, and the conditionals with
    their floored log.  That is (q, log q, q, log q) for a classical channel's
    real (sizeX, dimT) table q[x, t]; (p, log p, c, log c) for a quantum
    channel at dimT 2, c[x] the orthonormal Pauli coordinates
    (``linalg.to_pauli``) of sigma_{T|x} and of its floored log, real
    (sizeX, 4) rows; and (p, log p, sigma, log sigma) for any other.  Given
    a carry, as every step and ``engine.random_channel`` build it, the
    channel keeps it as given, set read-only in place.  Given a quantum
    (sizeX, dimT, dimT) stack, or a classical table or stack of diagonal
    matrices (whose off-diagonal and imaginary entries must be within 1e-12),
    it keeps the stack or the table and derives the carry once, when first
    read, a stack's p ascending.  ``sigma_t_given_x`` is the given stack, or
    is derived from the carry.  Updates keep the classical flag.
    """

    classical: bool
    size_x: int
    dim_t: int

    def __init__(self, sigma_t_given_x: np.ndarray | tuple, classical: bool = False):
        if isinstance(sigma_t_given_x, tuple):
            carry = sigma_t_given_x
            n, d = np.shape(carry[0]) if carry and np.ndim(carry[0]) == 2 else (-1, -1)
            mats = ((n, d), np.float64) if classical else ((n, 4), np.float64) if d == 2 else ((n, d, d), np.complex128)
            got = [(np.shape(a), getattr(a, "dtype", None)) for a in carry]
            if got != [((n, d), np.float64)] * 2 + [mats] * 2:
                raise InvariantError(f"a carry must be float64 (p, log p) of shape (sizeX, dimT) and (mats, log mats) "
                                     f"of its form: a table, (sizeX, 4) Pauli rows at dimT 2 or a complex128 "
                                     f"(sizeX, dimT, dimT) stack; got {[f'{s} {t}' for s, t in got]}")
            p, log_p, mats, log_mats = carry
            stored, shape = {"carry": _carry(p, mats, log_mats, log_p)}, (n, d)
        else:
            sig = np.asarray(sigma_t_given_x)
            if not (sig.ndim == 3 and sig.shape[1] == sig.shape[2] or classical and sig.ndim == 2):
                raise InvariantError(f"sigma_t_given_x must be stacked square matrices, got shape {sig.shape}")
            value = _diagonals(sig) if classical and sig.ndim == 3 else sig
            value = _freeze(np.asarray(value, dtype=np.float64 if classical else np.complex128))
            stored, shape = {"_table" if classical else "sigma_t_given_x": value}, value.shape
        # The fields, and the given form as the cached property that derives it otherwise.
        vars(self).update({"classical": classical, "size_x": shape[0], "dim_t": shape[1], **stored})

    @functools.cached_property
    def carry(self) -> tuple[np.ndarray, ...]:
        if self.classical:
            return _table_carry(self._table)
        sigma = self.sigma_t_given_x
        mats = linalg.to_pauli(sigma) if self.dim_t == 2 else sigma
        p, log = (linalg.pauli_floored_log if self.dim_t == 2 else linalg.floored_log)(mats)
        return _carry(p, mats, log)

    @functools.cached_property
    def sigma_t_given_x(self) -> np.ndarray:
        mats = self.carry[2]
        if mats.ndim == 3:
            return mats
        return _freeze(linalg.diag_embed(mats) if self.classical else linalg.from_pauli(mats))

    def validate(self) -> None:
        linalg.check_density(self.sigma_t_given_x, label="sigma_t_given_x")


def _carry(p: np.ndarray, mats: np.ndarray, log_mats: np.ndarray,
           log_p: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """The carry (p, log p, mats, log mats), each array set read-only in place;
    log p is ``linalg.log_floor(p)`` unless given."""
    carry = (p, linalg.log_floor(p) if log_p is None else log_p, mats, log_mats)
    for a in carry:
        a.setflags(write=False)
    return carry


def _table_carry(q: np.ndarray) -> tuple[np.ndarray, ...]:
    """The carry (q, log q, q, log q) of a table q."""
    log_q = linalg.log_floor(q)
    return _carry(q, q, log_q, log_q)


def _diagonals(stack: np.ndarray) -> np.ndarray:
    """The real diagonals of a stack of diagonal matrices; raise if an entry
    off the diagonal, or a diagonal entry's imaginary part, exceeds
    CLASSICAL_OFFDIAG_TOL in magnitude."""
    k = np.arange(stack.shape[-1])
    diag, off = np.diagonal(stack, axis1=1, axis2=2), np.abs(stack)
    off[:, k, k] = np.abs(diag.imag)
    # Phrased so that a NaN entry fails it.
    if not (off := off.max(initial=0.0)) <= CLASSICAL_OFFDIAG_TOL:
        raise InvariantError(f"classical channel has off-diagonal magnitude {off:.3e} above {CLASSICAL_OFFDIAG_TOL:.1e}")
    return diag.real


@dataclass(frozen=True)
class ObjectiveConfig:
    """Solver configuration.

    gamma defaults to alpha (the step-size choice with the unconditional
    descent guarantee); tol is the |f_n - f_{n+1}| stopping threshold.
    """

    alpha: float
    beta: float
    dim_t: int
    gamma: float | None = None
    classical: bool = False
    tol: float = 1e-8
    max_iters: int = 500
    seed: int = 0

    @property
    def effective_gamma(self) -> float:
        return self.alpha if self.gamma is None else self.gamma

    def validate(self) -> None:
        if not (self.alpha >= 0 and np.isfinite(self.alpha)):
            raise InvariantError(f"alpha must be >= 0, got {self.alpha}")
        if not (self.beta >= 0 and np.isfinite(self.beta)):
            raise InvariantError(f"beta must be >= 0, got {self.beta}")
        if self.gamma is not None and not (self.gamma > 0 and np.isfinite(self.gamma)):
            raise InvariantError(f"gamma must be > 0, got {self.gamma}")
        if self.dim_t < 1:
            raise InvariantError(f"dim_t must be >= 1, got {self.dim_t}")
        if not (self.tol > 0):
            raise InvariantError(f"tol must be > 0, got {self.tol}")
        if self.max_iters < 1:
            raise InvariantError(f"max_iters must be >= 1, got {self.max_iters}")


def relative_entropy(rho_mat: np.ndarray, sigma_mat: np.ndarray) -> float:
    """Umegaki relative entropy D(rho || sigma) in nats.

    Requires support(rho) within support(sigma) up to the log floor: if rho
    puts more than 1e-9 mass on sigma's null space (eigenvalues below
    ``linalg.LOG_FLOOR``), returns +inf with a warning instead of a finite
    garbage value.
    """
    rho_mat = np.asarray(rho_mat)
    sigma_mat = np.asarray(sigma_mat)
    if rho_mat.shape != sigma_mat.shape:
        raise InvariantError(
            f"shape mismatch in relative entropy: {rho_mat.shape} vs {sigma_mat.shape}"
        )
    wr = linalg.eig_hermitian(rho_mat, vectors=False)
    ws, vs = linalg.eig_hermitian(sigma_mat)
    # d = diag(V^H rho V), rho's weight on each eigenvector of sigma, gives both
    # the mass on sigma's null space and Tr[rho log sigma] = d . log_floor(ws).
    d = (np.conj(vs) * (rho_mat @ vs)).sum(axis=0).real
    if (overlap := d[ws < linalg.LOG_FLOOR].sum()) > 1e-9:
        warnings.warn(
            f"relative entropy support violation: {overlap:.3e} mass outside "
            "the second argument's support; returning inf",
            RuntimeWarning,
            stacklevel=2,
        )
        return float("inf")
    return -float(linalg.entropy(wr)) - float(d @ linalg.log_floor(ws))


def holevo_information(state: CQState) -> float:
    """I(X:Y) of the source itself: H(rho_Y) - sum_x P(x) H(rho_{Y|x})."""
    h_y = float(state.rho_y_log[0])
    ent = linalg.entropy(linalg.eig_hermitian(state.rho_y_given_x, vectors=False))
    return h_y - float(np.dot(state.px, ent))


def maximally_mixed_channel(dim_t: int, size_x: int, classical: bool = False) -> CQChannel:
    """Channel sending every x to I/dimT (a fixed point on product sources)."""
    if dim_t < 1 or size_x < 1:
        raise InvariantError(f"dim_t and size_x must be >= 1, got {dim_t}, {size_x}")
    table = np.full((size_x, dim_t), 1.0 / dim_t)
    return CQChannel(table if classical else linalg.diag_embed(table), classical)
