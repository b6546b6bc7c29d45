"""Classical-quantum states and channels, the solver configuration, and the
two source quantities outside the iteration: the relative entropy behind
``engine.estimate_kappa`` and the source's Holevo information.

A source is a classical random variable X correlated with a quantum system Y
through conditional densities rho_{Y|x}; a compression channel assigns each x
a density sigma_{T|x} on the bottleneck system T.  Joint operators over (T, Y)
put the T factor first in the tensor order.  The objective itself is
evaluated by ``engine``'s analyses, one class per stored form of a channel:
a classical channel's table, a quantum channel's stack.
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
    call ``validate()`` at trust boundaries.  The marginal ``rho_y`` and
    ``rho_y_log``, its entropy with its floored log, are derived once, when
    first read, and every analysis of a channel against the state reads them.
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

    A quantum channel carries its stack and ``floored_log``, the spectra p[x]
    of sigma_{T|x} and its floored log.  It is built from the triple (p,
    sigma, log sigma), as the update produces it, taken as given; or from a
    (sizeX, dimT, dimT) stack, whose ``floored_log`` is derived once, when
    first read.  A qubit channel (dimT 2) also has ``pauli``, the triple (p,
    c, log c) with the orthonormal Pauli coordinates c[x] =
    ``linalg.to_pauli`` of sigma_{T|x} and of its floored log, which the qubit
    update and ``engine.random_channel`` produce and build it from; given the
    stack, it is derived in closed form, and given ``pauli``, the stack and
    ``floored_log`` are.  A classical one stores only its real (sizeX, dimT)
    table q[x, t], given as such or as a stack whose off-diagonal and
    imaginary entries are within 1e-12, and derives its stack when first
    read.  Every stored form is read-only.  Updates keep the classical flag.
    """

    classical: bool
    size_x: int
    dim_t: int

    def __init__(self, sigma_t_given_x: np.ndarray | tuple, classical: bool = False):
        if isinstance(sigma_t_given_x, tuple):
            if classical:
                raise InvariantError("a classical channel is given as its table or stack, not as a triple")
            p, *mats = (np.asarray(a) for a in sigma_t_given_x)
            if len(mats) == 2 and mats[0].ndim == 2:
                if p.shape[1:] != (2,) or any(m.shape != (len(p), 4) or np.iscomplexobj(m) for m in mats):
                    raise InvariantError(f"(p, c, log c) must be (sizeX, 2) and two real (sizeX, 4), "
                                         f"got shapes {[np.shape(a) for a in sigma_t_given_x]}")
                stored = {"pauli": tuple(_freeze(np.asarray(a, dtype=np.float64)) for a in (p, *mats))}
            else:
                p, mats = np.asarray(p, dtype=np.float64), [np.asarray(m, dtype=np.complex128) for m in mats]
                if p.ndim != 2 or len(mats) != 2 or any(m.shape != p.shape + p.shape[-1:] for m in mats):
                    raise InvariantError(f"(p, sigma, log sigma) must be (sizeX, dimT) and two (sizeX, dimT, dimT), "
                                         f"got shapes {[np.shape(a) for a in sigma_t_given_x]}")
                p, sigma, log = map(_freeze, (p, *mats))
                stored = {"sigma_t_given_x": sigma, "floored_log": (p, log)}
            shape = p.shape
        else:
            sig = np.asarray(sigma_t_given_x)
            if not (sig.ndim == 3 and sig.shape[1] == sig.shape[2] or classical and sig.ndim == 2):
                raise InvariantError(f"sigma_t_given_x must be stacked square matrices, got shape {sig.shape}")
            value = _diagonals(sig) if classical and sig.ndim == 3 else sig
            value = _freeze(np.asarray(value, dtype=np.float64 if classical else np.complex128))
            stored, shape = {"_q" if classical else "sigma_t_given_x": value}, value.shape
        # The fields, and the given forms as the cached properties that derive them otherwise.
        vars(self).update({"classical": classical, "size_x": shape[0], "dim_t": shape[1], **stored})

    @functools.cached_property
    def sigma_t_given_x(self) -> np.ndarray:
        return _freeze(linalg.diag_embed(self._q) if self.classical else linalg.from_pauli(self.pauli[1]))

    @functools.cached_property
    def floored_log(self) -> tuple[np.ndarray, np.ndarray]:
        """(p, log sigma): per x the eigenvalues of sigma_{T|x} and its floored
        log, ``linalg.floored_log`` of the stack, or the stack of ``pauli``'s."""
        if "pauli" in vars(self):
            p, _, log = self.pauli
            return p, _freeze(linalg.from_pauli(log))
        return tuple(map(_freeze, linalg.floored_log(self.sigma_t_given_x)))

    @functools.cached_property
    def pauli(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(p, c, log c) of a qubit channel: per x the eigenvalues of
        sigma_{T|x}, and the Pauli coordinates of sigma_{T|x} and of its
        floored log; derived from the stack, p ascends: (c0 -+ |c|) / sqrt2."""
        c = linalg.to_pauli(self.sigma_t_given_x)
        p, log = linalg.pauli_floored_log(c)
        return _freeze(p), _freeze(c), _freeze(log)

    def table(self) -> np.ndarray:
        """The (sizeX, dimT) table q[x, t] of a classical channel, as stored."""
        return self._q

    def validate(self) -> None:
        linalg.check_density(self.sigma_t_given_x, label="sigma_t_given_x")


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
    h_y = float(linalg.entropy(linalg.eig_hermitian(state.rho_y, vectors=False)))
    ent = linalg.entropy(linalg.eig_hermitian(state.rho_y_given_x, vectors=False))
    return h_y - float(np.dot(state.px, ent))


def maximally_mixed_channel(dim_t: int, size_x: int, classical: bool = False) -> CQChannel:
    """Channel sending every x to I/dimT (a fixed point on product sources)."""
    if dim_t < 1 or size_x < 1:
        raise InvariantError(f"dim_t and size_x must be >= 1, got {dim_t}, {size_x}")
    table = np.full((size_x, dim_t), 1.0 / dim_t)
    return CQChannel(table if classical else linalg.diag_embed(table), classical)
