"""Classical-quantum states and channels, and the bottleneck objective.

A source is a classical random variable X correlated with a quantum system Y
through conditional densities rho_{Y|x}; a compression channel assigns each x
a density sigma_{T|x} on the bottleneck system T.  Joint operators over (T, Y)
put the T factor first in the tensor order.

The evaluators here are the deliberately slow reference oracle for
``engine._Analysis``: each quantity is computed on its own, straight from
its definition, so that the solver's fused per-iteration analysis can be
checked against an independent path.  They duplicate the engine's
arithmetic on purpose and should not be merged into it.
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
    call ``validate()`` at trust boundaries.
    """

    px: np.ndarray
    rho_y_given_x: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.px, dtype=np.float64)
        rho = np.asarray(self.rho_y_given_x, dtype=np.complex128)
        if px.ndim != 1:
            raise InvariantError(f"px must be a vector, got shape {px.shape}")
        if rho.ndim != 3 or rho.shape[1] != rho.shape[2]:
            raise InvariantError(
                f"rho_y_given_x must be stacked square matrices, got shape {rho.shape}"
            )
        if rho.shape[0] != px.shape[0]:
            raise InvariantError(
                f"px has {px.shape[0]} entries but rho_y_given_x has {rho.shape[0]}"
            )
        object.__setattr__(self, "px", _freeze(px))
        object.__setattr__(self, "rho_y_given_x", _freeze(rho))

    @property
    def size_x(self) -> int:
        return self.px.shape[0]

    @property
    def dim_y(self) -> int:
        return self.rho_y_given_x.shape[1]

    def validate(self) -> None:
        # Phrased so that NaN entries fail the checks.
        if not np.all(self.px >= -1e-12):
            raise InvariantError(
                f"px has a negative or non-finite entry: min {self.px.min():.3e}"
            )
        s = float(self.px.sum())
        if not abs(s - 1.0) <= 1e-9:
            raise InvariantError(f"px sums to {s:.12g}, expected 1 within 1e-9")
        linalg.check_density(self.rho_y_given_x, label="rho_y_given_x")


@dataclass(frozen=True, init=False, eq=False)
class CQChannel:
    """Compression channel x -> sigma_{T|x}, optionally restricted classical.

    Built from a (sizeX, dimT, dimT) stack ``sigma_t_given_x`` (a (sizeX,
    dimT) table is taken as the diagonals), from a classical channel's real
    table q[x, t], or from the spectral form (p, V) the solvers produce:
    spectra and unitaries with sigma_{T|x} = V_x diag(p_x) V_x^H.  It keeps
    that form read-only and derives the others once, when first read: the
    ``spectrum`` of a stack costs one stacked eigendecomposition.  Every
    classical conditional must be diagonal within 1e-12; updates keep the flag.
    """

    classical: bool
    size_x: int
    dim_t: int

    def __init__(self, sigma_t_given_x: np.ndarray | tuple, classical: bool = False):
        if isinstance(sigma_t_given_x, tuple):
            p, v = sigma_t_given_x
            p, v = _freeze(np.asarray(p, dtype=np.float64)), _freeze(np.asarray(v, dtype=np.complex128))
            if p.ndim != 2 or v.shape != p.shape + p.shape[-1:]:
                raise InvariantError(f"(p, V) must be (sizeX, dimT) and (sizeX, dimT, dimT), got {p.shape}, {v.shape}")
            form, value, shape = "spectrum", (p, v), p.shape
        elif classical and np.ndim(sigma_t_given_x) == 2 and not np.iscomplexobj(sigma_t_given_x):
            value = _freeze(np.asarray(sigma_t_given_x, dtype=np.float64))
            form, shape = "_table", value.shape
        else:
            sig = np.asarray(sigma_t_given_x, dtype=np.complex128)
            if sig.ndim == 2:
                sig = linalg.diag_embed(sig)
            if sig.ndim != 3 or sig.shape[1] != sig.shape[2]:
                raise InvariantError(
                    f"sigma_t_given_x must be stacked square matrices, got shape {sig.shape}"
                )
            form, value, shape = "sigma_t_given_x", _freeze(sig), sig.shape
        # The fields, and the given form as the cached property that derives it otherwise.
        vars(self).update({"classical": classical, "size_x": shape[0], "dim_t": shape[1], form: value})

    @functools.cached_property
    def sigma_t_given_x(self) -> np.ndarray:
        table = vars(self).get("_table")
        return _freeze(linalg.from_eig(*self.spectrum) if table is None else linalg.diag_embed(table))

    @functools.cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(p, V): per x the eigenvalues and eigenvector columns of sigma_{T|x}."""
        return tuple(map(_freeze, linalg.eig_hermitian(self.sigma_t_given_x)))

    def table(self) -> np.ndarray:
        """The (sizeX, dimT) table q[x, t] of the conditionals' diagonals."""
        table = vars(self).get("_table")
        return np.diagonal(self.sigma_t_given_x, axis1=1, axis2=2).real if table is None else table

    def validate(self) -> None:
        linalg.check_density(self.sigma_t_given_x, label="sigma_t_given_x")
        if self.classical:
            off = np.abs(self.sigma_t_given_x - linalg.diag_embed(self.table())).max(initial=0.0)
            if off > CLASSICAL_OFFDIAG_TOL:
                raise InvariantError(
                    f"classical channel has off-diagonal magnitude {off:.3e} "
                    f"above {CLASSICAL_OFFDIAG_TOL:.1e}"
                )


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


def _check_pair(state: CQState, channel: CQChannel) -> None:
    if state.size_x != channel.size_x:
        raise InvariantError(
            f"state has sizeX {state.size_x} but channel has {channel.size_x}"
        )


def sigma_t(channel: CQChannel, state: CQState) -> np.ndarray:
    """Bottleneck marginal sigma_T = sum_x P(x) sigma_{T|x}."""
    _check_pair(state, channel)
    return np.einsum("x,xij->ij", state.px, channel.sigma_t_given_x)


def rho_y(state: CQState) -> np.ndarray:
    """Source marginal rho_Y = sum_x P(x) rho_{Y|x}."""
    return np.einsum("x,xij->ij", state.px, state.rho_y_given_x)


def sigma_yt(channel: CQChannel, state: CQState) -> np.ndarray:
    """Joint state sum_x P(x) sigma_{T|x} (x) rho_{Y|x}, T factor first.

    The name keeps the conventional YT label for this joint; the tensor
    order is (T, Y) with T leading, matching every joint-operator
    convention in this package.
    """
    _check_pair(state, channel)
    dt, dy = channel.dim_t, state.dim_y
    four = np.einsum(
        "x,xik,xjl->ijkl", state.px, channel.sigma_t_given_x, state.rho_y_given_x,
        optimize=True,
    )
    return four.reshape(dt * dy, dt * dy)


def von_neumann_entropy(rho_mat: np.ndarray) -> float:
    """Entropy -Tr[rho log rho] in nats; eigenvalues clipped at zero."""
    w, _ = linalg.eig_hermitian(np.asarray(rho_mat))
    return float(linalg.entropy(w))


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
    wr, _ = linalg.eig_hermitian(rho_mat)
    ws, vs, log_sigma = linalg.floored_log(sigma_mat)
    null = ws < linalg.LOG_FLOOR
    if np.any(null):
        overlap = np.einsum(
            "ij,jk,ik->", np.conj(vs[:, null]).T, rho_mat, vs[:, null], optimize=True
        ).real
        if overlap > 1e-9:
            warnings.warn(
                f"relative entropy support violation: {overlap:.3e} mass outside "
                "the second argument's support; returning inf",
                RuntimeWarning,
                stacklevel=2,
            )
            return float("inf")
    tr_rho_log_rho = -float(linalg.entropy(wr))
    tr_rho_log_sigma = float(np.einsum("ij,ji->", rho_mat, log_sigma).real)
    return tr_rho_log_rho - tr_rho_log_sigma


def cond_entropy_t_given_x(state: CQState, channel: CQChannel) -> float:
    """H(T|X) = sum_x P(x) H(sigma_{T|x})."""
    _check_pair(state, channel)
    ent = linalg.entropy(linalg.eig_hermitian(channel.sigma_t_given_x, vectors=False))
    return float(np.dot(state.px, ent))


def mutual_info_tx(state: CQState, channel: CQChannel) -> float:
    """I(T:X) = H(sigma_T) - H(T|X)."""
    return von_neumann_entropy(sigma_t(channel, state)) - cond_entropy_t_given_x(
        state, channel
    )


def mutual_info_ty(state: CQState, channel: CQChannel) -> float:
    """I(T:Y) = H(sigma_T) + H(rho_Y) - H(sigma_joint)."""
    return (
        von_neumann_entropy(sigma_t(channel, state))
        + von_neumann_entropy(rho_y(state))
        - von_neumann_entropy(sigma_yt(channel, state))
    )


def objective_f_alpha(
    state: CQState, channel: CQChannel, alpha: float, beta: float
) -> float:
    """Bottleneck objective f = H(T) - alpha H(T|X) - beta I(T:Y)."""
    h_t = von_neumann_entropy(sigma_t(channel, state))
    h_tx = cond_entropy_t_given_x(state, channel)
    i_ty = mutual_info_ty(state, channel)
    return h_t - alpha * h_tx - beta * i_ty


def holevo_information(state: CQState) -> float:
    """I(X:Y) of the source itself: H(rho_Y) - sum_x P(x) H(rho_{Y|x})."""
    avg = von_neumann_entropy(rho_y(state))
    ent = linalg.entropy(linalg.eig_hermitian(state.rho_y_given_x, vectors=False))
    return avg - float(np.dot(state.px, ent))


def channel_divergence(channel: CQChannel, other: CQChannel, state: CQState) -> float:
    """Average relative entropy sum_x P(x) D(sigma_{T|x} || sigma'_{T|x})."""
    _check_pair(state, channel)
    _check_pair(state, other)
    if channel.dim_t != other.dim_t:
        raise InvariantError(
            f"channels act on different T dimensions: {channel.dim_t} vs {other.dim_t}"
        )
    total = 0.0
    for x in range(state.size_x):
        p = state.px[x]
        if p == 0.0:
            continue
        total += p * relative_entropy(
            channel.sigma_t_given_x[x], other.sigma_t_given_x[x]
        )
    return float(total)


def maximally_mixed_channel(dim_t: int, size_x: int, classical: bool = False) -> CQChannel:
    """Channel sending every x to I/dimT (a fixed point on product sources)."""
    if dim_t < 1 or size_x < 1:
        raise InvariantError(f"dim_t and size_x must be >= 1, got {dim_t}, {size_x}")
    return CQChannel(np.full((size_x, dim_t), 1.0 / dim_t), classical=classical)
