"""Accelerated iteration for the quantum information bottleneck.

The solver alternates evaluation of the gradient-like operator family

    F(x) = -log sigma_T + alpha log sigma_{T|x}
           + beta Tr_Y[(I (x) rho_{Y|x}) (log(sigma_T (x) rho_Y) - log sigma_joint)]

with the multiplicative update

    sigma_{T|x} <- exp(log sigma_{T|x} - F(x)/gamma) / trace,

where sigma_joint is the (T, Y) joint of the current channel.  gamma = alpha
recovers the fixed-point iteration with the unconditional descent guarantee;
smaller gamma accelerates but descends only while the empirical gamma-ratio
stays below gamma.

Internals are batched over x, and each iterate is analyzed once, in the form
its channel stores, by one class per form: ``_Table`` reads a classical
channel's (sizeX, dimT) table, where only the dimY x dimY blocks of the joint
are decomposed; ``_Bloch`` a quantum qubit channel's (dimT = 2) orthonormal
Pauli coordinates, real (sizeX, 4) rows; ``_Stack`` any other quantum
channel's (sizeX, dimT, dimT) stack.  Each owns its soft step, its projector
step and its residual; their base scores the form against the source, whose
entropy and floored log of rho_Y the state caches.  The stack update hands
the next iterate (p, sigma, log sigma): the spectra, lifted by
``linalg.eig_lift`` from the eigenvalues of the update exponent to the stack
and its floored log, so the conditionals are never decomposed.  A stack
iteration costs two stacked eigendecompositions, of the update exponent and
of the residual, plus those of sigma_T and the (T, Y) joint.  A qubit
iteration makes one LAPACK call, the joint's: sigma_T's spectrum, the
update's softmax and axis, the residual's trace norm and the projector are
closed forms in the coordinates, where Tr[A B] is a dot product.  sigma_T,
the joint and the beta term of F are each one matrix product on reshaped
stacks or rows, a table's real, on the source's trace rows (``linalg.rows``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import linalg, model, rng
from .exceptions import InvariantError, NumericalError
from .model import CQChannel, CQState, ObjectiveConfig

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_MONOTONICITY_VIOLATED = "monotonicity_violated"

MONOTONICITY_TOL = 1e-9
RATIO_DENOM_TOL = 1e-12
OVERLAP_TOL = 1e-14
SUPPORT_EVAL_TOL = 1e-9


@dataclass(frozen=True)
class TraceRecord:
    """One iteration row: metrics at the current iterate plus the step
    toward the next one (divergence, empirical gamma-ratio, residual)."""

    iteration: int
    f_alpha: float
    h_t: float
    i_tx: float
    i_ty: float
    step_divergence: float
    gamma_ratio: float
    fixed_point_residual: float
    support_t: int | None = None


@dataclass
class IterationTrace:
    records: list[TraceRecord] = field(default_factory=list)
    status: str = STATUS_MAX_ITERS
    violations: list[int] = field(default_factory=list)

    @property
    def final_f(self) -> float:
        return self.records[-1].f_alpha

    def f_values(self) -> np.ndarray:
        return np.array([r.f_alpha for r in self.records])

    def __len__(self) -> int:
        return len(self.records)


class _Analysis:
    """One channel iterate as the loop reads it.  A subclass per stored form reads it (``_read``
    sets ``mats``, ``log_mats``, sigma_T's spectrum and log, and returns the conditionals'
    entropies, the joint's spectrum and F's beta term) and owns the soft step (``advance``), the
    residual's spread and the projector step (``project``); the base scores it: f, F, divergence,
    ratio, residual.  A table's row entropies read ``log_mats`` (0 < q < LOG_FLOOR counts as
    q log LOG_FLOOR, so D(q || q) = 0), H(T) and the spectra's keep p log p: its H(T|X) is below,
    its I(T:X) and divergences above, the dense embedding's by sum_x P(x) sum_t q log(LOG_FLOOR/q).

    ``project`` is the deterministic step of an alpha = 0 analysis: each
    conditional compressed onto the minimal eigenspace P(x) of F_0(x) and
    renormalized by the overlap Tr[sigma_{T|x} P(x)], or P/rank(P) where that
    overlap is OVERLAP_TOL or less, the exact alpha -> 0 limit of the gamma =
    alpha update.  It returns the next iterate's form and those x in order: the
    runner keeps the fallback, ``qdib.qdib_update`` raises on it."""

    def __init__(self, state: CQState, channel: CQChannel, alpha: float, beta: float):
        self.px, self.channel = state.px, channel
        self.h_each, wj, beta_term = self._read(state.rho_y_given_x, state.rho_y_log[1])
        self.h_t_given_x = float(self.px @ self.h_each)
        self.h_t = linalg.entropy(self.sigma_t_evals)
        self.i_tx = self.h_t - self.h_t_given_x
        self.i_ty = self.h_t + state.rho_y_log[0] - linalg.entropy(wj.ravel())
        self.f_alpha = self.h_t - alpha * self.h_t_given_x - beta * self.i_ty
        self.f_family = -self.log_sigma_t + alpha * self.log_mats + beta * beta_term

    def _exponent(self, gamma: float) -> np.ndarray:
        with np.errstate(over="ignore"):  # the step's finiteness check owns the failure
            return self.log_mats - self.f_family / gamma

    def divergence(self, other: _Analysis) -> float:
        """sum_x P(x) D(self_x || other_x) using the floored log of ``other``."""
        return float(self.px @ (-self.h_each - _tr(self.mats, other.log_mats)))

    def ratio(self, old: _Analysis) -> float:
        num = float(self.px @ _tr(self.mats, self.f_family - old.f_family))
        den = self.divergence(old)
        return num / den if den > RATIO_DENOM_TOL else float("nan")

    def residual(self, channel: CQChannel) -> float:
        """sum_x P(x) ||sigma'_x - sigma_x||_1, the trace norm (l1 on tables), to ``channel``
        sigma' of this form: each x's |spread| summed in the same order whatever sizeX."""
        return float(self.px @ np.einsum("xk->x", np.abs(self._spread(channel))))


class _Table(_Analysis):
    """A classical channel as its (sizeX, dimT) table q[x, t], in which form
    ``mats``, ``log_mats`` and ``f_family`` come too."""

    def _read(self, rhos: np.ndarray, log_rho_y: np.ndarray) -> tuple[np.ndarray, ...]:
        px, mats, rho_rows = self.px, self.channel.table(), linalg.rows(rhos)
        self.mats, self.log_mats = mats, linalg.log_floor(mats)
        self.sigma_t_evals = px @ mats
        self.log_sigma_t = linalg.log_floor(self.sigma_t_evals)
        # Diagonal in T: the joint is the block stack J_t = sum_x P(x) q[x, t] rho_x.
        joint = ((px[:, None] * mats).T @ rho_rows).view(np.complex128).reshape(mats.shape[1:] + rhos.shape[1:])
        wj, log_joint = linalg.floored_log(joint)
        # Tr rho_x (log s_t I + log rho_Y - log J_t)
        beta_term = self.log_sigma_t + rho_rows @ linalg.rows(log_rho_y - log_joint).T
        # -sum_t q log q from the floored log that the divergence's trace reads, so D(q || q) = 0.
        return -np.einsum("xk,xk->x", mats, self.log_mats), wj, beta_term

    def advance(self, gamma: float) -> np.ndarray:
        """One multiplicative update, a row softmax: the soft-clustering update."""
        _check_finite(expon := self._exponent(gamma))
        return _softmax(expon, expon.max(axis=1))

    def _spread(self, channel: CQChannel) -> np.ndarray:  # the entries of q' - q: the l1 norm
        return channel.table() - self.mats

    def project(self) -> tuple[np.ndarray, list[int]]:
        """P(x) is the indicator of the row's tied minima of F_0: the hard
        assignment of the deterministic IB."""
        fam = self.f_family
        lo, hi = fam.min(axis=1)[:, None], fam.max(axis=1)[:, None]
        proj = (fam <= lo + linalg.PROJECTOR_REL_TOL * (hi - lo)).astype(np.float64)
        out = proj * self.mats
        return _renormalized(out, proj, out.sum(axis=1), proj.sum(axis=1))


class _Stack(_Analysis):
    """A quantum channel as the stack, spectra and floored log it carries."""

    def _read(self, rhos: np.ndarray, log_rho_y: np.ndarray) -> tuple[np.ndarray, ...]:
        px, dt, dy = self.px, self.channel.dim_t, rhos.shape[-1]
        self.mats = mats = self.channel.sigma_t_given_x
        evals, self.log_mats = self.channel.floored_log
        self.sigma_t_evals, self.log_sigma_t = linalg.floored_log((px @ mats.reshape(len(px), -1)).reshape(dt, dt))
        # J = sum_x P(x) sigma_x (x) rho_x on axes (t, t', y, y'), then (t, y, t', y')
        joint = ((px[:, None] * mats.reshape(len(px), -1)).T @ rhos.reshape(len(px), -1)).reshape(dt, dt, dy, dy)
        wj, self.log_joint = linalg.floored_log(joint.transpose(0, 2, 1, 3).reshape(dt * dy, dt * dy))
        # log(sigma_T (x) rho_Y) on axes (t, y, t', y'), assembled additively so
        # the product-state cancellation against log_joint is exact in floats.
        log_prod = (self.log_sigma_t[:, None, :, None] * np.eye(dy)[None, :, None, :]
                    + np.eye(dt)[:, None, :, None] * log_rho_y[None, :, None, :])
        b4 = log_prod - self.log_joint.reshape(dt, dy, dt, dy)
        # Tr_Y[(I (x) rho_x) B]_{tt'} = sum_{y y'} rho_x[y', y] B[t y, t' y']
        beta_term = (rhos.reshape(len(px), -1) @ b4.transpose(3, 1, 0, 2).reshape(dy * dy, -1)).reshape(-1, dt, dt)
        return linalg.entropy(evals), wj, beta_term

    def advance(self, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One multiplicative update, as (p, sigma, log sigma)."""
        expon = self._exponent(gamma)
        try:  # the eigensolver checks the exponent; _check_finite names the x
            we, lift = linalg.eig_lift(expon)
        except NumericalError:
            _check_finite(expon)
            raise
        p = _softmax(we, we[:, -1])
        return p, lift(p), lift(linalg.log_floor(p))

    def _spread(self, channel: CQChannel) -> np.ndarray:  # the eigenvalues of sigma' - sigma: the trace norm
        return linalg.eig_hermitian(channel.sigma_t_given_x - self.mats, vectors=False)

    def project(self) -> tuple[np.ndarray, list[int]]:
        proj = linalg.min_eigenspace_projector(self.f_family)
        out = proj @ self.mats @ proj
        return _renormalized(out, proj, np.trace(out, axis1=1, axis2=2).real, np.trace(proj, axis1=1, axis2=2).real)


class _Bloch(_Analysis):
    """A quantum channel at dimT 2 as the orthonormal Pauli coordinates
    (``linalg.to_pauli``) of its conditionals and their floored logs, the
    triple ``channel.pauli``: ``mats``, ``log_mats``, ``log_sigma_t`` and
    ``f_family`` are real rows of 4, in which Tr[A B] = a . b, and sigma_T,
    the update, the residual and the projector take closed forms."""

    def _read(self, rhos: np.ndarray, log_rho_y: np.ndarray) -> tuple[np.ndarray, ...]:
        px, dy = self.px, rhos.shape[-1]
        evals, self.mats, self.log_mats = self.channel.pauli
        # sigma_T = sum_x P(x) sigma_x, eigenvalues (c0 -+ |c|) / sqrt2, in Python floats.
        c0, *c = (px @ self.mats).tolist()
        r = math.hypot(*c)
        self.sigma_t_evals = np.array([c0 - r, c0 + r]) / linalg.SQRT2
        l0, l1 = (math.log(max(w, linalg.LOG_FLOOR)) for w in self.sigma_t_evals.tolist())
        slope = (l1 - l0) / r if r > 0 else 0.0
        self.log_sigma_t = np.array([l0 + l1, slope * c[0], slope * c[1], slope * c[2]]) / linalg.SQRT2
        # J = sum_mu sigma_mu / sqrt2 (x) R_mu, R_mu = sum_x P(x) c_{x mu} rho_x, on axes (t, y, t', y').
        r_mu = ((self.mats.T * px) @ linalg.rows(rhos)).view(np.complex128)
        joint = (linalg.PAULI.reshape(4, 4).T @ r_mu).reshape(2, 2, dy, dy).transpose(0, 2, 1, 3)
        wj, log_joint = linalg.floored_log(joint.reshape(2 * dy, 2 * dy))
        # F's beta term has coordinates Re sum_{y' y} rho_x[y', y] g[mu, (y', y)], g[mu] = Tr_T[B
        # sigma_mu] / sqrt2 of B = log sigma_T (x) I + I (x) log rho_Y - log J on (t, y, t', y'),
        # one product of rho_x's real rows with conj(g)'s (re, im) pairs.
        conj_log_joint = np.conj(log_joint.reshape(2, dy, 2, dy).transpose(0, 2, 3, 1).reshape(4, -1))
        conj_g = self.log_sigma_t[:, None] * np.eye(dy).ravel() - linalg.PAULI.reshape(4, 4) @ conj_log_joint
        conj_g[0] += linalg.SQRT2 * np.conj(log_rho_y.T).ravel()
        return linalg.entropy(evals), wj, (conj_g.view(np.float64) @ linalg.rows(rhos).T).T

    def advance(self, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One multiplicative update, as (p, c, log c): the exponent's eigenvalues
        (e0 -+ |e|) / sqrt2 are sqrt2 |e| apart, so the softmax is p1 = 1 / (1 +
        exp(-sqrt2 |e|)) and p0 = exp(-sqrt2 |e|) p1, p1 on the axis of e."""
        _check_finite(expon := self._exponent(gamma))
        e = expon[:, 1:]
        r = linalg.norms(e)
        pl = np.empty((2, 2, len(r)))  # p and its floored log, eigenvalue-major
        p0, p1 = pl[0]
        np.exp(-linalg.SQRT2 * r, out=p0)
        np.divide(1.0, 1.0 + p0, out=p1)
        p0 *= p1
        pl[1] = linalg.log_floor(pl[0])
        pl = pl.transpose(0, 2, 1)
        return pl[0], *linalg.pauli_of(pl, e, r)

    def _spread(self, channel: CQChannel) -> np.ndarray:  # sqrt2 |c' - c|: the trace norm of sigma' - sigma
        return linalg.SQRT2 * linalg.norms(channel.pauli[1][:, 1:] - self.mats[:, 1:])[:, None]

    def project(self) -> tuple[tuple[np.ndarray, ...], list[int]]:
        """P(x) = (I - f.sigma / |f|) / 2 on the axis of F_0's coordinates f, rank
        one, so P sigma P / Tr[sigma P] = P; P = I where f = 0, a tie."""
        f = self.f_family[:, 1:]
        r = linalg.norms(f)
        tie = r == 0  # eigenvalues (1, 1) there, else (0, 1) with the eigenvector of 1 on -f
        proj = linalg.pauli_of(np.where(tie[:, None], 1.0, [0.0, 1.0]), -f, r)
        overlap = np.einsum("xk,xk->x", self.mats, proj)
        out, gone = _renormalized(np.where(tie[:, None], self.mats, overlap[:, None] * proj), proj, overlap,
                                  linalg.SQRT2 * proj[:, 0])
        p, log = linalg.pauli_floored_log(out)
        return (p, out, log), gone


def _tr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr[a_x b_x] for each x, of two tables or two stacks, one Hermitian."""
    return np.einsum("xk,xk->x", linalg.rows(a), linalg.rows(b))


def _softmax(z: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Each row x of exp(z_x - top_x) over its sum, ``top`` the row maxima."""
    shifted = np.exp(z - top[:, None])
    return shifted / np.einsum("xk->x", shifted)[:, None]


def _renormalized(out: np.ndarray, proj: np.ndarray, overlap: np.ndarray,
                  rank: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The projected conditionals ``out`` over their overlaps, P/rank(P) where
    the overlap is OVERLAP_TOL or less, and those x in order."""
    gone = overlap <= OVERLAP_TOL
    out[gone] = proj[gone]
    out /= np.where(gone, rank, overlap).reshape((-1,) + (1,) * (out.ndim - 1))
    return out, np.flatnonzero(gone).tolist()


def _check_finite(expon: np.ndarray) -> None:
    if not np.all(np.isfinite(expon)):
        finite = np.isfinite(expon).reshape(len(expon), -1).all(axis=1)
        raise NumericalError(f"update exponent is not finite at x={int(np.argmin(finite))}")


def _analyses(state: CQState, alpha: float, beta: float, *channels: CQChannel) -> list[_Analysis]:
    """Each channel's analysis: of its table when all are classical, else of its
    Pauli coordinates at dimT 2 and of its stack otherwise, a classical channel
    lifted to the quantum channel of its stack."""
    for channel in channels:
        if channel.size_x != state.size_x:
            raise InvariantError(f"state has sizeX {state.size_x} but channel has {channel.size_x}")
    if len(dims := [c.dim_t for c in channels]) != dims.count(dims[0]):
        raise InvariantError(f"channels have dimT {' and '.join(map(str, dims))}")
    if not all(c.classical for c in channels):
        channels = [CQChannel(c.sigma_t_given_x) if c.classical else c for c in channels]
    return [(_Table if c.classical else _Bloch if c.dim_t == 2 else _Stack)(state, c, alpha, beta) for c in channels]


def f_operator(state: CQState, channel: CQChannel, alpha: float, beta: float) -> np.ndarray:
    """Operator family F(x) in the channel's form: a (sizeX, dimT, dimT) stack,
    Hermitian up to round-off, or a classical channel's (sizeX, dimT) table.

    The average Tr[sigma_{T|x} F(x)] under P_X reproduces the objective
    exactly; that identity is the backbone correctness check.
    """
    (analysis,) = _analyses(state, alpha, beta, channel)
    return linalg.from_pauli(analysis.f_family) if isinstance(analysis, _Bloch) else analysis.f_family


def update(state: CQState, channel: CQChannel, gamma: float, alpha: float, beta: float) -> CQChannel:
    """One accelerated update; preserves the classical restriction."""
    return _stepped(state, channel, gamma, alpha, beta)[1]


def gamma_ratio(state: CQState, channel: CQChannel, channel2: CQChannel, alpha: float, beta: float) -> float:
    """Empirical ratio bounding the usable step size.

    ratio = sum_x P Tr[sigma_x (F[sigma](x) - F[sigma'](x))]
            / sum_x P D(sigma_x || sigma'_x),

    which never exceeds alpha.  Raises NumericalError for near-identical
    channels where the denominator vanishes and the ratio is undefined.
    """
    a, b = _analyses(state, alpha, beta, channel, channel2)
    ratio = a.ratio(b)
    if np.isnan(ratio):
        raise NumericalError(
            f"gamma ratio undefined: channel divergence vanishes (at most "
            f"{RATIO_DENOM_TOL:.0e}; channels are numerically identical)"
        )
    return ratio


def fixed_point_residual(state: CQState, channel: CQChannel, gamma: float, alpha: float, beta: float) -> float:
    """Average trace-norm displacement of one update step."""
    cur, nxt = _stepped(state, channel, gamma, alpha, beta)
    return cur.residual(nxt)


def _stepped(state: CQState, channel: CQChannel, gamma: float, alpha: float, beta: float) -> tuple[_Analysis, CQChannel]:
    """The channel's one analysis and the updated channel."""
    if not (gamma > 0):
        raise InvariantError(f"gamma must be > 0, got {gamma}")
    (cur,) = _analyses(state, alpha, beta, channel)
    return cur, CQChannel(cur.advance(gamma), channel.classical)


def random_channel(
    dim_t: int, size_x: int, classical: bool = False, seed: int | np.random.Generator = 0
) -> CQChannel:
    """Random full-rank channel: per x a flat-Dirichlet spectrum in a Haar
    basis.  A classical channel is the (sizeX, dimT) table of the spectra
    alone, drawn in one call: the same numbers as one draw per x.  A quantum
    channel's spectra are the same numbers as per-x ``dirichlet`` draws."""
    if dim_t < 1 or size_x < 1:
        raise InvariantError(f"dim_t and size_x must be >= 1, got {dim_t}, {size_x}")
    gen = seed if isinstance(seed, np.random.Generator) else rng.derive_rng(seed, "channel")
    if classical:
        return CQChannel(gen.dirichlet(np.ones(dim_t), size=size_x), classical=True)
    # Per x a spectrum's exponentials, then a Gaussian matrix for its basis, in stream
    # order.  A flat Dirichlet draw is exponentials times 1 / their sum in draw order.
    e = np.empty((size_x, dim_t))
    z = np.empty((size_x, 2, dim_t, dim_t))
    exponential, normal = gen.standard_exponential, gen.standard_normal
    for x in range(size_x):
        exponential(out=e[x])
        normal(out=z[x])
    total = np.add.accumulate(e, axis=1)[:, -1]
    p = e * (1.0 / total)[:, None]
    if dim_t == 2:  # p0 on the Bloch vector b of q0 = z0 / |z0|, p1 on -b
        u, v = (z[:, 0, :, 0] + 1j * z[:, 1, :, 0]).T
        uv, uu, vv = np.conj(u) * v, u.real**2 + u.imag**2, v.real**2 + v.imag**2
        minus_b = np.stack([-2 * uv.real, -2 * uv.imag, vv - uu])  # |u|^2 + |v|^2 times -b
        return CQChannel((p, *linalg.pauli_of(np.stack([p, linalg.log_floor(p)]), minus_b.T, uu + vv)))
    v = linalg.haar_unitary(z[:, 0] + 1j * z[:, 1])
    return CQChannel((p, linalg.from_eig(p, v), linalg.from_eig(linalg.log_floor(p), v)))


def run_qib(
    state: CQState, config: ObjectiveConfig, initial: CQChannel | None = None
) -> tuple[CQChannel, IterationTrace]:
    """Iterate to convergence from a random (or given) initial channel.

    Stops once |f_n - f_{n+1}| <= tol (ties included) or after max_iters
    updates.  The trace has one row per visited iterate (updates + 1): each
    row reports the iterate's metrics and its prospective step columns, so
    the final row's step_divergence and fixed_point_residual certify the
    fixed point.  Objective increases beyond 1e-9 are flagged, not fatal.
    """
    config.validate()
    gamma = config.effective_gamma
    if not (gamma > 0):
        raise InvariantError(
            "effective gamma must be positive; alpha=0 requires an explicit gamma "
            "(or use the deterministic-variant runner)"
        )
    return _iterate(state, config, initial, "run-qib", lambda cur: cur.advance(gamma), deterministic=False)


def _iterate(
    state: CQState, config: ObjectiveConfig, initial: CQChannel | None, init_label: str,
    step: Callable[[_Analysis], np.ndarray | tuple[np.ndarray, ...]], deterministic: bool,
) -> tuple[CQChannel, IterationTrace]:
    """The loop both runners share; ``step`` maps an analyzed iterate to the
    next one's (p, sigma, log sigma), or stack, or table on a classical run.
    A missing ``initial`` is drawn from the seed under ``init_label``; a given
    one must fit the state's sizeX and the config's dimT and classical flag,
    and a classical one starts a quantum run as the quantum channel of its
    stack.  Each step's output becomes the next iterate's channel, which
    carries it, analyzed in the form of the first.
    ``deterministic`` rows carry support_T and a nan step-size ratio, since
    gamma has no role in the projector step."""
    if initial is None:
        seed = rng.derive_rng(config.seed, init_label, "init")
        initial = random_channel(config.dim_t, state.size_x, classical=config.classical, seed=seed)
    elif initial.size_x != state.size_x:
        raise InvariantError(f"initial channel has sizeX {initial.size_x}, state has {state.size_x}")
    elif initial.dim_t != config.dim_t:
        raise InvariantError(f"initial channel has dimT {initial.dim_t}, config has {config.dim_t}")
    elif config.classical and not initial.classical:
        raise InvariantError("config requests a classical run but the initial channel is not classical")
    elif initial.classical and not config.classical:
        initial = CQChannel(initial.sigma_t_given_x)

    alpha, beta = config.alpha, config.beta
    (cur,) = _analyses(state, alpha, beta, initial)
    trace = IterationTrace()
    converged = False
    # The last pass only records the prospective step from the returned iterate.
    for n in range(1, config.max_iters + 2):
        nxt = type(cur)(state, CQChannel(step(cur), config.classical), alpha, beta)
        trace.records.append(_record(n, cur, nxt, deterministic))
        if converged or n > config.max_iters:
            break
        if nxt.f_alpha > cur.f_alpha + MONOTONICITY_TOL:
            trace.violations.append(n)
        converged = abs(cur.f_alpha - nxt.f_alpha) <= config.tol
        cur = nxt
    trace.status = (STATUS_MONOTONICITY_VIOLATED if trace.violations
                    else STATUS_CONVERGED if converged else STATUS_MAX_ITERS)
    return cur.channel, trace


def _record(n: int, cur: _Analysis, nxt: _Analysis, deterministic: bool) -> TraceRecord:
    return TraceRecord(
        iteration=n,
        f_alpha=cur.f_alpha,
        h_t=cur.h_t,
        i_tx=cur.i_tx,
        i_ty=cur.i_ty,
        step_divergence=cur.divergence(nxt),
        gamma_ratio=float("nan") if deterministic else nxt.ratio(cur),
        fixed_point_residual=cur.residual(nxt.channel),
        support_t=int(np.sum(cur.sigma_t_evals > SUPPORT_EVAL_TOL)) if deterministic else None,
    )


def estimate_kappa(state: CQState, samples: int = 200, seed: int = 0) -> float:
    """Lower bound on the source's divergence contraction coefficient.

    kappa = sup over distribution pairs (Q, Q') on X of
    D(sum Q rho_{Y|x} || sum Q' rho_{Y|x}) / D(Q || Q'), always <= 1.
    Sampled pairs are flat-Dirichlet plus all smoothed vertex pairs; every
    pair is mixed with 1e-6 of uniform so the classical divergence stays
    finite, which keeps the estimate a valid lower bound.
    """
    nx = state.size_x
    if nx < 2:
        raise InvariantError("kappa needs at least two source symbols")
    if samples < 0:
        raise InvariantError(f"samples must be >= 0, got {samples}")
    gen = rng.derive_rng(seed, "kappa")
    flat = state.rho_y_given_x.reshape(nx, -1)

    eps = 1e-6
    uniform = np.full(nx, 1.0 / nx)
    # Pairs are scored as they are drawn, so memory stays flat in ``samples``.
    vertices = itertools.permutations(np.eye(nx) if nx <= 12 else (), 2)
    drawn = ((gen.dirichlet(np.ones(nx)), gen.dirichlet(np.ones(nx))) for _ in range(samples))

    best = 0.0
    for q, qp in itertools.chain(vertices, drawn):
        q = (1 - eps) * q + eps * uniform
        qp = (1 - eps) * qp + eps * uniform
        d_cl = float(np.sum(q * (np.log(q) - np.log(qp))))
        if d_cl <= RATIO_DENOM_TOL:
            continue
        d_qu = model.relative_entropy(*(np.stack([q, qp]) @ flat).reshape(2, state.dim_y, state.dim_y))
        if np.isfinite(d_qu):
            best = max(best, d_qu / d_cl)
    return best
