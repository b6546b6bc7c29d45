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

Internals are batched over x: conditionals are stacked (sizeX, dimT, dimT)
arrays.  The update hands the next iterate (p, sigma, log sigma): the
spectra of the conditionals, lifted by ``linalg.eig_lift`` from the
eigenvalues of the update exponent to the stack and its floored log, so the
conditionals are never decomposed.  A quantum iteration costs two stacked
eigendecompositions, of the update exponent and of the residual, plus those
of sigma_T and the (T, Y) joint; at dimT = 2 none of them asks for an
eigenvector stack.  sigma_T, the joint and the beta term of F are each one
matrix product on reshaped stacks.  A classical channel iterates as its
(sizeX, dimT) table instead, where only the dimY x dimY blocks of the joint
are decomposed.
"""

from __future__ import annotations

import itertools
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


class _StateCtx:
    """Per-source quantities reused across iterations."""

    def __init__(self, state: CQState):
        self.px = state.px
        self.rhos = state.rho_y_given_x
        wy, self.log_rho_y = linalg.floored_log(state.rho_y)
        self.h_y = linalg.entropy(wy)


class _Analysis:
    """Everything the loop needs about one channel iterate, read from the
    stack, spectra and floored log the channel carries; with ``table`` from
    its (sizeX, dimT) table q[x, t] instead, in which form ``mats``,
    ``log_mats`` and ``f_family`` come too."""

    __slots__ = (
        "channel", "mats", "log_mats", "h_each", "h_t_given_x", "sigma_t_evals", "log_sigma_t",
        "h_t", "i_tx", "i_ty", "f_alpha", "f_family",
    )

    def __init__(self, ctx: _StateCtx, channel: CQChannel, table: bool, alpha: float, beta: float):
        px, rhos = ctx.px, ctx.rhos
        self.channel, self.mats = channel, (mats := _form(channel, table))
        if table:
            # Diagonal in T: the joint is the block stack J_t = sum_x P(x) q[x, t] rho_x.
            evals, self.log_mats = mats, linalg.log_floor(mats)
            self.sigma_t_evals = px @ mats
            self.log_sigma_t = linalg.log_floor(self.sigma_t_evals)
            joint = _joint(px, mats, rhos)
        else:
            dt, dy = channel.dim_t, rhos.shape[-1]
            evals, self.log_mats = channel.floored_log
            self.sigma_t_evals, self.log_sigma_t = linalg.floored_log((px @ mats.reshape(len(px), -1)).reshape(dt, dt))
            joint = _joint(px, mats, rhos).transpose(0, 2, 1, 3).reshape(dt * dy, dt * dy)
        wj, log_joint = linalg.floored_log(joint)
        self.h_each = linalg.entropy(evals)
        self.h_t_given_x = float(px @ self.h_each)
        self.h_t = linalg.entropy(self.sigma_t_evals)

        self.i_tx = self.h_t - self.h_t_given_x
        self.i_ty = self.h_t + ctx.h_y - linalg.entropy(wj.ravel())
        self.f_alpha = self.h_t - alpha * self.h_t_given_x - beta * self.i_ty

        if table:
            # Tr rho_x (log s_t I + log rho_Y - log J_t)
            beta_term = self.log_sigma_t + np.tensordot(
                ctx.log_rho_y - log_joint, rhos, axes=([1, 2], [2, 1])
            ).T.real
        else:
            # log(sigma_T (x) rho_Y) on axes (t, y, t', y'), assembled additively so
            # the product-state cancellation against log_joint is exact in floats.
            log_prod = (self.log_sigma_t[:, None, :, None] * np.eye(dy)[None, :, None, :]
                        + np.eye(dt)[:, None, :, None] * ctx.log_rho_y[None, :, None, :])
            b4 = log_prod - log_joint.reshape(dt, dy, dt, dy)
            # Tr_Y[(I (x) rho_x) B]_{tt'} = sum_{y y'} rho_x[y', y] B[t y, t' y']
            beta_term = (rhos.reshape(len(px), -1) @ b4.transpose(3, 1, 0, 2).reshape(dy * dy, -1)).reshape(-1, dt, dt)
        self.f_family = -self.log_sigma_t + alpha * self.log_mats + beta * beta_term


def _joint(px: np.ndarray, mats: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """sum_x P(x) mats_x (x) rhos_x, the axes of mats_x then those of rhos_x."""
    n = len(px)
    return ((px[:, None] * mats.reshape(n, -1)).T @ rhos.reshape(n, -1)).reshape(mats.shape[1:] + rhos.shape[1:])


def _tr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr[a_x b_x] for each x, of two tables or two stacks, one Hermitian."""
    return np.einsum("xk,xk->x", linalg.rows(a), linalg.rows(b))


def _softmax(z: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Each row x of exp(z_x - top_x) over its sum, ``top`` the row maxima."""
    shifted = np.exp(z - top[:, None])
    return shifted / np.einsum("xk->x", shifted)[:, None]


def _advance(analysis: _Analysis, gamma: float) -> np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One multiplicative update from a fully analyzed iterate, as (p, sigma,
    log sigma); on a table it is a row softmax, the soft-clustering update."""
    with np.errstate(over="ignore"):  # the finiteness check below owns the failure
        expon = analysis.log_mats - analysis.f_family / gamma
    if not np.all(np.isfinite(expon)):
        finite = np.isfinite(expon).reshape(len(expon), -1).all(axis=1)
        raise NumericalError(f"update exponent is not finite at x={int(np.argmin(finite))}")
    if expon.ndim == 2:
        return _softmax(expon, expon.max(axis=1))
    we, lift = linalg.eig_lift(expon)
    p = _softmax(we, we[:, -1])
    return p, lift(p), lift(linalg.log_floor(p))


def _avg_divergence(px: np.ndarray, cur: _Analysis, other: _Analysis) -> float:
    """sum_x P(x) D(cur_x || other_x) using the floored log of ``other``."""
    return float(px @ (-cur.h_each - _tr(cur.mats, other.log_mats)))


def _ratio_or_nan(px: np.ndarray, new: _Analysis, old: _Analysis) -> float:
    num = float(px @ _tr(new.mats, new.f_family - old.f_family))
    den = _avg_divergence(px, new, old)
    return num / den if den > RATIO_DENOM_TOL else float("nan")


def _residual(px: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """sum_x P(x) ||b_x - a_x||_1, the trace norm (on tables, the l1 norm), each
    x's absolute entries (eigenvalues) summed in the same order whatever sizeX."""
    d = b - a if a.ndim == 2 else linalg.eig_hermitian(b - a, vectors=False)
    return float(px @ np.einsum("xk->x", np.abs(d)))


def _form(channel: CQChannel, table: bool) -> np.ndarray:
    return channel.table() if table else channel.sigma_t_given_x


def _analyses(state: CQState, alpha: float, beta: float, *channels: CQChannel) -> tuple[_StateCtx, list[_Analysis]]:
    """One source context and an analysis of each channel against it, on
    tables when every channel is classical."""
    for channel in channels:
        if channel.size_x != state.size_x:
            raise InvariantError(f"state has sizeX {state.size_x} but channel has {channel.size_x}")
    ctx = _StateCtx(state)
    table = all(c.classical for c in channels)
    return ctx, [_Analysis(ctx, c, table, alpha, beta) for c in channels]


def f_operator(state: CQState, channel: CQChannel, alpha: float, beta: float) -> np.ndarray:
    """Operator family F(x) in the channel's form: a (sizeX, dimT, dimT) stack,
    Hermitian up to round-off, or a classical channel's (sizeX, dimT) table.

    The average Tr[sigma_{T|x} F(x)] under P_X reproduces the objective
    exactly; that identity is the backbone correctness check.
    """
    _, (analysis,) = _analyses(state, alpha, beta, channel)
    return analysis.f_family


def update(state: CQState, channel: CQChannel, gamma: float, alpha: float, beta: float) -> CQChannel:
    """One accelerated update; preserves the classical restriction."""
    if not (gamma > 0):
        raise InvariantError(f"gamma must be > 0, got {gamma}")
    _, (analysis,) = _analyses(state, alpha, beta, channel)
    return CQChannel(_advance(analysis, gamma), channel.classical)


def gamma_ratio(state: CQState, channel: CQChannel, channel2: CQChannel, alpha: float, beta: float) -> float:
    """Empirical ratio bounding the usable step size.

    ratio = sum_x P Tr[sigma_x (F[sigma](x) - F[sigma'](x))]
            / sum_x P D(sigma_x || sigma'_x),

    which never exceeds alpha.  Raises NumericalError for near-identical
    channels where the denominator vanishes and the ratio is undefined.
    """
    ctx, (a, b) = _analyses(state, alpha, beta, channel, channel2)
    ratio = _ratio_or_nan(ctx.px, a, b)
    if np.isnan(ratio):
        raise NumericalError(
            f"gamma ratio undefined: channel divergence vanishes (at most "
            f"{RATIO_DENOM_TOL:.0e}; channels are numerically identical)"
        )
    return ratio


def j_function(
    state: CQState, channel: CQChannel, channel2: CQChannel, gamma: float, alpha: float, beta: float
) -> float:
    """Surrogate objective gamma * D(sigma||sigma') + sum_x P Tr[sigma F[sigma']].

    Coincides with the objective on the diagonal and is minimized in its
    first argument by one update step from the second.
    """
    ctx, (a, b) = _analyses(state, alpha, beta, channel, channel2)
    return gamma * _avg_divergence(ctx.px, a, b) + float(ctx.px @ _tr(a.mats, b.f_family))


def fixed_point_residual(state: CQState, channel: CQChannel, gamma: float, alpha: float, beta: float) -> float:
    """Average trace-norm displacement of one update step."""
    nxt = update(state, channel, gamma, alpha, beta)
    table = channel.classical
    return _residual(state.px, _form(channel, table), _form(nxt, table))


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
    for x in range(size_x):
        e[x] = gen.standard_exponential(dim_t)
        z[x] = gen.standard_normal((2, dim_t, dim_t))
    total = np.add.accumulate(e, axis=1)[:, -1]
    return CQChannel((e * (1.0 / total)[:, None], linalg.haar_unitary(z[:, 0] + 1j * z[:, 1])))


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
    return _iterate(
        state, config, initial, "run-qib",
        lambda cur: _advance(cur, gamma), deterministic=False,
    )


def _iterate(
    state: CQState, config: ObjectiveConfig, initial: CQChannel | None, init_label: str,
    step: Callable[[_Analysis], np.ndarray | tuple[np.ndarray, ...]], deterministic: bool,
) -> tuple[CQChannel, IterationTrace]:
    """The loop both runners share; ``step`` maps an analyzed iterate to the
    next one's (p, sigma, log sigma), or stack, or table on a classical run.
    A missing ``initial`` is drawn from the seed under ``init_label``; a given
    one must fit the state's sizeX and the config's dimT and classical flag.
    Each step's output becomes the next iterate's channel, which carries it.
    ``deterministic`` rows carry support_T and a nan step-size ratio, since
    gamma has no role in the projector step."""
    if initial is None:
        seed = rng.derive_rng(config.seed, init_label, "init")
        initial = random_channel(config.dim_t, state.size_x, classical=config.classical, seed=seed)
    elif initial.size_x != state.size_x:
        raise InvariantError(
            f"initial channel has sizeX {initial.size_x}, state has {state.size_x}"
        )
    elif initial.dim_t != config.dim_t:
        raise InvariantError(f"initial channel has dimT {initial.dim_t}, config has {config.dim_t}")
    elif config.classical and not initial.classical:
        raise InvariantError("config requests a classical run but the initial channel is not classical")

    alpha, beta, table = config.alpha, config.beta, config.classical
    ctx = _StateCtx(state)
    cur = _Analysis(ctx, initial, table, alpha, beta)
    trace = IterationTrace()
    converged = False
    # The last pass only records the prospective step from the returned iterate.
    for n in range(1, config.max_iters + 2):
        nxt = _Analysis(ctx, CQChannel(step(cur), table), table, alpha, beta)
        trace.records.append(_record(ctx, n, cur, nxt, deterministic))
        if converged or n > config.max_iters:
            break
        if nxt.f_alpha > cur.f_alpha + MONOTONICITY_TOL:
            trace.violations.append(n)
        converged = abs(cur.f_alpha - nxt.f_alpha) <= config.tol
        cur = nxt
    trace.status = (STATUS_MONOTONICITY_VIOLATED if trace.violations
                    else STATUS_CONVERGED if converged else STATUS_MAX_ITERS)
    return cur.channel, trace


def _record(ctx: _StateCtx, n: int, cur: _Analysis, nxt: _Analysis, deterministic: bool) -> TraceRecord:
    return TraceRecord(
        iteration=n,
        f_alpha=cur.f_alpha,
        h_t=cur.h_t,
        i_tx=cur.i_tx,
        i_ty=cur.i_ty,
        step_divergence=_avg_divergence(ctx.px, cur, nxt),
        gamma_ratio=float("nan") if deterministic else _ratio_or_nan(ctx.px, nxt, cur),
        fixed_point_residual=_residual(ctx.px, cur.mats, nxt.mats),
        support_t=(
            int(np.sum(cur.sigma_t_evals > SUPPORT_EVAL_TOL)) if deterministic else None
        ),
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
