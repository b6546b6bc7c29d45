"""Deterministic bottleneck: the alpha -> 0 projector limit of the solver.

At alpha = 0 the multiplicative update degenerates to projection onto the
minimal eigenspace of F_0(x), equivalently the maximal eigenspace of the
score operator

    S(x) = (1 - beta) log sigma_T + beta Tr_Y[(I (x) rho_{Y|x})
           (log sigma_joint - I (x) log rho_Y)] = -F_0(x),

and the objective H(T) - beta I(T:Y) decreases at every step with no
side condition.  On classical channels the iterates are exact point
masses, i.e. deterministic cluster assignments.
"""

from __future__ import annotations

import numpy as np

from . import engine, linalg
from .engine import IterationTrace
from .exceptions import InvariantError, NumericalError
from .model import CQChannel, CQState, ObjectiveConfig

OVERLAP_TOL = 1e-14
PROJECTOR_REL_TOL = 1e-9


def score_operator(state: CQState, channel: CQChannel, beta: float) -> np.ndarray:
    """Stacked score family S(x) = -F_0(x), shape (sizeX, dimT, dimT)."""
    return -engine.f_operator(state, channel, alpha=0.0, beta=beta)


def min_eigenspace_projector(h: np.ndarray, rel_tol: float = PROJECTOR_REL_TOL) -> np.ndarray:
    """Orthogonal projector onto the minimal eigenspace of a Hermitian
    matrix (stacked OK).

    Eigenvalues within rel_tol * (spread) of the minimum count as tied and
    are kept, so a multiple of the identity yields the full identity.
    """
    w, v = linalg.eig_hermitian(h)
    window = w[..., :1] + rel_tol * (w[..., -1:] - w[..., :1])
    keep = w <= window  # a prefix of the columns, since w ascends
    k = int(keep.sum(axis=-1).max())
    sel = v[..., :k] * keep[..., None, :k]
    return linalg.hermitize(sel @ np.conj(np.swapaxes(sel, -1, -2)))


def qdib_update(state: CQState, channel: CQChannel, beta: float) -> CQChannel:
    """One deterministic update: conditionals are compressed onto the
    minimal eigenspace of F_0 and renormalized.

    Raises NumericalError naming the first x whose overlap
    Tr[sigma_{T|x} P(x)] is 1e-14 or less.  The runner takes the same step
    but puts P/rank(P) at such x instead (see ``_projected_step``); the bare
    op refuses to choose.
    """
    fam = engine.f_operator(state, channel, alpha=0.0, beta=beta)
    out, vanished = _projected_step(fam, channel.sigma_t_given_x, channel.classical)
    if vanished:
        raise NumericalError(
            f"deterministic update undefined at x={vanished[0]}: projector overlap "
            f"is at most {OVERLAP_TOL:.0e} (conditional has no mass on the "
            "minimal eigenspace)"
        )
    return CQChannel(out, channel.classical)


def _projected_step(
    fam: np.ndarray, mats: np.ndarray, classical: bool
) -> tuple[np.ndarray, list[int]]:
    """Compress each conditional onto the minimal eigenspace P(x) of F_0(x)
    and renormalize by the overlap Tr[sigma_{T|x} P(x)].

    Where that overlap is 1e-14 or less the new conditional is P/rank(P),
    the exact alpha -> 0 limit of the gamma = alpha update, which descends
    with no overlap condition.  Returns the new stack and those x in order;
    the runner keeps the fallback, ``qdib_update`` raises on it.
    """
    proj = min_eigenspace_projector(fam)
    out = proj @ mats @ proj
    overlap = np.trace(out, axis1=1, axis2=2).real
    gone = overlap <= OVERLAP_TOL
    out[gone] = proj[gone]
    out /= np.where(gone, np.trace(proj, axis1=1, axis2=2).real, overlap)[:, None, None]
    out = linalg.hermitize(out)
    if classical:
        out = engine._rediagonalize(out)
    return out, np.flatnonzero(gone).tolist()


def run_qdib(
    state: CQState,
    config: ObjectiveConfig,
    initial: CQChannel | None = None,
) -> tuple[CQChannel, IterationTrace]:
    """Deterministic-bottleneck runner; alpha is pinned to 0.

    Same loop and trace semantics as the soft solver, with support_T (count
    of sigma_T eigenvalues above 1e-9) per row and no step-size ratio (gamma
    has no role here, the column is nan).  Vanishing overlaps take the
    P/rank(P) fallback of ``_projected_step``.
    """
    config.validate()
    if config.alpha != 0.0:
        raise InvariantError(
            f"deterministic runner requires alpha=0, got alpha={config.alpha}"
        )
    return engine._iterate(
        state, config, initial, "run-qdib",
        lambda cur: _projected_step(cur.f_family, cur.mats, config.classical)[0],
        deterministic=True,
    )
