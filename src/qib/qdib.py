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
    """Score family S(x) = -F_0(x) in the channel's form, as ``engine.f_operator``."""
    return -engine.f_operator(state, channel, alpha=0.0, beta=beta)


def min_eigenspace_projector(h: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the minimal eigenspace of a Hermitian
    matrix (stacked OK).

    Eigenvalues within PROJECTOR_REL_TOL * (spread) of the minimum count as tied and
    are kept, so a multiple of the identity yields the full identity.  ``h`` is
    read through its lower triangle; the projector is Hermitian up to round-off.
    """
    w, v = linalg.eig_hermitian(h)
    window = w[..., :1] + PROJECTOR_REL_TOL * (w[..., -1:] - w[..., :1])
    keep = w <= window  # a prefix of the columns, since w ascends
    k = int(keep.sum(axis=-1).max())
    return linalg.from_eig(keep[..., :k].astype(np.float64), v[..., :k])


def qdib_update(state: CQState, channel: CQChannel, beta: float) -> CQChannel:
    """One deterministic update: conditionals are compressed onto the
    minimal eigenspace of F_0 and renormalized.

    Raises NumericalError naming the first x whose overlap
    Tr[sigma_{T|x} P(x)] is 1e-14 or less.  The runner takes the same step
    but puts P/rank(P) at such x instead (see ``_projected_step``); the bare
    op refuses to choose.
    """
    _, (analysis,) = engine._analyses(state, 0.0, beta, channel)
    out, vanished = _projected_step(analysis.f_family, analysis.mats)
    if vanished:
        raise NumericalError(
            f"deterministic update undefined at x={vanished[0]}: projector overlap "
            f"is at most {OVERLAP_TOL:.0e} (conditional has no mass on the "
            "minimal eigenspace)"
        )
    return CQChannel(out, channel.classical)


def _projected_step(fam: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Compress each conditional onto the minimal eigenspace P(x) of F_0(x)
    and renormalize by the overlap Tr[sigma_{T|x} P(x)].  On a table q[x, t]
    P(x) is the indicator of the row's tied minima of F_0, and the step is
    the hard assignment of the deterministic IB.

    Where that overlap is 1e-14 or less the new conditional is P/rank(P),
    the exact alpha -> 0 limit of the gamma = alpha update, which descends
    with no overlap condition.  Returns the new stack and those x in order;
    the runner keeps the fallback, ``qdib_update`` raises on it.
    """
    if fam.ndim == 2:
        lo, hi = fam.min(axis=1)[:, None], fam.max(axis=1)[:, None]
        proj = (fam <= lo + PROJECTOR_REL_TOL * (hi - lo)).astype(np.float64)
        out = proj * mats
        overlap, rank = out.sum(axis=1), proj.sum(axis=1)
    else:
        proj = min_eigenspace_projector(fam)
        out = proj @ mats @ proj
        overlap = np.trace(out, axis1=1, axis2=2).real
        rank = np.trace(proj, axis1=1, axis2=2).real
    gone = overlap <= OVERLAP_TOL
    out[gone] = proj[gone]
    out /= np.where(gone, rank, overlap).reshape((-1,) + (1,) * (out.ndim - 1))
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
        lambda cur: _projected_step(cur.f_family, cur.mats)[0],
        deterministic=True,
    )
