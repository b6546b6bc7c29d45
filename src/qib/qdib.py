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

from . import engine
from .engine import OVERLAP_TOL, IterationTrace
from .exceptions import InvariantError, NumericalError
from .model import CQChannel, CQState, ObjectiveConfig


def qdib_update(state: CQState, channel: CQChannel, beta: float) -> CQChannel:
    """One deterministic update: conditionals are compressed onto the
    minimal eigenspace of F_0 and renormalized.

    Raises NumericalError naming the first x whose overlap
    Tr[sigma_{T|x} P(x)] is 1e-14 or less.  The runner takes the same step
    but puts P/rank(P) at such x instead (see ``engine._Analysis``'s
    ``project``); the bare op refuses to choose.
    """
    (analysis,) = engine._analyses(state, 0.0, beta, channel)
    out, vanished = analysis.project()
    if vanished:
        raise NumericalError(
            f"deterministic update undefined at x={vanished[0]}: projector overlap "
            f"is at most {OVERLAP_TOL:.0e} (conditional has no mass on the "
            "minimal eigenspace)"
        )
    return analysis.channel(out)


def run_qdib(
    state: CQState,
    config: ObjectiveConfig,
    initial: CQChannel | None = None,
) -> tuple[CQChannel, IterationTrace]:
    """Deterministic-bottleneck runner; alpha is pinned to 0.

    Same loop and trace semantics as the soft solver, with support_T (count
    of sigma_T eigenvalues above 1e-9) per row and no step-size ratio (gamma
    has no role here, the column is nan).  Vanishing overlaps take the
    P/rank(P) fallback of each form's ``project``.
    """
    config.validate()
    if config.alpha != 0.0:
        raise InvariantError(f"deterministic runner requires alpha=0, got alpha={config.alpha}")
    return engine._iterate(state, config, initial, "run-qdib",
                           lambda cur: cur.project()[0], deterministic=True)
