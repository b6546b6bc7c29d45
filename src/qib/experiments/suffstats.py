"""Sufficient-statistics recovery: can the deterministic bottleneck find the
informative factor of a scrambled two-factor source?

The source hides X1 (which determines Y up to noise) inside a relabeled
product alphabet.  The deterministic solver with |T| = |X| competes against
the oracle baseline that unscrambles the labels and simply discards X2.
The solver should cross below the baseline objective within a few
iterations and retain essentially all of I(X:Y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import engine, model, qdib, rng
from ..exceptions import InvariantError
from ..model import CQChannel, CQState, ObjectiveConfig
from .ensembles import SuffStatsInstance, SuffStatsSpec, gen_suffstats_ensemble


def baseline_discard_x2(
    state: CQState,
    permutation: np.ndarray,
    size_x1: int,
    size_x2: int,
    beta: float,
) -> dict[str, float]:
    """Oracle baseline: undo the relabeling, keep X1, drop X2.

    T = x1-component of the structured index, so H(T) = ln size_x1 and
    f_DIB = ln size_x1 - beta I(X1:Y), as the solver's analysis scores that
    one-hot table.  Returns f_dib, i_x1y and h_t.
    """
    perm = np.asarray(permutation)
    size = size_x1 * size_x2
    if state.size_x != size or perm.shape != (size,):
        raise InvariantError(
            f"state/permutation sized {state.size_x}/{perm.shape} do not match "
            f"size_x1 * size_x2 = {size}"
        )
    # recorded cell j is structured cell argsort(perm)[j]; T(j) is its x1
    table = np.eye(size_x1)[np.argsort(perm) // size_x2]
    (a,) = engine._analyses(state, 0.0, beta, CQChannel(table, classical=True))
    return {"f_dib": float(a.f_alpha), "i_x1y": float(a.i_ty), "h_t": float(a.h_t)}


@dataclass(frozen=True)
class SuffStatsReport:
    instance: SuffStatsInstance
    trace: engine.IterationTrace
    metrics: dict[str, float]
    # The two tables: one row per trace record, keyed by its CSV columns in their order.
    fdib_rows: list[dict[str, float]]
    ity_rows: list[dict[str, float]]


def suffstats_pipeline(
    spec: SuffStatsSpec,
    beta: float = 20.0,
    dim_t: int | None = None,
    seed: int = 0,
    tol: float = 1e-8,
    max_iters: int = 200,
) -> SuffStatsReport:
    """Run the deterministic solver on one scrambled instance.

    Returns the per-iteration comparison rows (objective against the
    discard-X2 baseline; retained information against I(X1:Y) and I(X:Y))
    plus summary metrics, including the crossing iteration (first row with
    solver objective strictly below the baseline; 0 if never).
    """
    instance = gen_suffstats_ensemble(spec)
    state = instance.state
    n1, n2 = spec.size_x1, spec.size_x2
    if dim_t is None:
        dim_t = state.size_x
    config = ObjectiveConfig(
        alpha=0.0,
        beta=beta,
        dim_t=dim_t,
        classical=True,
        tol=tol,
        max_iters=max_iters,
        seed=rng.derive_seed(seed, "suffstats-run"),
    )
    _, trace = qdib.run_qdib(state, config)
    baseline = baseline_discard_x2(state, instance.permutation, n1, n2, beta)
    i_xy = model.holevo_information(state)

    fdib_rows = [{"iter": r.iteration, "f_dib_qdib": r.f_alpha, "f_dib_baseline": baseline["f_dib"]}
                 for r in trace.records]
    ity_rows = [{"iter": r.iteration, "I_TY": r.i_ty, "I_X1Y_baseline": baseline["i_x1y"], "I_XY": i_xy}
                for r in trace.records]
    crossing = 0
    for r in trace.records:
        if r.f_alpha < baseline["f_dib"]:
            crossing = r.iteration
            break
    final = trace.records[-1]
    metrics = {
        "f_dib_final": final.f_alpha,
        "f_dib_baseline": baseline["f_dib"],
        "i_ty_final": final.i_ty,
        "i_x1y_baseline": baseline["i_x1y"],
        "i_xy": i_xy,
        "epsilon": i_xy - final.i_ty,
        "support_t_final": float(final.support_t or 0),
        "crossing_iteration": float(crossing),
    }
    return SuffStatsReport(
        instance=instance,
        trace=trace,
        metrics=metrics,
        fdib_rows=fdib_rows,
        ity_rows=ity_rows,
    )
