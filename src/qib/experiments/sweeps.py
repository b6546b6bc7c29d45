"""Parameter sweeps over the step size gamma and the trade-off weight beta.

The gamma sweep starts every run from one shared random initial channel so
the trajectories are comparable; the beta sweep reruns from fresh per-beta
initializations and pairs each converged point with the source's divergence
contraction bound, whose inverse marks the triviality threshold in beta.
"""

from __future__ import annotations

from dataclasses import replace

from .. import engine, rng
from ..engine import IterationTrace
from ..exceptions import InvariantError
from ..model import CQChannel, CQState, ObjectiveConfig


def gamma_sweep(
    state: CQState,
    config: ObjectiveConfig,
    gamma_list: list[float],
) -> tuple[list[tuple[float, IterationTrace]], CQChannel]:
    """Run the solver once per gamma from a single seeded initial channel.

    Returns the (gamma, trace) pairs in input order plus the shared initial
    channel.
    """
    if not gamma_list:
        raise InvariantError("gamma_list must not be empty")
    if any(not g > 0 for g in gamma_list):
        raise InvariantError(f"all gammas must be positive, got {gamma_list}")
    initial = engine.random_channel(
        config.dim_t,
        state.size_x,
        classical=config.classical,
        seed=rng.derive_rng(config.seed, "gamma-sweep", "init"),
    )

    results = []
    for gamma in gamma_list:
        _, trace = engine.run_qib(state, replace(config, gamma=gamma), initial=initial)
        results.append((gamma, trace))
    return results, initial


def beta_sweep(
    state: CQState,
    config: ObjectiveConfig,
    beta_list: list[float],
    kappa_samples: int = 200,
) -> list[dict[str, float]]:
    """Converged metrics per beta plus the kappa lower bound of the source.

    Each row carries beta, the converged objective and its entropy/mutual
    information parts, and the (beta-independent) sampled lower bound on
    the contraction coefficient; beta below alpha/kappa provably forces
    the trivial maximally mixed optimum.
    """
    if not beta_list:
        raise InvariantError("beta_list must not be empty")
    if any(b < 0 for b in beta_list):
        raise InvariantError(f"all betas must be >= 0, got {beta_list}")
    kappa = engine.estimate_kappa(
        state, samples=kappa_samples, seed=rng.derive_seed(config.seed, "kappa")
    )

    rows = []
    for i, beta in enumerate(beta_list):
        cfg = replace(config, beta=beta, seed=rng.derive_seed(config.seed, "beta-sweep", i))
        _, trace = engine.run_qib(state, cfg)
        final = trace.records[-1]
        rows.append({
            "beta": beta,
            "f": final.f_alpha,
            "H_T": final.h_t,
            "I_TX": final.i_tx,
            "I_TY": final.i_ty,
            "kappa_lower_bound": kappa,
        })
    return rows
