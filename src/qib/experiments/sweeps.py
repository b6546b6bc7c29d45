"""Parameter sweeps over the step size gamma and the trade-off weight beta.

The gamma sweep starts every run from one shared random initial channel so
the trajectories are comparable; the beta sweep reruns from fresh per-beta
initializations and pairs each converged point with the source's divergence
contraction bound, whose inverse marks the triviality threshold in beta.

The runs are independent: ``_map_runs`` runs them on min(runs, 2 x usable cores)
threads, the calling one included, with OpenBLAS pinned to one thread, process-wide,
while they are in flight; with one usable core or no pin, one after another on the
calling thread.  Either way the output is byte-identical.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import replace

from .. import engine, linalg, rng
from ..engine import IterationTrace
from ..exceptions import InvariantError
from ..model import CQChannel, CQState, ObjectiveConfig


def _map_runs(fn: Callable, items: Sequence) -> list:
    """[fn(item) for item in items], run as the module docstring says: up to twice
    as many runs as cores share them, so none idles while the last runs end.  Of
    failed runs the earliest in input order raises, as in a loop; no run starts
    after a failure, and no helper thread outlives the call."""
    workers = min(len(items), 2 * cores) if (cores := len(os.sched_getaffinity(0))) > 1 else 1
    with linalg.one_blas_thread() if workers > 1 else contextlib.nullcontext(False) as pinned:
        if not pinned:
            return [fn(item) for item in items]
        results, errors, lock, queue = [None] * len(items), {}, threading.Lock(), enumerate(items)

        def work() -> None:
            # Items leave the queue in input order: every run before a failed one has started.
            while True:
                with lock:
                    i, item = (None, None) if errors else next(queue, (None, None))
                if i is None:
                    return
                try:
                    results[i] = fn(item)
                except BaseException as exc:
                    errors[i] = exc

        helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
        try:
            for helper in helpers:
                helper.start()
            work()
        finally:
            for helper in helpers:
                helper.join()
    if errors:
        raise errors[min(errors)]
    return results


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

    # The runs share the source's cached rho_Y log: derive it before they read it.
    # (random_channel's initial carries every form a run reads.)
    state.rho_y_log
    traces = _map_runs(lambda g: engine.run_qib(state, replace(config, gamma=g), initial=initial)[1], gamma_list)
    return list(zip(gamma_list, traces)), initial


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

    def final(i: int) -> engine.TraceRecord:
        cfg = replace(config, beta=beta_list[i], seed=rng.derive_seed(config.seed, "beta-sweep", i))
        return engine.run_qib(state, cfg)[1].records[-1]

    state.rho_y_log  # shared by the runs: derive it before they read it
    return [
        {"beta": beta, "f": r.f_alpha, "H_T": r.h_t, "I_TX": r.i_tx, "I_TY": r.i_ty, "kappa_lower_bound": kappa}
        for beta, r in zip(beta_list, _map_runs(final, range(len(beta_list))))
    ]
