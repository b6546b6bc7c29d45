"""Parameter sweeps over the step size gamma and the trade-off weight beta.

The gamma sweep starts every run from one shared random initial channel so
the trajectories are comparable; the beta sweep reruns from fresh per-beta
initializations and pairs each converged point with the source's divergence
contraction bound, whose inverse marks the triviality threshold in beta.

The runs are independent: ``_map_runs`` runs them in min(runs, 2 x usable cores)
processes, the calling one and others forked from it with OpenBLAS pinned to one thread;
with one usable core or no pin, in turn in the calling process.  Output bytes match.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Callable, Sequence
from dataclasses import replace

from .. import engine, linalg, rng
from ..engine import IterationTrace
from ..exceptions import InvariantError
from ..model import CQChannel, CQState, ObjectiveConfig


def _map_runs(fn: Callable, items: Sequence) -> list:
    """[fn(item) for item in items] on up to twice as many processes as cores.  Of failed
    runs the earliest in input order raises, as in a loop; no run starts after a failure,
    and a run process that exits without reporting fails its item."""
    workers = min(len(items), 2 * cores) if (cores := len(os.sched_getaffinity(0))) > 1 else 1
    with linalg.one_blas_thread() if workers > 1 else contextlib.nullcontext(False) as pinned:
        if not pinned:
            return [fn(item) for item in items]
        import multiprocessing  # here, not at the top: it costs `import qib.cli` 5-9 ms
        ctx, n, done, procs = multiprocessing.get_context("fork"), len(items), {}, []
        taken, owner = ctx.Value("i", 0), ctx.Array("i", n, lock=False)

        def work(w: int, report: Callable) -> None:
            while True:  # items leave in input order: every run before a failed one has started
                with taken.get_lock():
                    if (i := taken.value) == n:
                        return
                    taken.value, owner[i] = i + 1, w
                try:
                    report({i: (True, fn(items[i]))})
                except BaseException as exc:
                    taken.value = n
                    report({i: (False, exc)})

        try:
            for w in range(1, workers):  # each run process holds the write end of its own pipe only
                reader, writer = ctx.Pipe(duplex=False)
                (proc := ctx.Process(target=work, args=(w, writer.send))).start()
                procs.append((proc, reader))
                writer.close()
            work(0, done.update)
            for _, reader in procs:  # every pipe drained before any join: a full one blocks its writer
                with contextlib.suppress(EOFError):
                    while True:
                        done.update(reader.recv())
            for proc, _ in procs:
                proc.join()
        finally:
            for proc, _ in procs:  # no run process outlives the call; kill is a no-op once joined
                proc.kill()
                proc.join()
        done |= {i: (False, RuntimeError(f"item {i}: its process exited with code {procs[w - 1][0].exitcode}"
                                         " before reporting")) for i, w in enumerate(owner) if w and i not in done}
    if failed := [i for i, (ok, _) in done.items() if not ok]:
        raise done[min(failed)][1]
    return [done[i][1] for i in range(n)]


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
