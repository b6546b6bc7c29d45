"""Gamma and beta sweeps: shared initials, guards, kappa column, and the
fan-out of their runs over the usable cores, one process per worker.  What a
run reports to the test goes through fork-context primitives (a ``Value``, an
``Array``, a ``Barrier``, a pipe), since a run may be in another process."""

import contextlib
import dataclasses
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from qib import engine, linalg, rng
from qib.exceptions import InvariantError, NumericalError
from qib.experiments import sweeps
from qib.experiments.sweeps import beta_sweep, gamma_sweep
from qib.model import ObjectiveConfig

import reference
from helpers import f_values, random_cq_state

_FORK = multiprocessing.get_context("fork")


def _state_and_config(seed=0, **kw):
    state = random_cq_state(seed, size_x=4, dim_y=2, tag="sweep")
    defaults = dict(alpha=1.0, beta=2.0, dim_t=2, seed=seed, tol=1e-9, max_iters=150)
    defaults.update(kw)
    return state, ObjectiveConfig(**defaults)


def test_gamma_sweep_shares_the_initial_channel():
    state, config = _state_and_config()
    gammas = [0.5, 1.0, 2.0]
    results, initial = gamma_sweep(state, config, gammas)
    initial.validate()
    assert [g for g, _ in results] == gammas
    f0 = reference.objective_f_alpha(state, initial, config.alpha, config.beta)
    for _, trace in results:
        assert abs(trace.records[0].f_alpha - f0) < 1e-12


def test_gamma_sweep_descends_at_gamma_equal_alpha():
    state, config = _state_and_config(seed=1)
    results, _ = gamma_sweep(state, config, [1.0])
    _, trace = results[0]
    assert not trace.violations
    assert np.all(np.diff(f_values(trace)) <= 1e-9)


def test_gamma_sweep_guards():
    state, config = _state_and_config()
    with pytest.raises(InvariantError, match="empty"):
        gamma_sweep(state, config, [])
    with pytest.raises(InvariantError, match="positive"):
        gamma_sweep(state, config, [0.5, 0.0])


@pytest.mark.parametrize("classical", [False, True])
def test_gamma_sweep_derives_the_rho_y_log_once(monkeypatch, classical):
    # The runs share the source's cached log, derived before they start: a
    # count shared by every run process sees no run derive it again.
    state, config = _state_and_config(classical=classical, max_iters=3)
    derived, floored_log = _FORK.Value("i", 0), linalg.floored_log

    def counting(h):
        if h is state.rho_y:
            with derived.get_lock():
                derived.value += 1
        return floored_log(h)

    monkeypatch.setattr(linalg, "floored_log", counting)
    gamma_sweep(state, config, [1.0, 0.7, 0.4])
    assert derived.value == 1


def test_beta_sweep_rows():
    state, config = _state_and_config(seed=3)
    betas = [0.05, 1.0, 5.0]
    rows = beta_sweep(state, config, betas, kappa_samples=50)
    assert [r["beta"] for r in rows] == betas
    kappas = {r["kappa_lower_bound"] for r in rows}
    assert len(kappas) == 1
    kappa = kappas.pop()
    assert 0.0 <= kappa <= 1.0
    for r in rows:
        assert set(r) == {"beta", "f", "H_T", "I_TX", "I_TY", "kappa_lower_bound"}
        assert r["I_TY"] >= -1e-10
        # columns are tied together: f = H - alpha(H - I_TX) - beta I_TY
        h_cond = r["H_T"] - r["I_TX"]
        assert abs(r["f"] - (r["H_T"] - config.alpha * h_cond - r["beta"] * r["I_TY"])) < 1e-9


def test_beta_sweep_small_beta_is_trivial():
    # far below the contraction threshold the iteration settles on a constant
    # channel: no information retained about either X or Y.  The resting
    # marginal itself is not pinned (any constant channel is a fixed point).
    state, config = _state_and_config(seed=5, tol=1e-12, max_iters=400)
    rows = beta_sweep(state, config, [0.05], kappa_samples=40)
    assert rows[0]["I_TY"] < 1e-6
    assert rows[0]["I_TX"] < 1e-6
    assert 0.0 < rows[0]["H_T"] <= np.log(config.dim_t) + 1e-9


def test_beta_sweep_guards():
    state, config = _state_and_config()
    with pytest.raises(InvariantError, match="empty"):
        beta_sweep(state, config, [])
    with pytest.raises(InvariantError, match=">= 0"):
        beta_sweep(state, config, [1.0, -0.5])


def _bits(trace):
    """Every field of every row by repr, exact for floats (nan and -0.0 included)."""
    return [repr(dataclasses.astuple(r)) for r in trace.records], trace.status, trace.violations


def _blas_threads():
    blas = linalg._openblas()
    return blas and blas[0]()


def _fans_out():
    """Whether a sweep of two or more runs takes more than the calling process here."""
    return len(os.sched_getaffinity(0)) > 1 and linalg._openblas() is not None


def _log():
    """(send, drain): runs in any process send small messages down one fork-context
    pipe (each in one write, so concurrent ones never interleave); once the sweep
    has returned, ``drain()`` lists them in the calling process."""
    reader, writer = _FORK.Pipe(duplex=False)

    def drain():
        got = []
        while reader.poll():
            got.append(reader.recv())
        return got

    return writer.send, drain


def _fan_out_on(monkeypatch, cores):
    """Make ``_map_runs`` fan out over ``cores`` cores' worth of processes,
    whatever the machine and its BLAS, and return the worker count."""
    monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(linalg, "one_blas_thread", lambda: contextlib.nullcontext(True))
    return 2 * cores


def _use_cores(monkeypatch, n):
    """Make at most ``n`` cores usable, never more than the real count (as
    ``taskset`` would), and return how many are."""
    usable = sorted(os.sched_getaffinity(0))[:n]
    monkeypatch.setattr(sweeps.os, "sched_getaffinity", lambda pid: set(usable))
    return len(usable)


def _patch_runs(monkeypatch, before=None, fail=(), slow=()):
    """Route engine.run_qib through a wrapper that calls ``before(config)``,
    sleeps on gammas in ``slow`` and raises on gammas in ``fail``."""
    real = engine.run_qib

    def run_qib(state, config, initial=None):
        if before:
            before(config)
        if config.gamma in slow:
            time.sleep(0.2)
        if config.gamma in fail:
            raise NumericalError(f"run at gamma {config.gamma}")
        return real(state, config, initial)

    monkeypatch.setattr(engine, "run_qib", run_qib)


@pytest.mark.parametrize("dim_t, classical", [(16, False), (2, False), (4, True)],
                         ids=["lapack", "qubit", "classical"])
def test_sweeps_equal_sequential_runs_bit_for_bit(dim_t, classical):
    state, config = _state_and_config(seed=7, dim_t=dim_t, classical=classical, tol=1e-15, max_iters=12)
    gammas = [1.0, 0.7, 0.4]
    results, initial = gamma_sweep(state, config, gammas)
    assert [g for g, _ in results] == gammas
    for gamma, trace in results:
        assert _bits(trace) == _bits(engine.run_qib(state, dataclasses.replace(config, gamma=gamma), initial)[1])
    betas = [0.5, 3.0, 8.0]
    rows = beta_sweep(state, config, betas, kappa_samples=5)
    for i, (beta, row) in enumerate(zip(betas, rows)):
        cfg = dataclasses.replace(config, beta=beta, seed=rng.derive_seed(config.seed, "beta-sweep", i))
        last = engine.run_qib(state, cfg)[1].records[-1]
        assert [repr(row[k]) for k in ("beta", "f", "H_T", "I_TX", "I_TY")] == [
            repr(v) for v in (beta, last.f_alpha, last.h_t, last.i_tx, last.i_ty)]


@pytest.mark.parametrize("fail, slow, stop", [({2.0, 4.0}, {1.0, 3.0}, 2), ({1.0, 2.0}, {1.0, 3.0, 4.0}, 1),
                                             ({6.0}, (), 6), ({1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, (), 1)],
                         ids=["two", "earliest-fails-last", "last", "all"])
def test_sweep_raises_the_earliest_failing_run(monkeypatch, fail, slow, stop):
    # On two cores the sweep has four workers for six gammas.  The first four
    # runs meet at a barrier, so every worker holds a run before any fails, and
    # the slow ones outlast the failures.  A loop would start ``stop`` runs; the
    # fan-out starts no run after a failure, so those and any in flight with them.
    # With "all", every worker, the calling process included, meets a failure.
    cores, gammas = _use_cores(monkeypatch, 2), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    workers = min(len(gammas), 2 * cores) if _fans_out() else 1
    state, config = _state_and_config()
    barrier, (ran, drain) = _FORK.Barrier(workers, timeout=30), _log()

    def before(config):
        ran(config.gamma)
        if gammas.index(config.gamma) < workers:
            barrier.wait()

    _patch_runs(monkeypatch, before=before, fail=fail, slow=slow)
    with pytest.raises(NumericalError, match=f"^run at gamma {min(fail)}$"):
        gamma_sweep(state, config, gammas)
    assert sorted(drain()) == gammas[:max(stop, workers)]


def test_sweep_restores_blas_threads_and_joins_its_helpers(monkeypatch):
    state, config = _state_and_config()
    before = (_blas_threads(), threading.active_count(), [])
    gamma_sweep(state, config, [1.0, 0.7, 0.4])
    assert (_blas_threads(), threading.active_count(), multiprocessing.active_children()) == before
    _patch_runs(monkeypatch, fail={0.7})
    with pytest.raises(NumericalError):
        gamma_sweep(state, config, [1.0, 0.7, 0.4])
    assert (_blas_threads(), threading.active_count(), multiprocessing.active_children()) == before


def test_sweep_runs_on_the_usable_cores(monkeypatch):
    """On two usable cores, with OpenBLAS pinnable, a 3-run sweep (the shape of
    the ``sweep-deep`` workload) has all three runs in flight at once, each in
    its own process, the calling one included, and each reading one BLAS thread
    there; on one core (e.g. under ``taskset -c 0``) every run goes in the
    calling process, BLAS untouched."""
    _use_cores(monkeypatch, 2)
    state, config = _state_and_config()
    before, (record, drain) = _blas_threads(), _log()
    barrier = _FORK.Barrier(3, timeout=30)

    def before_run(config):
        record((os.getpid(), _blas_threads()))
        if _fans_out():
            barrier.wait()  # breaks unless all three runs are in flight together

    _patch_runs(monkeypatch, before=before_run)
    gamma_sweep(state, config, [1.0, 0.7, 0.4])
    seen = drain()
    pids, counts = {p for p, _ in seen}, {c for _, c in seen}
    if _fans_out():
        assert len(seen) == 3 and len(pids) == 3 and os.getpid() in pids and counts == {1}
    else:
        assert len(seen) == 3 and pids == {os.getpid()} and counts == {before}
    assert _blas_threads() == before


def test_sweep_has_at_most_twice_the_cores_in_flight(monkeypatch):
    """A sweep of 2 x cores + 1 runs: the first 2 x cores meet at a barrier, so
    that many are in flight together, and a count shared by the run processes
    shows no more ever are."""
    cores = _use_cores(monkeypatch, 2)
    cap = 2 * cores if _fans_out() else 1
    state, config = _state_and_config()
    gammas = [1.0 + i for i in range(cap + 1)]
    barrier, live, peak = _FORK.Barrier(cap, timeout=30), _FORK.Value("i", 0), _FORK.Value("i", 0)
    real = engine.run_qib

    def run_qib(state, config, initial=None):
        with live.get_lock():
            live.value += 1
            peak.value = max(peak.value, live.value)
        if gammas.index(config.gamma) < cap:
            barrier.wait()
        try:
            return real(state, config, initial)
        finally:
            with live.get_lock():
                live.value -= 1

    monkeypatch.setattr(engine, "run_qib", run_qib)
    results, _ = gamma_sweep(state, config, gammas)
    assert [g for g, _ in results] == gammas
    assert peak.value == cap and live.value == 0


def test_sweep_without_the_blas_setter_runs_in_a_loop(monkeypatch):
    state, config = _state_and_config(seed=2)
    gammas = [1.0, 0.7, 0.4]
    fanned, _ = gamma_sweep(state, config, gammas)
    monkeypatch.setattr(linalg, "_openblas", lambda: None)
    record, drain = _log()
    _patch_runs(monkeypatch, before=lambda config: record(os.getpid()))
    looped, _ = gamma_sweep(state, config, gammas)
    assert drain() == [os.getpid()] * 3
    assert [(g, _bits(t)) for g, t in looped] == [(g, _bits(t)) for g, t in fanned]


def test_map_runs_on_eight_processes(monkeypatch):
    """Eight workers (four cores' worth), whatever the core count: each item
    runs once, results keep input order, the earliest failure raises, and no
    run process is left."""
    _fan_out_on(monkeypatch, 4)
    calls = _FORK.Array("i", 300, lock=False)

    def square(i):
        calls[i] += 1
        return i * i

    def fail_some(i):
        if i in (37, 61):
            raise ValueError(f"item {i}")
        return i

    assert sweeps._map_runs(square, range(300)) == [i * i for i in range(300)]
    assert list(calls) == [1] * 300
    with pytest.raises(ValueError, match="^item 37$"):
        sweeps._map_runs(fail_some, range(300))
    assert multiprocessing.active_children() == []


def test_map_runs_returns_results_larger_than_a_pipe_buffer(monkeypatch):
    # Each result is 1.6 MB; a run process blocks on its pipe until the calling
    # process reads it, so that must come before the join.
    _fan_out_on(monkeypatch, 2)
    results = sweeps._map_runs(lambda i: np.full(200_000, float(i)), range(5))
    assert len(results) == 5
    for i, r in enumerate(results):
        assert np.array_equal(r, np.full(200_000, float(i)))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("death, code", [("exit", 3), ("unpicklable", 1)])
def test_map_runs_raises_when_a_run_process_dies_without_reporting(monkeypatch, death, code):
    """A run process that exits inside a run, or whose failure cannot be
    pickled, sends nothing back: the earliest such item raises with its exit
    code, where waiting on its pipe would block."""
    workers = _fan_out_on(monkeypatch, 2)
    barrier, caller, (held, drain) = _FORK.Barrier(workers, timeout=30), os.getpid(), _log()

    class Unpicklable(Exception):  # a local class: pickle cannot name it
        pass

    def run(i):
        barrier.wait()  # each worker holds one item
        if os.getpid() == caller:
            held(i)
            return i
        if death == "exit":
            os._exit(3)
        raise Unpicklable(i)

    with pytest.raises(RuntimeError) as info:
        sweeps._map_runs(run, range(workers))
    lost = min(set(range(workers)) - set(drain()))
    assert str(info.value) == f"item {lost}: its process exited with code {code} before reporting"
    assert multiprocessing.active_children() == []


def _unloadable():
    raise ValueError("cannot load")


class _Unloadable:
    """Pickles, but fails to unpickle."""

    def __reduce__(self):
        return _unloadable, ()


def test_map_runs_kills_its_run_processes_when_a_result_cannot_be_read(monkeypatch):
    # The runs in other processes return a result the calling process cannot
    # load, then take another item that would sleep for a minute: the load error
    # raises at once, and the sleeping run processes are killed.
    workers = _fan_out_on(monkeypatch, 2)
    barrier, caller = _FORK.Barrier(workers, timeout=30), os.getpid()

    def run(i):
        if i < workers:
            barrier.wait()
        if os.getpid() == caller:
            time.sleep(0.5)
            return i
        if i < workers:
            return _Unloadable()
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="^cannot load$"):
        sweeps._map_runs(run, range(2 * workers))
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []
