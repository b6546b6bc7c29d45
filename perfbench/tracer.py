"""Spans around calls into qib's layers, recorded from outside the package.

qib calls its collaborators through module attributes (``engine.run_qib``,
``serialization.dump_json``, ``np.linalg.eigh``) or through module globals
looked up at call time, so replacing those attributes with timing wrappers
catches every call without touching ``src/``.  Spans stay in memory and
are written out when the run ends.

A span is (name, start, end, parent, request): ``parent`` is the index of
the enclosing span or -1, ``request`` the request id.  The layer of a span
is the part of its name before the first dot.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

import qib.cli
import qib.config
import qib.engine
import qib.exceptions
import qib.experiments.classify
import qib.experiments.suffstats
import qib.model
import qib.qdib
import qib.serialization

# (owner, attribute, span name).  The attribute is where the callers look
# the function up, which for names imported with ``from ... import`` is the
# importing module.
TARGETS = (
    (qib.cli, "main", "cli.main"),
    (qib.serialization, "load_json", "serialization.load_json"),
    (qib.config, "validate_config", "config.validate_config"),
    (qib.config, "resolve_state", "config.resolve_state"),
    (qib.config, "gen_random_qubit_ensemble", "experiments.gen_random_qubit_ensemble"),
    (qib.experiments.suffstats, "gen_suffstats_ensemble", "experiments.gen_suffstats_ensemble"),
    (qib.experiments.classify, "gen_classifier_dataset", "experiments.gen_classifier_dataset"),
    (qib.experiments.classify, "empirical_cq_state", "experiments.empirical_cq_state"),
    (qib.cli, "gamma_sweep", "experiments.gamma_sweep"),
    (qib.cli, "classify_pipeline", "experiments.classify_pipeline"),
    (qib.cli, "suffstats_pipeline", "experiments.suffstats_pipeline"),
    (qib.experiments.suffstats, "baseline_discard_x2", "experiments.baseline_discard_x2"),
    (qib.model, "holevo_information", "model.holevo_information"),
    (qib.experiments.classify, "hs_gram", "experiments.hs_gram"),
    (qib.experiments.classify, "train_classifier", "experiments.train_classifier"),
    (qib.experiments.classify, "predict", "experiments.predict"),
    (qib.engine, "run_qib", "engine.run_qib"),
    (qib.qdib, "run_qdib", "qdib.run_qdib"),
    (qib.serialization, "trace_to_csv", "serialization.trace_to_csv"),
    (qib.serialization, "trace_to_records", "serialization.trace_to_records"),
    (qib.serialization, "dump_json", "serialization.dump_json"),
    (qib.serialization, "write_text_atomic", "serialization.write_text_atomic"),
    (np.linalg, "eigh", "numpy.eigh"),
    (np.linalg, "eigvalsh", "numpy.eigvalsh"),
    (np, "einsum", "numpy.einsum"),
)

LAYERS = ("cli", "config", "serialization", "experiments", "model", "engine", "qdib", "numpy")
FRONT = {"serialization.load_json", "config.validate_config", "config.resolve_state"}
EMIT = {"serialization.trace_to_csv", "serialization.trace_to_records",
        "serialization.dump_json", "serialization.write_text_atomic"}
GENERATE = {"experiments.gen_random_qubit_ensemble", "experiments.gen_suffstats_ensemble",
            "experiments.gen_classifier_dataset", "experiments.empirical_cq_state"}
BASELINE = {"experiments.baseline_discard_x2", "model.holevo_information"}
CLASSIFIER = {"experiments.hs_gram", "experiments.train_classifier", "experiments.predict"}
EIGH = {"numpy.eigh", "numpy.eigvalsh"}
RUNNERS = {"engine.run_qib", "qdib.run_qdib"}
# (fewest, most) round-robin rounds of the phase probes.
PROBE_ROUNDS = (3, 15)
# Iterations of the whole-iteration probe that the phases are checked against.
PROBE_ITERS = 10


class Tracer:
    """Installs the wrappers and records spans while a request id is set."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.request: int | None = None
        self.stack: list[int] = []
        # Per request: kernel flops (batch * n^3 of every eigh/eigvalsh)
        # and (runner, trace rows) of every solver run.
        self.flops: Counter = Counter()
        self.iters: dict[int, list[tuple[str, int]]] = defaultdict(list)
        # (runner, args, result) of the latest solver run, for the probes.
        self.last_run: tuple[str, tuple, tuple] | None = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        tracer = self
        is_eigh = name in EIGH
        is_runner = name in RUNNERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = tracer.request
            if request is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (name, start, end, parent, request)
            if is_eigh:
                n = args[0].shape[-1]
                tracer.flops[request] += (args[0].size // (n * n)) * n**3
            elif is_runner:
                tracer.iters[request].append((name, len(result[1])))
                tracer.last_run = (name, args, result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "request": request}
                ) + "\n")


def _time_calls(calls: dict[str, tuple], budget_s: float = 1.0) -> dict[str, float]:
    """Median wall time in ms of each ``(fn, *args)``.  The calls are timed
    round-robin, so that a slow spell of the host hits every one alike."""
    samples: dict[str, list[float]] = {key: [] for key in calls}
    start = time.perf_counter()
    for done in range(PROBE_ROUNDS[1]):
        if done >= PROBE_ROUNDS[0] and time.perf_counter() - start > budget_s:
            break
        for key, (fn, *args) in calls.items():
            begin = time.perf_counter()
            try:
                fn(*args)
            except qib.exceptions.NumericalError:
                # gamma_ratio refuses numerically identical channels after
                # doing the same work; the time is still the phase's cost.
                pass
            samples[key].append((time.perf_counter() - begin) * 1e3)
    return {key: statistics.median(v) for key, v in samples.items()}


def probe_phases(run: tuple[str, tuple, tuple]) -> dict[str, float]:
    """Time each phase of one iteration on the final iterate of a solver
    run (``Tracer.last_run``), through qib's public functions."""
    engine, qdib = qib.engine, qib.qdib
    name, args, (channel, _) = run
    state, config = args[0], args[1]
    alpha, beta, gamma = config.alpha, config.beta, config.effective_gamma
    # qdib_update refuses a conditional with no mass on the new eigenspace,
    # which a point-mass iterate that is still moving has; a 1e-3 admixture
    # of the maximally mixed channel keeps every overlap positive and the
    # work the same.
    mats = channel.sigma_t_given_x
    dim_t = mats.shape[-1]
    smooth = qib.model.CQChannel(
        (1 - 1e-3) * mats + 1e-3 * np.eye(dim_t) / dim_t, channel.classical
    )
    calls = {
        "f_operator_0": (engine.f_operator, state, smooth, 0.0, beta),
        "qdib_update": (qdib.qdib_update, state, smooth, beta),
    }
    soft = name == "engine.run_qib"
    if soft:
        nxt = engine.update(state, channel, gamma, alpha, beta)
        short = dataclasses.replace(config, max_iters=PROBE_ITERS)
        rows = len(engine.run_qib(state, short, channel)[1])
        calls.update({
            "run_qib": (engine.run_qib, state, short, channel),
            "f_operator": (engine.f_operator, state, channel, alpha, beta),
            "update": (engine.update, state, channel, gamma, alpha, beta),
            "fixed_point_residual":
                (engine.fixed_point_residual, state, channel, gamma, alpha, beta),
            "gamma_ratio": (engine.gamma_ratio, state, nxt, channel, alpha, beta),
        })
    ms = _time_calls(calls)
    out = {"qdib.projector_ms": ms["qdib_update"] - ms["f_operator_0"]}
    phases = ("engine.analysis_ms", "engine.step_ms", "engine.residual_ms", "engine.ratio_ms")
    if not soft:
        # Workloads without a soft run report zero soft-step phases.
        return {**out, **dict.fromkeys(phases, 0.0), "engine.phase_coverage": 0.0}
    out["engine.analysis_ms"] = ms["f_operator"]
    out["engine.step_ms"] = ms["update"] - ms["f_operator"]
    out["engine.residual_ms"] = ms["fixed_point_residual"] - ms["update"]
    out["engine.ratio_ms"] = ms["gamma_ratio"] - 2 * ms["f_operator"]
    # Checked against whole iterations timed in the same rounds, so a slow
    # spell of the host does not pass for a gap in the accounting.
    out["engine.phase_coverage"] = sum(out[k] for k in phases) / (ms["run_qib"] / rows)
    return out


def _self_times(spans: list[tuple]) -> list[float]:
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, child)]


def layer_metrics(tracer: Tracer, traced: list[int], counted: list[int]) -> dict[str, float]:
    """Per-layer metrics over the traced requests.

    Counts come from the ``counted`` requests, a fixed prefix of the run,
    so they repeat exactly for one seed; times come from all of ``traced``.
    """
    spans = tracer.spans
    selfs = _self_times(spans)
    traced_set, counted_set = set(traced), set(counted)
    dur: Counter = Counter()
    layer_self: Counter = Counter()
    calls: Counter = Counter()
    sweep_runs = 0.0
    for sid, (name, start, end, parent, request) in enumerate(spans):
        if request in traced_set:
            dur[name] += end - start
            layer_self[name.split(".", 1)[0]] += selfs[sid]
            if name == "engine.run_qib" and parent >= 0 and spans[parent][0] == "experiments.gamma_sweep":
                sweep_runs += end - start
            if name in EMIT and not (parent >= 0 and spans[parent][0] in EMIT):
                dur["emit"] += end - start
            if name in FRONT and parent >= 0 and spans[parent][0] == "cli.main":
                dur["front"] += end - start
        if request in counted_set:
            calls[name] += 1

    def iters(runner: str, requests) -> int:
        return sum(rows for r in requests for n, rows in tracer.iters[r] if n == runner)

    def per_request(seconds: float) -> float:
        return seconds * 1e3 / len(traced)

    soft_iters, det_iters = iters("engine.run_qib", traced), iters("qdib.run_qdib", traced)
    counted_soft, counted_det = iters("engine.run_qib", counted), iters("qdib.run_qdib", counted)
    counted_iters = counted_soft + counted_det
    busy = dur["cli.main"]
    out = {
        "engine.iters": counted_soft / len(counted),
        "engine.ms_per_iter": dur["engine.run_qib"] * 1e3 / soft_iters if soft_iters else 0.0,
        "qdib.iters": counted_det / len(counted),
        "qdib.ms_per_iter": dur["qdib.run_qdib"] * 1e3 / det_iters if det_iters else 0.0,
        "experiments.sweep_wall_over_runs":
            dur["experiments.gamma_sweep"] / sweep_runs if sweep_runs else 0.0,
        "experiments.generate_ms": per_request(sum(dur[k] for k in GENERATE)),
        "experiments.baseline_ms": per_request(sum(dur[k] for k in BASELINE)),
        "experiments.classifier_ms": per_request(sum(dur[k] for k in CLASSIFIER)),
        "cli.front_ms": per_request(dur["front"]),
        "serialization.emit_ms": per_request(dur["emit"]),
        "numpy.eigh_calls_per_iter": (calls["numpy.eigh"] + calls["numpy.eigvalsh"]) / counted_iters,
        "numpy.eigh_flops_per_iter": sum(tracer.flops[r] for r in counted) / counted_iters,
        "numpy.eigh_busy_share": (dur["numpy.eigh"] + dur["numpy.eigvalsh"]) / busy,
        "numpy.einsum_calls_per_iter": calls["numpy.einsum"] / counted_iters,
        "numpy.einsum_busy_share": dur["numpy.einsum"] / busy,
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = per_request(layer_self[layer])
    return out
