"""End-to-end acceptance suite.

One test per shipped guarantee, in order: the operator-family identity,
the step-ratio bound, unconditional and conditional descent, the analytic
advantage benchmarks, the deterministic variant, the small-beta limit, the
two experiment pipelines, and byte-level CLI determinism.  Seeds, sizes,
tolerances, and runtime budgets are pinned; each test is one pass/fail line
under ``pytest -v``.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qib import benchmarks, config as qconfig, engine, linalg, qdib, serialization
from qib.cli import main as cli_main
from qib.experiments.ensembles import SuffStatsSpec
from qib.experiments.classify import classify_pipeline
from qib.experiments.suffstats import suffstats_pipeline
from qib.model import CQChannel, CQState, ObjectiveConfig
from qib.rng import derive_rng, derive_seed

import reference
from helpers import f_values, random_density

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIG = REPO_ROOT / "configs" / "small_gamma_demo.json"

# Runs logged by the descent tests; the conditional-monotonicity test checks
# its property across every logged trace, not just its own.
_LOGGED_RUNS: list[tuple[float, engine.IterationTrace]] = []


def _instance(g: np.random.Generator, nx_lo, nx_hi, dy_hi, dt_hi):
    """Random source + bottleneck size, all drawn from one stream."""
    nx = int(g.integers(nx_lo, nx_hi))
    dy = int(g.integers(2, dy_hi))
    dt = int(g.integers(2, dt_hi))
    px = g.dirichlet(np.ones(nx))
    rhos = np.stack([random_density(dy, g) for _ in range(nx)])
    return CQState(px, rhos), dt


def test_objective_equals_average_of_operator_family():
    start = time.perf_counter()
    for seed in range(200):
        g = derive_rng(seed, "bcov")
        state, dt = _instance(g, 2, 7, 4, 4)
        chan = engine.random_channel(dt, state.size_x, seed=g)
        alpha = (0.0, 0.5, 1.0)[seed % 3]
        beta = (0.5, 2.0, 10.0)[(seed // 3) % 3]
        f = reference.objective_f_alpha(state, chan, alpha, beta)
        fam = engine.f_operator(state, chan, alpha, beta)
        trace_form = float(
            state.px @ np.einsum("xij,xji->x", chan.sigma_t_given_x, fam).real
        )
        assert abs(f - trace_form) < 1e-8
    assert time.perf_counter() - start < 10.0


def test_step_ratio_bounded_by_alpha_and_exact_for_constant_channels():
    for seed in range(1000):
        g = derive_rng(seed, "ratio")
        state, dt = _instance(g, 2, 6, 4, 4)
        alpha = (0.3, 0.5, 1.0)[seed % 3]
        old = engine.random_channel(dt, state.size_x, seed=g)
        if seed % 2:
            new = engine.update(state, old, 0.7 * alpha, alpha, 2.0)
        else:
            new = engine.random_channel(dt, state.size_x, seed=g)
        ratio = engine.gamma_ratio(state, new, old, alpha, 2.0)
        assert ratio <= alpha + 1e-9

    for seed in range(200):
        g = derive_rng(seed, "ratio-const")
        state, dt = _instance(g, 2, 6, 4, 4)
        alpha = (0.3, 0.5, 1.0)[seed % 3]
        nx = state.size_x
        old = CQChannel(
            np.broadcast_to(random_density(dt, g), (nx, dt, dt)).copy()
        )
        new = CQChannel(
            np.broadcast_to(random_density(dt, g), (nx, dt, dt)).copy()
        )
        ratio = engine.gamma_ratio(state, new, old, alpha, 2.0)
        assert abs(ratio - (alpha - 1.0)) <= 1e-10


def test_descent_is_monotone_when_gamma_equals_alpha():
    for seed in range(100):
        g = derive_rng(seed, "mono")
        state, dt = _instance(g, 2, 6, 4, 4)
        cfg = ObjectiveConfig(
            alpha=0.5 if seed % 2 == 0 else 1.0,
            beta=2.0,
            dim_t=dt,
            tol=1e-10,
            max_iters=2000,
            seed=seed,
        )
        _, trace = engine.run_qib(state, cfg)
        fs = f_values(trace)
        assert np.all(np.diff(fs) <= 1e-9)
        assert not trace.violations
        assert trace.status != engine.STATUS_MONOTONICITY_VIOLATED
        assert trace.records[-1].step_divergence < 1e-8
        assert np.isfinite(sum(r.step_divergence for r in trace.records))
        _LOGGED_RUNS.append((cfg.effective_gamma, trace))


def test_small_gamma_descends_whenever_ratio_allows_and_demo_run_flags_rise():
    for seed in range(60):
        g = derive_rng(seed, "smallgamma")
        state, dt = _instance(g, 3, 7, 4, 5)
        cfg = ObjectiveConfig(
            alpha=1.0, beta=4.0, dim_t=dt, gamma=0.3,
            tol=1e-12, max_iters=80, seed=seed,
        )
        _, trace = engine.run_qib(state, cfg)
        _LOGGED_RUNS.append((cfg.effective_gamma, trace))

    checked = 0
    for gamma, trace in _LOGGED_RUNS:
        fs = f_values(trace)
        for k in range(len(trace.records) - 1):
            ratio = trace.records[k].gamma_ratio
            if np.isfinite(ratio) and ratio <= gamma:
                assert fs[k + 1] - fs[k] <= 1e-9
                checked += 1
    assert checked > 1000

    # The repository ships a config whose run demonstrably leaves the
    # guaranteed regime: the objective rises on flagged iterations.
    obj = serialization.load_json(str(DEMO_CONFIG))
    qconfig.validate_config(obj, qconfig.RUN_QIB_SCHEMA)
    assert obj["gamma"] < obj["alpha"]
    state = qconfig.resolve_state(obj["state"], obj["seed"])
    cfg = qconfig.objective_config(obj, obj["seed"])
    _, trace = engine.run_qib(state, cfg)
    assert trace.violations
    assert trace.status == engine.STATUS_MONOTONICITY_VIOLATED


def test_advantage_benchmarks_match_closed_forms():
    start = time.perf_counter()
    report = benchmarks.advantage_gap(3, 2, 1.0, 2.0)
    assert abs(report.gap - (math.log(2.0) - 0.636514)) < 1e-6

    for d, n in ((3, 2), (5, 2), (5, 3), (7, 4)):
        state = benchmarks.copy_state(d)
        chan = benchmarks.fourier_feature_channel(d, n)
        achieved = reference.objective_f_alpha(state, chan, 1.0, 2.0)
        assert abs(achieved - benchmarks.quantum_bound(n, 2.0)) < 1e-9
        value, _ = reference.brute_force_classical_opt(state, n, 1.0, 2.0)
        assert abs(value - benchmarks.classical_bound(d, n, 2.0)) < 1e-9

    oracle = benchmarks.classical_bound(3, 2, 2.0)
    state = benchmarks.copy_state(3)
    best = np.inf
    for restart in range(20):
        cfg = ObjectiveConfig(
            alpha=1.0, beta=2.0, dim_t=2, classical=True,
            tol=1e-10, max_iters=300, seed=restart,
        )
        _, trace = engine.run_qib(state, cfg)
        best = min(best, trace.final_f)
    assert best >= oracle - 1e-6
    assert time.perf_counter() - start < 60.0


def test_deterministic_variant_descends_and_projector_forms_agree():
    for seed in range(40):
        for beta in (1.0, 5.0, 20.0):
            g = derive_rng(seed, "qdib-mono")
            state, dt = _instance(g, 2, 7, 4, 6)
            cfg = ObjectiveConfig(
                alpha=0.0, beta=beta, dim_t=dt, tol=1e-10, max_iters=60, seed=seed,
            )
            _, trace = qdib.run_qdib(state, cfg)
            assert np.all(np.diff(f_values(trace)) <= 1e-9)
            assert not trace.violations

    for seed in range(20):
        g = derive_rng(seed, "qdib-proj")
        state, dt = _instance(g, 2, 6, 4, 5)
        chan = engine.random_channel(dt, state.size_x, seed=g)
        beta = (1.0, 5.0, 20.0)[seed % 3]
        f0 = engine.f_operator(state, chan, 0.0, beta)
        score = -f0
        for x in range(state.size_x):
            p_min = linalg.min_eigenspace_projector(f0[x])
            w, v = np.linalg.eigh(score[x])
            window = 1e-9 * max(w[-1] - w[0], 1e-300)
            top = v[:, w >= w[-1] - window]
            p_top = top @ np.conj(top.T)
            assert np.linalg.norm(p_min - p_top) <= 1e-9


def test_small_beta_converges_to_uninformative_channel():
    for seed in range(50):
        g = derive_rng(seed, "smallbeta")
        state, dt = _instance(g, 2, 6, 4, 5)
        cfg = ObjectiveConfig(
            alpha=1.0, beta=0.1, dim_t=dt, tol=1e-12, max_iters=500, seed=seed,
        )
        chan, _ = engine.run_qib(state, cfg)
        assert reference.mutual_info_tx(state, chan) < 1e-3
        assert reference.mutual_info_ty(state, chan) < 1e-3


def test_scrambled_source_recovers_sufficient_statistic():
    start = time.perf_counter()
    crossed_fast = 0
    for seed in range(10):
        spec = SuffStatsSpec(
            size_x1=5,
            size_x2=20,
            nu=20.0,
            permutation_seed=derive_seed(seed, "perm"),
            noise_seed=derive_seed(seed, "noise"),
        )
        report = suffstats_pipeline(spec, beta=20.0, seed=seed)
        m = report.metrics
        if 1 <= m["crossing_iteration"] <= 10:
            crossed_fast += 1
        assert m["i_ty_final"] >= 0.95 * m["i_x1y_baseline"]
        assert m["f_dib_final"] <= m["f_dib_baseline"]
    assert crossed_fast >= 9
    assert time.perf_counter() - start < 300.0


def test_qubit_features_beat_classical_bits_on_labeled_data():
    start = time.perf_counter()
    acc_q, acc_c = [], []
    for seed in range(10):
        with pytest.warns(RuntimeWarning, match="unseen in training"):
            report = classify_pipeline(seed=seed)
        m = report.metrics
        assert m["f_quantum"] < m["f_classical"]
        acc_q.append(m["acc_quantum"])
        acc_c.append(m["acc_classical"])
    assert np.mean(acc_q) >= 0.80
    assert np.mean(acc_c) <= 0.70
    assert time.perf_counter() - start < 600.0


def _emit_twice(tmp_path, name, argv_for):
    payloads = []
    for k in range(2):
        out = tmp_path / f"{name}-{k}"
        assert cli_main(argv_for(str(out))) == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]


def test_cli_outputs_are_byte_identical_across_invocations(tmp_path):
    state3 = {"generator": "random-qubit-ensemble", "sizeX": 3}
    configs = {
        "run-qib": {
            "alpha": 1.0, "beta": 2.0, "dimT": 2, "seed": 7,
            "tol": 1e-9, "max_iters": 150, "state": state3,
        },
        "run-qdib": {
            "beta": 5.0, "dimT": 2, "seed": 3, "max_iters": 60, "state": state3,
        },
        "gamma-sweep": {
            "alpha": 1.0, "beta": 2.0, "dimT": 2, "seed": 5,
            "max_iters": 100, "state": state3, "gamma_list": [0.5, 1.0],
        },
        "beta-sweep": {
            "alpha": 1.0, "dimT": 2, "seed": 5, "max_iters": 100,
            "state": state3, "beta_list": [0.5, 2.0], "kappa_samples": 20,
        },
    }
    paths = {}
    for name, obj in configs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)

    for name in configs:
        _emit_twice(
            tmp_path, name,
            lambda out, n=name: [n, "--config", paths[n], "--out", out],
        )

    _emit_twice(
        tmp_path, "advantage",
        lambda out: ["advantage", "--d", "3,5", "--n", "2", "--beta", "2.0", "--out", out],
    )

    cls_cfg = tmp_path / "classify.json"
    cls_cfg.write_text(json.dumps({"seed": 3, "n_samples": 60, "max_iters": 60}))
    region_payloads = []
    for k in range(2):
        out = tmp_path / f"classify-{k}.json"
        regions = tmp_path / f"regions-{k}.csv"
        argv = [
            "classify", "--config", str(cls_cfg), "--out", str(out),
            "--regions-out", str(regions), "--grid-step", "1.0",
        ]
        with pytest.warns(RuntimeWarning, match="unseen in training"):
            assert cli_main(argv) == 0
        region_payloads.append((out.read_bytes(), regions.read_bytes()))
    assert region_payloads[0] == region_payloads[1]

    ss_cfg = tmp_path / "suffstats.json"
    ss_cfg.write_text(
        json.dumps({"sizeX1": 3, "sizeX2": 4, "nu": 25.0, "beta": 20.0,
                    "max_iters": 60, "seed": 1})
    )
    ss_payloads = []
    for k in range(2):
        out_dir = tmp_path / f"ss-{k}"
        assert cli_main(["suffstats", "--config", str(ss_cfg), "--out", str(out_dir)]) == 0
        ss_payloads.append(
            tuple((out_dir / f).read_bytes() for f in ("fdib.csv", "ity.csv", "metrics.json"))
        )
    assert ss_payloads[0] == ss_payloads[1]
