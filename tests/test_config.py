"""Config schemas, JSON-pointer errors, and spec resolution."""

import numpy as np
import pytest

from qib import benchmarks, config as cfg, serialization as ser
from qib.exceptions import ConfigError, InvariantError
from qib.experiments.ensembles import (
    SuffStatsSpec,
    gen_random_qubit_ensemble,
    gen_suffstats_ensemble,
)
from qib.rng import derive_seed

from helpers import random_cq_state, random_channel_for


def _minimal_run_qib(**extra):
    obj = {
        "alpha": 1.0,
        "beta": 2.0,
        "dimT": 2,
        "state": {"generator": "random-qubit-ensemble", "sizeX": 3},
    }
    obj.update(extra)
    return obj


def test_run_qib_schema_accepts_minimal_config():
    cfg.validate_config(_minimal_run_qib(), cfg.RUN_QIB_SCHEMA)
    cfg.validate_config(
        _minimal_run_qib(seed=4, tol=1e-9, max_iters=50, gamma=0.5, classical=True),
        cfg.RUN_QIB_SCHEMA,
    )


def test_schema_errors_carry_json_pointers():
    with pytest.raises(ConfigError) as exc:
        cfg.validate_config(_minimal_run_qib(alpha="one"), cfg.RUN_QIB_SCHEMA)
    assert exc.value.pointer == "/alpha"
    with pytest.raises(ConfigError) as exc:
        cfg.validate_config({"alpha": 1.0}, cfg.RUN_QIB_SCHEMA)
    assert exc.value.pointer == ""
    with pytest.raises(ConfigError, match="bogus"):
        cfg.validate_config(_minimal_run_qib(bogus=1), cfg.RUN_QIB_SCHEMA)


@pytest.mark.parametrize(
    "extra, pointer",
    [
        ({"alpha": True}, "/alpha"),
        ({"dimT": True}, "/dimT"),
        ({"dimT": 2.0}, "/dimT"),
        ({"classical": 1}, "/classical"),
        ({"state": {"generator": "copy-state", "d": 1}}, "/state/d"),
        ({"state": {"generator": "copy-state", "d": 3, "sizeX": 2}}, "/state/sizeX"),
        ({"state": {"generator": "copy-state"}}, "/state"),
        ({"state": "state.json"}, "/state"),
        ({"initial_channel": {"path": ""}}, "/initial_channel/path"),
        ({"initial_channel": None}, "/initial_channel"),
    ],
)
def test_rules_name_the_offending_key(extra, pointer):
    with pytest.raises(ConfigError) as exc:
        cfg.validate_config(_minimal_run_qib(**extra), cfg.RUN_QIB_SCHEMA)
    assert exc.value.pointer == pointer


def test_inline_sources_pass_validation_and_fail_at_resolve():
    # Inline states and channels are checked once, by serialization.
    bad = ser.state_to_obj(random_cq_state(0, tag="cfg"))
    bad["px"][0] = "a"
    cfg.validate_config(_minimal_run_qib(state=bad), cfg.RUN_QIB_SCHEMA)
    with pytest.raises(ConfigError, match="^config error at /state/px/0: expected a finite number, got 'a'$"):
        cfg.resolve_state(bad, seed=0)


def test_qdib_schema_has_no_step_knobs():
    qdib_obj = {
        "beta": 5.0,
        "dimT": 2,
        "state": {"generator": "random-qubit-ensemble", "sizeX": 3},
    }
    cfg.validate_config(qdib_obj, cfg.RUN_QDIB_SCHEMA)
    with pytest.raises(ConfigError, match="alpha"):
        cfg.validate_config(dict(qdib_obj, alpha=0.0), cfg.RUN_QDIB_SCHEMA)
    with pytest.raises(ConfigError, match="gamma"):
        cfg.validate_config(dict(qdib_obj, gamma=1.0), cfg.RUN_QDIB_SCHEMA)


def test_sweep_schemas():
    gamma_obj = _minimal_run_qib(gamma_list=[0.5, 1.0])
    cfg.validate_config(gamma_obj, cfg.GAMMA_SWEEP_SCHEMA)
    with pytest.raises(ConfigError) as exc:
        cfg.validate_config(
            _minimal_run_qib(gamma_list=[0.5, -1.0]), cfg.GAMMA_SWEEP_SCHEMA
        )
    assert exc.value.pointer == "/gamma_list/1"
    with pytest.raises(ConfigError, match="gamma"):
        cfg.validate_config(
            _minimal_run_qib(gamma_list=[0.5], gamma=1.0), cfg.GAMMA_SWEEP_SCHEMA
        )

    beta_obj = {
        "alpha": 1.0,
        "dimT": 2,
        "state": {"generator": "copy-state", "d": 3},
        "beta_list": [0.0, 2.0],
        "kappa_samples": 50,
    }
    cfg.validate_config(beta_obj, cfg.BETA_SWEEP_SCHEMA)
    with pytest.raises(ConfigError):
        cfg.validate_config(dict(beta_obj, beta_list=[]), cfg.BETA_SWEEP_SCHEMA)


def test_experiment_schemas():
    cfg.validate_config({}, cfg.CLASSIFY_SCHEMA)
    cfg.validate_config({"n_samples": 50, "beta": 10.0}, cfg.CLASSIFY_SCHEMA)
    with pytest.raises(ConfigError) as exc:
        cfg.validate_config({"n_samples": 5}, cfg.CLASSIFY_SCHEMA)
    assert exc.value.pointer == "/n_samples"
    cfg.validate_config({"sizeX1": 3, "sizeX2": 4, "nu": 25.0}, cfg.SUFFSTATS_SCHEMA)
    with pytest.raises(ConfigError):
        cfg.validate_config({"sizeX1": 1}, cfg.SUFFSTATS_SCHEMA)


def test_resolve_state_inline_and_path(tmp_path):
    state = random_cq_state(0, tag="cfg")
    obj = ser.state_to_obj(state)
    inline = cfg.resolve_state(obj, seed=0)
    assert np.array_equal(inline.rho_y_given_x, state.rho_y_given_x)

    path = tmp_path / "state.json"
    ser.write_text_atomic(str(path), ser.dump_json(obj))
    from_path = cfg.resolve_state({"path": str(path)}, seed=0)
    assert np.array_equal(from_path.px, state.px)


def test_resolve_state_generators():
    qubits = cfg.resolve_state(
        {"generator": "random-qubit-ensemble", "sizeX": 4}, seed=9
    )
    expected = gen_random_qubit_ensemble(4, seed=derive_seed(9, "state-gen"))
    assert np.array_equal(qubits.rho_y_given_x, expected.rho_y_given_x)

    copied = cfg.resolve_state({"generator": "copy-state", "d": 3, "k": 2}, seed=0)
    reference = benchmarks.copy_state(3, 2)
    assert np.array_equal(copied.rho_y_given_x, reference.rho_y_given_x)

    scrambled = cfg.resolve_state(
        {"generator": "suffstats-ensemble", "sizeX1": 3, "sizeX2": 4, "nu": 25.0},
        seed=5,
    )
    spec = SuffStatsSpec(
        size_x1=3,
        size_x2=4,
        nu=25.0,
        permutation_seed=derive_seed(5, "state-gen", "perm"),
        noise_seed=derive_seed(5, "state-gen", "noise"),
    )
    assert np.array_equal(
        scrambled.rho_y_given_x, gen_suffstats_ensemble(spec).state.rho_y_given_x
    )


def test_resolve_state_rejects_unknown_specs():
    with pytest.raises(InvariantError, match="unknown state generator"):
        cfg.resolve_state({"generator": "mystery"}, seed=0)
    with pytest.raises(InvariantError, match="object"):
        cfg.resolve_state([1, 2], seed=0)


def test_resolve_state_validates_generated_states(monkeypatch):
    bad = random_cq_state(0, size_x=3, dim_y=2, tag="cfg")
    bad = type(bad)(bad.px, 2 * bad.rho_y_given_x)  # trace 2: not a density
    monkeypatch.setattr(cfg, "gen_random_qubit_ensemble", lambda size_x, seed: bad)
    with pytest.raises(InvariantError, match="rho_y_given_x"):
        cfg.resolve_state({"generator": "random-qubit-ensemble", "sizeX": 3}, seed=0)


def test_resolve_initial_channel():
    assert cfg.resolve_initial_channel(None, 2, 3, False) is None
    assert cfg.resolve_initial_channel("random", 2, 3, False) is None
    mm = cfg.resolve_initial_channel("maximally-mixed", 2, 3, True)
    assert mm.classical and mm.dim_t == 2 and mm.size_x == 3

    state = random_cq_state(1, size_x=3, dim_y=2, tag="cfg")
    chan = random_channel_for(state, 2, 1, tag="cfg")
    obj = ser.channel_to_obj(chan)
    resolved = cfg.resolve_initial_channel(obj, 2, 3, False)
    assert np.array_equal(resolved.sigma_t_given_x, chan.sigma_t_given_x)
    # Whether the channel fits the run is the runner's check (test_engine).
    obj["sigmaT"][1]["extra"] = 1
    with pytest.raises(ConfigError, match="^config error at /initial_channel/sigmaT/1/extra: unknown key 'extra'$"):
        cfg.resolve_initial_channel(obj, 2, 3, False)


def test_objective_config_defaults_and_override():
    obj = _minimal_run_qib(tol=1e-7)
    run_cfg = cfg.objective_config(obj, seed=3)
    assert run_cfg.alpha == 1.0 and run_cfg.beta == 2.0
    assert run_cfg.dim_t == 2 and run_cfg.seed == 3
    assert run_cfg.tol == 1e-7 and run_cfg.max_iters == 500
    assert run_cfg.gamma is None and run_cfg.effective_gamma == 1.0
    forced = cfg.objective_config(obj, seed=3, alpha_override=0.0)
    assert forced.alpha == 0.0


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((0,), 18069667033389005347),
        ((7, "state-gen"), 10915733006935538448),
        ((2**127 - 1,), 5583974419481827181),
        ((-(2**127),), 6225924040072476732),
        ((-1, "x"), 6358632505331790369),
        ((123456789, "classify-run"), 8060026465750215864),
    ],
)
def test_derive_seed_streams_are_pinned(parts, expected):
    # Integers that fit 16 signed bytes keep the streams they always had.
    assert derive_seed(*parts) == expected


def test_derive_seed_accepts_integers_of_any_size():
    seeds = {derive_seed(n) for n in (2**127, -(2**127) - 1, 10**400, -(10**400))}
    assert len(seeds) == 4


def test_check_entries_admits_the_bound_and_names_the_largest_factor():
    # sizeX 1, dimY 1 and dimT 2^13: channel and joint hold 2^26 entries each.
    one = (("/state/px", 1),)
    cfg.check_entries(one, (("/state/dimY", 1),), (("/dimT", 2**13),), classical=False)
    with pytest.raises(ConfigError, match=r"^config error at /dimT: implies an array of 67125249 entries"):
        cfg.check_entries(one, (("/state/dimY", 1),), (("/dimT", 2**13 + 1),), classical=False)
    # A classical table is sizeX·dimT; the joint dimT·dimY².
    cfg.check_entries((("/state/sizeX", 2**13),), (("", 2),), (("/dimT", 2**13),), classical=True)
    with pytest.raises(ConfigError, match="^config error at /state/d: "):
        cfg.check_entries((("/state/d", 2**9), ("/state/k", 2**3)), (("/state/d", 2**9),), (("/dimT", 2),), True)
