"""Config file schemas and resolution.

Each subcommand validates its config against a closed schema (unknown keys
rejected) and reports failures with the JSON pointer of the offending
element.  The ``state`` key accepts a file path, an inline source object,
or a generator spec; ``initial_channel`` accepts "random",
"maximally-mixed", a path, or an inline channel.
"""

from __future__ import annotations

from typing import Any

import jsonschema

from . import serialization
from .exceptions import ConfigError, InvariantError
from .experiments.ensembles import SuffStatsSpec, gen_random_qubit_ensemble, gen_suffstats_ensemble
from .benchmarks import copy_state
from .model import CQChannel, CQState, ObjectiveConfig, maximally_mixed_channel
from .rng import derive_seed

_MATRIX = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dim", "re", "im"],
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "re": {"type": "array"},
        "im": {"type": "array"},
    },
}

_STATE_INLINE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["px", "dimY", "rhoY"],
    "properties": {
        "px": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "dimY": {"type": "integer", "minimum": 1},
        "rhoY": {"type": "array", "items": _MATRIX, "minItems": 1},
    },
}

_STATE_PATH = {
    "type": "object",
    "additionalProperties": False,
    "required": ["path"],
    "properties": {"path": {"type": "string", "minLength": 1}},
}

_STATE_GENERATOR = {
    "type": "object",
    "oneOf": [
        {
            "additionalProperties": False,
            "required": ["generator", "sizeX"],
            "properties": {
                "generator": {"const": "random-qubit-ensemble"},
                "sizeX": {"type": "integer", "minimum": 1},
            },
        },
        {
            "additionalProperties": False,
            "required": ["generator", "d"],
            "properties": {
                "generator": {"const": "copy-state"},
                "d": {"type": "integer", "minimum": 2},
                "k": {"type": "integer", "minimum": 1},
            },
        },
        {
            "additionalProperties": False,
            "required": ["generator"],
            "properties": {
                "generator": {"const": "suffstats-ensemble"},
                "sizeX1": {"type": "integer", "minimum": 2},
                "sizeX2": {"type": "integer", "minimum": 1},
                "nu": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    ],
}

_STATE = {"oneOf": [_STATE_PATH, _STATE_INLINE, _STATE_GENERATOR]}

_CHANNEL_INLINE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dimT", "classical", "sigmaT"],
    "properties": {
        "dimT": {"type": "integer", "minimum": 1},
        "classical": {"type": "boolean"},
        "sigmaT": {"type": "array", "items": _MATRIX, "minItems": 1},
    },
}

_INITIAL = {
    "oneOf": [
        {"enum": ["random", "maximally-mixed"]},
        _STATE_PATH,
        _CHANNEL_INLINE,
    ]
}

_COMMON_RUN = {
    "alpha": {"type": "number", "minimum": 0},
    "beta": {"type": "number", "minimum": 0},
    "gamma": {"type": "number", "exclusiveMinimum": 0},
    "dimT": {"type": "integer", "minimum": 1},
    "classical": {"type": "boolean"},
    "tol": {"type": "number", "exclusiveMinimum": 0},
    "max_iters": {"type": "integer", "minimum": 1},
    "seed": {"type": "integer"},
    "state": _STATE,
    "initial_channel": _INITIAL,
}


def _schema(required: list[str], props: dict[str, Any]) -> dict[str, Any]:
    return {
        "type": "object",
        "additionalProperties": False,
        "required": required,
        "properties": props,
    }


RUN_QIB_SCHEMA = _schema(["alpha", "beta", "dimT", "state"], dict(_COMMON_RUN))

_QDIB_PROPS = {k: v for k, v in _COMMON_RUN.items() if k not in ("alpha", "gamma")}
RUN_QDIB_SCHEMA = _schema(["beta", "dimT", "state"], _QDIB_PROPS)

_GAMMA_PROPS = {k: v for k, v in _COMMON_RUN.items() if k != "gamma"}
_GAMMA_PROPS["gamma_list"] = {
    "type": "array",
    "items": {"type": "number", "exclusiveMinimum": 0},
    "minItems": 1,
}
GAMMA_SWEEP_SCHEMA = _schema(["alpha", "beta", "dimT", "state", "gamma_list"], _GAMMA_PROPS)

_BETA_PROPS = {k: v for k, v in _COMMON_RUN.items() if k != "beta"}
_BETA_PROPS["beta_list"] = {
    "type": "array",
    "items": {"type": "number", "minimum": 0},
    "minItems": 1,
}
_BETA_PROPS["kappa_samples"] = {"type": "integer", "minimum": 0}
BETA_SWEEP_SCHEMA = _schema(["alpha", "dimT", "state", "beta_list"], _BETA_PROPS)

CLASSIFY_SCHEMA = _schema(
    [],
    {
        "alpha": {"type": "number", "minimum": 0},
        "beta": {"type": "number", "minimum": 0},
        "gamma": {"type": "number", "exclusiveMinimum": 0},
        "dimT": {"type": "integer", "minimum": 1},
        "ridge": {"type": "number", "exclusiveMinimum": 0},
        "n_samples": {"type": "integer", "minimum": 10},
        "train_fraction": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "max_iters": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
    },
)

SUFFSTATS_SCHEMA = _schema(
    [],
    {
        "beta": {"type": "number", "minimum": 0},
        "nu": {"type": "number", "exclusiveMinimum": 0},
        "sizeX1": {"type": "integer", "minimum": 2},
        "sizeX2": {"type": "integer", "minimum": 1},
        "dimT": {"type": "integer", "minimum": 1},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "max_iters": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
    },
)


def validate_config(obj: Any, schema: dict[str, Any]) -> None:
    """Schema-check a config object; raise ConfigError with a JSON pointer."""
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(obj), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        pointer = "/" + "/".join(str(p) for p in err.absolute_path)
        raise ConfigError(pointer if pointer != "/" else "", err.message)


def resolve_state(spec: Any, seed: int) -> CQState:
    """Materialize the ``state`` config key; generators derive from ``seed``."""
    if isinstance(spec, dict) and "path" in spec:
        return serialization.load_state(spec["path"])
    if isinstance(spec, dict) and "generator" in spec:
        kind = spec["generator"]
        if kind == "random-qubit-ensemble":
            return gen_random_qubit_ensemble(
                spec["sizeX"], seed=derive_seed(seed, "state-gen")
            )
        if kind == "copy-state":
            return copy_state(spec["d"], spec.get("k", 1))
        if kind == "suffstats-ensemble":
            return gen_suffstats_ensemble(suffstats_spec(spec, seed, "state-gen")).state
        raise InvariantError(f"unknown state generator {kind!r}")
    if isinstance(spec, dict):
        state = serialization.obj_to_state(spec)
        return state
    raise InvariantError(f"state spec must be an object, got {type(spec).__name__}")


def resolve_initial_channel(
    spec: Any, dim_t: int, size_x: int, classical: bool
) -> CQChannel | None:
    """Materialize ``initial_channel``; None means the runner draws randomly."""
    if spec is None or spec == "random":
        return None
    if spec == "maximally-mixed":
        return maximally_mixed_channel(dim_t, size_x, classical=classical)
    if isinstance(spec, dict) and "path" in spec:
        channel = serialization.load_channel(spec["path"])
    else:
        channel = serialization.obj_to_channel(spec)
    if channel.dim_t != dim_t:
        raise InvariantError(
            f"initial channel dimT {channel.dim_t} does not match config dimT {dim_t}"
        )
    if channel.size_x != size_x:
        raise InvariantError(
            f"initial channel sizeX {channel.size_x} does not match state sizeX {size_x}"
        )
    if classical and not channel.classical:
        raise InvariantError("config requests a classical run but the initial channel is not classical")
    return channel


# Config keys whose keyword argument is spelled differently.
_PARAM_NAMES = {"dimT": "dim_t", "sizeX1": "size_x1", "sizeX2": "size_x2"}


def params(obj: dict[str, Any], keys: tuple[str, ...]) -> dict[str, Any]:
    """Keyword arguments for those of ``keys`` that ``obj`` sets; the
    callee's signature supplies the default of every other one."""
    return {_PARAM_NAMES.get(k, k): obj[k] for k in keys if k in obj}


def suffstats_spec(obj: dict[str, Any], *seed_parts: int | str) -> SuffStatsSpec:
    """Ensemble spec from the sizeX1/sizeX2/nu keys; the relabeling and
    noise streams derive from ``seed_parts`` plus "perm" and "noise"."""
    return SuffStatsSpec(
        **params(obj, ("sizeX1", "sizeX2", "nu")),
        permutation_seed=derive_seed(*seed_parts, "perm"),
        noise_seed=derive_seed(*seed_parts, "noise"),
    )


def objective_config(obj: dict[str, Any], seed: int, alpha_override: float | None = None) -> ObjectiveConfig:
    """Build the solver config from common run keys (post seed override)."""
    return ObjectiveConfig(
        alpha=alpha_override if alpha_override is not None else obj["alpha"],
        beta=obj.get("beta", 1.0),
        seed=seed,
        **params(obj, ("dimT", "gamma", "classical", "tol", "max_iters")),
    )
