"""Config key rules and resolution.

Each subcommand's config is checked against a table that gives every key a
rule from ``serialization``'s kit, such as "an integer >= 1" or "a finite
number > 0".  ``validate_config`` rejects unknown keys, missing keys and bad
values with the JSON pointer of the offending key.  Seeds are integers of
any size.

The ``state`` key takes a ``{"path": ...}`` object, a generator spec (whose
keys go through the same rules) or an inline source; ``initial_channel``
takes "random", "maximally-mixed", a path object or an inline channel.
Inline sources and channels are checked at resolve time by the file readers,
with their config pointer (``/state/rhoY/0/extra``) instead of ``<path>#``.
"""

from __future__ import annotations

import math
import reprlib
from typing import Any

from . import serialization
from .exceptions import ConfigError, InvariantError
from .serialization import (
    _BOOLEAN, _COUNT, MAX_SIZE, Rule, Schema, _check_object, _integer, _nonempty_list, _number, _rule,
)
from .experiments.ensembles import SuffStatsSpec, gen_random_qubit_ensemble, gen_suffstats_ensemble
from .benchmarks import copy_state
from .model import CQChannel, CQState, ObjectiveConfig, maximally_mixed_channel
from .rng import derive_seed

_SIZE = _integer(1, MAX_SIZE)
_NONNEGATIVE = _number("a finite number >= 0", lambda v: v >= 0)
_POSITIVE = _number("a finite number > 0", lambda v: v > 0)
_SEED = _rule("an integer", lambda v: type(v) is int)
_PATH: Schema = (("path",), {"path": _rule("a nonempty string", lambda v: type(v) is str and v != "")})

_GENERATORS: dict[str, Schema] = {
    "random-qubit-ensemble": (("sizeX",), {"sizeX": _SIZE}),
    "copy-state": (("d",), {"d": _integer(2, MAX_SIZE), "k": _SIZE}),
    "suffstats-ensemble": ((), {"sizeX1": _integer(2, MAX_SIZE), "sizeX2": _SIZE, "nu": _POSITIVE}),
}
_GENERATOR = _rule(
    "one of " + ", ".join(map(repr, _GENERATORS)), lambda v: type(v) is str and v in _GENERATORS
)


def _check_state(spec: Any, pointer: str) -> None:
    if isinstance(spec, dict) and "path" in spec:
        _check_object(spec, *_PATH, pointer)
    elif isinstance(spec, dict) and "generator" in spec:
        _GENERATOR(spec["generator"], f"{pointer}/generator")
        required, rules = _GENERATORS[spec["generator"]]
        _check_object(spec, ("generator", *required), {"generator": _GENERATOR, **rules}, pointer)
    elif not isinstance(spec, dict):
        raise ConfigError(
            pointer,
            f"expected a path object, a generator spec or an inline state, got {reprlib.repr(spec)}",
        )


def _check_initial_channel(spec: Any, pointer: str) -> None:
    if isinstance(spec, dict) and "path" in spec:
        _check_object(spec, *_PATH, pointer)
    elif not isinstance(spec, dict) and spec not in ("random", "maximally-mixed"):
        raise ConfigError(
            pointer,
            'expected "random", "maximally-mixed", a path object or an inline channel, '
            f"got {reprlib.repr(spec)}",
        )


_RUN_RULES = {
    "alpha": _NONNEGATIVE,
    "beta": _NONNEGATIVE,
    "gamma": _POSITIVE,
    "dimT": _SIZE,
    "classical": _BOOLEAN,
    "tol": _POSITIVE,
    "max_iters": _COUNT,
    "seed": _SEED,
    "state": _check_state,
    "initial_channel": _check_initial_channel,
}


def _run_rules(drop: tuple[str, ...] = (), **extra: Rule) -> dict[str, Rule]:
    return {**{k: v for k, v in _RUN_RULES.items() if k not in drop}, **extra}


RUN_QIB_SCHEMA: Schema = (("alpha", "beta", "dimT", "state"), _run_rules())
RUN_QDIB_SCHEMA: Schema = (("beta", "dimT", "state"), _run_rules(("alpha", "gamma")))
GAMMA_SWEEP_SCHEMA: Schema = (
    ("alpha", "beta", "dimT", "state", "gamma_list"),
    _run_rules(("gamma",), gamma_list=_nonempty_list(_POSITIVE)),
)
BETA_SWEEP_SCHEMA: Schema = (
    ("alpha", "dimT", "state", "beta_list"),
    _run_rules(("beta",), beta_list=_nonempty_list(_NONNEGATIVE), kappa_samples=_integer(0, MAX_SIZE)),
)
CLASSIFY_SCHEMA: Schema = (
    (),
    {
        **{k: _RUN_RULES[k] for k in ("alpha", "beta", "gamma", "dimT", "tol", "max_iters", "seed")},
        "ridge": _POSITIVE,
        "n_samples": _integer(10, MAX_SIZE),
        "train_fraction": _number("a finite number in (0, 1)", lambda v: 0 < v < 1),
    },
)
SUFFSTATS_SCHEMA: Schema = (
    (),
    {
        **{k: _RUN_RULES[k] for k in ("beta", "dimT", "tol", "max_iters", "seed")},
        **_GENERATORS["suffstats-ensemble"][1],
    },
)


# Most entries one array a config implies may hold, 1 GiB of complex128: the
# size keys are capped one by one at MAX_SIZE, their products here.
MAX_ENTRIES = 1 << 26
QUBIT = (("", 2),)  # dimY of the qubit generators


def check_entries(size_x: tuple, dim_y: tuple, dim_t: tuple, classical: bool) -> None:
    """Bound the source stack sizeX·dimY², the channel sizeX·dimT² (a classical
    table sizeX·dimT) and the (T, Y) joint with ``check_arrays``."""
    t = dim_t if classical else dim_t * 2
    check_arrays(size_x + dim_y * 2, size_x + t, t + dim_y * 2)


def check_arrays(*arrays: tuple) -> None:
    """Bound each array, a tuple of (pointer of the key or flag, value) factors,
    at MAX_ENTRIES; the error names the largest factor of the first array over."""
    for factors in arrays:
        if (entries := math.prod(v for _, v in factors)) > MAX_ENTRIES:
            key = max(factors, key=lambda f: f[1])[0]
            message = f"implies an array of {entries} entries, above {MAX_ENTRIES}"
            raise InvariantError(f"{key} {message}") if key.startswith("--") else ConfigError(key, message)


def validate_config(obj: Any, schema: Schema) -> None:
    """Check a config object against a subcommand's schema; raise
    ConfigError with the JSON pointer of the first offending key."""
    _check_object(obj, *schema, "")


def resolve_state(spec: Any, seed: int, dim_t: int = 1, classical: bool = True) -> CQState:
    """Materialize the ``state`` config key; generators derive from ``seed``.
    Every resolved state is validated once: by its reader, or here.  A run at
    ``dim_t`` passes ``check_entries`` before a generator runs, or once read."""
    if not isinstance(spec, dict):
        raise InvariantError(f"state spec must be an object, got {type(spec).__name__}")
    t = (("/dimT", dim_t),)
    if "path" in spec or "generator" not in spec:
        state = serialization.load_state(spec["path"]) if "path" in spec else serialization.obj_to_state(spec, "/state")
        check_entries((("/state", state.size_x),), (("/state", state.dim_y),), t, classical)
        return state
    kind = spec["generator"]
    if kind == "random-qubit-ensemble":
        check_entries((("/state/sizeX", spec["sizeX"]),), QUBIT, t, classical)
        state = gen_random_qubit_ensemble(spec["sizeX"], seed=derive_seed(seed, "state-gen"))
    elif kind == "copy-state":
        d = ("/state/d", spec["d"])
        check_entries((d, ("/state/k", spec.get("k", 1))), (d,), t, classical)
        state = copy_state(spec["d"], spec.get("k", 1))
    elif kind == "suffstats-ensemble":
        ss = suffstats_spec(spec, seed, "state-gen")
        check_entries((("/state/sizeX1", ss.size_x1), ("/state/sizeX2", ss.size_x2)), QUBIT, t, classical)
        state = gen_suffstats_ensemble(ss).state
    else:
        raise InvariantError(f"unknown state generator {kind!r}")
    state.validate()
    return state


def resolve_initial_channel(
    spec: Any, dim_t: int, size_x: int, classical: bool
) -> CQChannel | None:
    """Materialize ``initial_channel``; None means the runner draws randomly.
    The runner checks that the channel fits the state and the config."""
    if spec is None or spec == "random":
        return None
    if spec == "maximally-mixed":
        return maximally_mixed_channel(dim_t, size_x, classical=classical)
    if isinstance(spec, dict) and "path" in spec:
        return serialization.load_channel(spec["path"])
    return serialization.obj_to_channel(spec, "/initial_channel")


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


def objective_config(obj: dict[str, Any], seed: int) -> ObjectiveConfig:
    """Build the solver config from common run keys (post seed override).
    Alpha is 0 when absent, as the run-qdib schema requires."""
    return ObjectiveConfig(
        alpha=obj.get("alpha", 0.0),
        beta=obj.get("beta", 1.0),
        seed=seed,
        **params(obj, ("dimT", "gamma", "classical", "tol", "max_iters")),
    )
