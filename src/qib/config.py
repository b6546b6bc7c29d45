"""Config key rules and resolution.

Each subcommand's config is checked against a table that gives every key a
rule from ``serialization``'s kit, such as "an integer >= 1" or "a finite
number > 0".  ``validate_config`` rejects unknown keys, missing keys and bad
values with the JSON pointer of the offending key.  Seeds are integers of
any size.

The rules of the spec keys, ``state`` and ``initial_channel`` (of run-qib and
run-qdib only), check their kind.  Each spec's reader, ``resolve_state`` or
``resolve_initial_channel``, sorts it once into path (any spec with a "path"
key), generator or inline and checks its contents, with their pointers
(``/state/sizeX``, ``/state/rhoY/0/extra``), before it reads or generates.
"""

from __future__ import annotations

import math
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


_RUN_RULES = {
    "alpha": _NONNEGATIVE,
    "beta": _NONNEGATIVE,
    "gamma": _POSITIVE,
    "dimT": _SIZE,
    "classical": _BOOLEAN,
    "tol": _POSITIVE,
    "max_iters": _COUNT,
    "seed": _SEED,
    "state": _rule("a path object, a generator spec or an inline state", lambda v: isinstance(v, dict)),
}
_INITIAL_CHANNEL = _rule('"random", "maximally-mixed", a path object or an inline channel',
                         lambda v: isinstance(v, dict) or v in ("random", "maximally-mixed"))


def _run_rules(drop: tuple[str, ...] = (), **extra: Rule) -> dict[str, Rule]:
    return {**{k: v for k, v in _RUN_RULES.items() if k not in drop}, **extra}


RUN_QIB_SCHEMA: Schema = (("alpha", "beta", "dimT", "state"), _run_rules(initial_channel=_INITIAL_CHANNEL))
RUN_QDIB_SCHEMA: Schema = (("beta", "dimT", "state"), _run_rules(("alpha", "gamma"), initial_channel=_INITIAL_CHANNEL))
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
    """Check a config object, but for its specs' contents, against a subcommand's
    schema; raise ConfigError with the JSON pointer of the first offending key."""
    _check_object(obj, *schema, "")


def resolve_state(spec: Any, seed: int, dim_t: int = 1, classical: bool = True) -> CQState:
    """Materialize the ``state`` config key; generators derive from ``seed``.
    Every resolved state is validated once: by its reader, or here.  A run at
    ``dim_t`` passes ``check_entries`` before a generator runs, or once read."""
    t = (("/dimT", dim_t),)
    if is_path := isinstance(spec, dict) and "path" in spec:
        _check_object(spec, *_PATH, "/state")
    if is_path or not isinstance(spec, dict) or "generator" not in spec:
        state = serialization.load_state(spec["path"]) if is_path else serialization.obj_to_state(spec, "/state")
        check_entries((("/state", state.size_x),), (("/state", state.dim_y),), t, classical)
        return state
    _GENERATOR(kind := spec["generator"], "/state/generator")
    required, rules = _GENERATORS[kind]
    _check_object(spec, ("generator", *required), {"generator": _GENERATOR, **rules}, "/state")
    if kind == "random-qubit-ensemble":
        check_entries((("/state/sizeX", spec["sizeX"]),), QUBIT, t, classical)
        state = gen_random_qubit_ensemble(spec["sizeX"], seed=derive_seed(seed, "state-gen"))
    elif kind == "copy-state":
        d = ("/state/d", spec["d"])
        check_entries((d, ("/state/k", spec.get("k", 1))), (d,), t, classical)
        state = copy_state(spec["d"], spec.get("k", 1))
    else:
        ss = suffstats_spec(spec, seed, "state-gen")
        check_entries((("/state/sizeX1", ss.size_x1), ("/state/sizeX2", ss.size_x2)), QUBIT, t, classical)
        state = gen_suffstats_ensemble(ss).state
    state.validate()
    return state


def resolve_initial_channel(spec: Any, dim_t: int, size_x: int, classical: bool) -> CQChannel | None:
    """Materialize ``initial_channel``; None means the runner draws randomly.
    The runner checks that the channel fits the state and the config."""
    if spec is None or spec == "random":
        return None
    if spec == "maximally-mixed":
        return maximally_mixed_channel(dim_t, size_x, classical=classical)
    if isinstance(spec, dict) and "path" in spec:
        _check_object(spec, *_PATH, "/initial_channel")
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
