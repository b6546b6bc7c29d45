"""Wire formats, the one kit of JSON key rules, and deterministic output.

Matrices travel as {"dim", "re", "im"} with row-major real/imaginary parts;
a source wraps {"px", "dimY", "rhoY"} and a channel {"dimT", "classical",
"sigmaT"}.  Configs, inline sources and files share the key rules: a bad key
or value raises ConfigError with its JSON pointer, after ``<path>#`` in a
file.  Numbers exclude booleans, NaN, the infinities and literals that
overflow a float64 (1e400); integers also exclude integral floats (2.0).
CSV floats use %.17g so values round-trip exactly and repeated runs are
byte-identical; writes go through a temp file and os.replace so readers
never observe partial output.
"""

from __future__ import annotations

import json
import os
import reprlib
import sys
import tempfile
from collections.abc import Callable, Iterable, Sequence
from typing import Any

import numpy as np

from .engine import IterationTrace
from .exceptions import ConfigError, InvariantError, NumericalError
from .model import CQChannel, CQState

# Output column -> TraceRecord attribute, shared by the CSV and JSON forms.
_TRACE_FIELDS = (
    ("iter", "iteration"),
    ("f_alpha", "f_alpha"),
    ("H_T", "h_t"),
    ("I_TX", "i_tx"),
    ("I_TY", "i_ty"),
    ("step_divergence", "step_divergence"),
    ("gamma_ratio", "gamma_ratio"),
    ("fixed_point_residual", "fixed_point_residual"),
)
_SUPPORT_FIELD = ("support_T", "support_t")


def fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def _csv_cell(value: Any) -> str:
    if isinstance(value, int):
        return str(value)
    return fmt_float(value)


def csv_text(columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Header line plus one line per row: ints verbatim, floats through
    ``fmt_float``."""
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def matrix_to_obj(m: np.ndarray) -> dict[str, Any]:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvariantError(f"expected a square matrix, got shape {m.shape}")
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


# A rule checks one value and raises ConfigError with the value's pointer.
Rule = Callable[[Any, str], None]
# The keys an object must have, and the rule of every key it may have.
Schema = tuple[tuple[str, ...], dict[str, Rule]]


def _rule(description: str, ok: Callable[[Any], bool]) -> Rule:
    def check(value: Any, pointer: str) -> None:
        if not ok(value):
            raise ConfigError(pointer, f"expected {description}, got {reprlib.repr(value)}")

    return check


def _number(description: str, ok: Callable[[Any], bool] = lambda v: True) -> Rule:
    # abs(v) <= max float is false for NaN, the infinities and huge integers.
    return _rule(
        description,
        lambda v: type(v) is not bool and isinstance(v, (int, float))
        and abs(v) <= sys.float_info.max and ok(v),
    )


# Largest value of a config's size keys (dimensions, counts of symbols or
# samples); numpy fails on far larger ones only after the rules have passed.
MAX_SIZE = 10**6


def _integer(minimum: int, maximum: float = float("inf")) -> Rule:
    bounds = f">= {minimum}" if maximum == float("inf") else f"in [{minimum}, {maximum}]"
    return _number(f"an integer {bounds}", lambda v: type(v) is int and minimum <= v <= maximum)


def _nonempty_list(item: Rule) -> Rule:
    def check(value: Any, pointer: str) -> None:
        if not isinstance(value, list) or not value:
            raise ConfigError(pointer, f"expected a nonempty list, got {reprlib.repr(value)}")
        for i, v in enumerate(value):
            item(v, f"{pointer}/{i}")

    return check


def _check_object(obj: Any, required: tuple[str, ...], rules: dict[str, Rule], pointer: str) -> None:
    """``obj`` must be an object that has every key of ``required``, no key
    without a rule, and values that pass their key's rule."""
    if not isinstance(obj, dict):
        raise ConfigError(pointer, f"expected an object, got {type(obj).__name__}")
    for key, value in obj.items():
        if key not in rules:
            raise ConfigError(f"{pointer}/{key}", f"unknown key {key!r}")
        rules[key](value, f"{pointer}/{key}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(pointer, f"missing required keys {missing}")


_COUNT = _integer(1)
_BOOLEAN = _rule("a boolean", lambda v: type(v) is bool)
_IN_CODE = _rule("", lambda v: True)  # the reader checks these values as code
_MATRICES = _nonempty_list(_IN_CODE)
_MATRIX: Schema = (("dim", "re", "im"), {"dim": _COUNT, "re": _IN_CODE, "im": _IN_CODE})
_STATE: Schema = (
    ("px", "dimY", "rhoY"),
    {"px": _nonempty_list(_number("a finite number")), "dimY": _COUNT, "rhoY": _MATRICES},
)
_CHANNEL: Schema = (
    ("dimT", "classical", "sigmaT"),
    {"dimT": _COUNT, "classical": _BOOLEAN, "sigmaT": _MATRICES},
)


def obj_to_matrix(obj: Any, pointer: str = "") -> np.ndarray:
    _check_object(obj, *_MATRIX, pointer)
    dim, parts = obj["dim"], []
    for part in ("re", "im"):
        try:
            values = np.asarray(obj[part], dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            values = None
        if values is None or values.shape != (dim, dim):
            raise ConfigError(f"{pointer}/{part}", f"expected a {dim}x{dim} array of finite numbers")
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            i, j = bad[0]
            raise ConfigError(f"{pointer}/{part}/{i}/{j}", f"expected a finite number, got {values[i, j]}")
        parts.append(values)
    return parts[0] + 1j * parts[1]


def _obj_to_stack(mats: list, pointer: str, dim: int, dim_key: str) -> np.ndarray:
    """Stack wire matrices that must all have dimension ``dim``."""
    stack = [obj_to_matrix(m, f"{pointer}/{x}") for x, m in enumerate(mats)]
    for x, m in enumerate(stack):
        if m.shape[0] != dim:
            raise ConfigError(f"{pointer}/{x}/dim", f"{m.shape[0]} differs from {dim_key} {dim}")
    return np.stack(stack)


def _validated(build: Callable[..., CQState | CQChannel], pointer: str, *args: Any) -> Any:
    """``build(*args)``, validated; its InvariantError becomes a ConfigError at ``pointer``."""
    try:
        value = build(*args)
        value.validate()
    except InvariantError as exc:
        raise ConfigError(pointer, str(exc)) from exc
    return value


def state_to_obj(state: CQState) -> dict[str, Any]:
    return {
        "px": state.px.tolist(),
        "dimY": state.dim_y,
        "rhoY": [matrix_to_obj(state.rho_y_given_x[x]) for x in range(state.size_x)],
    }


def obj_to_state(obj: Any, pointer: str = "") -> CQState:
    _check_object(obj, *_STATE, pointer)
    stack = _obj_to_stack(obj["rhoY"], f"{pointer}/rhoY", obj["dimY"], "dimY")
    if len(stack) != len(obj["px"]):
        raise ConfigError(f"{pointer}/rhoY", f"expected {len(obj['px'])} matrices, got {len(stack)}")
    return _validated(CQState, pointer, obj["px"], stack)


def obj_to_channel(obj: Any, pointer: str = "") -> CQChannel:
    _check_object(obj, *_CHANNEL, pointer)
    stack = _obj_to_stack(obj["sigmaT"], f"{pointer}/sigmaT", obj["dimT"], "dimT")
    return _validated(CQChannel, pointer, stack, obj["classical"])


def load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}#", f"invalid JSON ({exc})") from exc


def load_state(path: str) -> CQState:
    return obj_to_state(load_json(path), f"{path}#")


def load_channel(path: str) -> CQChannel:
    return obj_to_channel(load_json(path), f"{path}#")


def dump_json(obj: Any) -> str:
    """Strict JSON text of ``obj``: a NaN or an infinity raises NumericalError."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError("output holds a NaN or an infinity, which JSON cannot hold") from exc


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trace_to_csv(trace: IterationTrace, gamma: float | None = None) -> str:
    """Render a trace: header, one row per iterate, status comment last.

    QDIB traces (any record carrying support_t) get the extra support_T
    column.  With ``gamma`` given, a leading gamma column is prepended to
    every row for sweep concatenation.
    """
    with_support = any(r.support_t is not None for r in trace.records)
    fields = _TRACE_FIELDS + ((_SUPPORT_FIELD,) if with_support else ())
    columns, lead = [col for col, _ in fields], []
    status = f"# status={trace.status}"
    if gamma is not None:
        columns, lead = ["gamma"] + columns, [float(gamma)]
        status += f" gamma={fmt_float(gamma)}"
    rows = ([*lead, *(getattr(r, attr) for _, attr in fields)] for r in trace.records)
    if trace.violations:
        status += " violations=" + "|".join(str(v) for v in trace.violations)
    return csv_text(columns, rows) + status + "\n"


def trace_to_records(trace: IterationTrace) -> dict[str, Any]:
    """JSON form of a trace: status, violations, row dicts."""
    rows = []
    for r in trace.records:
        row = {col: getattr(r, attr) for col, attr in _TRACE_FIELDS}
        if np.isnan(r.gamma_ratio):
            row["gamma_ratio"] = None
        if r.support_t is not None:
            row[_SUPPORT_FIELD[0]] = r.support_t
        rows.append(row)
    return {
        "status": trace.status,
        "violations": trace.violations,
        "records": rows,
    }
