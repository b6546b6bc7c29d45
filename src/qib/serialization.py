"""Wire formats, the one kit of JSON key rules, and deterministic output.

Matrices travel as {"dim", "re", "im"} with row-major real/imaginary parts;
a source wraps {"px", "dimY", "rhoY"} and a channel {"dimT", "classical",
"sigmaT"}.  Configs, inline sources and files share the key rules: a bad key
or value raises ConfigError with its JSON pointer, after ``<path>#`` in a
file.  Numbers exclude booleans, NaN, the infinities and literals that
overflow a float64 (1e400); integers also exclude integral floats (2.0).
A result table is a list of rows that carry their column names: JSON
writes the rows, and ``csv_text`` takes the header from their keys.  A
trace's CSV and JSON forms read the same per-iterate rows, the CSV under its
declared columns.  CSV floats use %.17g so values round-trip exactly and
repeated runs are byte-identical; writes go through a temp file and
os.replace so readers never observe partial output.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import stat
import sys
import tempfile
from collections.abc import Callable, Iterable, Sequence
from typing import Any

import numpy as np

from .engine import IterationTrace
from .exceptions import ConfigError, InvariantError, NumericalError
from .model import CQChannel, CQState

# The trace's CSV columns, in the order ``_trace_rows`` gives their values.
_TRACE_COLUMNS = ("iter", "f_alpha", "H_T", "I_TX", "I_TY", "step_divergence", "gamma_ratio", "fixed_point_residual")


def fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def _csv_cell(value: Any) -> str:
    if isinstance(value, int):
        return str(value)
    return "nan" if value is None else fmt_float(value)


def _csv_lines(columns: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def csv_text(rows: Sequence[dict[str, Any]]) -> str:
    """A table of rows that carry their column names, nonempty: the first
    row's keys as the header, then one line per row, ints verbatim, None as
    nan and any other number through ``fmt_float``."""
    return _csv_lines(rows[0], (row.values() for row in rows))


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
    """Write ``text`` to a temporary file beside ``path`` and rename it onto
    ``path``, so no reader sees a partial file.  The file gets the mode that
    ``open(path, "w")`` leaves: a replaced file's own, else 0o666 less the
    umask (``mkstemp`` makes its file 0o600)."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = 0o666 & ~_umask()
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _umask() -> int:
    """The process's umask, which can only be read by setting it."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _trace_rows(trace: IterationTrace) -> tuple[tuple[str, ...], list[tuple[Any, ...]]]:
    """The trace's columns, support_T last on a deterministic run's, and
    each iterate's values in their order: an undefined gamma_ratio (nan) is
    None, which the CSV prints as nan and JSON as null."""
    support = any(r.support_t is not None for r in trace.records)
    rows = [(r.iteration, r.f_alpha, r.h_t, r.i_tx, r.i_ty, r.step_divergence,
             None if math.isnan(r.gamma_ratio) else r.gamma_ratio, r.fixed_point_residual,
             *((r.support_t,) if support else ())) for r in trace.records]
    return _TRACE_COLUMNS + (("support_T",) if support else ()), rows


def trace_to_csv(trace: IterationTrace, gamma: float | None = None) -> str:
    """Render a trace: header, one row per iterate, status comment last.

    With ``gamma`` given, a leading gamma column is prepended to every row
    for sweep concatenation.
    """
    columns, rows = _trace_rows(trace)
    status = f"# status={trace.status}"
    if gamma is not None:
        columns, rows = ("gamma", *columns), [(float(gamma), *row) for row in rows]
        status += f" gamma={fmt_float(gamma)}"
    if trace.violations:
        status += " violations=" + "|".join(str(v) for v in trace.violations)
    return _csv_lines(columns, rows) + status + "\n"


def trace_to_records(trace: IterationTrace) -> dict[str, Any]:
    """JSON form of a trace: status, violations, and one record per iterate,
    keyed by the CSV's columns."""
    columns, rows = _trace_rows(trace)
    return {
        "status": trace.status,
        "violations": trace.violations,
        "records": [dict(zip(columns, row)) for row in rows],
    }
