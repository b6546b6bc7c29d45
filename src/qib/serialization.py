"""Wire formats and deterministic file output.

Matrices travel as {"dim", "re", "im"} with row-major real/imaginary parts;
a source file wraps {"px", "dimY", "rhoY"} and a channel file {"dimT",
"classical", "sigmaT"}.  CSV floats use %.17g so values round-trip exactly
and repeated runs are byte-identical; writes go through a temp file and
os.replace so readers never observe partial output.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from .engine import IterationTrace
from .exceptions import InvariantError
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
TRACE_COLUMNS = tuple(col for col, _ in _TRACE_FIELDS)


def fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return fmt_float(value)


def csv_text(columns: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Header line plus one line per row: ints verbatim, floats through
    ``fmt_float``, None as an empty cell."""
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


def obj_to_matrix(obj: Any, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise InvariantError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = {"dim", "re", "im"} - obj.keys()
    if missing:
        raise InvariantError(f"{where}: missing keys {sorted(missing)}")
    dim = _positive_int(obj["dim"], f"{where}/dim")
    try:
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvariantError(f"{where}: non-numeric entries ({exc})") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InvariantError(
            f"{where}: re/im shapes {re.shape}/{im.shape} do not match dim {dim}"
        )
    for part, values in (("re", re), ("im", im)):
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            i, j = bad[0]
            raise InvariantError(f"{where}/{part}/{i}/{j}: non-finite entry {values[i, j]}")
    return re + 1j * im


def _positive_int(value: Any, where: str) -> int:
    if not isinstance(value, int) or value < 1:
        raise InvariantError(f"{where}: expected a positive integer, got {value!r}")
    return value


def _obj_to_stack(mats: Any, where: str) -> np.ndarray:
    """Stack a nonempty list of wire matrices that share one dimension."""
    if not isinstance(mats, list) or not mats:
        raise InvariantError(f"{where}: expected a nonempty list of matrices")
    stack = [obj_to_matrix(m, where=f"{where}/{x}") for x, m in enumerate(mats)]
    for x, m in enumerate(stack):
        if m.shape != stack[0].shape:
            raise InvariantError(
                f"{where}/{x}/dim: {m.shape[0]} differs from {where}/0/dim {stack[0].shape[0]}"
            )
    return np.stack(stack)


def state_to_obj(state: CQState) -> dict[str, Any]:
    return {
        "px": state.px.tolist(),
        "dimY": state.dim_y,
        "rhoY": [matrix_to_obj(state.rho_y_given_x[x]) for x in range(state.size_x)],
    }


def obj_to_state(obj: Any, validate: bool = True) -> CQState:
    if not isinstance(obj, dict):
        raise InvariantError(f"state: expected an object, got {type(obj).__name__}")
    missing = {"px", "dimY", "rhoY"} - obj.keys()
    if missing:
        raise InvariantError(f"state: missing keys {sorted(missing)}")
    px = obj["px"]
    if not isinstance(px, list) or not px:
        raise InvariantError("state/px: expected a nonempty list of numbers")
    for x, p in enumerate(px):
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise InvariantError(f"state/px/{x}: expected a number, got {p!r}")
    dim_y = _positive_int(obj["dimY"], "state/dimY")
    mats = obj["rhoY"]
    if not isinstance(mats, list) or len(mats) != len(px):
        raise InvariantError(
            f"state/rhoY: expected {len(px)} matrices, got "
            f"{len(mats) if isinstance(mats, list) else type(mats).__name__}"
        )
    stack = _obj_to_stack(mats, "state/rhoY")
    if stack.shape[1] != dim_y:
        raise InvariantError(
            f"state/dimY: declared {dim_y} but matrices have dimension {stack.shape[1]}"
        )
    state = CQState(px, stack)
    if validate:
        state.validate()
    return state


def channel_to_obj(channel: CQChannel) -> dict[str, Any]:
    return {
        "dimT": channel.dim_t,
        "classical": channel.classical,
        "sigmaT": [
            matrix_to_obj(channel.sigma_t_given_x[x]) for x in range(channel.size_x)
        ],
    }


def obj_to_channel(obj: Any, validate: bool = True) -> CQChannel:
    if not isinstance(obj, dict):
        raise InvariantError(f"channel: expected an object, got {type(obj).__name__}")
    missing = {"dimT", "classical", "sigmaT"} - obj.keys()
    if missing:
        raise InvariantError(f"channel: missing keys {sorted(missing)}")
    dim_t = _positive_int(obj["dimT"], "channel/dimT")
    classical = obj["classical"]
    if not isinstance(classical, bool):
        raise InvariantError(f"channel/classical: expected a boolean, got {classical!r}")
    stack = _obj_to_stack(obj["sigmaT"], "channel/sigmaT")
    if stack.shape[1] != dim_t:
        raise InvariantError(
            f"channel/dimT: declared {dim_t} but matrices have dimension {stack.shape[1]}"
        )
    channel = CQChannel(stack, classical=classical)
    if validate:
        channel.validate()
    return channel


_NON_FINITE = object()


def load_json(path: str) -> Any:
    """Parse a JSON file, rejecting the NaN/Infinity literals that Python's
    json accepts but JSON does not, with the pointer of the first one."""
    literals: list[str] = []

    def non_finite(literal: str) -> object:
        literals.append(literal)
        return _NON_FINITE

    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh, parse_constant=non_finite)
        except json.JSONDecodeError as exc:
            raise InvariantError(f"{path}: invalid JSON ({exc})") from exc
    if literals:
        pointer = _pointer_to(obj, _NON_FINITE)
        at = f" at {pointer}" if pointer else ""
        raise InvariantError(f"{path}: non-finite number {literals[0]}{at}")
    return obj


def _pointer_to(obj: Any, target: object, prefix: str = "") -> str | None:
    """JSON pointer of the first ``target`` in ``obj``, or None."""
    if obj is target:
        return prefix
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        return None
    for key, child in children:
        found = _pointer_to(child, target, f"{prefix}/{key}")
        if found is not None:
            return found
    return None


def load_state(path: str, validate: bool = True) -> CQState:
    return obj_to_state(load_json(path), validate=validate)


def load_channel(path: str, validate: bool = True) -> CQChannel:
    return obj_to_channel(load_json(path), validate=validate)


def dump_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
