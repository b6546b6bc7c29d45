"""Command-line interface.

Subcommands mirror the library pipelines: run-qib / run-qdib iterate one
source to convergence and emit the iteration trace; gamma-sweep and
beta-sweep run once per entry of a parameter list; advantage prints the analytic
separation table; classify and suffstats run the experiment pipelines;
validate checks a state or channel file.

Exit codes: 0 success, 1 validation failure (bad config, bad file, bad
usage), 2 numerical failure inside an otherwise valid computation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import math
import sys
from collections.abc import Callable
from typing import Any

from . import benchmarks, config as cfg, engine, qdib, serialization
from .exceptions import ConfigError, InvariantError, NumericalError
from .experiments.classify import MAX_CELLS, NUM_LABELS, check_grid_step, classify_pipeline
from .experiments.suffstats import suffstats_pipeline
from .experiments.sweeps import beta_sweep, gamma_sweep


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        serialization.write_text_atomic(out, text)


def _emit_result(args: argparse.Namespace, to_json: Callable[[], Any], to_csv: Callable[[], str]) -> None:
    """The one choice of format: the result as JSON under --format json, as CSV
    otherwise; only the chosen form is rendered."""
    _emit(serialization.dump_json(to_json()) if args.format == "json" else to_csv(), args.out)


def _load_config(args: argparse.Namespace, schema: cfg.Schema) -> tuple[dict, int]:
    obj = serialization.load_json(args.config)
    cfg.validate_config(obj, schema)
    seed = args.seed if args.seed is not None else obj.get("seed", 0)
    return obj, seed


def _load_run(args: argparse.Namespace, schema: cfg.Schema):
    """Config, solver config and resolved state of a run subcommand."""
    obj, seed = _load_config(args, schema)
    run_cfg = cfg.objective_config(obj, seed)
    return obj, run_cfg, cfg.resolve_state(obj["state"], seed, run_cfg.dim_t, run_cfg.classical)


def _maybe_emit_state(args: argparse.Namespace, state) -> None:
    if getattr(args, "emit_state", None):
        serialization.write_text_atomic(
            args.emit_state, serialization.dump_json(serialization.state_to_obj(state))
        )


def _cmd_run(args: argparse.Namespace) -> int:
    """run-qib and run-qdib: the subparser supplies the schema and the runner's
    (module, name), looked up now, so a replaced module attribute is called."""
    obj, run_cfg, state = _load_run(args, args.schema)
    initial = cfg.resolve_initial_channel(
        obj.get("initial_channel"), run_cfg.dim_t, state.size_x, run_cfg.classical
    )
    _, trace = getattr(*args.runner)(state, run_cfg, initial=initial)
    _maybe_emit_state(args, state)
    _emit_result(args, lambda: serialization.trace_to_records(trace), lambda: serialization.trace_to_csv(trace))
    return 0


def _cmd_gamma_sweep(args: argparse.Namespace) -> int:
    obj, run_cfg, state = _load_run(args, cfg.GAMMA_SWEEP_SCHEMA)
    results, _ = gamma_sweep(state, run_cfg, obj["gamma_list"])
    _maybe_emit_state(args, state)

    def to_csv() -> str:
        texts = [serialization.trace_to_csv(t, gamma=g) for g, t in results]
        return texts[0] + "".join(t.split("\n", 1)[1] for t in texts[1:])  # one header line

    _emit_result(args, lambda: {"runs": [{"gamma": g, **serialization.trace_to_records(t)} for g, t in results]},
                 to_csv)
    return 0


def _cmd_beta_sweep(args: argparse.Namespace) -> int:
    obj, run_cfg, state = _load_run(args, cfg.BETA_SWEEP_SCHEMA)
    rows = beta_sweep(state, run_cfg, obj["beta_list"], **cfg.params(obj, ("kappa_samples",)))
    _maybe_emit_state(args, state)
    _emit_result(args, lambda: rows, lambda: serialization.csv_text(rows))
    return 0


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InvariantError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if not values:
        raise InvariantError(f"{flag} produced no values")
    return values


def _cmd_advantage(args: argparse.Namespace) -> int:
    ds = _parse_int_list(args.d, "--d")
    ns = _parse_int_list(args.n, "--n")
    if len(ds) == 1:
        ds = ds * len(ns)
    if len(ns) == 1:
        ns = ns * len(ds)
    if len(ds) != len(ns):
        raise InvariantError(
            f"--d and --n must have matching lengths (or one scalar), got {len(ds)} and {len(ns)}"
        )
    for flag, value in (("--alpha", args.alpha), ("--beta", args.beta)):
        if not math.isfinite(value):
            raise InvariantError(f"{flag} must be a finite number, got {value}")
    for d, n in zip(ds, ns):  # a copy source has sizeX = dimY = d; the Fourier channel has dimT = n
        cfg.check_entries((("--d", d),), (("--d", d),), (("--n", n),), classical=False)
    rows = [dataclasses.asdict(benchmarks.advantage_gap(d, n, args.alpha, args.beta)) for d, n in zip(ds, ns)]
    _emit_result(args, lambda: rows, lambda: serialization.csv_text(rows))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    obj, seed = _load_config(args, cfg.CLASSIFY_SCHEMA)
    grid = ("--grid-step", check_grid_step(args.grid_step))
    # The pipeline's signature owns the defaults of the keys a config leaves out.
    default = {k: p.default for k, p in inspect.signature(classify_pipeline).parameters.items()}
    n, t = ("/n_samples", obj.get("n_samples", default["n_samples"])), ("/dimT", obj.get("dimT", default["dim_t"]))
    cfg.check_entries((("", MAX_CELLS),), (("", NUM_LABELS),), (t,), False)
    # The feature stacks at the pipeline's defaults, with the grid's if it is written.
    cfg.check_arrays((n, t, t), *(((grid, t, t),) if args.regions_out else ()))
    report = classify_pipeline(
        seed=seed,
        grid_step=args.grid_step if args.regions_out else None,
        **cfg.params(obj, ("alpha", "beta", "gamma", "dimT", "ridge", "n_samples",
                           "train_fraction", "tol", "max_iters")),
    )
    metrics = dict(report.metrics)
    metrics["seed"] = seed
    _emit(serialization.dump_json(metrics), args.out)
    if args.regions_out:
        serialization.write_text_atomic(args.regions_out, serialization.csv_text(report.region_rows))
    return 0


def _cmd_suffstats(args: argparse.Namespace) -> int:
    obj, seed = _load_config(args, cfg.SUFFSTATS_SCHEMA)
    if args.out is None:
        raise InvariantError("suffstats writes multiple files; --out DIRECTORY is required")
    spec = cfg.suffstats_spec(obj, seed)
    size_x = (("/sizeX1", spec.size_x1), ("/sizeX2", spec.size_x2))
    # The run's table, dimT defaulting to sizeX, and the baseline's (sizeX, sizeX1) one.
    for dim_t in ((("/dimT", obj["dimT"]),) if "dimT" in obj else size_x, size_x[:1]):
        cfg.check_entries(size_x, cfg.QUBIT, dim_t, classical=True)
    report = suffstats_pipeline(
        spec,
        seed=seed,
        **cfg.params(obj, ("beta", "dimT", "tol", "max_iters")),
    )
    _maybe_emit_state(args, report.instance.state)
    out = args.out.rstrip("/")
    serialization.write_text_atomic(f"{out}/fdib.csv", serialization.csv_text(report.fdib_rows))
    serialization.write_text_atomic(f"{out}/ity.csv", serialization.csv_text(report.ity_rows))
    metrics = dict(report.metrics)
    metrics["seed"] = seed
    metrics["status"] = report.trace.status
    serialization.write_text_atomic(
        f"{out}/metrics.json", serialization.dump_json(metrics)
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    obj = serialization.load_json(args.file)
    if isinstance(obj, dict) and "rhoY" in obj:
        state = serialization.obj_to_state(obj, f"{args.file}#")
        sys.stdout.write(
            f"ok: state with sizeX={state.size_x}, dimY={state.dim_y}\n"
        )
        return 0
    if isinstance(obj, dict) and "sigmaT" in obj:
        channel = serialization.obj_to_channel(obj, f"{args.file}#")
        kind = "classical" if channel.classical else "quantum"
        sys.stdout.write(
            f"ok: {kind} channel with sizeX={channel.size_x}, dimT={channel.dim_t}\n"
        )
        return 0
    raise ConfigError(f"{args.file}#", "neither a state file (rhoY) nor a channel file (sigmaT)")


def _path(text: str) -> str:
    """A path argument's value: an empty one names no file to read, and would
    name the root or the parent directory of one to write once a file name is
    joined or resolved onto it."""
    if not text:
        raise argparse.ArgumentTypeError("expects a file path, got an empty string")
    return text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qib",
        description="Accelerated quantum information bottleneck toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, emit_state: bool = True):
        p.add_argument("--config", type=_path, required=True, help="JSON config file")
        p.add_argument("--out", type=_path, default=None, help="output path (stdout when omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if emit_state:
            p.add_argument("--emit-state", type=_path, default=None, help="also write the resolved state JSON")

    runs = (
        ("run-qib", "iterate the soft bottleneck to convergence", dict(
            func=_cmd_run, schema=cfg.RUN_QIB_SCHEMA, runner=(engine, "run_qib"))),
        ("run-qdib", "iterate the deterministic bottleneck", dict(
            func=_cmd_run, schema=cfg.RUN_QDIB_SCHEMA, runner=(qdib, "run_qdib"))),
        ("gamma-sweep", "one run per step size from a shared start", dict(func=_cmd_gamma_sweep)),
        ("beta-sweep", "converged metrics per trade-off weight", dict(func=_cmd_beta_sweep)),
    )
    for name, text, defaults in runs:
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(**defaults)

    p = sub.add_parser("advantage", help="analytic quantum vs classical table")
    p.add_argument("--d", required=True, help="source sizes, comma separated")
    p.add_argument("--n", required=True, help="bottleneck dimensions, comma separated")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", type=_path, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_advantage)

    p = sub.add_parser("classify", help="kernel classification experiment")
    add_common(p, emit_state=False)
    p.add_argument("--regions-out", type=_path, default=None, help="decision-region CSV path")
    p.add_argument("--grid-step", type=float, default=0.25)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("suffstats", help="sufficient-statistics recovery experiment")
    add_common(p)
    p.set_defaults(func=_cmd_suffstats)

    p = sub.add_parser("validate", help="check a state or channel file")
    p.add_argument("file", type=_path, help="JSON file to validate")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; usage errors are validation failures.
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except OSError as exc:  # a missing file, or a directory where a file belongs
        # os.replace names its target second, after the temporary file.
        reason = "missing file" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"error: {reason}: {exc.filename2 or exc.filename or exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
