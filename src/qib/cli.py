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
import math
import sys

from . import benchmarks, config as cfg, engine, qdib, serialization
from .exceptions import ConfigError, InvariantError, NumericalError
from .experiments.classify import MAX_CELLS, NUM_LABELS, check_grid_step, classify_pipeline
from .experiments.suffstats import suffstats_pipeline
from .experiments.sweeps import beta_sweep, gamma_sweep

BETA_SWEEP_COLUMNS = ("beta", "f", "H_T", "I_TX", "I_TY", "kappa_lower_bound")
ADVANTAGE_COLUMNS = ("d", "n", "alpha", "beta", "quantum", "classical", "gap", "achieved_quantum")
REGION_COLUMNS = ("x1", "x2", "pred_quantum", "pred_classical", "pred_linear")
FDIB_COLUMNS = ("iter", "f_dib_qdib", "f_dib_baseline")
ITY_COLUMNS = ("iter", "I_TY", "I_X1Y_baseline", "I_XY")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        serialization.write_text_atomic(out, text)


def _load_config(args: argparse.Namespace, schema: cfg.Schema) -> tuple[dict, int]:
    obj = serialization.load_json(args.config)
    cfg.validate_config(obj, schema)
    seed = args.seed if args.seed is not None else obj.get("seed", 0)
    return obj, seed


def _load_run(args: argparse.Namespace, schema: cfg.Schema, alpha_override: float | None = None):
    """Config, solver config and resolved state of a run subcommand."""
    obj, seed = _load_config(args, schema)
    run_cfg = cfg.objective_config(obj, seed, alpha_override)
    return obj, run_cfg, cfg.resolve_state(obj["state"], seed, run_cfg.dim_t, run_cfg.classical)


def _maybe_emit_state(args: argparse.Namespace, state) -> None:
    if getattr(args, "emit_state", None):
        serialization.write_text_atomic(
            args.emit_state, serialization.dump_json(serialization.state_to_obj(state))
        )


def _cmd_run(args: argparse.Namespace) -> int:
    """run-qib and run-qdib: the subparser supplies schema, runner and alpha."""
    obj, run_cfg, state = _load_run(args, args.schema, args.alpha_override)
    initial = cfg.resolve_initial_channel(
        obj.get("initial_channel"), run_cfg.dim_t, state.size_x, run_cfg.classical
    )
    _, trace = args.runner(state, run_cfg, initial=initial)
    _maybe_emit_state(args, state)
    if args.format == "json":
        _emit(serialization.dump_json(serialization.trace_to_records(trace)), args.out)
    else:
        _emit(serialization.trace_to_csv(trace), args.out)
    return 0


def _cmd_gamma_sweep(args: argparse.Namespace) -> int:
    obj, run_cfg, state = _load_run(args, cfg.GAMMA_SWEEP_SCHEMA)
    results, _ = gamma_sweep(state, run_cfg, obj["gamma_list"])
    _maybe_emit_state(args, state)
    if args.format == "json":
        payload = {
            "runs": [
                {"gamma": g, **serialization.trace_to_records(t)} for g, t in results
            ]
        }
        _emit(serialization.dump_json(payload), args.out)
    else:
        texts = [serialization.trace_to_csv(t, gamma=g) for g, t in results]
        # One header line: later runs drop theirs.
        _emit(texts[0] + "".join(t.split("\n", 1)[1] for t in texts[1:]), args.out)
    return 0


def _cmd_beta_sweep(args: argparse.Namespace) -> int:
    obj, run_cfg, state = _load_run(args, cfg.BETA_SWEEP_SCHEMA)
    rows = beta_sweep(state, run_cfg, obj["beta_list"], **cfg.params(obj, ("kappa_samples",)))
    _maybe_emit_state(args, state)
    if args.format == "json":
        _emit(serialization.dump_json(rows), args.out)
    else:
        table = [[float(row[c]) for c in BETA_SWEEP_COLUMNS] for row in rows]
        _emit(serialization.csv_text(BETA_SWEEP_COLUMNS, table), args.out)
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
    reports = [
        benchmarks.advantage_gap(d, n, args.alpha, args.beta)
        for d, n in zip(ds, ns)
    ]
    table = [[getattr(r, c) for c in ADVANTAGE_COLUMNS] for r in reports]
    if args.format == "json":
        payload = [dict(zip(ADVANTAGE_COLUMNS, row)) for row in table]
        _emit(serialization.dump_json(payload), args.out)
    else:
        _emit(serialization.csv_text(ADVANTAGE_COLUMNS, table), args.out)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    obj, seed = _load_config(args, cfg.CLASSIFY_SCHEMA)
    grid = ("--grid-step", check_grid_step(args.grid_step))
    n, t = ("/n_samples", obj.get("n_samples", 400)), ("/dimT", obj.get("dimT", 2))
    train = ("/n_samples", round(obj.get("train_fraction", 0.5) * n[1]))
    cfg.check_entries((("", MAX_CELLS),), (("", NUM_LABELS),), (t,), False)
    # The grams and feature stacks at the pipeline's defaults, with the grid's if it is written.
    cfg.check_arrays((train, train), (("/n_samples", n[1] - train[1]), train), (n, t, t),
                     *(((grid, train), (grid, t, t)) if args.regions_out else ()))
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
        serialization.write_text_atomic(
            args.regions_out, serialization.csv_text(REGION_COLUMNS, report.region_rows)
        )
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
    serialization.write_text_atomic(
        f"{out}/fdib.csv", serialization.csv_text(FDIB_COLUMNS, report.fdib_rows)
    )
    serialization.write_text_atomic(
        f"{out}/ity.csv", serialization.csv_text(ITY_COLUMNS, report.ity_rows)
    )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qib",
        description="Accelerated quantum information bottleneck toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, emit_state: bool = True):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if emit_state:
            p.add_argument("--emit-state", default=None, help="also write the resolved state JSON")

    runs = (
        ("run-qib", "iterate the soft bottleneck to convergence", dict(
            func=_cmd_run, schema=cfg.RUN_QIB_SCHEMA, runner=engine.run_qib, alpha_override=None)),
        ("run-qdib", "iterate the deterministic bottleneck", dict(
            func=_cmd_run, schema=cfg.RUN_QDIB_SCHEMA, runner=qdib.run_qdib, alpha_override=0.0)),
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
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_advantage)

    p = sub.add_parser("classify", help="kernel classification experiment")
    add_common(p, emit_state=False)
    p.add_argument("--regions-out", default=None, help="decision-region CSV path")
    p.add_argument("--grid-step", type=float, default=0.25)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("suffstats", help="sufficient-statistics recovery experiment")
    add_common(p)
    p.set_defaults(func=_cmd_suffstats)

    p = sub.add_parser("validate", help="check a state or channel file")
    p.add_argument("file", help="JSON file to validate")
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
