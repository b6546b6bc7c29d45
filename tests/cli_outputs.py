"""Write every output of the ``qib`` CLI for a fixed set of inputs into one
directory, so that two checkouts compare with ``diff -r``.

    python tests/cli_outputs.py OUTDIR

Runs ``qib.cli.main`` in process, with OpenBLAS on one thread, from inside
OUTDIR, so no output names an absolute path.  The inputs: each benchmark
workload's reference config and its request configs 1-5 at seed 1, read from
``perfbench/workloads.py``; run-qib and run-qdib on a qubit, a dimT-3 and a
classical source, from a random start and from each kind of initial channel
(maximally mixed, a quantum channel file at dimT 2 and 3, an inline classical
channel in a classical run and lifted to a quantum one); beta-sweep with integer and float betas; advantage;
classify with ``--regions-out``; suffstats; validate on a state and a channel
file; the README's demo config; and runs at a beta near the float maximum,
where the solvers must fail with one ``numerical error:`` line.  Every
subcommand that takes ``--format`` runs in both formats.  Invocation NAME
writes its output files under NAME, its stdout (if any) to NAME.stdout, and
its exit code, warnings (file and message) and stderr to NAME.log.  It exits 0
whatever the CLI's exit codes; a traceback means the CLI raised past its
error handling.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from qib import cli  # noqa: E402

FORMATS = ("run-qib", "run-qdib", "gamma-sweep", "beta-sweep", "advantage")
QUBITS = {"generator": "random-qubit-ensemble", "sizeX": 5}
COPY4 = {"generator": "copy-state", "d": 4}


def invoke(name: str, argv: list[str]) -> None:
    """``qib ARGV`` as a fresh process would run it: each invocation records its
    warnings once per location, whatever earlier ones showed."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        code = cli.main(argv)
    # Each warning by its file relative to the checkout, without a line number,
    # so that two checkouts compare.
    shown = "".join(f"{os.path.relpath(w.filename, ROOT)}: {w.category.__name__}: {w.message}\n" for w in caught)
    Path(f"{name}.log").write_text(f"exit {code}\n{shown}{err.getvalue()}", encoding="utf-8")
    if out.getvalue():
        Path(f"{name}.stdout").write_text(out.getvalue(), encoding="utf-8")


def run(name: str, command: str, config: dict | None, *flags: str, out: str = ".csv") -> None:
    """``command`` on ``config`` (written to NAME.config.json), into NAME plus
    ``out``: in both formats, NAME.csv and NAME.json, where it takes --format."""
    argv = [command, *flags]
    if config is not None:
        Path(f"{name}.config.json").write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        argv += ["--config", f"{name}.config.json"]
    if command not in FORMATS:
        invoke(name, [*argv, "--out", name + out])
        return
    for fmt in ("csv", "json"):
        invoke(f"{name}.{fmt}", [*argv, "--out", f"{name}.{fmt}", "--format", fmt])


def _channel(dim_t: int, classical: bool) -> dict:
    """The wire form of a fixed channel on QUBITS' five x: per x a diagonal of
    weights 1, ..., dimT shifted by x, normalized, and unless classical
    Hermitian off-diagonal entries (0.03 + 0.01j x) / dimT, small enough to
    keep every conditional positive definite."""
    sigma = []
    for x in range(QUBITS["sizeX"]):
        diag = [1.0 + (t + x) % dim_t for t in range(dim_t)]
        m = [[complex(diag[i] / sum(diag)) if i == j else 0j for j in range(dim_t)] for i in range(dim_t)]
        for i in range(dim_t):
            for j in range(i + 1, dim_t):
                m[i][j] = 0j if classical else complex(0.03, 0.01 * x) / dim_t
                m[j][i] = m[i][j].conjugate()
        sigma.append({"dim": dim_t, "re": [[v.real for v in r] for r in m], "im": [[v.imag for v in r] for r in m]})
    return {"dimT": dim_t, "classical": classical, "sigmaT": sigma}


def main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(out_dir)
    for w in workloads.WORKLOADS.values():
        seeds = {"ref": workloads.REFERENCE_SEED}
        seeds |= {f"req{i}": workloads.config_seed(w.name, 1, i) for i in range(1, 6)}
        for label, seed in seeds.items():
            out = "" if w.out_is_dir else ".json" if w.command == "classify" else ".csv"
            run(f"{w.name}-{label}", w.command, w.config(seed), out=out)

    solver = {"beta": 5.0, "max_iters": 30, "seed": 3, "state": QUBITS}
    for dim_t, classical in ((2, False), (3, False), (3, True)):
        kind = f"dimT{dim_t}" + ("-classical" if classical else "")
        config = {**solver, "dimT": dim_t, "classical": classical}
        run(f"run-qib-{kind}", "run-qib", {**config, "alpha": 1.0}, "--emit-state", f"state-{kind}.json")
        run(f"run-qdib-{kind}", "run-qdib", config)
    # Initial channels: a channel built from a table or a stack derives its carry when first read.
    Path("channel-dimT2.json").write_text(json.dumps(_channel(2, False)), encoding="utf-8")
    Path("channel-dimT3.json").write_text(json.dumps(_channel(3, False)), encoding="utf-8")
    starts = [("mixed", dim_t, classical, "maximally-mixed") for dim_t, classical in ((2, False), (3, False), (3, True))]
    starts += [("file", dim_t, False, {"path": f"channel-dimT{dim_t}.json"}) for dim_t in (2, 3)]
    starts += [("inline-classical", dim_t, classical, _channel(dim_t, True))
               for dim_t, classical in ((3, True), (2, False), (3, False))]
    for start, dim_t, classical, initial in starts:
        kind = f"{start}-dimT{dim_t}" + ("-classical" if classical else "")
        config = {**solver, "dimT": dim_t, "classical": classical, "initial_channel": initial}
        run(f"run-qib-{kind}", "run-qib", {**config, "alpha": 1.0, "gamma": 0.8})
        run(f"run-qdib-{kind}", "run-qdib", config)
    run("readme-demo", "run-qib", json.loads((ROOT / "configs" / "small_gamma_demo.json").read_text()))

    sweep = {"alpha": 1.0, "dimT": 2, "seed": 4, "max_iters": 60, "kappa_samples": 40, "state": QUBITS}
    run("beta-sweep", "beta-sweep", {**sweep, "beta_list": [0.5, 2, 6.0, 30]})
    # An integer beta of 1e17 or more prints as the integer it is.
    run("beta-sweep-large-integer", "beta-sweep", {**sweep, "beta_list": [2, 10**17]})
    run("advantage", "advantage", None, "--d", "3,5,7", "--n", "2,3,3", "--beta", "2")
    run("advantage-overflow", "advantage", None, "--d", "5", "--n", "3", "--beta", "1.7e308")
    run("classify", "classify", workloads.WORKLOADS["classify"].config(1), "--regions-out", "regions.csv",
        out=".json")

    channel = {"dimT": 2, "classical": True, "sigmaT": [
        {"dim": 2, "re": [[p, 0.0], [0.0, 1.0 - p]], "im": [[0.0, 0.0], [0.0, 0.0]]} for p in (0.25, 1.0)]}
    Path("channel.json").write_text(json.dumps(channel), encoding="utf-8")
    for path in ("state-dimT3.json", "channel.json"):
        invoke(f"validate-{Path(path).stem}", ["validate", path])

    # Near the float maximum: qubit lengths past 1.3e154 square to inf, and at
    # 1e307 F itself overflows on the copy source.
    for beta, state in ((1e156, {**QUBITS, "sizeX": 4}), (1e307, COPY4)):
        for dim_t, classical in ((2, False), (3, False), (2, True), (3, True)):
            kind = f"beta{beta:.0e}-dimT{dim_t}" + ("-classical" if classical else "")
            config = {"beta": beta, "dimT": dim_t, "classical": classical, "max_iters": 5, "state": state}
            run(f"run-qib-{kind}", "run-qib", {**config, "alpha": 1.0})
            run(f"run-qdib-{kind}", "run-qdib", config)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
