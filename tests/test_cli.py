"""Command surface: exit codes, output layout, determinism."""

import contextlib
import errno
import inspect
import json
import os
import re
import runpy
import subprocess
import sys

import numpy as np
import pytest

from qib import cli, config as qconfig, engine, model, qdib, serialization as ser
from qib.exceptions import NumericalError
from qib.experiments.sweeps import gamma_sweep

from helpers import TRACE_HEADER, channel_to_obj, random_cq_state, random_channel_for


def _write_json(path, obj):
    ser.write_text_atomic(str(path), ser.dump_json(obj))
    return str(path)


@pytest.fixture
def qib_config(tmp_path):
    return _write_json(
        tmp_path / "run.json",
        {
            "alpha": 1.0,
            "beta": 2.0,
            "dimT": 2,
            "seed": 7,
            "tol": 1e-9,
            "max_iters": 200,
            "state": {"generator": "random-qubit-ensemble", "sizeX": 3},
        },
    )


def test_run_qib_stdout_csv(qib_config, capsys):
    assert cli.main(["run-qib", "--config", qib_config]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == TRACE_HEADER
    assert lines[-1].startswith("# status=")
    assert len(lines) > 3


def test_run_qib_out_file_is_deterministic(qib_config, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["run-qib", "--config", qib_config, "--out", str(a)]) == 0
    assert cli.main(["run-qib", "--config", qib_config, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_qib_seed_override_changes_the_run(qib_config, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["run-qib", "--config", qib_config, "--out", str(a)]) == 0
    assert (
        cli.main(["run-qib", "--config", qib_config, "--seed", "8", "--out", str(b)])
        == 0
    )
    assert a.read_bytes() != b.read_bytes()


def test_run_qib_json_format(qib_config, capsys):
    assert cli.main(["run-qib", "--config", qib_config, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] in ("converged", "max_iters")
    assert payload["violations"] == []
    row = payload["records"][0]
    assert set(row) >= {"iter", "f_alpha", "H_T", "I_TX", "I_TY"}


def test_run_qib_emit_state(qib_config, tmp_path, capsys):
    spath = tmp_path / "state.json"
    assert (
        cli.main(["run-qib", "--config", qib_config, "--emit-state", str(spath)]) == 0
    )
    capsys.readouterr()
    state = ser.load_state(str(spath))
    assert state.size_x == 3 and state.dim_y == 2


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_run_qib_initial_channel_keyword(qib_config, tmp_path, capsys):
    obj = _read_json(qib_config)
    obj["initial_channel"] = "maximally-mixed"
    path = _write_json(tmp_path / "mm.json", obj)
    assert cli.main(["run-qib", "--config", path]) == 0
    capsys.readouterr()


def test_run_qib_initial_channel_from_a_file(qib_config, tmp_path, capsys):
    obj = _read_json(qib_config)
    state = qconfig.resolve_state(obj["state"], obj["seed"], 2, False)
    chan = random_channel_for(state, 2, 0, tag="clifile")
    obj["initial_channel"] = {"path": _write_json(tmp_path / "channel.json", channel_to_obj(chan))}
    path = _write_json(tmp_path / "from_file.json", obj)
    assert cli.main(["run-qib", "--config", path, "--format", "json"]) == 0
    first = json.loads(capsys.readouterr().out)["records"][0]
    _, trace = engine.run_qib(state, qconfig.objective_config(obj, obj["seed"]), initial=chan)
    assert first == ser.trace_to_records(trace)["records"][0]


@pytest.mark.parametrize("command, keys", [("run-qib", {"alpha": 1.0, "gamma": 0.7}), ("run-qdib", {})])
def test_classical_initial_channel_as_a_stack_or_its_table_gives_one_trace(tmp_path, capsys, command, keys):
    # A file or inline channel is a dense stack; the run sees only its table.
    obj = {"beta": 8.0, "dimT": 3, "classical": True, "tol": 1e-12, "max_iters": 20, "seed": 3,
           "state": {"generator": "random-qubit-ensemble", "sizeX": 6}, **keys}
    state = qconfig.resolve_state(obj["state"], obj["seed"], 3, True)
    q = engine.random_channel(3, 6, classical=True, seed=5).carry[2]
    runner = engine.run_qib if command == "run-qib" else qdib.run_qdib
    _, trace = runner(state, qconfig.objective_config(obj, obj["seed"]), model.CQChannel(q, classical=True))
    expected = {"csv": ser.trace_to_csv(trace), "json": ser.dump_json(ser.trace_to_records(trace))}
    dense = channel_to_obj(model.CQChannel(q, classical=True))
    for initial in ({"path": _write_json(tmp_path / "channel.json", dense)}, dense):
        path = _write_json(tmp_path / "run.json", {**obj, "initial_channel": initial})
        for fmt, text in expected.items():
            assert cli.main([command, "--config", path, "--format", fmt]) == 0
            assert capsys.readouterr().out == text


def test_run_qib_initial_channel_mismatch_exits_1(qib_config, tmp_path, capsys):
    state = random_cq_state(0, size_x=3, dim_y=2, tag="climm")
    chan = random_channel_for(state, 3, 0, tag="climm")  # dimT 3, config wants 2
    obj = _read_json(qib_config)
    obj["initial_channel"] = channel_to_obj(chan)
    path = _write_json(tmp_path / "bad.json", obj)
    assert cli.main(["run-qib", "--config", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_qib_missing_config_exits_1(tmp_path, capsys):
    assert cli.main(["run-qib", "--config", str(tmp_path / "nope.json")]) == 1
    assert "missing file" in capsys.readouterr().err


def test_directory_as_an_input_path_exits_1(tmp_path, capsys):
    # Regression: IsADirectoryError escaped cli.main as a traceback.
    folder = tmp_path / "folder"
    folder.mkdir()
    config = _write_json(tmp_path / "run.json", dict(_RUN, state={"path": str(folder)}))
    for argv in (["run-qib", "--config", str(folder)], ["run-qib", "--config", config],
                 ["validate", str(folder)]):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {os.strerror(errno.EISDIR)}: {folder}\n"


def test_run_qib_schema_violation_exits_1(tmp_path, capsys):
    path = _write_json(tmp_path / "bad.json", {"alpha": 1.0})
    assert cli.main(["run-qib", "--config", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_numerical_failures_exit_2(qib_config, capsys, monkeypatch):
    def boom(*a, **kw):
        raise NumericalError("synthetic breakdown")

    monkeypatch.setattr(cli.engine, "run_qib", boom)
    assert cli.main(["run-qib", "--config", qib_config]) == 2
    assert "numerical error:" in capsys.readouterr().err


@pytest.mark.parametrize("classical", [False, True])
def test_an_overflowing_update_exponent_exits_2_with_one_line(tmp_path, capsys, classical):
    # gamma = 1e-310 passes every key rule; F / gamma overflows to inf, which
    # the finiteness check reports, with no numpy warning before it.
    config = dict(_RUN, gamma=1e-310, classical=classical, state=_QUBITS)
    assert cli.main(["run-qib", "--config", _write_json(tmp_path / "tiny.json", config)]) == 2
    assert capsys.readouterr() == ("", "numerical error: update exponent is not finite at x=0\n")


def test_running_the_module_calls_main(monkeypatch, capsys):
    argv = ["advantage", "--d", "3", "--n", "2", "--beta", "2"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["qib", *argv])
    # runpy warns when the module it runs is already imported.
    monkeypatch.delitem(sys.modules, "qib.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("qib.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == want


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    assert cli.main([]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_run_qdib_csv_has_support_column(tmp_path, capsys):
    path = _write_json(
        tmp_path / "qdib.json",
        {
            "beta": 5.0,
            "dimT": 2,
            "seed": 3,
            "max_iters": 60,
            "state": {"generator": "random-qubit-ensemble", "sizeX": 4},
        },
    )
    assert cli.main(["run-qdib", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == TRACE_HEADER + ",support_T"
    assert lines[1].split(",")[6] == "nan"  # no step-size ratio in qdib traces


def test_run_qdib_rejects_alpha_key(tmp_path, capsys):
    path = _write_json(
        tmp_path / "qdib.json",
        {
            "alpha": 0.0,
            "beta": 5.0,
            "dimT": 2,
            "state": {"generator": "random-qubit-ensemble", "sizeX": 3},
        },
    )
    assert cli.main(["run-qdib", "--config", path]) == 1
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("command, owner, name, extra", [
    ("run-qib", engine, "run_qib", {"alpha": 1.0}),
    ("run-qdib", qdib, "run_qdib", {}),
])
def test_run_commands_call_the_runner_attribute_of_the_moment(
    tmp_path, monkeypatch, capsys, command, owner, name, extra
):
    # The parser is built once per process, but a runner replaced after that
    # (as a tracer replaces module attributes) is the one a later call runs.
    path = _write_json(tmp_path / "run.json", {
        **extra, "beta": 2.0, "dimT": 2, "seed": 7, "max_iters": 3,
        "state": {"generator": "random-qubit-ensemble", "sizeX": 3},
    })
    cli.build_parser.cache_clear()
    assert cli.main([command, "--config", path]) == 0
    plain = capsys.readouterr().out
    calls = []
    original = getattr(owner, name)

    def patched(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)
    assert cli.main([command, "--config", path]) == 0
    assert len(calls) == 1 and calls[0].beta == 2.0
    assert capsys.readouterr().out == plain
    assert cli.build_parser.cache_info().misses == 1


def test_gamma_sweep_concatenates_chunks(tmp_path, capsys):
    path = _write_json(
        tmp_path / "sweep.json",
        {
            "alpha": 1.0,
            "beta": 2.0,
            "dimT": 2,
            "seed": 1,
            "max_iters": 80,
            "state": {"generator": "random-qubit-ensemble", "sizeX": 3},
            "gamma_list": [0.5, 1.0],
        },
    )
    assert cli.main(["gamma-sweep", "--config", path]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    header = "gamma," + TRACE_HEADER
    assert lines[0] == header
    assert sum(1 for ln in lines if ln == header) == 1
    statuses = [ln for ln in lines if ln.startswith("# status=")]
    assert len(statuses) == 2
    assert "gamma=" in statuses[0]
    # both runs start from the shared initial: row 1 of each chunk agrees on f
    first_rows = [ln for ln in lines if ln.split(",")[1:2] == ["1"]]
    f_values = {ln.split(",")[2] for ln in first_rows}
    assert len(f_values) == 1


def test_gamma_sweep_json_lists_each_run_in_input_order(tmp_path, capsys):
    obj = dict(_RUN, seed=1, tol=1e-15, max_iters=60, state=_QUBITS, gamma_list=[1.0, 2.0])
    path = _write_json(tmp_path / "sweep.json", obj)
    argv = ["gamma-sweep", "--config", path, "--format", "json"]
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == text
    runs = json.loads(text)["runs"]
    state = qconfig.resolve_state(obj["state"], 1, 2, False)
    results, _ = gamma_sweep(state, qconfig.objective_config(obj, 1), obj["gamma_list"])
    assert [run["gamma"] for run in runs] == obj["gamma_list"]
    for run, (_, trace) in zip(runs, results):
        assert set(run) == {"gamma", "status", "violations", "records"}
        assert run["records"] == ser.trace_to_records(trace)["records"]
    # gamma_ratio is null exactly where the CSV prints nan.
    assert cli.main(argv[:-2]) == 0
    csv_rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:] if not ln.startswith("#")]
    nulls = [r["gamma_ratio"] is None for run in runs for r in run["records"]]
    assert nulls == [row[7] == "nan" for row in csv_rows]
    assert any(nulls) and not all(nulls)


def test_beta_sweep_csv_and_json(tmp_path, capsys):
    path = _write_json(
        tmp_path / "beta.json",
        {
            "alpha": 1.0,
            "dimT": 2,
            "seed": 4,
            "max_iters": 80,
            "kappa_samples": 40,
            "state": {"generator": "random-qubit-ensemble", "sizeX": 3},
            "beta_list": [0.1, 2, 6.0],
        },
    )
    assert cli.main(["beta-sweep", "--config", path]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "beta,f,H_T,I_TX,I_TY,kappa_lower_bound"
    assert len(lines) == 4
    # A JSON integer prints as that integer; below 1e17 that is also its %.17g text.
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0.10000000000000001", "2", "6"]
    assert cli.main(["beta-sweep", "--config", path, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["beta"] for r in rows] == [0.1, 2.0, 6.0]


def test_beta_sweep_on_a_rank_one_source(tmp_path, capsys):
    # Both states are |0><0| in dimY 3, so every pair kappa scores compares
    # two densities with two null directions.
    pure = np.zeros((3, 3), dtype=complex)
    pure[0, 0] = 1.0
    state = ser.state_to_obj(model.CQState(np.array([0.5, 0.5]), np.stack([pure, pure])))
    path = _write_json(
        tmp_path / "rank1.json",
        {"alpha": 1.0, "dimT": 2, "seed": 4, "max_iters": 20, "kappa_samples": 5,
         "state": state, "beta_list": [2.0]},
    )
    assert cli.main(["beta-sweep", "--config", path, "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert np.isfinite(row["kappa_lower_bound"])


def test_advantage_table(capsys):
    assert cli.main(["advantage", "--d", "3,5", "--n", "2", "--beta", "2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "d,n,alpha,beta,quantum,classical,gap,achieved_quantum"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "3" and first[1] == "2"
    assert first[6] == ser.fmt_float(0.05663301226513251)


def test_advantage_json(capsys):
    assert (
        cli.main(
            ["advantage", "--d", "4", "--n", "2", "--beta", "3", "--format", "json"]
        )
        == 0
    )
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert abs(rows[0]["gap"]) < 1e-12
    assert abs(rows[0]["achieved_quantum"] - rows[0]["quantum"]) < 1e-9


def test_advantage_bad_lists_exit_1(capsys):
    assert cli.main(["advantage", "--d", "3,5,7", "--n", "2,3", "--beta", "2"]) == 1
    assert cli.main(["advantage", "--d", "x", "--n", "2", "--beta", "2"]) == 1
    assert cli.main(["advantage", "--d", "3", "--n", "3", "--beta", "2"]) == 1
    capsys.readouterr()
    assert cli.main(["advantage", "--d", "4", "--n", "2", "--beta", "2", "--alpha", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "error: closed forms require 0 <= alpha <= min(1, beta), got alpha=-1.0, beta=2.0"]


def test_json_output_with_an_infinity_exits_2(tmp_path, capsys):
    # A finite --beta this large overflows the closed forms to -inf; JSON
    # holds no infinity, and "gap": Infinity used to be printed with exit 0.
    # Pytest turns numpy's warnings into errors: the overflow itself warns of nothing.
    argv = ["advantage", "--d", "5", "--n", "3", "--beta", "1.7e308", "--format", "json"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "numerical error: output holds a NaN or an infinity, which JSON cannot hold\n")
    assert cli.main([*argv, "--out", str(tmp_path / "table.json")]) == 2
    assert not (tmp_path / "table.json").exists()
    capsys.readouterr()
    # The CSV form writes the infinity as inf.
    assert cli.main(argv[:-2]) == 0
    out, err = capsys.readouterr()
    assert ",-inf," in out and err == ""


@pytest.mark.parametrize(
    "command, dim_t, classical, error",
    [
        ("run-qib", 2, False, "update exponent is not finite at x=0"),  # its length, not its coordinates
        ("run-qib", 3, False, "update exponent is not finite at x=0"),
        ("run-qdib", 2, False, "F_0 is not finite at x=0"),  # its length, not its coordinates
        ("run-qdib", 3, False, "F_0 is not finite at x=0"),
        ("run-qdib", 2, True, "F_0 is not finite at x=0"),
        ("run-qdib", 3, True, "F_0 is not finite at x=0"),
    ],
)
def test_an_overflowing_f_exits_2_with_one_line(tmp_path, capsys, command, dim_t, classical, error):
    # At this beta F overflows after the first step on the copy source: every
    # form must stop with one line naming x, and numpy must print nothing.
    config = {"beta": 1e307, "dimT": dim_t, "classical": classical, "max_iters": 5,
              "state": {"generator": "copy-state", "d": 4}}
    if command == "run-qib":
        config["alpha"] = 1.0
    assert cli.main([command, "--config", _write_json(tmp_path / "c.json", config)]) == 2
    assert capsys.readouterr() == ("", f"numerical error: {error}\n")


@pytest.mark.parametrize("command", ["run-qib", "run-qdib"])
def test_qubit_runs_descend_where_bloch_lengths_square_to_inf(tmp_path, capsys, command):
    # Coordinates past about 1.3e154 square to inf, but their lengths must
    # stay exact: the run descends and numpy prints nothing.
    config = {"beta": 1e156, "dimT": 2, "max_iters": 5, "state": {"generator": "random-qubit-ensemble", "sizeX": 4}}
    if command == "run-qib":
        config["alpha"] = 1.0
    assert cli.main([command, "--config", _write_json(tmp_path / "c.json", config)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.endswith("\n# status=max_iters\n")
    f = [float(line.split(",")[1]) for line in out.splitlines()[1:-1]]
    assert len(f) == 6 and all(b <= a for a, b in zip(f, f[1:]))


@pytest.mark.parametrize(
    "command, extra",
    [("beta-sweep", {"alpha": 1.0, "kappa_samples": 5, "beta_list": [0.5, 2, 30.0]}), ("advantage", None)],
)
def test_table_csv_header_is_its_json_row_keys(tmp_path, capsys, monkeypatch, command, extra):
    if extra is None:
        argv = ["advantage", "--d", "3,5", "--n", "2", "--beta", "2"]
    else:
        config = {"dimT": 2, "max_iters": 5, "state": _QUBITS, **extra}
        argv = [command, "--config", _write_json(tmp_path / "c.json", config)]
    assert cli.main(argv) == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    # The JSON text sorts its keys: read the rows' own order off what it renders.
    payloads = []
    monkeypatch.setattr(ser, "dump_json", lambda obj, dump=ser.dump_json: payloads.append(obj) or dump(obj))
    assert cli.main([*argv, "--format", "json"]) == 0
    (rows,) = payloads
    assert len(rows) > 1 and all(list(row) == header for row in rows)


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--beta", "nan"], "--beta"),
        (["--beta", "inf"], "--beta"),
        (["--beta", "1e400"], "--beta"),
        (["--alpha", "nan"], "--alpha"),
        # copy_state(3000) alone is a (3000, 3000, 3000) stack.
        (["--d", "3000"], "--d"),
        (["--d", "3,4,3000", "--n", "2"], "--d"),
        # The Fourier channel d n^2 and the (T, Y) joint (d n)^2.
        (["--n", "5000"], "--n"),
        (["--d", ","], "--d"),  # produced no values
    ],
)
def test_advantage_rejects_bad_flags_before_any_array(capsys, monkeypatch, flags, flag):
    # NaN used to print a nan row (NaN, which is not JSON, with --format json),
    # and --d 3000 died in a numpy traceback.
    monkeypatch.setattr(cli.benchmarks, "copy_state", lambda *a, **k: pytest.fail("built the source"))
    argv = ["advantage", "--d", "3", "--n", "2", "--beta", "2", "--format", "json", *flags]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag} "), err


def test_classify_command(tmp_path, capsys):
    path = _write_json(
        tmp_path / "classify.json",
        {"n_samples": 80, "max_iters": 120, "seed": 2},
    )
    metrics_path = tmp_path / "metrics.json"
    regions_path = tmp_path / "regions.csv"
    argv = ["classify", "--config", path, "--out", str(metrics_path),
            "--regions-out", str(regions_path), "--grid-step", "1.0"]
    with pytest.warns(RuntimeWarning, match="unseen in training"):
        code = cli.main(argv)
    capsys.readouterr()
    assert code == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["seed"] == 2
    assert 0.0 <= metrics["acc_quantum"] <= 1.0
    regions = regions_path.read_text().strip().split("\n")
    assert regions[0] == "x1,x2,pred_quantum,pred_classical,pred_linear"
    assert len(regions) > 1


def test_classify_schema_rejects_small_n(tmp_path, capsys):
    path = _write_json(tmp_path / "bad.json", {"n_samples": 5})
    assert cli.main(["classify", "--config", path]) == 1
    assert "/n_samples" in capsys.readouterr().err


@pytest.mark.parametrize("fraction", [0.96, 0.04])
def test_classify_rejects_a_split_that_leaves_a_side_empty(tmp_path, capsys, fraction):
    path = _write_json(tmp_path / "classify.json", {"n_samples": 10, "train_fraction": fraction})
    assert cli.main(["classify", "--config", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: train_fraction {fraction} of n_samples 10 leaves ")
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("step", ["nan", "inf", "0", "-1", "1e-6"])
def test_classify_rejects_a_bad_grid_step_before_solving(tmp_path, capsys, monkeypatch, step):
    # nan and 1e-6 used to escape, after both solves, as a ValueError and a
    # MemoryError traceback.
    monkeypatch.setattr(cli.engine, "run_qib", lambda *a, **k: pytest.fail("solved first"))
    path = _write_json(tmp_path / "classify.json", {"n_samples": 40})
    argv = ["classify", "--config", path, "--regions-out", str(tmp_path / "r.csv"),
            "--grid-step", step]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: grid_step"), err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "config, flags, key",
    [
        # (10**6, 9, 9) feature stacks.
        ({"n_samples": 10**6, "dimT": 9}, [], "/n_samples"),
        # (400, 1000, 1000) feature stacks.
        ({"dimT": 1000}, [], "/dimT"),
        # (470400, 12, 12) grid feature stacks.
        ({"dimT": 12}, ["--grid-step", "0.01"], "--grid-step"),
    ],
)
def test_classify_bounds_its_grams_and_features_before_solving(tmp_path, capsys, monkeypatch, config, flags, key):
    monkeypatch.setattr(cli.engine, "run_qib", lambda *a, **k: pytest.fail("solved first"))
    path = _write_json(tmp_path / "classify.json", config)
    argv = ["classify", "--config", path, "--regions-out", str(tmp_path / "r.csv"), *flags]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and not (tmp_path / "r.csv").exists()
    prefix = "error: config error at " if key.startswith("/") else "error: "
    assert err.startswith(f"{prefix}{key}") and f"above {qconfig.MAX_ENTRIES}" in err, err


@pytest.mark.parametrize("flags", [[], ["--grid-step", "0.01"]], ids=["no-grid", "grid"])
def test_classify_bound_admits_what_the_feature_space_solve_can_run(tmp_path, monkeypatch, flags):
    # The ridge is solved over features, so no n x n gram is bounded: 20000
    # samples, and the 0.01 grid at the default dimT, reach the solver.
    monkeypatch.setattr(cli.engine, "run_qib", lambda *a, **k: pytest.fail("solved first"))
    path = _write_json(tmp_path / "classify.json", {"n_samples": 20000})
    with pytest.raises(pytest.fail.Exception, match="solved first"):
        cli.main(["classify", "--config", path, "--regions-out", str(tmp_path / "r.csv"), *flags])


def test_classify_bounds_take_the_pipeline_defaults(tmp_path, capsys, monkeypatch):
    # A key the config leaves out is bounded at the pipeline's own default:
    # here (10**6, 9, 9) feature stacks.
    signature = inspect.signature(cli.classify_pipeline)
    stubbed = {"n_samples": 10**6, "dim_t": 9}
    defaults = [p.replace(default=stubbed[p.name]) if p.name in stubbed else p
                for p in signature.parameters.values()]

    def stub(**kwargs):
        pytest.fail("solved first")

    stub.__signature__ = signature.replace(parameters=defaults)
    monkeypatch.setattr(cli, "classify_pipeline", stub)
    path = _write_json(tmp_path / "classify.json", {})
    assert cli.main(["classify", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config error at /n_samples:") and f"above {qconfig.MAX_ENTRIES}" in err, err


@pytest.mark.parametrize(
    "command, config",
    [("classify", {}), ("suffstats", {"sizeX1": 3, "sizeX2": 4, "nu": 25.0})],
    ids=["classify", "suffstats"],
)
def test_experiments_take_no_format_flag(tmp_path, capsys, command, config):
    path = _write_json(tmp_path / "config.json", config)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "o"),
                     "--format", "csv"]) == 1
    assert "--format" in capsys.readouterr().err


def test_suffstats_requires_out_directory(tmp_path, capsys):
    path = _write_json(tmp_path / "suff.json", {"sizeX1": 3, "sizeX2": 4, "nu": 25.0})
    assert cli.main(["suffstats", "--config", path]) == 1
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["run-qib", "--config", "c.json", "--out", ""], "--out"),
    (["run-qib", "--config", "c.json", "--emit-state", ""], "--emit-state"),
    (["advantage", "--d", "3", "--n", "2", "--beta", "2", "--out", ""], "--out"),
    (["classify", "--config", "c.json", "--out", ""], "--out"),
    (["classify", "--config", "c.json", "--regions-out", ""], "--regions-out"),
    (["suffstats", "--config", "c.json", "--out", ""], "--out"),
    (["suffstats", "--config", "c.json", "--emit-state", ""], "--emit-state"),
], ids=["run-qib --out", "run-qib --emit-state", "advantage --out", "classify --out", "classify --regions-out",
        "suffstats --out", "suffstats --emit-state"])
def test_an_empty_output_path_exits_1_before_any_work(tmp_path, capsys, monkeypatch, argv, flag):
    # An empty --out would name "/" once suffstats joins its file names onto it,
    # and the working directory's parent once a temporary file is made beside
    # it: the flag is refused before the config is read or anything is solved.
    _refused_before_any_work(tmp_path, capsys, monkeypatch, argv, flag)


@pytest.mark.parametrize("argv, flag", [
    (["run-qib", "--config", ""], "--config"),
    (["gamma-sweep", "--config", ""], "--config"),
    (["classify", "--config", ""], "--config"),
    (["suffstats", "--config", ""], "--config"),
    (["validate", ""], "file"),
], ids=["run-qib --config", "gamma-sweep --config", "classify --config", "suffstats --config", "validate file"])
def test_an_empty_input_path_exits_1_before_any_work(tmp_path, capsys, monkeypatch, argv, flag):
    # An empty input path names no file: the parser refuses it, naming the
    # argument, where opening it would report a missing file named ''.
    _refused_before_any_work(tmp_path, capsys, monkeypatch, argv, flag)


def _refused_before_any_work(tmp_path, capsys, monkeypatch, argv, flag):
    calls = []
    monkeypatch.setattr(ser, "load_json", lambda *a: calls.append("load_json"))
    monkeypatch.setattr(cli.benchmarks, "advantage_gap", lambda *a: calls.append("advantage_gap"))
    monkeypatch.setattr(ser, "write_text_atomic", lambda *a: calls.append("write_text_atomic"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    assert calls == [] and os.listdir(tmp_path) == []
    assert f"argument {flag}: expects a file path, got an empty string" in capsys.readouterr().err


def test_suffstats_writes_three_files(tmp_path):
    path = _write_json(
        tmp_path / "suff.json",
        {"sizeX1": 3, "sizeX2": 4, "nu": 25.0, "beta": 20.0, "max_iters": 80, "seed": 1},
    )
    outdir = tmp_path / "results"
    assert cli.main(["suffstats", "--config", path, "--out", str(outdir)]) == 0
    fdib = (outdir / "fdib.csv").read_text().strip().split("\n")
    ity = (outdir / "ity.csv").read_text().strip().split("\n")
    metrics = json.loads((outdir / "metrics.json").read_text())
    assert fdib[0] == "iter,f_dib_qdib,f_dib_baseline"
    assert ity[0] == "iter,I_TY,I_X1Y_baseline,I_XY"
    assert len(fdib) == len(ity)
    assert metrics["seed"] == 1
    assert metrics["status"] in ("converged", "max_iters")
    for key in ("f_dib_final", "f_dib_baseline", "i_ty_final", "i_xy", "epsilon"):
        assert np.isfinite(metrics[key])
    # the last fdib row is the converged objective
    assert float(fdib[-1].split(",")[1]) == metrics["f_dib_final"]


def test_validate_state_and_channel(tmp_path, capsys):
    state = random_cq_state(5, size_x=4, dim_y=2, tag="clival")
    chan = random_channel_for(state, 3, 5, classical=True, tag="clival")
    spath = _write_json(tmp_path / "state.json", ser.state_to_obj(state))
    cpath = _write_json(tmp_path / "chan.json", channel_to_obj(chan))

    assert cli.main(["validate", spath]) == 0
    assert capsys.readouterr().out == "ok: state with sizeX=4, dimY=2\n"
    assert cli.main(["validate", cpath]) == 0
    assert capsys.readouterr().out == "ok: classical channel with sizeX=4, dimT=3\n"


def test_validate_rejects_a_non_diagonal_classical_channel(tmp_path, capsys):
    obj = channel_to_obj(random_channel_for(random_cq_state(0), 2, 0, classical=True))
    obj["sigmaT"][1]["re"][0][1] = obj["sigmaT"][1]["re"][1][0] = 1e-9
    path = _write_json(tmp_path / "offdiag.json", obj)
    assert cli.main(["validate", path]) == 1
    assert _config_error(capsys) == (
        f"{path}#", "classical channel has off-diagonal magnitude 1.000e-09 above 1.0e-12"
    )


def test_validate_rejects_other_files(tmp_path, capsys):
    junk = _write_json(tmp_path / "junk.json", {"a": 1})
    assert cli.main(["validate", junk]) == 1
    assert "neither" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["validate", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err
    assert cli.main(["validate", str(tmp_path / "absent.json")]) == 1
    assert "missing file" in capsys.readouterr().err


def test_validate_rejects_invalid_density(tmp_path, capsys):
    nondensity = {
        "px": [1.0],
        "dimY": 1,
        "rhoY": [{"dim": 1, "re": [[2.0]], "im": [[0.0]]}],
    }
    mixed_dims = channel_to_obj(random_channel_for(random_cq_state(0), 2, 0))
    mixed_dims["sigmaT"][1] = ser.matrix_to_obj(np.eye(3) / 3)
    for name, obj, pointer, message in (
        ("nondensity", nondensity, "", "rho_y_given_x[0]"),
        ("mixed-dims", mixed_dims, "/sigmaT/1/dim", "3 differs from dimT 2"),
    ):
        path = _write_json(tmp_path / f"{name}.json", obj)
        assert cli.main(["validate", path]) == 1
        at, text = _config_error(capsys)
        assert at == f"{path}#{pointer}" and message in text


def _config_error(capsys):
    """(pointer, message) of the one ``error: config error at`` line on stderr."""
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config error at "), err
    pointer, message = lines[0][len("error: config error at "):].split(": ", 1)
    return pointer, message


def _bad_state_text(where):
    """A valid two-symbol qubit source file with one entry broken."""
    obj = ser.state_to_obj(random_cq_state(6, size_x=2, dim_y=2, tag="nan"))
    if where == "px":
        obj["px"][1] = float("nan")
    elif where == "rhoY":
        obj["rhoY"][0]["re"][0][1] = float("nan")
    elif where == "px-string":
        obj["px"][0] = "a"
    elif where == "empty":
        obj["px"], obj["rhoY"] = [], []
    elif where == "dimY-string":
        obj["dimY"] = str(obj["dimY"])
    return json.dumps(obj)  # Python's json writes the bare NaN literal


@pytest.mark.parametrize(
    "where, pointer",
    [
        ("px", "/px/1"),
        ("rhoY", "/rhoY/0/re/0/1"),
        ("px-string", "/px/0"),
        ("empty", "/px"),
        ("dimY-string", "/dimY"),
    ],
)
def test_non_finite_state_file_exits_1(tmp_path, capsys, where, pointer):
    # Regression: NaN used to pass `validate` and reach LAPACK in `run-qib`,
    # which then failed with exit code 2; the malformed entries escaped as
    # tracebacks or numpy errors.
    spath = tmp_path / "state.json"
    spath.write_text(_bad_state_text(where))
    assert cli.main(["validate", str(spath)]) == 1
    assert _config_error(capsys)[0] == f"{spath}#{pointer}"
    config = _write_json(
        tmp_path / "run.json",
        {"alpha": 1.0, "beta": 2.0, "dimT": 2, "max_iters": 5, "state": {"path": str(spath)}},
    )
    assert cli.main(["run-qib", "--config", config]) == 1
    assert _config_error(capsys)[0] == f"{spath}#{pointer}"


_RUN = {"alpha": 1.0, "beta": 2.0, "dimT": 2, "max_iters": 5}
_QUBITS = {"generator": "random-qubit-ensemble", "sizeX": 3}


@pytest.mark.parametrize(
    "command, config, pointer",
    [
        # Integral floats: JSON Schema counted 2.0 as an integer, and each of
        # these escaped as an uncaught TypeError.
        ("run-qib", dict(_RUN, dimT=2.0, state=_QUBITS), "/dimT"),
        ("run-qib", dict(_RUN, max_iters=5.0, state=_QUBITS), "/max_iters"),
        ("run-qib", dict(_RUN, state=dict(_QUBITS, sizeX=3.0)), "/state/sizeX"),
        ("run-qib", dict(_RUN, state={"generator": "copy-state", "d": 3.0}), "/state/d"),
        ("classify", {"n_samples": 50.0}, "/n_samples"),
        ("suffstats", {"sizeX1": 3.0}, "/sizeX1"),
        # Nested specs used to fail as a whole at /state.
        ("run-qib", dict(_RUN, state=dict(_QUBITS, sizeX=0)), "/state/sizeX"),
        ("run-qib", dict(_RUN, state={"generator": "mystery"}), "/state/generator"),
        ("run-qib", dict(_RUN, state={"path": "s.json", "k": 1}), "/state/k"),
        ("run-qib", dict(_RUN, state=_QUBITS, initial_channel="zeros"), "/initial_channel"),
        ("run-qib", dict(_RUN, state=_QUBITS, seed=True), "/seed"),
        # Sizes beyond MAX_SIZE escaped as numpy's "Maximum allowed dimension
        # exceeded" traceback, or tried to allocate.
        ("run-qib", dict(_RUN, dimT=10**20, state=_QUBITS), "/dimT"),
        ("run-qib", dict(_RUN, dimT=ser.MAX_SIZE + 1, state=_QUBITS), "/dimT"),
        ("run-qib", dict(_RUN, state=dict(_QUBITS, sizeX=10**20)), "/state/sizeX"),
        ("run-qib", dict(_RUN, state={"generator": "copy-state", "d": 10**20}), "/state/d"),
        ("run-qib", dict(_RUN, state={"generator": "copy-state", "d": 2, "k": 10**20}), "/state/k"),
        ("classify", {"n_samples": 10**20}, "/n_samples"),
        ("suffstats", {"sizeX1": 10**20}, "/sizeX1"),
        ("suffstats", {"sizeX2": 10**20}, "/sizeX2"),
        (
            "beta-sweep",
            {"alpha": 1.0, "dimT": 2, "beta_list": [1.0], "state": _QUBITS,
             "kappa_samples": ser.MAX_SIZE + 1},
            "/kappa_samples",
        ),
    ],
)
def test_malformed_config_names_the_key(tmp_path, capsys, command, config, pointer):
    path = _write_json(tmp_path / "bad.json", config)
    argv = [command, "--config", path, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config error at {pointer}:")


@pytest.mark.parametrize(
    "command, config, pointer",
    [
        # Each size is within MAX_SIZE, but the arrays they imply are far
        # beyond any memory: a (d, d, d) stack, 43.7 TiB of channel in
        # random_channel.
        ("run-qib", dict(_RUN, state={"generator": "copy-state", "d": 10**6}), "/state/d"),
        ("run-qib", dict(_RUN, dimT=10**6, state=_QUBITS), "/dimT"),
        # A classical table is sizeX·dimT.
        ("run-qdib", {"beta": 2.0, "dimT": 10**6, "classical": True,
                      "state": dict(_QUBITS, sizeX=10**5)}, "/dimT"),
        ("gamma-sweep", dict(_RUN, dimT=10**5, gamma_list=[1.0], state=_QUBITS), "/dimT"),
        ("beta-sweep", {"alpha": 1.0, "dimT": 2, "beta_list": [1.0],
                        "state": {"generator": "copy-state", "d": 10**5}}, "/state/d"),
        ("classify", {"dimT": 10**6}, "/dimT"),
        ("suffstats", {"sizeX1": 10**6, "sizeX2": 10**6}, "/sizeX1"),
        # The discard-X2 baseline's (sizeX, sizeX1) table.
        ("suffstats", {"sizeX1": 10**6, "sizeX2": 1, "dimT": 2, "max_iters": 1}, "/sizeX1"),
    ],
)
def test_config_whose_arrays_exceed_the_entry_bound_names_the_key(tmp_path, capsys, command, config, pointer):
    path = _write_json(tmp_path / "big.json", config)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    got, message = _config_error(capsys)
    assert got == pointer
    assert message.endswith(f"entries, above {qconfig.MAX_ENTRIES}")


def test_file_state_sizes_enter_the_entry_bound(tmp_path, capsys):
    spath = _write_json(tmp_path / "s.json", ser.state_to_obj(random_cq_state(4, size_x=3, dim_y=2)))
    config = _write_json(tmp_path / "c.json", dict(_RUN, dimT=10**6, state={"path": spath}))
    assert cli.main(["run-qib", "--config", config]) == 1
    assert _config_error(capsys)[0] == "/dimT"


def _inline_state_config():
    state = ser.state_to_obj(random_cq_state(3, size_x=2, dim_y=2, tag="inline"))
    return dict(_RUN, state=state)


@pytest.mark.parametrize(
    "where, pointer",
    [
        ("px", "state/px/1"),
        ("matrix-key", "state/rhoY/0/extra"),
        ("state-key", "state/extra"),
        ("channel-key", "initial_channel/sigmaT/1/extra"),
    ],
)
def test_malformed_inline_source_names_the_entry(tmp_path, capsys, where, pointer):
    # An inline state used to fail as a whole, printing every matrix.
    config = _inline_state_config()
    if where == "px":
        config["state"]["px"][1] = "a"
    elif where == "matrix-key":
        config["state"]["rhoY"][0]["extra"] = 1
    elif where == "state-key":
        config["state"]["extra"] = 1
    else:
        chan = random_channel_for(random_cq_state(3, size_x=2, dim_y=2, tag="inline"), 2, 0)
        config["initial_channel"] = channel_to_obj(chan)
        config["initial_channel"]["sigmaT"][1]["extra"] = 1
    path = _write_json(tmp_path / "bad.json", config)
    assert cli.main(["run-qib", "--config", path]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200
    assert lines[0].startswith(f"error: config error at /{pointer}:")


@pytest.mark.parametrize(
    "command, keys",
    [("gamma-sweep", {"gamma_list": [0.5, 1.0]}), ("beta-sweep", {"beta_list": [0.0, 2.0]})],
)
@pytest.mark.parametrize("initial", [{"path": "/nonexistent.json"}, "maximally-mixed"])
def test_sweeps_reject_an_initial_channel(tmp_path, capsys, command, keys, initial):
    # The sweeps draw their start from the seed; they used to accept this key and ignore it.
    config = dict(_RUN, state=_QUBITS, initial_channel=initial, **keys)
    if command == "beta-sweep":
        del config["beta"]
    assert cli.main([command, "--config", _write_json(tmp_path / "run.json", config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: config error at /initial_channel: unknown key 'initial_channel'\n"


@pytest.mark.parametrize(
    "initial, pointer, calls",
    [("zeros", "/initial_channel", 0), ({"path": ""}, "/initial_channel/path", 1), ({"dimT": 2}, "/initial_channel", 1)],
)
def test_initial_channel_errors_come_before_or_after_the_state(tmp_path, capsys, monkeypatch, initial, pointer, calls):
    # A bad keyword fails the key's rule before the state is generated; an
    # object's contents fail in its reader, once the state is resolved (a
    # path object's used to fail with the key rules).
    ran = []
    generate = qconfig.gen_random_qubit_ensemble
    monkeypatch.setattr(qconfig, "gen_random_qubit_ensemble", lambda *a, **k: ran.append(1) or generate(*a, **k))
    config = _write_json(tmp_path / "run.json", dict(_RUN, state=_QUBITS, initial_channel=initial))
    assert cli.main(["run-qib", "--config", config]) == 1
    assert _config_error(capsys)[0] == pointer
    assert len(ran) == calls


def test_state_file_rejects_unknown_keys(tmp_path, capsys):
    obj = ser.state_to_obj(random_cq_state(4, size_x=2, dim_y=2, tag="closed"))
    obj["rhoY"][1]["extra"] = 0
    spath = _write_json(tmp_path / "state.json", obj)
    expected = f"error: config error at {spath}#/rhoY/1/extra: unknown key 'extra'\n"
    assert cli.main(["validate", spath]) == 1
    assert capsys.readouterr().err == expected
    config = _write_json(tmp_path / "run.json", dict(_RUN, state={"path": spath}))
    assert cli.main(["run-qib", "--config", config]) == 1
    assert capsys.readouterr().err == expected


def test_path_state_errors_name_the_file(tmp_path, capsys):
    obj = ser.state_to_obj(random_cq_state(4, size_x=2, dim_y=2, tag="closed"))
    del obj["rhoY"]
    spath = _write_json(tmp_path / "f.json", obj)
    config = _write_json(tmp_path / "run.json", dict(_RUN, state={"path": spath}))
    assert cli.main(["run-qib", "--config", config]) == 1
    assert capsys.readouterr().err == (
        f"error: config error at {spath}#: missing required keys ['rhoY']\n"
    )


@pytest.mark.parametrize("seed", [str(2**127), str(-(2**127) - 1)])
def test_seeds_of_any_size_run(qib_config, tmp_path, seed):
    assert cli.main(["run-qib", "--config", qib_config, "--seed", seed, "--out", str(tmp_path / "a")]) == 0
    obj = dict(_read_json(qib_config), seed=int(seed))
    config = _write_json(tmp_path / "seeded.json", obj)
    assert cli.main(["run-qib", "--config", config, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


_NUMBER_LITERALS = ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400)
_INLINE_STATE = ser.state_to_obj(random_cq_state(3, size_x=2, dim_y=2, tag="inline"))
_INLINE_CHANNEL = channel_to_obj(
    random_channel_for(random_cq_state(3, size_x=2, dim_y=2, tag="inline"), 2, 0)
)
_SUFFSTATS = {"sizeX1": 2, "sizeX2": 2, "nu": 25.0}
_STEPS = {"tol": 1e-6, "max_iters": 3, "seed": 1}
# (subcommand, valid config, the part of it whose numbers are replaced)
_LEAF_CASES = {
    "run-qib": ("run-qib", dict(_RUN, **_STEPS, gamma=0.5, state=_QUBITS), ""),
    "gamma-sweep": (
        "gamma-sweep",
        dict(_RUN, **_STEPS, gamma_list=[0.5, 1.0],
             state=dict(_SUFFSTATS, generator="suffstats-ensemble")),
        "",
    ),
    "beta-sweep": (
        "beta-sweep",
        {"alpha": 1.0, "dimT": 2, **_STEPS, "beta_list": [0.0, 2.0], "kappa_samples": 3,
         "state": {"generator": "copy-state", "d": 2, "k": 1}},
        "",
    ),
    "classify": (
        "classify",
        {"alpha": 1.0, "beta": 2.0, "gamma": 1.0, "dimT": 2, **_STEPS, "ridge": 0.1,
         "n_samples": 40, "train_fraction": 0.5},
        "",
    ),
    "suffstats": ("suffstats", {"beta": 2.0, "dimT": 2, **_STEPS, **_SUFFSTATS}, ""),
    "inline-state": ("run-qib", dict(_RUN, state=_INLINE_STATE), "/state"),
    "inline-channel": (
        "run-qib", dict(_RUN, state=_INLINE_STATE, initial_channel=_INLINE_CHANNEL),
        "/initial_channel",
    ),
}


def _numeric_leaves(obj, pointer=""):
    """JSON pointers of every number in ``obj``."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [p for k, v in items for p in _numeric_leaves(v, f"{pointer}/{k}")]
    return [pointer] if type(obj) in (int, float) else []


def _with_literal(obj, pointer, literal):
    """JSON text of ``obj`` with the number at ``pointer`` written as ``literal``."""
    obj = json.loads(json.dumps(obj))
    *parents, last = pointer.split("/")[1:]
    node = obj
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    node[int(last) if isinstance(node, list) else last] = "@leaf@"
    return json.dumps(obj).replace('"@leaf@"', literal)


def _leaf_pointers(leaf, prefix=""):
    """A leaf's pointer, and for a matrix entry also its re/im array's."""
    return {prefix + leaf, prefix + re.sub(r"/(re|im)/\d+/\d+$", r"/\1", leaf)}


@pytest.mark.parametrize("case", list(_LEAF_CASES))
def test_every_numeric_leaf_rejects_non_finite_literals(tmp_path, capsys, case):
    # Each of these used to pass the rules and fail later without a pointer,
    # or escape as a TypeError/OverflowError traceback.
    command, config, part = _LEAF_CASES[case]
    argv = [command, "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out")]
    _write_json(tmp_path / "run.json", config)
    unseen = pytest.warns(RuntimeWarning, match="unseen in training")
    with unseen if case == "classify" else contextlib.nullcontext():
        assert cli.main(argv) == 0
    capsys.readouterr()
    leaves = [p for p in _numeric_leaves(config) if p.startswith(part + "/")]
    assert leaves
    for leaf in leaves:
        for literal in _NUMBER_LITERALS:
            if leaf == "/seed" and literal[0] == "1":
                continue  # a seed is any integer: test_seeds_of_any_size_run
            (tmp_path / "run.json").write_text(_with_literal(config, leaf, literal))
            assert cli.main(argv) == 1, (leaf, literal)
            assert _config_error(capsys)[0] in _leaf_pointers(leaf), (leaf, literal)


@pytest.mark.parametrize("obj", [_INLINE_STATE, _INLINE_CHANNEL], ids=["state", "channel"])
def test_validate_names_every_non_finite_leaf_of_a_file(tmp_path, capsys, obj):
    path = tmp_path / "source.json"
    for leaf in _numeric_leaves(obj):
        for literal in _NUMBER_LITERALS:
            path.write_text(_with_literal(obj, leaf, literal))
            assert cli.main(["validate", str(path)]) == 1, (leaf, literal)
            assert _config_error(capsys)[0] in _leaf_pointers(leaf, f"{path}#"), (leaf, literal)


def _cli_env():
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))


def _loaded_by_cli_import(module):
    code = f"import sys, qib.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_cli_env(), capture_output=True, text=True, check=True
    ).stdout
    return out.strip() == "True"


def test_cli_import_leaves_jsonschema_unloaded():
    assert not _loaded_by_cli_import("jsonschema")


def test_cli_import_leaves_multiprocessing_unloaded():
    # Sweeps import it where they fork their runs: at module level it would
    # add 5-9 ms to every CLI start.
    assert not _loaded_by_cli_import("multiprocessing")


@pytest.mark.parametrize("command, config", [
    ("gamma-sweep", dict(_RUN, tol=1e-15, max_iters=60, state=_QUBITS, gamma_list=[1.0, 0.7, 0.4])),
    ("beta-sweep", {"alpha": 1.0, "dimT": 2, "tol": 1e-15, "max_iters": 60, "kappa_samples": 5,
                    "state": _QUBITS, "beta_list": [0.5, 2.0, 6.0, 9.0, 12.0]}),
])
def test_sweeps_piped_to_stdout_write_their_out_bytes(tmp_path, command, config):
    # stdout into a pipe is block-buffered: the processes a sweep forks for its
    # runs must neither write that buffer again nor lose it.
    argv = [sys.executable, "-m", "qib.cli", command, "--config", _write_json(tmp_path / "sweep.json", config)]
    piped = subprocess.run(argv, env=_cli_env(), stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(argv + ["--out", str(tmp_path / "out")], env=_cli_env(), check=True)
    assert piped == (tmp_path / "out").read_bytes()


def test_classify_checks_the_grid_step_without_regions_out(tmp_path, capsys, monkeypatch):
    # Without --regions-out the step used to go unread: nan exited 0.
    monkeypatch.setattr(cli.engine, "run_qib", lambda *a, **k: pytest.fail("solved first"))
    path = _write_json(tmp_path / "classify.json", {"n_samples": 40})
    assert cli.main(["classify", "--config", path, "--grid-step", "nan"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: grid_step"), err


@pytest.mark.parametrize("command", ["run-qdib", "gamma-sweep"])
def test_trace_json_record_keys_are_its_csv_columns(tmp_path, capsys, monkeypatch, command):
    config = {"beta": 5.0, "dimT": 2, "max_iters": 5, "state": _QUBITS}
    if command == "gamma-sweep":
        config |= {"alpha": 1.0, "gamma_list": [1.0, 0.5]}
    argv = [command, "--config", _write_json(tmp_path / "c.json", config)]
    assert cli.main(argv) == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    payloads = []
    monkeypatch.setattr(ser, "dump_json", lambda obj, dump=ser.dump_json: payloads.append(obj) or dump(obj))
    assert cli.main([*argv, "--format", "json"]) == 0
    (payload,) = payloads
    runs = payload["runs"] if command == "gamma-sweep" else [payload]
    columns = header[1:] if command == "gamma-sweep" else header
    assert header[0] == ("gamma" if command == "gamma-sweep" else "iter")
    assert all(list(record) == columns for run in runs for record in run["records"])
    assert "support_T" in columns if command == "run-qdib" else "support_T" not in columns
