"""Wire formats: JSON round-trips, CSV layout, atomic writes."""

import errno
import json
import os
import re
import threading

import numpy as np
import pytest

from qib import cli, engine, serialization as ser
from qib.engine import IterationTrace, TraceRecord
from qib.exceptions import ConfigError, InvariantError

from helpers import random_cq_state, random_channel_for


def test_matrix_roundtrip_preserves_complex_entries():
    m = np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, 0.0]])
    again = ser.obj_to_matrix(ser.matrix_to_obj(m))
    assert np.array_equal(m, again)


def test_matrix_obj_errors():
    with pytest.raises(InvariantError, match="square"):
        ser.matrix_to_obj(np.zeros((2, 3)))
    with pytest.raises(ConfigError, match=r"^config error at /: missing required keys \['im'\]$"):
        ser.obj_to_matrix({"dim": 2, "re": [[0, 0], [0, 0]]})
    with pytest.raises(ConfigError, match="^config error at /spot/dim: expected an integer >= 1, got 0$"):
        ser.obj_to_matrix({"dim": 0, "re": [], "im": []}, "/spot")
    with pytest.raises(ConfigError, match="^config error at /re: expected a 2x2 array of finite numbers$"):
        ser.obj_to_matrix({"dim": 2, "re": [[0.0]], "im": [[0.0]]})
    with pytest.raises(ConfigError, match="^config error at /re: expected a 1x1 array"):
        ser.obj_to_matrix({"dim": 1, "re": [["x"]], "im": [[0.0]]})


def test_state_roundtrip_bitexact_through_json_text():
    state = random_cq_state(0, tag="ser")
    text = ser.dump_json(ser.state_to_obj(state))
    again = ser.obj_to_state(json.loads(text))
    assert np.array_equal(state.px, again.px)
    assert np.array_equal(state.rho_y_given_x, again.rho_y_given_x)


def test_channel_roundtrip_and_flags():
    state = random_cq_state(1, tag="ser")
    chan = random_channel_for(state, 3, 1, classical=True, tag="ser")
    again = ser.obj_to_channel(ser.channel_to_obj(chan))
    assert again.classical is True
    assert np.array_equal(chan.sigma_t_given_x, again.sigma_t_given_x)


def test_pauli_channel_roundtrip():
    # A qubit channel built in the Pauli form is written as its stack.
    chan = engine.random_channel(2, 4, seed=3)
    again = ser.obj_to_channel(json.loads(ser.dump_json(ser.channel_to_obj(chan))))
    assert again.classical is False
    assert np.array_equal(chan.sigma_t_given_x, again.sigma_t_given_x)


def test_state_error_paths_are_indexed():
    state = random_cq_state(2, size_x=3, dim_y=2, tag="ser")
    obj = ser.state_to_obj(state)
    obj["rhoY"][1]["re"] = [[0.0]]
    with pytest.raises(ConfigError, match="^config error at /state/rhoY/1/re: expected a 2x2 array"):
        ser.obj_to_state(obj, "/state")
    with pytest.raises(ConfigError, match=r"^config error at /: missing required keys \['dimY', 'rhoY'\]$"):
        ser.obj_to_state({"px": [1.0]})
    bad = ser.state_to_obj(state)
    bad["dimY"] = bad["dimY"] + 1
    with pytest.raises(ConfigError, match="^config error at /rhoY/0/dim: 2 differs from dimY 3$"):
        ser.obj_to_state(bad)
    bad = ser.state_to_obj(state)
    bad["px"].append(0.0)
    with pytest.raises(ConfigError, match="^config error at /rhoY: expected 4 matrices, got 3$"):
        ser.obj_to_state(bad)


def test_channel_error_paths():
    with pytest.raises(ConfigError, match="^config error at /classical: expected a boolean, got 1$"):
        ser.obj_to_channel({"dimT": 1, "classical": 1, "sigmaT": []})
    with pytest.raises(ConfigError, match="^config error at /sigmaT: expected a nonempty list"):
        ser.obj_to_channel({"dimT": 1, "classical": False, "sigmaT": []})
    with pytest.raises(ConfigError, match=r"^config error at /c/sigmaT/0: missing required keys \['im'\]$"):
        ser.obj_to_channel(
            {"dimT": 1, "classical": False, "sigmaT": [{"dim": 1, "re": [[1.0]]}]}, "/c"
        )


def test_fmt_float_roundtrips_exactly():
    for x in (1.0 / 3.0, 1e-17, -0.0, 123456789.123456789, np.pi):
        assert float(ser.fmt_float(x)) == x
    assert ser.fmt_float(float("nan")) == "nan"


def test_dump_json_is_stable():
    a = ser.dump_json({"b": 1, "a": [1.5, None]})
    b = ser.dump_json({"a": [1.5, None], "b": 1})
    assert a == b
    assert a.endswith("\n")


def _toy_trace(with_support=False, violations=()):
    records = [
        TraceRecord(
            iteration=i + 1,
            f_alpha=1.0 - 0.25 * i,
            h_t=0.5,
            i_tx=0.25,
            i_ty=0.125,
            step_divergence=0.01,
            gamma_ratio=float("nan") if i else -0.5,
            fixed_point_residual=1e-3,
            support_t=2 if with_support else None,
        )
        for i in range(2)
    ]
    return IterationTrace(records=records, status="converged", violations=list(violations))


def test_trace_csv_layout():
    text = ser.trace_to_csv(_toy_trace())
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(ser.TRACE_COLUMNS)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == ser.fmt_float(1.0)
    assert lines[2].split(",")[6] == "nan"
    assert lines[-1] == "# status=converged"
    assert text.endswith("\n")


def test_trace_csv_support_and_gamma_columns():
    text = ser.trace_to_csv(_toy_trace(with_support=True), gamma=0.75)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "gamma"
    assert header[-1] == "support_T"
    row = lines[1].split(",")
    assert row[0] == ser.fmt_float(0.75)
    assert row[-1] == "2"
    assert lines[-1] == "# status=converged gamma=" + ser.fmt_float(0.75)


def test_trace_csv_violation_comment():
    text = ser.trace_to_csv(_toy_trace(violations=[3, 7]))
    assert text.strip().split("\n")[-1] == "# status=converged violations=3|7"


def test_trace_records_json_view():
    obj = ser.trace_to_records(_toy_trace(with_support=True))
    assert obj["status"] == "converged"
    assert obj["violations"] == []
    assert len(obj["records"]) == 2
    assert obj["records"][0]["gamma_ratio"] == -0.5
    assert obj["records"][1]["gamma_ratio"] is None
    assert obj["records"][0]["support_T"] == 2
    # nan-free, so the JSON text is strictly valid
    json.loads(json.dumps(obj, allow_nan=False))


def test_write_text_atomic(tmp_path):
    target = tmp_path / "deep" / "out.csv"
    ser.write_text_atomic(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    ser.write_text_atomic(str(target), "replaced\n")
    assert target.read_text() == "replaced\n"
    leftovers = [p for p in os.listdir(tmp_path / "deep") if p.startswith(".tmp")]
    assert leftovers == []


def test_write_text_atomic_removes_its_temporary_file_when_the_rename_fails(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, None, dst)

    monkeypatch.setattr(ser.os, "replace", refuse)
    target = tmp_path / "out.csv"
    with pytest.raises(PermissionError):
        ser.write_text_atomic(str(target), "hello\n")
    argv = ["advantage", "--d", "3", "--n", "2", "--beta", "2", "--out", str(target)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {os.strerror(errno.EACCES)}: {target}\n")
    assert os.listdir(tmp_path) == []


def test_write_text_atomic_raises_after_a_rename_that_took_place(tmp_path, monkeypatch):
    # The rename went through and then failed: no temporary file is left to remove.
    replace = os.replace

    def replace_then_fail(src, dst):
        replace(src, dst)
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(ser.os, "replace", replace_then_fail)
    target = tmp_path / "out.csv"
    with pytest.raises(OSError, match=os.strerror(errno.EIO)):
        ser.write_text_atomic(str(target), "hello\n")
    assert os.listdir(tmp_path) == ["out.csv"] and target.read_text() == "hello\n"


def test_write_text_atomic_never_exposes_partial_content(tmp_path):
    # hammer the same path from two threads; any read sees a full payload
    target = str(tmp_path / "contended.txt")
    payloads = ["a" * 4096 + "\n", "b" * 4096 + "\n"]
    ser.write_text_atomic(target, payloads[0])
    stop = threading.Event()

    def writer():
        i = 0
        while not stop.is_set():
            ser.write_text_atomic(target, payloads[i % 2])
            i += 1

    t = threading.Thread(target=writer)
    t.start()
    try:
        for _ in range(200):
            with open(target, encoding="utf-8") as fh:
                content = fh.read()
            assert content in payloads
    finally:
        stop.set()
        t.join()


def test_load_json_error_naming_path(tmp_path):
    bad = tmp_path / "bad.json"
    # Not UTF-8, and over Python's 4,300-digit limit: both used to escape as
    # tracebacks.
    for content in (b"{not json", b'{"px": [\xff]}', b'{"px": [' + b"1" * 5000 + b"]}"):
        bad.write_bytes(content)
        with pytest.raises(ConfigError, match=f"^config error at {re.escape(str(bad))}#: invalid JSON"):
            ser.load_json(str(bad))


_ONE_BY_ONE = '{"dim": 1, "re": [[-Infinity]], "im": [[0]]}'


@pytest.mark.parametrize(
    "reader, text, pointer",
    [
        (ser.load_state, '{"px": [0.5, NaN], "dimY": 1, "rhoY": []}', "/px/1"),
        (ser.load_channel, f'{{"dimT": 1, "classical": false, "sigmaT": [{_ONE_BY_ONE}]}}',
         "/sigmaT/0/re/0/0"),
        (ser.load_state, "Infinity", ""),
    ],
    ids=["NaN", "-Infinity", "Infinity"],
)
def test_readers_reject_non_finite_literals(tmp_path, reader, text, pointer):
    # json reads NaN and Infinity; the readers' number rules reject them.
    path = tmp_path / "nan.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        reader(str(path))
    assert exc.value.pointer == f"{path}#{pointer}"


def test_obj_to_matrix_rejects_non_finite_entries():
    obj = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    ser.obj_to_matrix(obj)
    obj["im"][1][0] = float("inf")
    with pytest.raises(ConfigError, match="^config error at /spot/im/1/0: expected a finite number, got inf$"):
        ser.obj_to_matrix(obj, "/spot")
    obj["re"][0][1] = float("nan")
    with pytest.raises(ConfigError, match="^config error at /spot/re/0/1: expected a finite number, got nan$"):
        ser.obj_to_matrix(obj, "/spot")
    obj["re"][0][1] = 10**400  # overflows float64
    with pytest.raises(ConfigError, match="^config error at /spot/re: expected a 2x2 array of finite numbers$"):
        ser.obj_to_matrix(obj, "/spot")


def test_load_state_and_channel_files(tmp_path):
    state = random_cq_state(3, tag="ser")
    chan = random_channel_for(state, 2, 3, tag="ser")
    spath = tmp_path / "state.json"
    cpath = tmp_path / "chan.json"
    ser.write_text_atomic(str(spath), ser.dump_json(ser.state_to_obj(state)))
    ser.write_text_atomic(str(cpath), ser.dump_json(ser.channel_to_obj(chan)))
    s2 = ser.load_state(str(spath))
    c2 = ser.load_channel(str(cpath))
    assert np.array_equal(s2.px, state.px)
    assert np.array_equal(c2.sigma_t_given_x, chan.sigma_t_given_x)
