"""Wire formats: JSON round-trips, CSV layout, atomic writes."""

import json
import os
import threading

import numpy as np
import pytest

from qib import serialization as ser
from qib.engine import IterationTrace, TraceRecord
from qib.exceptions import InvariantError
from qib.model import CQChannel

from helpers import random_cq_state, random_channel_for


def test_matrix_roundtrip_preserves_complex_entries():
    m = np.array([[1.0, 0.5 + 0.25j], [0.5 - 0.25j, 0.0]])
    again = ser.obj_to_matrix(ser.matrix_to_obj(m))
    assert np.array_equal(m, again)


def test_matrix_obj_errors():
    with pytest.raises(InvariantError, match="square"):
        ser.matrix_to_obj(np.zeros((2, 3)))
    with pytest.raises(InvariantError, match="missing keys"):
        ser.obj_to_matrix({"dim": 2, "re": [[0, 0], [0, 0]]})
    with pytest.raises(InvariantError, match="spot/dim"):
        ser.obj_to_matrix({"dim": 0, "re": [], "im": []}, where="spot")
    with pytest.raises(InvariantError, match="do not match"):
        ser.obj_to_matrix({"dim": 2, "re": [[0.0]], "im": [[0.0]]})
    with pytest.raises(InvariantError, match="non-numeric"):
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


def test_state_error_paths_are_indexed():
    state = random_cq_state(2, tag="ser")
    obj = ser.state_to_obj(state)
    obj["rhoY"][1]["re"] = [[0.0]]
    with pytest.raises(InvariantError, match=r"state/rhoY/1"):
        ser.obj_to_state(obj)
    with pytest.raises(InvariantError, match="missing keys"):
        ser.obj_to_state({"px": [1.0]})
    with pytest.raises(InvariantError, match="dimY"):
        bad = ser.state_to_obj(state)
        bad["dimY"] = bad["dimY"] + 1
        ser.obj_to_state(bad)


def test_channel_error_paths():
    with pytest.raises(InvariantError, match="classical"):
        ser.obj_to_channel({"dimT": 1, "classical": 1, "sigmaT": []})
    with pytest.raises(InvariantError, match="nonempty"):
        ser.obj_to_channel({"dimT": 1, "classical": False, "sigmaT": []})
    with pytest.raises(InvariantError, match=r"channel/sigmaT/0"):
        ser.obj_to_channel(
            {"dimT": 1, "classical": False, "sigmaT": [{"dim": 1, "re": [[1.0]]}]}
        )


def test_obj_to_state_can_skip_validation():
    obj = {
        "px": [0.5, 0.5],
        "dimY": 1,
        "rhoY": [
            {"dim": 1, "re": [[2.0]], "im": [[0.0]]},
            {"dim": 1, "re": [[1.0]], "im": [[0.0]]},
        ],
    }
    state = ser.obj_to_state(obj, validate=False)
    assert state.rho_y_given_x[0][0, 0] == 2.0
    with pytest.raises(InvariantError):
        ser.obj_to_state(obj)


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
    bad.write_text("{not json")
    with pytest.raises(InvariantError, match="invalid JSON"):
        ser.load_json(str(bad))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"px": [0.5, NaN]}', "NaN at /px/1"),
        ('{"a": {"b": [1, -Infinity]}}', "-Infinity at /a/b/1"),
        ("Infinity", "Infinity"),
    ],
)
def test_load_json_rejects_non_finite_literals(tmp_path, text, message):
    path = tmp_path / "nan.json"
    path.write_text(text)
    with pytest.raises(InvariantError, match=f": non-finite number {message}$"):
        ser.load_json(str(path))


def test_obj_to_matrix_rejects_non_finite_entries():
    obj = {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    ser.obj_to_matrix(obj)
    obj["im"][1][0] = float("inf")
    with pytest.raises(InvariantError, match="spot/im/1/0: non-finite"):
        ser.obj_to_matrix(obj, where="spot")
    obj["re"][0][1] = float("nan")
    with pytest.raises(InvariantError, match="spot/re/0/1: non-finite"):
        ser.obj_to_matrix(obj, where="spot")


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
