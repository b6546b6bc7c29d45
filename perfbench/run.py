"""Run one benchmark workload through qib's CLI, in process.

    python3 perfbench/run.py --workload qib-wide --seed 1 --seconds 25 --trace 0

Closed loop, one client: requests run one after another, each one
``qib.cli.main`` call on one generated config with its output written to a
temporary file under ``perfbench/out``.  With ``--trace 0`` the requests
run in SEGMENTS fresh processes, one after another; each request runs
between two runs of the reference kernel in ``refspeed.py``, and the run prints the end-to-end
metrics of BENCHMARK.json with request times scaled to the kernel's
reference speed; with ``--trace 1`` one process runs
each config twice, untraced and then traced, and prints the per-layer
metrics.
The last line of standard output is the result object; the line before it
holds the machine block and the run's details.

Run from the root of a source checkout: the program is imported from
``src/``.  The BLAS thread count is inherited from the environment and only
recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import refspeed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
# Fresh processes the timed requests are spread over.  On a shared 2-core
# host, back-to-back processes repeating one qib-wide config had medians
# from 0.35 to 0.50 s, each steady to about 5% within itself.
SEGMENTS = 3
COVERAGE_RANGE = (0.9, 1.1)


def _setup_probe(workload: workloads.Workload, seed: int) -> None:
    """Child process: time importing qib.cli and generating the configs."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import qib.cli  # noqa: F401

    workload.configs(seed)
    print(time.perf_counter() - start)


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time over fresh processes, in seconds."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def machine_block(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                             if k in os.environ},
        "workload_seed": seed,
    }


class Client:
    """Issues requests of one workload and checks their outputs."""

    def __init__(self, workload: workloads.Workload, workdir: str):
        import qib.cli

        self.cli = qib.cli
        self.workload = workload
        self.config_path = os.path.join(workdir, "config.json")
        self.out_path = os.path.join(workdir, "out")
        self.check = workloads.CHECKS[workload.command]
        self.failed = 0
        self.attempted = 0
        self.misses: list[str] = []
        self.problems: list[str] = []
        self.bytes_out: list[int] = []

    def request(self, config_text: str, reference: float | None = None) -> float | None:
        """Run one request; return its wall time, or None if it failed.

        With a reference, misses of the typical outcome fail the request too.
        """
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(config_text)
        if self.workload.out_is_dir:
            os.makedirs(self.out_path, exist_ok=True)
        argv = self.workload.argv(self.config_path, self.out_path)
        err = io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # a request that raises is a failed request
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        problems, misses = [], []
        if code != 0:
            problems.append(f"exit code {code}: {err.getvalue().strip()[-500:]}")
        else:
            try:
                problems, misses = self.check(self.out_path, json.loads(config_text), reference)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            self.bytes_out.append(workloads.output_bytes(self.out_path))
        if reference is not None:
            problems, misses = problems + misses, []
        if misses:
            self.misses.append(f"{config_text}: {'; '.join(misses)}")
        if os.path.isdir(self.out_path):
            shutil.rmtree(self.out_path)
        elif os.path.exists(self.out_path):
            os.remove(self.out_path)
        if problems:
            self.failed += 1
            self.problems.append(f"{self.workload.name} {config_text}: {'; '.join(problems)}")
            return None
        return elapsed

    def warm_up(self) -> None:
        """Request the pinned reference config; checked, not timed."""
        config = json.dumps(self.workload.config(workloads.REFERENCE_SEED), sort_keys=True)
        self.request(config, reference=self.workload.reference)

    def tally(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "misses": self.misses,
                "problems": self.problems}


def end_to_end(times: list[float], ref_times: list[float], setup_s: float,
               rss_mb: float) -> tuple[dict, dict]:
    """Request times enter the metrics at reference speed; the wall times
    go to the detail line."""
    tail, pct = stats.tail(ref_times)
    metrics = {
        "setup_s": setup_s,
        "ref_request_s.p50": statistics.median(ref_times),
        "ref_request_s.tail": tail,
        "ref_solves_per_s": len(ref_times) / sum(ref_times),
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "requests": len(times),
        "tail_percentile": pct,
        "wall_request_s.p50": statistics.median(times),
        "wall_request_s.tail": stats.tail(times)[0],
        "wall_solves_per_s": len(times) / sum(times),
        "kernel_over_nominal": statistics.median(t / r for t, r in zip(times, ref_times)),
    }
    return metrics, detail


def timed_loop(client: Client, configs: list[str], seconds: float):
    """Requests until the next one is predicted to end past ``seconds``,
    each between two runs of the reference kernel.  Returns the wall and
    reference-speed times of the successful ones and the configs used."""
    kernel = refspeed.Kernel()
    kernel()
    times: list[float] = []
    ref_times: list[float] = []
    start = time.perf_counter()
    used = 0
    before = kernel()
    for text in configs:
        if times and time.perf_counter() - start + statistics.median(times) > seconds:
            break
        used += 1
        elapsed = client.request(text)
        after = kernel()
        if elapsed is not None:
            times.append(elapsed)
            ref_times.append(refspeed.scale(elapsed, before, after))
        before = after
    return times, ref_times, used


def run_segment(workload: workloads.Workload, seed: int, seconds: float, first: int) -> dict:
    """Child process: warm up, then timed requests from config ``first`` on."""
    sys.path.insert(0, SRC)
    configs = workload.configs(seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        client = Client(workload, workdir)
        client.warm_up()
        times, ref_times, used = timed_loop(client, configs[first:], seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {**client.tally(), "times": times, "ref_times": ref_times, "used": used,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def timed_segments(workload: workloads.Workload, seed: int, seconds: float):
    """Run the timed requests in SEGMENTS fresh processes, one after another."""
    tally = {"attempted": 0, "failed": 0, "misses": [], "problems": []}
    times: list[float] = []
    ref_times: list[float] = []
    rss = 0.0
    first = 0
    for _ in range(SEGMENTS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
             "--seed", str(seed), "--seconds", repr(seconds / SEGMENTS), "--segment", str(first)],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"segment from request {first} failed: {proc.stderr[-2000:]}")
        seg = json.loads(proc.stdout.strip().splitlines()[-1])
        for key in tally:
            tally[key] += seg[key]
        times += seg["times"]
        ref_times += seg["ref_times"]
        rss = max(rss, seg["rss_mb"])
        first += seg["used"]
    return tally, times, ref_times, rss


def traced_loop(client: Client, configs: list[str], seconds: float):
    """Pairs of (untraced, traced) requests on the same config."""
    import tracer as tracing

    tracer = tracing.Tracer()
    plain, traced, ids, pair = [], [], [], []
    probe_run = None
    start = time.perf_counter()
    for rid, text in enumerate(configs):
        enough = len(ids) >= client.workload.count_requests
        if enough and time.perf_counter() - start + statistics.median(pair) > seconds:
            break
        begin = time.perf_counter()
        untraced = client.request(text)
        tracer.install()
        tracer.request = rid
        try:
            with_trace = client.request(text)
        finally:
            tracer.request = None
            tracer.uninstall()
        pair.append(time.perf_counter() - begin)
        if untraced is None or with_trace is None:
            continue
        plain.append(untraced)
        traced.append(with_trace)
        ids.append(rid)
        if probe_run is None:
            probe_run = tracer.last_run
    return tracer, plain, traced, ids, probe_run


def per_layer(client, configs, seconds, workload, seed) -> tuple[dict, dict]:
    import tracer as tracing

    tracer, plain, traced, ids, probe_run = traced_loop(client, configs, seconds)
    if not ids:
        return {}, {"requests": 0}
    metrics = tracing.layer_metrics(tracer, ids, ids[: workload.count_requests])
    metrics.update(tracing.probe_phases(probe_run))
    metrics["serialization.bytes_out"] = statistics.mean(client.bytes_out)
    metrics["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(plain)) * 1e3
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload.name}-{seed}.jsonl.gz")
    tracer.write(spans_path)
    detail = {
        "requests": len(ids),
        "counted_requests": min(len(ids), workload.count_requests),
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "request_s.p50_untraced": statistics.median(plain),
        "request_s.p50_traced": statistics.median(traced),
    }
    coverage = metrics["engine.phase_coverage"]
    if coverage and not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
        detail["phase_coverage_flag"] = f"{coverage:.3f} outside {COVERAGE_RANGE}"
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--segment", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(SRC, "qib", "cli.py")):
        print(f"error: no qib sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe(workload, args.seed)
        return 0
    if args.segment is not None:
        print(json.dumps(run_segment(workload, args.seed, args.seconds, args.segment)))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    steal0, total0 = cpu_ticks()
    setup_s = measure_setup(workload.name, args.seed)
    machine = machine_block(args.seed)
    if args.trace:
        sys.path.insert(0, SRC)
        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
        try:
            client = Client(workload, workdir)
            client.warm_up()
            metrics, detail = per_layer(client, workload.configs(args.seed), args.seconds,
                                        workload, args.seed)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        tally = client.tally()
    else:
        tally, times, ref_times, rss_mb = timed_segments(workload, args.seed, args.seconds)
        metrics, detail = (end_to_end(times, ref_times, setup_s, rss_mb) if times
                           else ({}, {"requests": 0}))

    steal1, total1 = cpu_ticks()
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    problems = tally["problems"] + ([f"no value for {missing}"] if missing else [])
    detail.update({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "fail_ratio": tally["failed"] / tally["attempted"],
        # Share of CPU time the hypervisor gave to other guests during the run.
        "cpu_steal_share": (steal1 - steal0) / max(total1 - total0, 1),
        "outcome_misses": len(tally["misses"]),
        "outcome_miss_examples": tally["misses"][:3],
        "problems": problems[:5],
    })
    for m in wanted:
        if m["name"] in metrics:
            print(f"{workload.name:14s} {m['name']:34s} {metrics[m['name']]:14.6g} {m['unit']}")
    print(f"{workload.name:14s} {'fail_ratio':34s} {detail['fail_ratio']:14.6g} ratio")
    if "tail_percentile" in detail:
        print(f"{workload.name:14s} ref_request_s.tail is p{detail['tail_percentile']:.1f} "
              f"of {detail['requests']} requests")
    if "phase_coverage_flag" in detail:
        print(f"{workload.name:14s} WARNING engine.phase_coverage {detail['phase_coverage_flag']}")
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": tally["failed"] == 0 and not missing,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
