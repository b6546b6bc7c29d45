"""Repeat benchmark runs over consecutive seeds and report their spread.

    python3 perfbench/series.py --runs 10 --out perfbench/out/base.json
    python3 perfbench/series.py --runs 5 --workloads classify --seconds 25

Each run is a fresh ``run.py`` process, one after another.  For every
end-to-end metric the report gives the median, the quartiles and their
distance as a share of the median, against a third of the metric's bound in
BENCHMARK.json.  The output file holds every run's details and result line
and is the input of ``compare.py``.  ``--root`` runs another checkout's
copy of the benchmark, for a before/after pair.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def values(runs: list[dict], workload: str, metric: str) -> dict[int, float]:
    """Metric value by seed for one workload."""
    return {r["seed"]: r["result"]["metrics"][metric]["value"]
            for r in runs if r["workload"] == workload and metric in r["result"]["metrics"]}


def report(runs: list[dict], spec: dict) -> None:
    metrics = spec["end_to_end"] if not runs[0]["trace"] else [
        {**m, "bound": None} for m in spec["per_layer"]]
    for workload in dict.fromkeys(r["workload"] for r in runs):
        failed = sum(r["result"]["failed"] for r in runs if r["workload"] == workload)
        print(f"{workload}: {sum(1 for r in runs if r['workload'] == workload)} runs, "
              f"{failed} failed requests")
        for m in metrics:
            vals = list(values(runs, workload, m["name"]).values())
            if not vals:
                continue
            q1, med, q3 = stats.quartiles(vals)
            line = (f"  {m['name']:34s} median {med:12.6g} {m['unit']:6s} "
                    f"q1 {q1:12.6g} q3 {q3:12.6g} spread {stats.spread(vals):7.2%}")
            if m["bound"] is not None:
                ok = stats.spread(vals) < m["bound"] / 3
                line += f"  bound/3 {m['bound'] / 3:6.2%} {'ok' if ok else 'WIDE'}"
            print(line)


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--root", default=ROOT, help="checkout whose benchmark to run")
    parser.add_argument("--out", default=None, help="write every run to this JSON file")
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(args.root, workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['result'])}", flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs}, fh, indent=1)
    report(runs, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
