"""Compare two series files (base, then change) metric by metric.

    python3 perfbench/compare.py perfbench/out/base.json perfbench/out/change.json

For each workload and end-to-end metric: each side's median and quartiles,
the pairs (runs with the same seed) the change wins, and a verdict:

- improved: the change wins at least 9 in 10 pairs and the medians differ,
  in its favour, by more than the base's quartile distance;
- unresolved: the base's spread is wider than the metric's bound and not
  every change run reads better than every base run;
- worse: the change's median is worse than the base's by more than the bound;
- no worse: otherwise, within the bound.

Bounds and directions come from this checkout's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import sys

import stats
from series import load_spec, values

WIN_SHARE = 0.9


def verdict(base: dict[int, float], change: dict[int, float], better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs)."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(base.keys() & change.keys())
    wins = sum(1 for s in seeds if sign * (change[s] - base[s]) > 0)
    bq1, bmed, bq3 = stats.quartiles(list(base.values()))
    _, cmed, _ = stats.quartiles(list(change.values()))
    gain = sign * (cmed - bmed)
    if seeds and wins >= WIN_SHARE * len(seeds) and gain > bq3 - bq1:
        return "improved", wins, len(seeds)
    all_better = min(sign * v for v in change.values()) > max(sign * v for v in base.values())
    if stats.spread(list(base.values())) > bound and not all_better:
        return "unresolved", wins, len(seeds)
    if -gain > bound * abs(bmed):
        return "worse", wins, len(seeds)
    return "no worse within bound", wins, len(seeds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = load_spec()
    sides = []
    for path in (args.base, args.change):
        with open(path, encoding="utf-8") as fh:
            sides.append(json.load(fh)["runs"])
    workloads = dict.fromkeys(r["workload"] for r in sides[0] + sides[1])
    worst = 0
    rank = {"improved": 0, "no worse within bound": 0, "unresolved": 1, "worse": 2}
    for workload in workloads:
        print(workload)
        for m in spec["end_to_end"]:
            base = values(sides[0], workload, m["name"])
            change = values(sides[1], workload, m["name"])
            if not base or not change:
                continue
            result, wins, pairs = verdict(base, change, m["better"], m["bound"])
            worst = max(worst, rank[result])
            bq1, bmed, bq3 = stats.quartiles(list(base.values()))
            cq1, cmed, cq3 = stats.quartiles(list(change.values()))
            print(f"  {m['name']:16s} {m['unit']:5s} base {bmed:10.5g} [{bq1:.5g}, {bq3:.5g}]  "
                  f"change {cmed:10.5g} [{cq1:.5g}, {cq3:.5g}]  "
                  f"({(cmed - bmed) / bmed:+.1%} of base)  wins {wins}/{pairs}  "
                  f"bound {m['bound']:.0%}  {result}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
