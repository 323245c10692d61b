"""Compare benchmark runs of a parent commit and a change.

    python3 benchmarks/e2e/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is what ``run.py --out`` wrote: a set of every workload, or one
workload's record.  The i-th parent file and the i-th change file form a
pair, so run them alternately (parent first in even pairs, change first
in odd ones).  For every (end-to-end metric, workload) row it reports
each side's median and quartiles, the change's win share over the pairs
and one verdict, by the rule of the benchmark's README:

* ``regressed``  — the change's median is worse than the parent's by more
  than the metric's bound, and the run-to-run spread is within the bound
  (or every change run reads worse than every parent run);
* ``improved``   — at least 10 pairs, the change wins at least 9 in 10,
  and the medians differ by more than the parent's quartile distance;
* ``unresolved`` — the spread is wider than the bound and the runs do not
  separate;
* ``unchanged``  — otherwise.

A row is judged at :data:`CLAIM_BOUND`, or at the metric's own bound
where that is tighter.  ``BENCHMARK.json`` gates set-up and trial time
at 25% and memory at 15%, bounds that two same-code sets of runs on the
noisy reference host stay within; a claim or a regression report needs
the finer bound, and where the runs are too noisy for it the row reads
``unresolved``, not ``unchanged``.  ``fail_ratio`` is flagged ``regressed`` on any increase.
Exit status 1 when a row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

import harness

MIN_PAIRS = 10
WIN_SHARE = 0.9
CLAIM_BOUND = 0.10


def load_runs(path: str) -> Dict[str, Dict[str, float]]:
    """workload -> end-to-end metrics of one result file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    records = data["workloads"].values() if "workloads" in data else [data]
    return {r["workload"]: r["metrics"] for r in records if "metrics" in r}


def quartiles(values: Sequence[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> Dict[str, Any]:
    """One (metric, workload) row; ``parent[i]`` pairs with ``change[i]``."""
    sign = -1.0 if better == "lower" else 1.0  # goodness = sign * value
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = sign * (p_med - c_med) / (abs(p_med) or 1.0) + 0.0  # no -0.0
    wins = sum(1 for p, c in zip(parent, change) if sign * c > sign * p)
    pairs = min(len(parent), len(change))
    width = max(spread(parent), spread(change))
    good_parent = [sign * v for v in parent]
    good_change = [sign * v for v in change]
    all_better = min(good_change) > max(good_parent)
    all_worse = max(good_change) < min(good_parent)
    q1, q3 = quartiles(parent)
    if bound == 0.0:  # "no increase": any failure in any run counts
        shift = sign * (statistics.mean(parent) - statistics.mean(change))
        name = "regressed" if shift > 0 else ("improved" if shift < 0 else "unchanged")
    elif worse > bound:
        name = "regressed" if width <= bound or all_worse else "unresolved"
    elif pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and abs(c_med - p_med) > q3 - q1:
        name = "improved"
    elif width > bound and not all_better:
        name = "unresolved"
    else:
        name = "unchanged"
    c_q1, c_q3 = quartiles(change)
    return {
        "verdict": name,
        "parent": {"median": p_med, "q1": q1, "q3": q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "worse_share": worse,
        "wins": wins,
        "pairs": pairs,
        "spread": width,
    }


def compare(parent_files: List[str], change_files: List[str]) -> List[Dict[str, Any]]:
    parents = [load_runs(p) for p in parent_files]
    changes = [load_runs(c) for c in change_files]
    rows = []
    spec = harness.spec()
    for definition in spec["end_to_end"] + spec["extra_end_to_end"]:
        name = definition["name"]
        workloads = sorted({w for run in parents for w, m in run.items() if name in m})
        for workload in workloads:
            p_values = [run[workload][name] for run in parents if name in run.get(workload, {})]
            c_values = [run[workload][name] for run in changes if name in run.get(workload, {})]
            if not p_values or not c_values:
                continue
            n = min(len(p_values), len(c_values))
            bound = min(definition["bound"], CLAIM_BOUND)
            row = verdict(p_values[:n], c_values[:n], definition["better"], bound)
            row.update(metric=name, unit=definition["unit"], workload=workload, bound=bound)
            rows.append(row)
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    def side(stats: Dict[str, float]) -> str:
        return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"

    table = [("workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
              "worse", "wins", "bound", "verdict")]
    for r in rows:
        table.append((r["workload"], r["metric"], r["unit"], side(r["parent"]), side(r["change"]),
                      f"{r['worse_share']:+.1%}", f"{r['wins']}/{r['pairs']}", f"{r['bound']:.0%}",
                      r["verdict"]))
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="result files of the parent commit")
    parser.add_argument("--change", nargs="+", required=True, help="result files of the change")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change)
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
