"""End-to-end benchmark of the SATIN reproduction.

One workload, one run (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload e9_trial --seed 7 --seconds 20 --trace 0

prints every end-to-end metric by name and unit (``--trace 1``: every
per-layer metric) and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, each in a fresh subprocess::

    python3 benchmarks/e2e/run.py --seed 2019 --out set.json [--trace]

Exit status: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 when the benchmark could not run at all
(for example when ``src/`` is missing).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import harness  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS),
                        help="run one workload (default: every workload, each in a subprocess)")
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED,
                        help="first seed of every seed list (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: the traced run, reporting the per-layer metrics")
    parser.add_argument("--out", help="write the run's detail record(s) here as JSON")
    parser.add_argument("--trace-json",
                        help="with --trace and --workload: write the spans as Chrome trace-event JSON")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    return parser


def _print_metrics(name: str, values: Dict[str, float]) -> None:
    units = harness.metric_units()
    print(f"{name}:")
    for metric, value in values.items():
        print(f"  {metric:<30} {value:>16.6g} {units[metric]['unit']}")


def result_line(record: Dict[str, Any]) -> Dict[str, Any]:
    """The last stdout line: the gated metrics of ``BENCHMARK.json``."""
    spec = harness.spec()
    names = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    source = record["per_layer"] if record["trace"] else record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in names},
    }


def run_one(args: argparse.Namespace, seconds: float) -> int:
    workload = harness.WORKLOADS[args.workload]
    record = harness.run_workload(workload, args.seed, seconds, bool(args.trace), args.trace_json)
    _print_metrics(args.workload, record["per_layer"] if args.trace else record["metrics"])
    for problem in record["problems"]:
        print(f"{args.workload}: FAILED {problem}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result_line(record)))
    return 0 if record["correct"] else 1


def run_set(args: argparse.Namespace, seconds: float) -> int:
    """Every workload in a fresh subprocess, one after the other."""
    out: Optional[Path] = Path(args.out) if args.out else None
    workloads: Dict[str, Any] = {}
    status = 0
    for name in harness.WORKLOADS:
        detail = harness.RUNS_DIR / f"set-{name}.json"
        harness.RUNS_DIR.mkdir(parents=True, exist_ok=True)
        command: List[str] = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(seconds),
            "--trace", str(args.trace), "--out", str(detail),
        ]
        if args.trace and out is not None:
            command += ["--trace-json", str(out.with_suffix(f".{name}.trace.json"))]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write("".join(child.stdout.splitlines(keepends=True)[:-1]))
        if child.returncode not in (0, 1) or not detail.exists():
            print(f"{name}: run failed with exit code {child.returncode}", file=sys.stderr)
            return 2
        workloads[name] = json.loads(detail.read_text(encoding="utf-8"))
        detail.unlink()
        status = max(status, child.returncode)
    if out is not None:
        record = {"seed": args.seed, "seconds": seconds, "trace": bool(args.trace), "workloads": workloads}
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("output gate:", "passed" if status == 0 else "FAILED")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    sys.path.insert(0, str(harness.ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"run.py: cannot import repro from {harness.ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parents[1] != harness.ROOT / "src":
        print(f"run.py: repro imported from {repro.__file__}, not from this checkout's src/",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(harness.setup_probe(args.setup_probe, args.seed, STARTED))
        return 0
    seconds = args.seconds if args.seconds is not None else float(harness.spec()["run_seconds"])
    if args.workload:
        return run_one(args, seconds)
    return run_set(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
