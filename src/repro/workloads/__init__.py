"""Synthetic UnixBench workloads for the overhead study."""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "UNIXBENCH_PROGRAMS": "repro.workloads.programs",
    "BenchmarkProgram": "repro.workloads.programs",
    "program_by_name": "repro.workloads.programs",
    "BenchmarkRun": "repro.workloads.suite",
    "ProgramScore": "repro.workloads.suite",
})

__all__ = [
    "UNIXBENCH_PROGRAMS",
    "BenchmarkProgram",
    "BenchmarkRun",
    "ProgramScore",
    "program_by_name",
]
