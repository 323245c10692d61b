"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the reproducible experiments (id and title).
``experiment <id>``
    Run one experiment and print its table (``--full`` for paper-scale).
``campaign <id>``
    Monte-Carlo fan-out: many seeds across a worker pool, cached results.
``report``
    Run the whole suite and print/write the assembled report
    (``--full`` runs are fanned out across the campaign worker pool).
``chaos <scenario>``
    Fault-injection sweep: run a scenario under a fault plan across many
    seeds and print the survival/detection matrix (non-zero exit on any
    missed fault).
``trace <scenario>``
    Run a trace scenario and export Perfetto ``trace_event`` JSON
    (open in ui.perfetto.dev) and/or JSONL.
``metrics <campaign-dir>``
    Render the rollup of a campaign's ``manifest.json`` (``--format
    json`` for the machine-readable rollup, ``--top N`` to trim).
``dash <campaign-dir>``
    Render a zero-dependency static HTML dashboard (survival heatmap,
    Gantt lanes from a Perfetto trace, latency percentiles, store
    health); ``--follow`` tails a still-running campaign.
``store gc|pin <campaign-dir>``
    Compact the result store (drop superseded/torn/resolved lines) or
    pin golden keys gc must preserve.
``serve``
    Long-running HTTP/JSON job service (submit campaigns over the wire,
    answered from the shared result cache on resubmission).
``worker --queue DIR``
    Drain trial tasks from a file-system queue (``--backend queue`` runs
    and multi-host fan-out).
``submit`` / ``status`` / ``fetch`` / ``cancel``
    Thin clients for a running ``repro serve``.
``demo``
    A 60-second narrated run: SATIN catching a GETTID hijack.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Union


def _write_artifact(path: str, text: str, what: str) -> None:
    """Atomically replace ``path`` with ``text`` and say so on stderr."""
    from repro.durable import atomic_write_bytes

    atomic_write_bytes(path, text.encode("utf-8"))
    print(f"{what} written to {path}", file=sys.stderr)


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.experiments.report import EXPERIMENT_SPECS

    width = max(len(spec.experiment_id) for spec in EXPERIMENT_SPECS)
    for spec in EXPERIMENT_SPECS:
        print(f"{spec.experiment_id.ljust(width)}  {spec.title}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.report import run_experiment

    try:
        result = run_experiment(args.id, seed=args.seed, full=args.full)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    print(result.rendered)
    if args.verbose and result.comparisons:
        print()
        for row in result.comparisons:
            print(f"paper vs measured — {row['quantity']}: "
                  f"{row['paper']} vs {row['measured']}")
    return 0


def _sweep_execution(args: argparse.Namespace) -> dict:
    """The execution fields of a campaign or chaos spec."""
    return dict(
        jobs=args.jobs,
        timeout=args.timeout if args.timeout > 0 else None,
        max_attempts=args.retries + 1,
        cache_dir=args.cache_dir,
        resume=args.resume,
        backend=args.backend,
        queue_dir=args.queue_dir,
    )


def _progress_mode(args: argparse.Namespace) -> Union[bool, str]:
    """The ``progress`` argument of a campaign or chaos run."""
    if args.no_progress:
        return False
    if args.quiet:
        return "quiet"
    return True


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec, run_campaign
    from repro.errors import ReproError

    from repro.experiments.report import spec_by_id

    seeds = [args.seed_base + i for i in range(args.seeds)]
    try:
        spec_by_id(args.id)  # fail fast on unknown experiment ids
        spec = CampaignSpec(
            experiment_id=args.id,
            seeds=seeds,
            full=args.full,
            presets=tuple(args.preset) if args.preset else ("juno_r1",),
            **_sweep_execution(args),
            adaptive=args.adaptive,
            ci_width=args.ci_width,
            ci_quantity=args.ci_quantity,
            min_seeds=args.min_seeds,
            round_size=args.round_size,
        )
        result = run_campaign(spec, progress=_progress_mode(args))
    except (ReproError, KeyError) as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    if result.manifest_path:
        print(f"manifest written to {result.manifest_path}", file=sys.stderr)
    if args.output:
        _write_artifact(args.output, result.rendered + "\n", "campaign summary")
    else:
        print(result.rendered)
    if result.cancelled:
        print(
            f"campaign cancelled — {len(result.records)}/{result.total} trials "
            "completed; rerun with --resume to continue",
            file=sys.stderr,
        )
        return 130
    return 0 if result.records else 3


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.planning.search import render_plan, search_plan
    from repro.errors import ReproError

    try:
        report = search_plan(
            presets=tuple(args.preset) if args.preset else ("juno_r1",),
            tgoals=tuple(args.tgoal) if args.tgoal else (76.0, 152.0),
            deviations=(
                tuple(args.deviation) if args.deviation else (0.5, 1.0)
            ),
            partitions=(
                tuple(args.partition) if args.partition
                else ("sections", "packed")
            ),
            overhead_budget=args.budget,
            tie_break_seeds=args.tie_break_seeds,
            tie_break_top=args.tie_break_top,
            seed_base=args.seed_base,
            cache_dir=args.cache_dir,
        )
    except ReproError as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    print(render_plan(report))
    if args.json:
        _write_artifact(
            args.json, json.dumps(report, indent=1, sort_keys=True) + "\n",
            "plan report",
        )
    return 0 if report["winner"] is not None else 3


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError
    from repro.faults.chaos import ChaosSpec, run_chaos

    seeds = [args.seed_base + i for i in range(args.seeds)]
    try:
        spec = ChaosSpec(
            scenario=args.scenario,
            seeds=seeds,
            plan_name=args.faults,
            fault_seed_base=args.fault_seed_base,
            preset=args.preset,
            duration=args.duration,
            **_sweep_execution(args),
        )
        result = run_chaos(spec, progress=_progress_mode(args))
    except ReproError as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    if result.manifest_path:
        print(f"manifest written to {result.manifest_path}", file=sys.stderr)
    if args.matrix:
        matrix = {
            "scenario": spec.scenario,
            "plan": spec.plan.name,
            "seeds": len(seeds),
            "classes": result.survival,
            "totals": result.totals,
        }
        _write_artifact(
            args.matrix, json.dumps(matrix, indent=1, sort_keys=True) + "\n",
            "survival matrix",
        )
    if args.output:
        _write_artifact(args.output, result.rendered + "\n", "chaos summary")
    else:
        print(result.rendered)
    if result.cancelled:
        print(
            f"chaos sweep cancelled — {len(result.records)}/{result.total} "
            "trials completed; rerun with --resume to continue",
            file=sys.stderr,
        )
        return 130
    if not result.records:
        return 3
    return 4 if result.missed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.errors import CampaignError
    from repro.experiments.report import generate_report

    jobs = args.jobs
    if jobs is None and args.full:
        # Paper-scale suites go through the campaign worker pool.
        jobs = os.cpu_count() or 1
    try:
        text = generate_report(
            seed=args.seed,
            full=args.full,
            only=args.only if args.only else None,
            progress=lambda msg: print(msg, file=sys.stderr),
            jobs=jobs,
        )
    except (CampaignError, KeyError) as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if args.output:
        _write_artifact(args.output, text, "report")
    else:
        print(text)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs.scenarios import (
        build_scenario_stack,
        run_scenario,
        scenario_by_name,
        scenario_records,
    )
    from repro.obs.trace_export import (
        JsonlTraceWriter,
        machine_core_labels,
        write_perfetto,
    )

    if not args.out and not args.jsonl:
        print("trace: pass --out (Perfetto JSON) and/or --jsonl", file=sys.stderr)
        return 2
    try:
        scenario = scenario_by_name(args.scenario)
        stack = build_scenario_stack(scenario, seed=args.seed, preset=args.preset)
        jsonl_handle = None
        if args.jsonl:
            # Stream records as they happen (a crash leaves a readable prefix).
            jsonl_handle = open(args.jsonl, "w", encoding="utf-8")
            writer = JsonlTraceWriter(jsonl_handle)
            stack.machine.trace.add_listener(writer)
        try:
            run_scenario(stack, scenario, duration=args.duration, rounds=args.rounds)
        finally:
            if jsonl_handle is not None:
                jsonl_handle.close()
        records = scenario_records(stack)
        if args.out:
            trace = write_perfetto(
                records, args.out, machine_core_labels(stack.machine)
            )
            spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
            print(
                f"{args.out}: {len(trace['traceEvents'])} trace events "
                f"({spans} spans) over {stack.machine.now:.3f}s simulated — "
                f"open in ui.perfetto.dev",
                file=sys.stderr,
            )
        if args.jsonl:
            print(f"{args.jsonl}: {len(records)} records (JSONL)", file=sys.stderr)
    except ReproError as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    counters = stack.machine.metrics.snapshot()["counters"]
    for name in sorted(counters):
        print(f"{name} = {counters[name]}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError
    from repro.obs.manifest import (
        load_manifest,
        manifest_rollup,
        render_manifest,
    )

    try:
        manifest = load_manifest(args.path)
    except (ReproError, OSError, ValueError) as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    if args.format == "json":
        rollup = manifest_rollup(manifest, top=args.top)
        print(json.dumps(rollup, indent=1, sort_keys=True))
        return 0
    if args.top is not None:
        # table mode renders the same trimmed view the JSON path would
        trimmed = manifest_rollup(manifest, top=args.top)
        manifest = dict(manifest)
        manifest["metrics"] = {
            "counters": trimmed["counters"],
            "gauges": trimmed["gauges"],
            "histograms": {
                name: {
                    key: value
                    for key, value in histogram.items()
                    if key not in ("mean", "p50", "p90", "p99")
                }
                for name, histogram in trimmed["histograms"].items()
            },
        }
    print(render_manifest(manifest), end="")
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs.dashboard import (
        build_dashboard_data,
        dashboard_json,
        follow_campaign,
        render_dashboard_html,
    )
    from repro.obs.dashboard.data import load_trace_file

    try:
        trace = load_trace_file(args.trace) if args.trace else None
    except ReproError as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    if args.follow:
        return follow_campaign(
            args.path,
            out_html=args.out,
            out_json=args.json,
            trace=trace,
            top=args.top,
            interval=args.interval,
            max_rounds=args.max_rounds if args.max_rounds > 0 else None,
            stream=sys.stderr,
        )
    try:
        data = build_dashboard_data(args.path, trace=trace, top=args.top)
    except (ReproError, OSError, ValueError) as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    _write_artifact(args.out, render_dashboard_html(data), "dashboard")
    if args.json:
        _write_artifact(args.json, dashboard_json(data), "dashboard data")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from repro.campaign.store import ResultStore, campaign_dirs, is_campaign_dir

    def open_store(path: str) -> ResultStore:
        root, campaign_id = os.path.split(os.path.abspath(path.rstrip(os.sep)))
        return ResultStore(root, campaign_id)

    if not os.path.isdir(args.path):
        print(f"no such directory {args.path!r}", file=sys.stderr)
        return 2
    if args.action == "pin":
        if not args.key:
            print("store pin: pass --key KEY (repeatable)", file=sys.stderr)
            return 2
        if not is_campaign_dir(args.path):
            print(
                f"{args.path!r} is not a campaign directory (pin one campaign "
                "under the cache root)",
                file=sys.stderr,
            )
            return 2
        store = open_store(args.path)
        for key in args.key:
            store.pin(key)
        print(
            f"pinned {len(args.key)} key(s); {len(store.pinned_keys())} "
            f"pinned in total",
            file=sys.stderr,
        )
        return 0

    # gc: a campaign dir compacts one store, a cache root compacts all
    targets = [args.path] if is_campaign_dir(args.path) else campaign_dirs(args.path)
    if not targets:
        print(f"no campaign stores under {args.path!r}", file=sys.stderr)
        return 2
    reports = {}
    for target in targets:
        store = open_store(target)
        reports[store.campaign_id] = store.gc(dry_run=args.dry_run)
    for campaign_id in sorted(reports):
        report = reports[campaign_id]
        mode = "would drop" if args.dry_run else "dropped"
        print(
            f"{campaign_id}: kept {report['records_kept']} record(s), "
            f"{mode} {report['superseded_dropped']} superseded + "
            f"{report['truncated_dropped']} torn, quarantine "
            f"{report['quarantine_kept']} kept / "
            f"{report['quarantine_resolved']} resolved, "
            f"{report['pinned']} pinned, "
            f"{report['bytes_before']} -> {report['bytes_after']} bytes",
            file=sys.stderr,
        )
    if args.report:
        _write_artifact(
            args.report, json.dumps(reports, indent=1, sort_keys=True) + "\n",
            "gc report",
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.server import serve_forever

    try:
        return serve_forever(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            max_workers=args.workers,
            verbose=args.verbose,
            recover=args.recover,
            max_pending=args.max_pending,
            max_inflight_per_client=args.max_inflight,
        )
    except ServiceError as error:
        print(f"serve error: {error}", file=sys.stderr)
        return 2


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.queue import run_worker

    count = run_worker(
        args.queue,
        max_idle=args.max_idle if args.max_idle > 0 else None,
        max_tasks=1 if args.once else None,
        lease_ttl=args.lease_ttl,
    )
    print(f"worker exiting after {count} task(s)", file=sys.stderr)
    return 0


def _job_spec_from_args(args: argparse.Namespace) -> dict:
    spec = {
        "kind": "chaos" if args.chaos else "campaign",
        "target": args.target,
        "seeds": args.seeds,
        "seed_base": args.seed_base,
        "presets": list(args.preset) if args.preset else ["juno_r1"],
        "full": args.full,
        "backend": args.backend,
        "jobs": args.jobs,
        "max_attempts": args.retries + 1,
    }
    if args.timeout > 0:
        spec["timeout"] = args.timeout
    if args.queue_dir:
        spec["queue_dir"] = args.queue_dir
    if args.chaos:
        spec["plan"] = args.faults
        spec["fault_seed_base"] = args.fault_seed_base
        if args.duration is not None:
            spec["duration"] = args.duration
    if getattr(args, "adaptive", False):
        spec["adaptive"] = True
        spec["ci_width"] = args.ci_width
        if args.ci_quantity is not None:
            spec["ci_quantity"] = args.ci_quantity
        spec["min_seeds"] = args.min_seeds
        spec["round_size"] = args.round_size
    return spec


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ServiceError
    from repro.service import client

    try:
        state = client.submit_job(args.url, _job_spec_from_args(args))
        job_id = state["job_id"]
        note = " (duplicate of an active job)" if state.get("deduped") else ""
        print(f"submitted {job_id}{note}", file=sys.stderr)
        if not args.wait:
            print(job_id)
            return 0
        last_line = ""

        def on_progress(current: dict) -> None:
            nonlocal last_line
            line = client.format_state_line(current)
            if line != last_line:
                print(line, file=sys.stderr)
                last_line = line

        state = client.wait_for_job(
            args.url, job_id, timeout=args.wait_timeout, on_progress=on_progress
        )
        if state["state"] == "done":
            print(client.fetch_result(args.url, job_id), end="")
            return 0
        if args.json:
            print(json.dumps(state, indent=1, sort_keys=True))
        return 130 if state["state"] == "cancelled" else 1
    except ServiceError as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ServiceError
    from repro.service import client

    try:
        if args.job_id:
            state = client.job_status(args.url, args.job_id)
            if args.json:
                print(json.dumps(state, indent=1, sort_keys=True))
            else:
                print(client.format_state_line(state))
        else:
            status, body = client.request(args.url, "/jobs")
            if status >= 400 or not isinstance(body, dict):
                print(f"job listing failed (HTTP {status})", file=sys.stderr)
                return 2
            jobs = body.get("jobs", [])
            if args.json:
                print(json.dumps(jobs, indent=1, sort_keys=True))
            else:
                for state in jobs:
                    print(client.format_state_line(state))
                if not jobs:
                    print("no jobs submitted yet", file=sys.stderr)
    except ServiceError as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ServiceError
    from repro.service import client

    try:
        if args.result:
            text = client.fetch_result(args.url, args.job_id)
        elif args.matrix:
            text = json.dumps(
                client.fetch_matrix(args.url, args.job_id), indent=1, sort_keys=True
            ) + "\n"
        else:
            text = json.dumps(
                client.fetch_manifest(args.url, args.job_id),
                indent=1, sort_keys=True,
            ) + "\n"
    except ServiceError as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    if args.output:
        _write_artifact(args.output, text, args.job_id)
    else:
        print(text, end="")
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service import client

    try:
        state = client.cancel_job(args.url, args.job_id)
    except ServiceError as error:
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2
    print(client.format_state_line(state))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench import check_determinism, run_bench

    results = run_bench(progress=lambda msg: print(msg, file=sys.stderr))
    print(json.dumps(results, indent=2, sort_keys=True))
    if args.check:
        problems = check_determinism(results, args.check)
        if problems:
            print("deterministic regression detected:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"determinism block matches {args.check}", file=sys.stderr)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import boot_rich_os, build_machine, install_satin, juno_r1_config
    from repro.hw.world import World
    from repro.kernel.syscalls import NR_GETTID

    machine = build_machine(juno_r1_config(seed=args.seed))
    rich_os = boot_rich_os(machine)
    satin = install_satin(machine, rich_os)
    print(f"SATIN on a simulated Juno r1: {len(satin.areas)} areas, "
          f"tp={satin.policy.tp:g}s")
    rich_os.syscall_table.write_entry(NR_GETTID, 0xBAD, World.NORMAL)
    print("rootkit hijacked GETTID (area 14); waiting for the random walk...")
    while not satin.alarms.alarms:
        machine.run_for(satin.policy.tp)
    alarm = satin.alarms.alarms[0]
    print(f"t={machine.now:.1f}s  {alarm}")
    return 0


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """The execution options ``campaign`` and ``chaos`` share."""
    parser.add_argument("--jobs", type=int,
                        default=max(os.cpu_count() or 1, 1), metavar="N",
                        help="worker processes (0 = serial in-process)")
    parser.add_argument("--resume", action="store_true",
                        help="serve completed trials from the result cache")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-trial timeout in seconds (0 disables)")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries per failing trial before quarantine")
    parser.add_argument("--cache-dir", default=".repro-cache",
                        help="result store root (default .repro-cache)")
    parser.add_argument("--quiet", action="store_true",
                        help="progress meter prints only the final tally")
    parser.add_argument("--no-progress", action="store_true",
                        help="suppress the stderr progress meter entirely")
    _add_backend_options(parser)


def _add_backend_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default="auto",
                        choices=("auto", "inline", "fork", "queue"),
                        help="executor backend (default auto: fork pool, or "
                             "serial in-process when --jobs 0)")
    parser.add_argument("--queue-dir", metavar="DIR", default=None,
                        help="task queue directory for --backend queue "
                             "(drained by `repro worker` processes)")


def _add_client_options(parser: argparse.ArgumentParser) -> None:
    from repro.service.client import DEFAULT_URL

    parser.add_argument("--url", default=DEFAULT_URL,
                        help=f"service base URL (default {DEFAULT_URL})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SATIN (DSN 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    experiment = sub.add_parser("experiment", help="run one experiment")
    experiment.add_argument("id", help="experiment id (e.g. E9, A1)")
    experiment.add_argument("--seed", type=int, default=2019)
    experiment.add_argument("--full", action="store_true",
                            help="paper-scale sizes")
    experiment.add_argument("-v", "--verbose", action="store_true",
                            help="also print paper-vs-measured rows")

    campaign = sub.add_parser(
        "campaign",
        help="Monte-Carlo campaign: one experiment, many seeds, worker pool",
    )
    campaign.add_argument("id", help="experiment id (e.g. E9, A1)")
    campaign.add_argument("--seeds", type=int, default=64, metavar="N",
                          help="number of seeds (default 64)")
    campaign.add_argument("--seed-base", type=int, default=0,
                          help="first seed; trials use base..base+N-1")
    campaign.add_argument("--full", action="store_true",
                          help="paper-scale trials")
    campaign.add_argument("--preset", action="append", metavar="NAME",
                          help="platform preset; repeat to form a grid "
                               "(default juno_r1)")
    campaign.add_argument("-o", "--output",
                          help="write the campaign summary to a file")
    campaign.add_argument("--adaptive", action="store_true",
                          help="sequential-CI dispatch: stop consuming seeds "
                               "per preset once the target CI width is met "
                               "(needs --ci-width; --seeds is the budget)")
    campaign.add_argument("--ci-width", type=float, default=None, metavar="W",
                          help="target 95%% confidence-interval width for "
                               "--adaptive")
    campaign.add_argument("--ci-quantity", default=None, metavar="NAME",
                          help="comparison quantity the CI tracks (default: "
                               "first quantity with nonzero spread)")
    campaign.add_argument("--min-seeds", type=int, default=8, metavar="N",
                          help="seeds per preset before the first stopping "
                               "check (default 8)")
    campaign.add_argument("--round-size", type=int, default=4, metavar="N",
                          help="seeds added per preset per round; doubled "
                               "for solver-contested presets (default 4)")
    _add_sweep_options(campaign)

    plan = sub.add_parser(
        "plan",
        help="search SATIN parameters against an overhead budget "
             "(solver bounds first, simulation only to break ties)",
    )
    plan.add_argument("--preset", action="append", metavar="NAME",
                      help="platform preset / core set; repeatable "
                           "(default juno_r1)")
    plan.add_argument("--tgoal", action="append", type=float, metavar="S",
                      help="full-pass period goal in seconds; repeatable "
                           "(default 76 152)")
    plan.add_argument("--deviation", action="append", type=float, metavar="D",
                      help="wake-up deviation fraction; repeatable "
                           "(default 0.5 1.0)")
    plan.add_argument("--partition", action="append",
                      choices=("sections", "packed", "whole"),
                      help="partition mode; repeatable "
                           "(default sections packed)")
    plan.add_argument("--budget", type=float, default=0.002, metavar="F",
                      help="max secure-world CPU fraction (default 0.002)")
    plan.add_argument("--tie-break-seeds", type=int, default=0, metavar="N",
                      help="seeds of E9 simulation per contested candidate "
                           "(0 = purely analytical, the default)")
    plan.add_argument("--tie-break-top", type=int, default=3, metavar="N",
                      help="max contested candidates to simulate (default 3)")
    plan.add_argument("--seed-base", type=int, default=2019)
    plan.add_argument("--cache-dir", default=".repro-cache",
                      help="result store root for tie-break simulations")
    plan.add_argument("--json", metavar="FILE",
                      help="write the full search report JSON here")

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: survival/detection matrix across seeds",
    )
    chaos.add_argument("scenario",
                       help="trace scenario to stress (figure4, baseline)")
    chaos.add_argument("--faults", default="smoke", metavar="PLAN",
                       help="fault plan name (default smoke; see "
                            "repro.faults.plan)")
    chaos.add_argument("--seeds", type=int, default=8, metavar="N",
                       help="number of machine seeds (default 8)")
    chaos.add_argument("--seed-base", type=int, default=0,
                       help="first machine seed; trials use base..base+N-1")
    chaos.add_argument("--fault-seed-base", type=int, default=0,
                       help="offset added to each machine seed to derive its "
                            "fault seed (default 0)")
    chaos.add_argument("--preset", default="juno_r1",
                       help="platform preset (default juno_r1)")
    chaos.add_argument("--duration", type=float, default=None, metavar="S",
                       help="injection horizon in simulated seconds "
                            "(default: the plan's duration)")
    chaos.add_argument("--matrix", metavar="FILE",
                       help="write the survival matrix as JSON (CI artifact)")
    chaos.add_argument("-o", "--output",
                       help="write the chaos summary to a file")
    _add_sweep_options(chaos)

    report = sub.add_parser("report", help="run the whole suite")
    report.add_argument("--seed", type=int, default=2019)
    report.add_argument("--full", action="store_true")
    report.add_argument("--only", nargs="*", metavar="ID",
                        help="restrict to these experiment ids")
    report.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan experiments out across N worker processes "
                             "(default: CPU count when --full, else serial)")
    report.add_argument("-o", "--output", help="write the report to a file")

    trace = sub.add_parser(
        "trace",
        help="run a scenario and export Perfetto/JSONL traces",
    )
    trace.add_argument("scenario",
                       help="scenario name (figure4, baseline, idle)")
    trace.add_argument("--seed", type=int, default=2019)
    trace.add_argument("--preset", default="juno_r1",
                       help="platform preset (default juno_r1)")
    trace.add_argument("--duration", type=float, default=None, metavar="S",
                       help="simulated seconds to run (default: run until "
                            "--rounds introspection rounds)")
    trace.add_argument("--rounds", type=int, default=4,
                       help="introspection rounds to capture when no "
                            "--duration is given (default 4)")
    trace.add_argument("-o", "--out", metavar="FILE",
                       help="write Chrome/Perfetto trace_event JSON here")
    trace.add_argument("--jsonl", metavar="FILE",
                       help="stream raw trace records to this JSONL file")

    metrics = sub.add_parser(
        "metrics",
        help="render a campaign manifest rollup",
    )
    metrics.add_argument("path",
                         help="manifest.json, a campaign directory, or a "
                              "cache root (most recent campaign wins)")
    metrics.add_argument("--format", default="table",
                         choices=("table", "json"),
                         help="output format (default table; json is the "
                              "sorted-key machine-readable rollup)")
    metrics.add_argument("--top", type=int, default=None, metavar="N",
                         help="keep only the N largest counters and "
                              "histograms")

    dash = sub.add_parser(
        "dash",
        help="render a static HTML dashboard for a campaign",
    )
    dash.add_argument("path",
                      help="campaign directory (or manifest.json / cache "
                           "root; most recent campaign wins)")
    dash.add_argument("-o", "--out", default="dash.html", metavar="FILE",
                      help="output HTML file (default dash.html)")
    dash.add_argument("--json", metavar="FILE",
                      help="also write the deterministic dashboard data "
                           "(byte-identical between serial and --jobs runs)")
    dash.add_argument("--trace", metavar="FILE",
                      help="Perfetto trace_event JSON to render as per-core "
                           "Gantt lanes (from `repro trace -o`)")
    dash.add_argument("--top", type=int, default=None, metavar="N",
                      help="keep only the N largest counters/histograms")
    dash.add_argument("--follow", action="store_true",
                      help="tail a running campaign: re-render until its "
                           "manifest lands (exit 130 if it was cancelled)")
    dash.add_argument("--interval", type=float, default=2.0, metavar="S",
                      help="--follow poll interval in seconds (default 2)")
    dash.add_argument("--max-rounds", type=int, default=0, metavar="N",
                      help="--follow gives up after N rounds (0 = forever; "
                           "exit 3 if the campaign was still running)")

    store = sub.add_parser(
        "store",
        help="maintain a result store: gc compaction, golden-run pins",
    )
    store.add_argument("action", choices=("gc", "pin"),
                       help="gc compacts shards/quarantine; pin protects "
                            "keys from gc")
    store.add_argument("path",
                       help="campaign directory (or a cache root for gc "
                            "across every campaign)")
    store.add_argument("--dry-run", action="store_true",
                       help="report what gc would drop without rewriting")
    store.add_argument("--key", action="append", metavar="KEY",
                       help="trial key to pin (repeatable)")
    store.add_argument("--report", metavar="FILE",
                       help="write the gc report JSON here (CI artifact)")

    bench = sub.add_parser(
        "bench",
        help="run the determinism gate (engine sequence, scan timeline, "
             "E1/E9 table hashes)",
    )
    bench.add_argument("--check", metavar="FILE",
                       help="compare the deterministic block against a pinned "
                            "JSON file; non-zero exit on drift")

    serve = sub.add_parser(
        "serve",
        help="run the HTTP/JSON campaign job service",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8971,
                       help="bind port (default 8971; 0 picks a free port)")
    serve.add_argument("--cache-dir", default=".repro-cache",
                       help="shared result store root (default .repro-cache)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="concurrent job executions (default 2)")
    serve.add_argument("-v", "--verbose", action="store_true",
                       help="log each HTTP request to stderr")
    serve.add_argument("--no-recover", dest="recover", action="store_false",
                       default=True,
                       help="skip journal replay on startup (jobs from a "
                            "previous run are forgotten, not resumed)")
    serve.add_argument("--max-pending", type=int, default=64, metavar="N",
                       help="pending-queue depth before submissions get "
                            "HTTP 429 + Retry-After (default 64)")
    serve.add_argument("--max-inflight", type=int, default=8, metavar="N",
                       help="non-terminal jobs one client may have in "
                            "flight (default 8; 0 = unlimited)")

    worker = sub.add_parser(
        "worker",
        help="drain trial tasks from a file-system queue",
    )
    worker.add_argument("--queue", required=True, metavar="DIR",
                        help="queue directory shared with the supervisor")
    worker.add_argument("--max-idle", type=float, default=0.0, metavar="S",
                        help="exit after S seconds with nothing to claim "
                             "(0 = wait forever)")
    worker.add_argument("--once", action="store_true",
                        help="process a single task and exit")
    worker.add_argument("--lease-ttl", type=float, default=30.0, metavar="S",
                        help="claim lease TTL; the worker heartbeats every "
                             "TTL/3 so supervisors can reclaim dead claims "
                             "(default 30, 0 disables leases)")

    submit = sub.add_parser(
        "submit",
        help="submit a campaign/chaos job to a running `repro serve`",
    )
    submit.add_argument("target",
                        help="experiment id (campaign) or scenario (--chaos)")
    submit.add_argument("--chaos", action="store_true",
                        help="submit a chaos sweep instead of a campaign")
    submit.add_argument("--seeds", type=int, default=8, metavar="N")
    submit.add_argument("--seed-base", type=int, default=0)
    submit.add_argument("--preset", action="append", metavar="NAME",
                        help="platform preset; repeat for a grid "
                             "(default juno_r1)")
    submit.add_argument("--full", action="store_true",
                        help="paper-scale trials")
    submit.add_argument("--faults", default="smoke", metavar="PLAN",
                        help="fault plan for --chaos (default smoke)")
    submit.add_argument("--fault-seed-base", type=int, default=0)
    submit.add_argument("--duration", type=float, default=None, metavar="S",
                        help="chaos injection horizon in simulated seconds")
    submit.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker parallelism inside the service job")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="per-trial timeout in seconds (0 disables)")
    submit.add_argument("--retries", type=int, default=1)
    submit.add_argument("--adaptive", action="store_true",
                        help="sequential-CI adaptive dispatch (campaign "
                             "jobs; needs --ci-width)")
    submit.add_argument("--ci-width", type=float, default=None, metavar="W",
                        help="target 95%% CI width for --adaptive")
    submit.add_argument("--ci-quantity", default=None, metavar="NAME",
                        help="comparison quantity the CI tracks")
    submit.add_argument("--min-seeds", type=int, default=8, metavar="N")
    submit.add_argument("--round-size", type=int, default=4, metavar="N")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and print its report")
    submit.add_argument("--wait-timeout", type=float, default=None, metavar="S",
                        help="give up waiting after S seconds")
    submit.add_argument("--json", action="store_true",
                        help="print the final job state as JSON on failure")
    _add_backend_options(submit)
    _add_client_options(submit)

    status = sub.add_parser(
        "status",
        help="show job state (all jobs, or one by id)",
    )
    status.add_argument("job_id", nargs="?", default=None)
    status.add_argument("--json", action="store_true",
                        help="print raw JSON instead of a summary line")
    _add_client_options(status)

    fetch = sub.add_parser(
        "fetch",
        help="fetch a job's manifest (default), report, or survival matrix",
    )
    fetch.add_argument("job_id")
    fetch.add_argument("--result", action="store_true",
                       help="fetch the rendered report instead of the manifest")
    fetch.add_argument("--matrix", action="store_true",
                       help="fetch the chaos survival matrix")
    fetch.add_argument("-o", "--output", metavar="FILE",
                       help="write to a file instead of stdout")
    _add_client_options(fetch)

    cancel = sub.add_parser("cancel", help="cancel a submitted job")
    cancel.add_argument("job_id")
    _add_client_options(cancel)

    demo = sub.add_parser("demo", help="narrated SATIN detection demo")
    demo.add_argument("--seed", type=int, default=42)

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "experiment": _cmd_experiment,
    "campaign": _cmd_campaign,
    "plan": _cmd_plan,
    "chaos": _cmd_chaos,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "dash": _cmd_dash,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "fetch": _cmd_fetch,
    "cancel": _cmd_cancel,
    "bench": _cmd_bench,
    "demo": _cmd_demo,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
