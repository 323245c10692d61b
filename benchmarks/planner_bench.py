"""Fixed-budget campaign vs the adaptive planner at the same CI target.

The evidence behind the adaptive planner's seed-reduction figure
(``docs/planning.md``): one E9 campaign over the full fixed seed budget,
one ``--adaptive`` campaign that stops as soon as the 95% CI on the
headline quantity is narrow enough, both from fresh temporary caches.
Prints the comparison as JSON on stdout::

    python benchmarks/planner_bench.py --seeds 64 --ci-width 75

The pair runs up to ``2 * seeds`` full E9 trials serially (minutes at
the default 64 seeds).  Its wall-clock fields are host-dependent; the
seed counts and CI widths are not.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def bench_planner(
    seeds_count: int = 64,
    ci_width: float = 75.0,
    experiment_id: str = "E9",
    min_seeds: int = 8,
    round_size: int = 2,
) -> Dict[str, Any]:
    """Fixed-budget campaign vs the adaptive planner at the same CI target.

    Runs the experiment twice from fresh caches: once over the full fixed
    seed budget, once with ``--adaptive`` stopping as soon as the 95% CI
    on the headline quantity narrows to ``ci_width``.  Reports the seeds
    each run consumed, the CI width each achieved, and the wall-clock
    ratio; ``seed_reduction`` is the planner's headline number.
    """
    from repro.analysis.planning.planner import (
        CONFIDENCE,
        _ci_width,
        select_quantity,
    )
    from repro.campaign.runner import CampaignSpec, run_campaign
    from repro.obs.manifest import load_manifest

    seeds = list(range(2019, 2019 + seeds_count))
    out: Dict[str, Any] = {
        "experiment_id": experiment_id,
        "target_ci_width": ci_width,
        "confidence": CONFIDENCE,
    }

    cache = tempfile.mkdtemp(prefix="repro-bench-plan-fixed-")
    try:
        spec = CampaignSpec(
            experiment_id=experiment_id, seeds=seeds, jobs=0, cache_dir=cache
        )
        gc.collect()
        started = time.perf_counter()
        fixed = run_campaign(spec, progress=False)
        fixed_wall = time.perf_counter() - started
        quantity = select_quantity(fixed.records, None)
        out["quantity"] = quantity
        out["fixed"] = {
            "seeds": seeds_count,
            "wall_seconds": round(fixed_wall, 3),
            "ci_width": (
                round(_ci_width(fixed.records, quantity), 4) if quantity else None
            ),
        }
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    cache = tempfile.mkdtemp(prefix="repro-bench-plan-adaptive-")
    try:
        spec = CampaignSpec(
            experiment_id=experiment_id,
            seeds=seeds,
            jobs=0,
            cache_dir=cache,
            adaptive=True,
            ci_width=ci_width,
            min_seeds=min_seeds,
            round_size=round_size,
        )
        gc.collect()
        started = time.perf_counter()
        adaptive = run_campaign(spec, progress=False)
        adaptive_wall = time.perf_counter() - started
        manifest = load_manifest(adaptive.manifest_path)
        planner = manifest.get("planner", {})
        seeds_used = max(
            (entry["consumed"] for entry in planner.get("presets", {}).values()),
            default=len(adaptive.records),
        )
        out["adaptive"] = {
            "seeds_used": seeds_used,
            "wall_seconds": round(adaptive_wall, 3),
            "ci_width": (
                round(_ci_width(adaptive.records, quantity), 4) if quantity else None
            ),
            "rounds": planner.get("rounds"),
        }
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    seeds_used = out["adaptive"]["seeds_used"]
    out["seeds_saved"] = seeds_count - seeds_used  # the ISSUE headline
    out["seed_reduction"] = (
        round(seeds_count / seeds_used, 2) if seeds_used else None
    )
    adaptive_wall = out["adaptive"]["wall_seconds"]
    out["speedup"] = (
        round(out["fixed"]["wall_seconds"] / adaptive_wall, 2)
        if adaptive_wall
        else None
    )
    fixed_width = out["fixed"]["ci_width"]
    adaptive_width = out["adaptive"]["ci_width"]
    out["both_within_target"] = (
        fixed_width is not None
        and adaptive_width is not None
        and fixed_width <= ci_width
        and adaptive_width <= ci_width
    )
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=64, metavar="N",
                        help="fixed-budget seed count the adaptive run is "
                             "measured against (default 64)")
    parser.add_argument("--ci-width", type=float, default=75.0, metavar="W",
                        help="target 95%% CI width (default 75, on E9's avg "
                             "area gap)")
    args = parser.parse_args(argv)
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)
    result = bench_planner(args.seeds, args.ci_width)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
