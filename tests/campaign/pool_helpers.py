"""Trial functions the pool tests resolve by import path.

They live in a real module (not a test file) so the pool's
``"module:function"`` resolution exercises the same path production uses,
and so spawn-based platforms could import them too.
"""

from __future__ import annotations

import builtins
import os
import time


def double_seed(task):
    return {"value": task["seed"] * 2}


def hang_on_flag(task):
    """Sleeps far past any test timeout when the task says so."""
    if task.get("hang"):
        time.sleep(120)
    return {"value": task["seed"]}


def exit_on_flag(task):
    """Simulates a worker killed mid-trial (OOM-kill, segfault)."""
    if task.get("crash"):
        os._exit(23)
    return {"value": task["seed"]}


def fail_once(task):
    """Fails the first attempt, succeeds the second (marker-file state)."""
    marker = task["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        raise RuntimeError("transient failure")
    return {"value": "recovered"}


def always_raise(task):
    raise ValueError(f"trial {task['key']} is broken")


def raise_named(task):
    """Raises the builtin exception the task names (any BaseException)."""
    raise getattr(builtins, task["raise_exception"])(f"trial {task['key']}")


def interrupt_at_seed_3(task):
    """Simulates the user hitting Ctrl-C partway through a sweep."""
    if task["seed"] >= 3:
        raise KeyboardInterrupt
    return {"value": task["seed"]}


def slow_double_seed(task):
    """double_seed with enough latency for cancel/progress races."""
    time.sleep(task.get("delay", 0.2))
    return {"value": task["seed"] * 2}


def seeded_comparison(task):
    """A comparison-shaped payload: one constant and one seed-dependent
    quantity, so the adaptive planner's quantity selection and CI
    tracking can run without a real experiment."""
    return {
        "comparisons": [
            {"quantity": "rounds", "paper": 19, "measured": 19},
            {
                "quantity": "gap",
                "paper": 150.0,
                "measured": 100.0 + 10.0 * task["seed"],
            },
        ]
    }
