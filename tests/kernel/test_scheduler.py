"""Scheduler behaviour tests: classes, affinity, secure steals."""

import pytest

from repro.errors import SchedulingError
from repro.hw.platform import build_machine
from repro.hw.world import World
from repro.kernel.os import boot_rich_os
from repro.kernel.threads import SchedPolicy, Task, TaskState, pin_to
from repro.sim.process import Signal, cpu, sleep, wait
from tests.conftest import small_config


def _burn(amount, done, machine):
    def body(task):
        yield cpu(amount)
        done.append((task.name, machine.now))

    return body


def test_two_cfs_tasks_share_a_core_fairly(stack):
    machine, rich_os = stack
    done = []
    for name in ("a", "b"):
        rich_os.spawn(name, _burn(0.05, done, machine), affinity=pin_to(0))
    machine.run(until=1.0)
    assert len(done) == 2
    finish_a, finish_b = done[0][1], done[1][1]
    # Both needed ~0.05s CPU on a shared core: both finish near 0.1s,
    # within a couple of slices of each other.
    assert abs(finish_a - finish_b) < 0.02
    assert finish_b > 0.09


def test_fifo_task_preempts_cfs(stack):
    machine, rich_os = stack
    done = []
    rich_os.spawn("cfs", _burn(0.05, done, machine), affinity=pin_to(0))
    machine.run(until=0.01)
    rich_os.spawn_realtime("rt", _burn(0.01, done, machine), affinity=pin_to(0))
    machine.run(until=1.0)
    names = [name for name, _ in done]
    assert names == ["rt", "cfs"]  # RT finished first despite arriving later


def test_higher_priority_fifo_preempts_lower(stack):
    machine, rich_os = stack
    done = []
    rich_os.spawn_realtime("low", _burn(0.05, done, machine), priority=10,
                           affinity=pin_to(0))
    machine.run(until=0.001)
    rich_os.spawn_realtime("high", _burn(0.01, done, machine), priority=90,
                           affinity=pin_to(0))
    machine.run(until=1.0)
    assert [n for n, _ in done] == ["high", "low"]


def test_equal_priority_fifo_runs_to_completion(stack):
    machine, rich_os = stack
    done = []
    rich_os.spawn_realtime("first", _burn(0.03, done, machine), priority=50,
                           affinity=pin_to(0))
    machine.run(until=0.001)
    rich_os.spawn_realtime("second", _burn(0.01, done, machine), priority=50,
                           affinity=pin_to(0))
    machine.run(until=1.0)
    assert [n for n, _ in done] == ["first", "second"]


def test_pinned_task_freezes_while_core_in_secure_world():
    for k, realtime, counts in (
        (0, False, (22, 21, 21)),
        # A pin_to(k) FIFO task spawned without core_index, sleeping between
        # bursts beside a CFS hog: every wake must place it back on core k,
        # also while k is in the secure world.
        (3, True, (116, 15, 15)),
    ):
        machine = build_machine(small_config())
        rich_os = boot_rich_os(machine)
        progress = []

        def worker(task):
            for _ in range(100):
                yield cpu(1e-3)
                progress.append((machine.now, task.core_index))
                if realtime:
                    yield sleep(2e-4)

        def hog(task):
            while True:
                yield cpu(1e-3)

        if realtime:
            rich_os.spawn("hog", hog, affinity=pin_to(k))
            task = rich_os.spawn_realtime("pinned", worker, affinity=pin_to(k))
        else:
            task = rich_os.spawn("pinned", worker, affinity=pin_to(k))

        def payload(core):
            yield cpu(0.05)

        def short_payload(core):
            yield cpu(7e-4)

        core = machine.core(k)
        machine.run(until=0.01)
        machine.monitor.request_secure_entry(core, payload)
        machine.run(until=0.1)
        # No progress during [0.01, 0.06] while the core was in secure world.
        assert [t for t, _ in progress if 0.012 < t < 0.058] == []
        assert any(t > 0.06 for t, _ in progress)  # resumed afterwards
        # Short secure entries between the remaining bursts.
        for _ in range(20):
            machine.run_for(2.3e-3)
            if core.available_to_normal_world:
                machine.monitor.request_secure_entry(core, short_payload)
        machine.run(until=1.0)
        assert task.state is TaskState.EXITED
        assert [index for _, index in progress] == [k] * 100
        # The dispatch path's counts, unchanged by how the queue is chosen.
        assert (
            task.dispatch_count, task.preempt_count, task.secure_preempt_count
        ) == counts


def test_unpinned_task_prefers_available_cores(stack):
    machine, rich_os = stack

    def payload(core):
        yield cpu(0.05)

    machine.monitor.request_secure_entry(machine.core(0), payload)
    done = []
    task = rich_os.spawn("free", _burn(0.01, done, machine))
    machine.run(until=0.04)
    assert done and task.core_index != 0


def test_sleep_wake_cycle(stack):
    machine, rich_os = stack
    marks = []

    def sleeper(task):
        yield sleep(0.1)
        marks.append(machine.now)

    rich_os.spawn("sleeper", sleeper)
    machine.run(until=1.0)
    assert len(marks) == 1
    assert 0.1 <= marks[0] < 0.101


def test_wait_signal_delivers_payload(stack):
    machine, rich_os = stack
    sig = Signal()
    got = []

    def waiter(task):
        value = yield wait(sig)
        got.append(value)

    rich_os.spawn("waiter", waiter)
    machine.run(until=0.01)
    sig.fire("payload")
    machine.run(until=0.02)
    assert got == ["payload"]


def test_task_exit_fires_signal_and_records_value(stack):
    machine, rich_os = stack

    def body(task):
        yield cpu(1e-3)
        return 123

    task = rich_os.spawn("exiting", body)
    machine.run(until=0.1)
    assert task.state is TaskState.EXITED
    assert task.exit_value == 123
    assert task.exited_signal.fire_count == 1


def _empty_body(task):
    return
    yield  # pragma: no cover


def test_spawn_twice_rejected(stack):
    machine, rich_os = stack
    task = Task("t", _empty_body)
    rich_os.scheduler.spawn(task)
    with pytest.raises(SchedulingError):
        rich_os.scheduler.spawn(task)


def test_affinity_violation_rejected(stack):
    machine, rich_os = stack
    task = Task("t", _empty_body, affinity=pin_to(1))
    with pytest.raises(SchedulingError):
        rich_os.scheduler.spawn(task, core_index=0)


def test_secure_preemption_counted_and_penalised(stack):
    machine, rich_os = stack

    def worker(task):
        for _ in range(200):
            yield cpu(1e-3)

    task = rich_os.spawn("w", worker, affinity=pin_to(0))
    machine.run(until=0.01)

    def payload(core):
        yield cpu(0.01)

    machine.monitor.request_secure_entry(machine.core(0), payload)
    machine.run(until=0.1)
    assert task.secure_preempt_count == 1
    assert task.preempt_count >= 1


def test_steal_time_extends_wall_clock(stack):
    machine, rich_os = stack
    done = []
    rich_os.spawn("w", _burn(0.01, done, machine), affinity=pin_to(0))
    machine.run(until=0.001)
    rich_os.scheduler.steal_time(0, 0.005)
    machine.run(until=0.1)
    # 10ms of CPU plus 5ms stolen: finishes after 15ms.
    assert done[0][1] >= 0.015


def test_cpu_time_accounting(stack):
    machine, rich_os = stack
    done = []
    task = rich_os.spawn("w", _burn(0.02, done, machine))
    machine.run(until=0.5)
    assert abs(task.total_cpu - 0.02) < 1e-9


def test_current_task_visibility(stack):
    machine, rich_os = stack

    def worker(task):
        yield cpu(0.05)

    task = rich_os.spawn("w", worker, affinity=pin_to(2))
    machine.run(until=0.01)
    assert rich_os.scheduler.current_task(2) is task
