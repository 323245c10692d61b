"""KProber-I / KProber-II / user-level prober integration tests.

These run against live SATIN instances on the small machine.
"""

import pytest

from repro.attacks.kprober1 import EVIL_IRQ_HANDLER, KProberI, kprober1_threshold
from repro.attacks.kprober2 import KProberII
from repro.attacks.oracle import ProberAccelerationOracle
from repro.attacks.prober import ProbeThreads
from repro.attacks.user_prober import UserLevelProber
from repro.core.satin import install_satin
from repro.hw.world import World
from repro.kernel.threads import FIFO_PRIORITY_MAX, SchedPolicy
from repro.kernel.vectors import IRQ_VECTOR_INDEX


def test_kprober2_detects_every_round(fast_juno_stack):
    machine, rich_os = fast_juno_stack
    satin = install_satin(machine, rich_os)
    prober = KProberII(machine, rich_os, oracle=ProberAccelerationOracle(machine))
    prober.install()
    machine.run(until=satin.policy.tp * 12)
    rounds = satin.round_count
    assert rounds >= 8
    assert abs(len(prober.controller.detections) - rounds) <= 1
    assert prober.controller.gated_rounds >= 0


def test_kprober2_no_false_positives_without_introspection(stack):
    machine, rich_os = stack
    prober = KProberII(machine, rich_os).install()
    machine.run(until=2.0)  # dense probing, nothing secure running
    assert prober.controller.detections == []


@pytest.mark.parametrize("cls, prefix, policy, priority", [
    (KProberII, "kprober2", SchedPolicy.FIFO, FIFO_PRIORITY_MAX),
    (UserLevelProber, "uprober", SchedPolicy.CFS, 0),
])
def test_sleep_loop_probers_pin_one_thread_per_core(stack, cls, prefix, policy, priority):
    machine, rich_os = stack
    prober = cls(machine, rich_os).install()
    assert isinstance(prober, ProbeThreads)
    assert [t.name for t in prober.threads] == [f"{prefix}-{c.index}" for c in machine.cores]
    assert {(t.policy, t.priority) for t in prober.threads} == {(policy, priority)}
    assert [t.affinity for t in prober.threads] == [frozenset({c.index}) for c in machine.cores]


def test_kprober2_double_install_rejected(stack):
    machine, rich_os = stack
    prober = KProberII(machine, rich_os).install()
    with pytest.raises(Exception):
        prober.install()


def test_kprober2_uninstall_stops_threads(stack):
    machine, rich_os = stack
    prober = KProberII(machine, rich_os).install()
    machine.run(until=0.1)
    prober.uninstall()
    machine.run(until=0.2)
    iterations = prober.iterations
    machine.run(until=0.5)
    assert prober.iterations == iterations  # no further activity


def test_kprober2_detection_latency_is_milliseconds(fast_juno_stack):
    machine, rich_os = fast_juno_stack
    satin = install_satin(machine, rich_os)
    prober = KProberII(machine, rich_os,
                       oracle=ProberAccelerationOracle(machine)).install()
    machine.run(until=satin.policy.tp * 8)
    entries = [r.time for r in machine.trace.records("monitor")
               if r.message == "secure entry begins"]
    detections = sorted(d.time for d in prober.controller.detections)
    latencies = []
    for entry in entries:
        later = [d for d in detections if d >= entry]
        if later:
            latencies.append(later[0] - entry)
    assert latencies
    # Tns_delay ~ Tns_sched + Tns_threshold ~= 2e-3.
    assert all(1e-3 < lat < 4e-3 for lat in latencies)


def test_user_prober_detects_with_higher_threshold(fast_juno_stack):
    machine, rich_os = fast_juno_stack
    satin = install_satin(machine, rich_os)
    prober = UserLevelProber(machine, rich_os,
                             oracle=ProberAccelerationOracle(machine)).install()
    machine.run(until=satin.policy.tp * 10)
    assert satin.round_count >= 6
    assert len(prober.controller.detections) >= satin.round_count - 2


def test_user_prober_unprivileged_no_kernel_trace(stack):
    machine, rich_os = stack
    prober = UserLevelProber(machine, rich_os).install()
    machine.run(until=0.2)
    # No kernel static memory was touched: vectors and syscalls pristine.
    assert not rich_os.vector_table.is_hijacked(IRQ_VECTOR_INDEX)


def test_kprober1_patches_and_restores_vector(stack):
    machine, rich_os = stack
    prober = KProberI(machine, rich_os).install()
    assert rich_os.vector_table.is_hijacked(IRQ_VECTOR_INDEX)
    assert rich_os.vector_table.read_entry(
        IRQ_VECTOR_INDEX, World.SECURE
    ) == EVIL_IRQ_HANDLER
    prober.uninstall()
    assert not rich_os.vector_table.is_hijacked(IRQ_VECTOR_INDEX)


def test_kprober1_reports_via_tick_hooks(stack):
    machine, rich_os = stack
    prober = KProberI(machine, rich_os).install()
    machine.run(until=0.5)
    assert prober.hook_invocations > 50  # spinners keep ticks alive


def test_kprober1_detects_whole_kernel_introspection(juno_stack):
    """Tick-granularity probing catches the ~0.1 s whole-kernel freezes.

    (It cannot catch SATIN's millisecond rounds — they are shorter than
    the tick period, which is exactly the divide-and-conquer guarantee.)
    """
    from repro.secure.baseline import pkm_like

    machine, rich_os = juno_stack
    engine = pkm_like(machine, rich_os, period=1.0, core_index=0).install()
    prober = KProberI(machine, rich_os,
                      observer_cores=[1, 2], target_cores=[0]).install()
    machine.run(until=3.5)
    assert engine.round_count >= 3
    assert len(prober.controller.detections) >= engine.round_count - 1


def test_kprober1_cannot_see_satin_rounds(stack):
    """SATIN's sub-tick-period rounds are invisible to KProber-I."""
    machine, rich_os = stack
    satin = install_satin(machine, rich_os)
    prober = KProberI(machine, rich_os).install()
    machine.run(until=satin.policy.tp * 8)
    assert satin.round_count >= 5
    assert len(prober.controller.detections) == 0


def test_kprober1_threshold_scales_with_hz():
    assert kprober1_threshold(250) == pytest.approx(0.01)
    assert kprober1_threshold(1000) < kprober1_threshold(100)
