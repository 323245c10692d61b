"""ProbeBuffer / ProbeController unit tests."""

import pytest

from repro.attacks.prober import ProbeBuffer, ProbeController
from repro.config import ProberConfig
from repro.errors import AttackError
from repro.hw.platform import build_machine
from repro.sim.distributions import Constant
from tests.conftest import small_config

TSLEEP = 2e-4


def _advance(machine, dt):
    machine.sim.schedule(dt, lambda: None)
    machine.run()


def _keep_reporting(ctrl, machine, cores, duration):
    """Simulate probe loops: each core reports every tsleep."""
    steps = max(int(duration / TSLEEP), 1)
    for _ in range(steps):
        _advance(machine, TSLEEP)
        for core in cores:
            ctrl.report(core)


def _fresh_controller(machine, **kwargs):
    """Controller with warmed-up reporters on all requested cores."""
    kwargs.setdefault("config", ProberConfig(cross_core_delay=Constant(0.0)))
    ctrl = ProbeController(machine, **kwargs)
    cores = sorted(set(ctrl.observer_cores) | set(ctrl.target_cores))
    for core in cores:
        ctrl.report(core)
    # Run past the initial distrust window with regular reporting.
    _keep_reporting(ctrl, machine, cores, 3e-3)
    return ctrl


def test_buffer_self_read_is_fresh(machine):
    config = ProberConfig(cross_core_delay=Constant(1.0))  # huge remote delay
    buffer = ProbeBuffer(machine, config)
    buffer.write(0, 123.0)
    assert buffer.read(0, 0) == 123.0  # self-read ignores visibility delay


def test_buffer_remote_read_respects_delay(machine):
    config = ProberConfig(cross_core_delay=Constant(0.5))
    buffer = ProbeBuffer(machine, config)
    buffer.write(1, 10.0)  # written at t=0
    _advance(machine, 1.0)
    buffer.write(1, 20.0)  # written at t=1
    # At t=1, visibility horizon is t-0.5=0.5: only the first entry shows.
    assert buffer.read(0, 1) == 10.0


def test_buffer_read_unknown_core(machine):
    buffer = ProbeBuffer(machine, ProberConfig())
    assert buffer.read(0, 5) is None


def test_controller_requires_observers_and_targets(machine):
    with pytest.raises(AttackError):
        ProbeController(machine, observer_cores=[], target_cores=[0])


def test_detection_on_stale_core(machine):
    ctrl = _fresh_controller(machine, threshold=1e-3)
    # Core 1 goes silent; core 0 keeps its loop running.
    _keep_reporting(ctrl, machine, [0, 2, 3, 4, 5], 0.01)
    detections = ctrl.compare(0)
    assert len(detections) == 1
    assert detections[0].suspect_core == 1
    assert detections[0].staleness >= 0.009


def test_detection_is_edge_triggered(machine):
    ctrl = _fresh_controller(machine, threshold=1e-3)
    _keep_reporting(ctrl, machine, [0, 2, 3, 4, 5], 0.01)
    assert len(ctrl.compare(0)) == 1
    _keep_reporting(ctrl, machine, [0, 2, 3, 4, 5], 0.002)
    assert ctrl.compare(0) == []  # still stale, already reported
    assert len(ctrl.detections) == 1


def test_clear_fires_when_core_reports_again(machine):
    ctrl = _fresh_controller(machine, threshold=1e-3)
    _keep_reporting(ctrl, machine, [0, 2, 3, 4, 5], 0.01)
    ctrl.compare(0)
    assert ctrl.active_suspects == frozenset({1})
    _keep_reporting(ctrl, machine, [0, 1, 2, 3, 4, 5], 5 * TSLEEP)
    ctrl.compare(0)
    assert len(ctrl.clears) == 1
    assert ctrl.clears[0].suspect_core == 1
    assert ctrl.active_suspects == frozenset()


def test_listeners_invoked(machine):
    ctrl = _fresh_controller(machine, threshold=1e-3)
    detected, cleared = [], []
    ctrl.add_detect_listener(detected.append)
    ctrl.add_clear_listener(cleared.append)
    _keep_reporting(ctrl, machine, [0, 2, 3, 4, 5], 0.01)
    ctrl.compare(0)
    _keep_reporting(ctrl, machine, [0, 1, 2, 3, 4, 5], 5 * TSLEEP)
    ctrl.compare(0)
    assert len(detected) == 1 and len(cleared) == 1


def test_self_gating_after_own_oversleep(machine):
    ctrl = _fresh_controller(machine, threshold=1e-3)
    # The OBSERVER vanishes for a long time, then reports and compares.
    _advance(machine, 0.05)
    ctrl.report(0)
    assert ctrl.compare(0) == []  # gated: its own gap is huge
    assert ctrl.gated_rounds >= 1


def test_distrust_window_after_oversleep(machine):
    config = ProberConfig(cross_core_delay=Constant(0.0))
    ctrl = _fresh_controller(machine, config=config, threshold=1e-3)
    _advance(machine, 0.05)  # everyone slept (oracle skip)
    for core in range(6):
        ctrl.report(core)
    # Second iteration: own gap normal, but inside the distrust window.
    _advance(machine, TSLEEP)
    for core in range(6):
        ctrl.report(core)
    before = ctrl.gated_rounds
    assert ctrl.compare(0) == []
    assert ctrl.gated_rounds == before + 1
    # After the window expires, sweeps resume normally.
    _keep_reporting(ctrl, machine, list(range(6)), config.distrust_window + 1e-3)
    assert ctrl.compare(0) == []  # everyone alive: no detections
    assert ctrl.gated_rounds == before + 1  # and no more gating


def test_staleness_recording(machine):
    ctrl = _fresh_controller(machine, threshold=1.0, record_staleness=True)
    _keep_reporting(ctrl, machine, list(range(6)), 2 * TSLEEP)
    ctrl.compare(0)
    assert len(ctrl.staleness_samples) == 5  # one per other core
    assert ctrl.max_staleness < 1e-3  # everyone fresh
    ctrl.reset_staleness_stats()
    assert ctrl.staleness_samples == [] and ctrl.max_staleness == 0.0


def test_pooled_staleness_prevents_re_detection_bounce(machine):
    """After any observer saw the fresh value, no observer re-detects."""
    ctrl = _fresh_controller(machine, threshold=1e-3)
    _keep_reporting(ctrl, machine, [0, 2, 3, 4, 5], 0.01)
    ctrl.compare(0)  # detect suspect 1
    _keep_reporting(ctrl, machine, [0, 1, 2, 3, 4, 5], 5 * TSLEEP)
    ctrl.compare(0)  # clear
    assert len(ctrl.clears) == 1
    assert ctrl.compare(2) == []  # observer 2 does not re-detect
    assert len(ctrl.detections) == 1


def test_one_sweep_reads_like_one_read_per_target():
    twins = [build_machine(small_config()), build_machine(small_config())]
    buffers = [ProbeBuffer(machine, ProberConfig()) for machine in twins]
    for machine, buffer in zip(twins, buffers):
        for step in range(8):  # histories of stochastic visibility
            for core in range(1, 6):
                buffer.write(core, step * 10.0 + core)
            _advance(machine, 3e-5)
    targets = [1, 2, 3, 4, 5]
    swept, read = buffers
    for _ in range(200):
        assert swept.sweep(0, targets) == [read.read(0, target) for target in targets]
    # reader's own slot and an empty slot, in target order
    swept.write(0, 99.0)
    read.write(0, 99.0)
    mixed = [3, 0, 7, 1]
    assert swept.sweep(0, mixed) == [read.read(0, target) for target in mixed]
    assert swept.sweep(0, mixed)[1:3] == [99.0, None]
