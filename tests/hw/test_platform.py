"""Machine assembly tests."""

import pytest

from repro.config import juno_r1_config
from repro.errors import ConfigurationError
from repro.hw.platform import DRAM_BASE, SECURE_SRAM_BASE, build_machine
from repro.hw.world import World
from repro.sim.process import cpu
from tests.conftest import small_config


def test_juno_has_six_cores_in_two_clusters():
    machine = build_machine(juno_r1_config())
    assert len(machine.cores) == 6
    assert [c.name for c in machine.clusters] == ["LITTLE", "big"]
    assert machine.cluster("LITTLE").core_indices == [0, 1, 2, 3]
    assert machine.cluster("big").core_indices == [4, 5]


def test_little_and_big_core_helpers():
    machine = build_machine(juno_r1_config())
    assert machine.little_core().cluster_name == "LITTLE"
    assert machine.big_core().cluster_name == "big"
    assert machine.big_core().index == 4


def test_memory_map_layout():
    machine = build_machine(small_config())
    assert machine.dram.base == DRAM_BASE and not machine.dram.secure
    assert machine.secure_sram.base == SECURE_SRAM_BASE and machine.secure_sram.secure


def test_unknown_cluster_raises():
    machine = build_machine(small_config())
    with pytest.raises(ConfigurationError):
        machine.cluster("MEDIUM")


def test_secure_world_active_tracks_core_state():
    for second_entry, switch_fault in (
        (None, None),
        (0.5005, None),  # core 1 enters while core 0 is still secure
        (0.5005, 2e-3),  # and every world switch takes 2 ms longer
    ):
        machine = build_machine(small_config())
        assert not machine.secure_world_active()
        census = []

        def check(_time, _seq, machine=machine, census=census):
            # The monitor's open entries against a scan of every core.
            scanned = any(
                c.world is World.SECURE or c.transitioning for c in machine.cores
            )
            assert machine.secure_world_active() == scanned
            census.append(scanned)

        machine.sim.set_fire_hook(check)

        def payload(core):
            yield cpu(1e-3)

        machine.monitor.register_secure_handler(29, payload)
        if switch_fault is not None:
            machine.monitor.switch_fault = lambda core, extra=switch_fault: extra
        machine.core(0).secure_timer.program_wakeup(0.5, World.SECURE)
        if second_entry is not None:
            machine.core(1).secure_timer.program_wakeup(second_entry, World.SECURE)
        machine.run(until=0.5001)
        assert machine.secure_world_active()
        machine.run(until=0.6)
        assert not machine.secure_world_active()
        assert True in census and False in census


def test_next_secure_timer_fire_is_minimum():
    machine = build_machine(small_config())
    assert machine.next_secure_timer_fire() is None
    machine.core(0).secure_timer.program_wakeup(2.0, World.SECURE)
    machine.core(1).secure_timer.program_wakeup(1.0, World.SECURE)
    assert abs(machine.next_secure_timer_fire() - 1.0) < 1e-7


def test_secure_timer_interrupt_wired_to_monitor():
    machine = build_machine(small_config())
    entered = []

    def payload(core):
        entered.append(core.index)
        yield cpu(1e-6)

    machine.monitor.register_secure_handler(29, payload)
    machine.core(3).secure_timer.program_wakeup(0.1, World.SECURE)
    machine.run(until=0.2)
    assert entered == [3]


def test_core_timings_match_clusters():
    config = juno_r1_config()
    timings = config.core_timings()
    assert len(timings) == 6
    assert timings[0].name == "Cortex-A53"
    assert timings[5].name == "Cortex-A57"


def test_cluster_core_indices_config_helper():
    config = juno_r1_config()
    assert config.cluster_core_indices("big") == (4, 5)
    with pytest.raises(ConfigurationError):
        config.cluster_core_indices("nope")
