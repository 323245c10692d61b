"""Releasing a trial's simulated memory when the trial ends.

A finished machine is a reference cycle, so without an explicit release
its DRAM mapping and SRAM backing wait for the cyclic collector.  These
tests run with the collector off: whatever is freed here is freed by
reference counting alone.
"""

import gc
import os
import sys
import threading
import weakref

import pytest

from repro import build_machine, juno_r1_config
from repro.campaign.trials import run_experiment_trial
from repro.errors import MemoryAccessError
from repro.experiments import report
from repro.hw import platform
from repro.hw.platform import DRAM_BASE, SECURE_SRAM_BASE, trial_scope
from repro.hw.world import World
from repro.kernel import image
from repro.obs.metrics import active_registry, use_registry


@pytest.fixture
def no_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def closed_backings(monkeypatch):
    """Weak references to every backing (array and mapping) closed."""
    refs = []
    close = platform.Machine.close

    def recording_close(machine):
        for region in machine.memory.regions:
            backing = region._backing
            if backing is not None:
                refs.append(weakref.ref(backing))
                if backing.base is not None:  # the copy-on-write mmap
                    refs.append(weakref.ref(backing.base))
        close(machine)

    monkeypatch.setattr(platform.Machine, "close", recording_close)
    return refs


def open_fds():
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        pytest.skip("no /proc/self/fd on this platform")


def assert_released(machine):
    memory = machine.memory
    for access in (
        lambda: memory.read(DRAM_BASE, 4, World.SECURE),
        lambda: memory.write(DRAM_BASE, b"x", World.SECURE),
        lambda: memory.view(SECURE_SRAM_BASE, 4, World.SECURE),
        lambda: memory.copy(DRAM_BASE, SECURE_SRAM_BASE, 4, World.SECURE),
    ):
        with pytest.raises(MemoryAccessError, match="released"):
            access()


@pytest.mark.parametrize("experiment", ["E1", "E9"])
def test_trial_frees_every_backing_and_fd_without_the_collector(
    experiment, no_collector, closed_backings
):
    run_experiment_trial({"experiment_id": "E1", "seed": 1})  # warm the image cache
    closed_backings.clear()
    fds = open_fds()
    payload = run_experiment_trial({"experiment_id": experiment, "seed": 2019})
    assert payload["rendered"]
    # DRAM array, its image mapping, SRAM array: three per machine
    assert len(closed_backings) >= 3
    assert [ref for ref in closed_backings if ref() is not None] == []
    assert open_fds() == fds


def test_without_memfd_a_temporary_file_backs_the_same_template(
    no_collector, monkeypatch
):
    reference = run_experiment_trial({"experiment_id": "E1", "seed": 2019})
    memfd_templates = image._CONTENT_CACHE
    monkeypatch.delattr(os, "memfd_create")
    templates = {}
    monkeypatch.setattr(image, "_CONTENT_CACHE", templates)
    try:
        run_experiment_trial({"experiment_id": "E1", "seed": 1})  # warm the cache
        fds = open_fds()
        payload = run_experiment_trial({"experiment_id": "E1", "seed": 2019})
        assert open_fds() == fds
        assert payload["rendered"] == reference["rendered"]
        [(key, template)] = templates.items()
        _, size, _, offset = key
        assert os.pread(template.fileno(), size, offset) == os.pread(
            memfd_templates[key].fileno(), size, offset
        )
    finally:
        for template in templates.values():
            template.close()


def test_a_trial_that_raises_still_releases_its_machines(monkeypatch):
    built = []

    def failing(experiment_id, seed, full):
        built.append(build_machine(juno_r1_config(seed=seed)))
        raise RuntimeError("trial failed")

    monkeypatch.setattr(report, "run_experiment", failing)
    with pytest.raises(RuntimeError, match="trial failed"):
        run_experiment_trial({"experiment_id": "E1", "seed": 3})
    assert len(built) == 1
    assert_released(built[0])


def test_access_after_close_raises_and_close_is_idempotent():
    machine = build_machine(juno_r1_config(seed=4))
    machine.memory.write(DRAM_BASE, b"live", World.NORMAL)
    machine.close()
    assert_released(machine)
    machine.close()
    assert_released(machine)


def test_a_machine_built_outside_any_scope_is_untouched():
    outside = build_machine(juno_r1_config(seed=5))
    with trial_scope() as machines:
        inside = build_machine(juno_r1_config(seed=6))
    assert machines == [inside]
    assert_released(inside)
    outside.memory.write(DRAM_BASE, b"kept", World.NORMAL)
    assert outside.memory.read(DRAM_BASE, 4, World.NORMAL) == b"kept"


def test_concurrent_thread_trials_release_only_their_own_machines(monkeypatch):
    """Trial 1 ends while trial 2 is still running on another thread."""
    real = report.run_experiment
    machines = {}
    both_built = threading.Barrier(2, timeout=30)
    first_done = threading.Event()
    second_sees = {}

    def interleaved(experiment_id, seed, full):
        machines[seed] = build_machine(juno_r1_config(seed=seed))
        result = real(experiment_id, seed=seed, full=full)
        both_built.wait()
        if seed == 2:
            first_done.wait(30)
            second_sees["first_released"] = machines[1].memory.released
            second_sees["own_released"] = machines[2].memory.released
        return result

    monkeypatch.setattr(report, "run_experiment", interleaved)
    payloads = {}

    def trial(seed):
        payloads[seed] = run_experiment_trial({"experiment_id": "E1", "seed": seed})
        if seed == 1:
            first_done.set()

    threads = [threading.Thread(target=trial, args=(seed,)) for seed in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    assert second_sees == {"first_released": True, "own_released": False}
    assert sorted(payloads) == [1, 2]
    assert machines[1].memory.released and machines[2].memory.released


def test_thread_scopes_stay_apart_under_fast_switching():
    """More threads than cores, each with its own registry and trial scope."""
    errors = []

    def worker(index):
        for round_ in range(8):
            with use_registry() as registry, trial_scope() as machines:
                machine = build_machine(juno_r1_config(seed=100 * index + round_))
                if machine.metrics is not registry or active_registry() is not registry:
                    errors.append((index, round_, "registry"))
                if machines != [machine]:
                    errors.append((index, round_, "scope"))
            if not machine.memory.released:
                errors.append((index, round_, "not released"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_a_scope_collects_unreachable_machines_built_outside_scopes(no_collector):
    dropped = weakref.ref(build_machine(juno_r1_config(seed=7)))
    assert dropped() is not None  # a reference cycle: only the collector frees it
    with trial_scope():
        assert dropped() is None
