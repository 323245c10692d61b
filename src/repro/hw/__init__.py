"""Simulated hardware: the multi-core TrustZone board."""

from repro._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "Cluster": "repro.hw.cluster",
    "Core": "repro.hw.core",
    "Gic": "repro.hw.gic",
    "InterruptGroup": "repro.hw.gic",
    "MemoryRegion": "repro.hw.memory",
    "PhysicalMemory": "repro.hw.memory",
    "SecureExecution": "repro.hw.monitor",
    "SecureMonitor": "repro.hw.monitor",
    "CorePerf": "repro.hw.perf",
    "DRAM_BASE": "repro.hw.platform",
    "SECURE_SRAM_BASE": "repro.hw.platform",
    "Machine": "repro.hw.platform",
    "build_machine": "repro.hw.platform",
    "RegisterFile": "repro.hw.registers",
    "SCR_EL3_IRQ_BIT": "repro.hw.registers",
    "NS_TIMER_INTID": "repro.hw.timer",
    "SECURE_TIMER_INTID": "repro.hw.timer",
    "SecureTimer": "repro.hw.timer",
    "SystemCounter": "repro.hw.timer",
    "World": "repro.hw.world",
})

__all__ = [
    "Cluster",
    "Core",
    "CorePerf",
    "DRAM_BASE",
    "Gic",
    "InterruptGroup",
    "Machine",
    "MemoryRegion",
    "NS_TIMER_INTID",
    "PhysicalMemory",
    "RegisterFile",
    "SCR_EL3_IRQ_BIT",
    "SECURE_SRAM_BASE",
    "SECURE_TIMER_INTID",
    "SecureExecution",
    "SecureMonitor",
    "SecureTimer",
    "SystemCounter",
    "World",
    "build_machine",
]
