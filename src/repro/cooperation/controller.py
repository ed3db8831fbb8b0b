"""The reactive resource controller (paper §4/§6, Figure 1).

The controller is consulted at run time by the engine's memory-hungry
components:

* :class:`~repro.execution.intermediates.ChunkBuffer` asks for the current
  :class:`~repro.storage.compression.CompressionLevel` before buffering a
  chunk -- rising application RAM usage moves the answer from NONE through
  LIGHT to HEAVY, trading DBMS CPU cycles for machine-wide RAM headroom
  (exactly Figure 1's pattern);
* the physical planner asks :meth:`choose_join_algorithm` whether a hash
  join's build side still fits, or whether the plan should fall back to the
  out-of-core merge join.

The default :class:`StaticController` reproduces the non-cooperative
baseline: full speed, no adaptation.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from ..storage.compression import CompressionLevel
from .monitor import ResourceMonitor, ResourceSample

__all__ = ["StaticController", "ReactiveController",
           "LIGHT_PRESSURE_THRESHOLD", "HEAVY_PRESSURE_THRESHOLD"]

#: RAM pressure (app + DBMS over total) above which light compression starts.
LIGHT_PRESSURE_THRESHOLD = 0.5
#: Pressure above which the controller escalates to heavy compression.
HEAVY_PRESSURE_THRESHOLD = 0.8


class StaticController:
    """Non-adaptive baseline: fixed compression level, always hash join."""

    #: Never switches or degrades; the counts mirror ReactiveController's.
    level_switches = 0
    worker_degrades = 0

    def __init__(self, level: CompressionLevel = CompressionLevel.NONE) -> None:
        self._level = level
        self.decisions: List[Tuple[float, CompressionLevel]] = []

    def compression_level(self) -> CompressionLevel:
        return self._level

    def choose_join_algorithm(self, estimated_build_bytes: int) -> str:
        return "hash"

    def choose_worker_count(self, requested: int) -> int:
        """Non-cooperative baseline: grant whatever ``threads`` asks for."""
        return max(1, requested)


class ReactiveController:
    """Adapts engine behaviour to observed machine-wide resource pressure."""

    def __init__(self, monitor: ResourceMonitor,
                 light_threshold: float = LIGHT_PRESSURE_THRESHOLD,
                 heavy_threshold: float = HEAVY_PRESSURE_THRESHOLD,
                 hysteresis: float = 0.05) -> None:
        self.monitor = monitor
        self.light_threshold = light_threshold
        self.heavy_threshold = heavy_threshold
        self.hysteresis = hysteresis
        self._last_level = CompressionLevel.NONE
        #: (timestamp, sample, level) decision trace -- the series Figure 1 plots.
        self.decisions: List[Tuple[float, ResourceSample, CompressionLevel]] = []
        #: Compression-level changes and shrunk worker pools (the
        #: ``repro_compression_level_switches_total`` and
        #: ``repro_worker_degrade_total`` metrics).  Every admitting session
        #: thread asks for a worker count, so the counts move under a lock.
        self._count_lock = threading.Lock()
        self.level_switches = 0
        self.worker_degrades = 0

    def compression_level(self) -> CompressionLevel:
        """Pick the intermediate-compression level for current pressure.

        Hysteresis keeps the controller from oscillating when pressure
        hovers at a threshold: stepping *down* requires the pressure to
        clear the threshold by an extra margin.
        """
        sample = self.monitor.sample()
        pressure = sample.ram_pressure
        level = self._last_level
        if pressure >= self.heavy_threshold:
            level = CompressionLevel.HEAVY
        elif pressure >= self.light_threshold:
            if self._last_level is CompressionLevel.HEAVY \
                    and pressure >= self.heavy_threshold - self.hysteresis:
                level = CompressionLevel.HEAVY
            else:
                level = CompressionLevel.LIGHT
        else:
            if self._last_level is not CompressionLevel.NONE \
                    and pressure >= self.light_threshold - self.hysteresis:
                level = self._last_level if self._last_level is CompressionLevel.LIGHT \
                    else CompressionLevel.LIGHT
            else:
                level = CompressionLevel.NONE
        if level is not self._last_level:
            with self._count_lock:
                self.level_switches += 1
        self._last_level = level
        self.decisions.append((sample.timestamp, sample, level))
        return level

    def choose_join_algorithm(self, estimated_build_bytes: int) -> str:
        """Hash join while the build fits comfortably; merge join under pressure.

        The paper: *"If the DBMS detects that the application currently uses
        a large amount of main memory but not a lot of CPU cores, it can
        switch to merge join to reduce the load on RAM and use CPU cores and
        the disk instead."*
        """
        sample = self.monitor.sample()
        headroom = sample.total_ram - sample.app_ram - sample.dbms_ram
        if estimated_build_bytes > max(headroom, 0) * 0.8:
            return "merge"
        return "hash"

    def choose_worker_count(self, requested: int) -> int:
        """Degrade parallelism while the application is burning CPU.

        The cooperation requirement (§4) says the CPU cores belong to the
        application first: when the co-resident application occupies a
        fraction of the machine's cores, the morsel worker pool shrinks to
        roughly the cores left idle (never below one -- the query must still
        make progress).
        """
        import os

        sample = self.monitor.sample()
        cores = os.cpu_count() or 1
        app_cpu = min(max(sample.app_cpu, 0.0), 1.0)
        free_cores = int(cores * (1.0 - app_cpu))
        granted = max(1, min(requested, free_cores))
        if granted < requested:
            with self._count_lock:
                self.worker_degrades += 1
        return granted
