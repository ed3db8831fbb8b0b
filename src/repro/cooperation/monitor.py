"""Resource monitoring: what the DBMS and the co-resident app consume.

Paper §4: *"An embedded OLAP system can monitor resource usage of all other
running applications and then tweak its run-time behavior accordingly, such
that the DBMS will use the resources that are under-utilized at the
moment."*

Two sources are combined:

* the engine's own usage, read from the buffer manager's accounting;
* the *application's* usage.  On a real deployment this would come from OS
  introspection; for reproducible experiments the
  :class:`SimulatedApplication` replays a scripted RAM/CPU profile -- which
  is precisely the scenario Figure 1 sketches.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Tuple

__all__ = ["read_process_rss", "SimulatedApplication", "ResourceMonitor",
           "ResourceSample"]


def read_process_rss() -> int:
    """Resident set size of this process in bytes (Linux; 0 if unknown)."""
    try:
        with open("/proc/self/status", "r") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    parts = line.split()
                    return int(parts[1]) * 1024
    except OSError:
        pass
    return 0


class SimulatedApplication:
    """A co-resident application with a scripted resource profile.

    ``phases`` is a list of ``(duration_seconds, ram_bytes, cpu_fraction)``.
    The profile repeats after the last phase ends.  A custom ``clock`` makes
    the profile fully deterministic in tests.
    """

    def __init__(self, phases: List[Tuple[float, int, float]],
                 clock: Optional[Callable[[], float]] = None) -> None:
        if not phases:
            raise ValueError("SimulatedApplication needs at least one phase")
        self.phases = phases
        self._clock = clock or time.monotonic
        self._start = self._clock()
        self.total_duration = sum(duration for duration, _, _ in phases)

    def _current_phase(self) -> Tuple[float, int, float]:
        elapsed = (self._clock() - self._start) % self.total_duration
        for duration, ram, cpu in self.phases:
            if elapsed < duration:
                return duration, ram, cpu
            elapsed -= duration
        return self.phases[-1]

    def ram_usage(self) -> int:
        return self._current_phase()[1]

    def cpu_usage(self) -> float:
        return self._current_phase()[2]


class ResourceSample:
    """One snapshot of machine-wide resource usage."""

    __slots__ = ("timestamp", "app_ram", "dbms_ram", "app_cpu", "total_ram")

    def __init__(self, timestamp: float, app_ram: int, dbms_ram: int,
                 app_cpu: float, total_ram: int) -> None:
        self.timestamp = timestamp
        self.app_ram = app_ram
        self.dbms_ram = dbms_ram
        self.app_cpu = app_cpu
        self.total_ram = total_ram

    @property
    def ram_pressure(self) -> float:
        """Fraction of total RAM in use by app + DBMS together."""
        if self.total_ram <= 0:
            return 0.0
        return (self.app_ram + self.dbms_ram) / self.total_ram

    def __repr__(self) -> str:
        return (f"ResourceSample(app={self.app_ram >> 20}MiB, "
                f"dbms={self.dbms_ram >> 20}MiB, "
                f"pressure={self.ram_pressure:.2f})")


class ResourceMonitor:
    """Samples app + DBMS usage against a total-memory budget."""

    def __init__(self, total_ram: int, dbms_usage: Callable[[], int],
                 application: Optional[SimulatedApplication] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.total_ram = total_ram
        self._dbms_usage = dbms_usage
        self.application = application
        self._clock = clock or time.monotonic
        self.history: List[ResourceSample] = []

    def sample(self) -> ResourceSample:
        app_ram = self.application.ram_usage() if self.application else 0
        app_cpu = self.application.cpu_usage() if self.application else 0.0
        snapshot = ResourceSample(self._clock(), app_ram, self._dbms_usage(),
                                  app_cpu, self.total_ram)
        self.history.append(snapshot)
        return snapshot

    def lock_stats(self) -> dict:
        """Per-lock acquisition/contention/hold-time statistics.

        Populated only while the quacksan sanitizer is enabled
        (``REPRO_SANITIZE=1``); empty otherwise.  Keys are lock-hierarchy
        names (``connection``, ``table_data``, ...), values the dicts from
        :meth:`repro.sanitizer.LockStats.as_dict`.
        """
        from ..sanitizer import lock_statistics

        return {name: stats.as_dict()
                for name, stats in sorted(lock_statistics().items())}
