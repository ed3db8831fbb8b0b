"""F1 -- Figure 1: reactive resource usage pattern.

The paper's Figure 1 sketches: the application's RAM usage ramps up over
time; the DBMS responds by switching its intermediate compression from
none -> light -> heavy, shrinking its own RAM footprint at the cost of CPU
cycles.  This bench drives exactly that scenario against the real engine
(aggregation queries whose buffered intermediates go through the reactive
controller) and regenerates the figure as a time series.
"""

import numpy as np
import pytest

from conftest import record_experiment

import repro
from repro.cooperation import SimulatedApplication
from repro.storage.compression import CompressionLevel

MB = 1 << 20
TOTAL_RAM = 1024 * MB


class StepClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_database():
    # The result cache would answer the repeated query without executing
    # it, so the controller would never be consulted.
    con = repro.connect(config={"result_cache_entries": 0})
    con.execute("CREATE TABLE series (g INTEGER, v DOUBLE)")
    rng = np.random.default_rng(8)
    n = 300_000
    with con.appender("series") as appender:
        appender.append_numpy({
            "g": rng.integers(0, 64, n).astype(np.int32),
            "v": rng.normal(0, 1, n),
        })
    return con


QUERY = "SELECT g, sum(v), count(*) FROM series GROUP BY g"

#: The Figure 1 application RAM ramp: idle -> busy -> spike -> recover.
APP_PHASES = [
    (6.0, 100 * MB, 0.1),
    (6.0, 580 * MB, 0.4),
    (6.0, 900 * MB, 0.8),
    (6.0, 550 * MB, 0.4),
    (6.0, 100 * MB, 0.1),
]


def test_figure1_reactive_compression(benchmark):
    con = build_database()
    clock = StepClock()
    app = SimulatedApplication(APP_PHASES, clock=clock)
    controller = con.database.enable_reactive_resources(TOTAL_RAM, app,
                                                        clock=clock)
    names = {CompressionLevel.NONE: "none",
             CompressionLevel.LIGHT: "light",
             CompressionLevel.HEAVY: "heavy"}

    series = []
    times = []
    import time as time_module

    def run_step(step):
        clock.now = step * 3.0
        started = time_module.perf_counter()
        rows = con.execute(QUERY).fetchall()
        elapsed = time_module.perf_counter() - started
        assert len(rows) == 64
        _, sample, level = controller.decisions[-1]
        series.append((clock.now, sample.app_ram // MB,
                       sample.ram_pressure, names[level], elapsed))

    def run_all():
        series.clear()
        controller.decisions.clear()
        for step in range(10):
            run_step(step)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [f"{'time':>5} {'app RAM':>8} {'pressure':>9} "
             f"{'compression':>12} {'query time':>11}"]
    for timestamp, app_ram, pressure, level, elapsed in series:
        lines.append(f"{timestamp:5.0f} {app_ram:6d}MB {pressure:9.2f} "
                     f"{level:>12} {elapsed * 1000:9.1f}ms")
    record_experiment("F1", "Reactive resource usage pattern (paper Figure 1)",
                      lines)

    # Shape assertions: the staircase of Figure 1.
    levels = [level for _, _, _, level, _ in series]
    assert "none" in levels[:2], "idle phase should not compress"
    assert "heavy" in levels, "the spike must trigger heavy compression"
    assert levels[-1] in ("none", "light"), "pressure release must de-escalate"
    # Escalation order: first heavy occurrence comes after a light one.
    assert levels.index("light") < levels.index("heavy")

    # CPU/RAM trade-off: compressed queries pay extra CPU.
    none_times = [t for _, _, _, lvl, t in series if lvl == "none"]
    heavy_times = [t for _, _, _, lvl, t in series if lvl == "heavy"]
    assert min(heavy_times) > min(none_times), \
        "heavy compression should cost CPU time (the Figure 1 trade-off)"
    con.close()


def test_compression_shrinks_dbms_footprint(benchmark):
    """The RAM half of the trade-off: intermediates get smaller."""
    from repro.execution.intermediates import ChunkBuffer
    from repro.types import DataChunk, INTEGER

    rng = np.random.default_rng(3)
    data = (rng.integers(0, 50, 500_000)).astype(np.int32)
    chunk = DataChunk.from_numpy([data], [INTEGER])

    class Fixed:
        def __init__(self, level):
            self.level = level

        def compression_level(self):
            return self.level

    class Ctx:
        buffer_manager = None

        def __init__(self, level):
            self.controller = Fixed(level)

    sizes = {}

    def measure():
        for level in (CompressionLevel.NONE, CompressionLevel.LIGHT,
                      CompressionLevel.HEAVY):
            buffer = ChunkBuffer([INTEGER], Ctx(level))
            buffer.append(chunk)
            sizes[level] = buffer.memory_bytes()
            buffer.close()

    benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"none : {sizes[CompressionLevel.NONE]:>10,} bytes (1.00x)",
        f"light: {sizes[CompressionLevel.LIGHT]:>10,} bytes "
        f"({sizes[CompressionLevel.NONE] / sizes[CompressionLevel.LIGHT]:.2f}x smaller)",
        f"heavy: {sizes[CompressionLevel.HEAVY]:>10,} bytes "
        f"({sizes[CompressionLevel.NONE] / sizes[CompressionLevel.HEAVY]:.2f}x smaller)",
    ]
    record_experiment("F1b", "Intermediate footprint per compression level",
                      lines)
    assert sizes[CompressionLevel.LIGHT] < sizes[CompressionLevel.NONE]
    assert sizes[CompressionLevel.HEAVY] <= sizes[CompressionLevel.LIGHT]
