"""Overhead gate: the disabled tracer must stay (nearly) free.

T2: the shipping default (instrumented ``PhysicalOperator.run`` with the
tracer off) must stay within 2% of a stripped baseline where ``run`` goes
straight to ``execute``, i.e. with even the ``is None`` check removed, on
a 2M-row scan/aggregate.  Everything else the engine observes is pulled
by the host (``repro_traces()``, ``metrics_text()``, the statement log),
so no background sampler has an overhead to gate.

Timing noise dominates a few-percent margin, so each variant takes the
best of several repeats and the gate carries a small absolute slack for
scheduler jitter.  The result cache is off so every repeat executes the
query; a gate whose baseline drops under ``MIN_QUERY_S`` is timing
something other than the query and fails.
"""

import time

import numpy as np
import pytest

import repro
from repro import observability as obs
from repro.execution.physical import PhysicalOperator

from conftest import record_experiment

ROWS = 2_000_000
REPEATS = 7
QUERY = "SELECT g, count(*), sum(v) FROM t WHERE v % 7 != 0 GROUP BY g"
#: Absolute slack on the gate, for timer and scheduler jitter.
ABSOLUTE_SLACK_S = 0.005
#: A baseline faster than this did not run the 2M-row aggregation.
MIN_QUERY_S = 0.010


@pytest.fixture(scope="module")
def con():
    connection = repro.connect(
        config={"threads": 1, "result_cache_entries": 0})
    connection.execute("CREATE TABLE t (g INTEGER, v INTEGER)")
    index = np.arange(ROWS)
    with connection.appender("t") as appender:
        appender.append_numpy({
            "g": (index % 29).astype(np.int32),
            "v": index.astype(np.int32),
        })
    yield connection
    connection.close()


def _best_of(con):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        con.execute(QUERY).fetchall()
        best = min(best, time.perf_counter() - start)
    return best


def _gate(experiment_id, title, off_label, off, on_label, on,
          max_relative_overhead):
    """Report one gate, then hold ``on`` to ``off`` plus the margin."""
    overhead = on / off - 1.0
    record_experiment(experiment_id, title, [
        f"rows: {ROWS}",
        f"{off_label}: {off * 1e3:.2f} ms",
        f"{on_label}: {on * 1e3:.2f} ms",
        f"relative overhead: {overhead * 100:+.2f}%",
        f"gate: <= {max_relative_overhead * 100:.0f}%"])
    assert off >= MIN_QUERY_S, (
        f"{off_label} took {off * 1e3:.2f} ms: the gate is not timing "
        f"the {ROWS}-row query")
    assert on <= off * (1.0 + max_relative_overhead) + ABSOLUTE_SLACK_S, (
        f"{title}: {overhead * 100:.2f}% exceeds the "
        f"{max_relative_overhead * 100:.0f}% gate "
        f"({off_label} {off * 1e3:.2f} ms, {on_label} {on * 1e3:.2f} ms)")


def test_disabled_tracer_overhead_under_two_percent(con, monkeypatch):
    was_enabled = obs.tracing_enabled()
    obs.disable_tracing()
    try:
        instrumented = _best_of(con)
        # Stripped baseline: run() bypassed entirely -- no tracer lookup,
        # no ``is None`` test, exactly the pre-observability pull loop.
        monkeypatch.setattr(PhysicalOperator, "run",
                            lambda self: self.execute())
        baseline = _best_of(con)
    finally:
        if was_enabled:
            obs.enable_tracing()
    _gate("T2", "quacktrace disabled-path overhead",
          "baseline (run->execute)", baseline,
          "instrumented, tracer off", instrumented, 0.02)
