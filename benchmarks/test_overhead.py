"""Overhead gate: the disabled tracer must stay (nearly) free.

T2: the shipping default (instrumented ``PhysicalOperator.run`` with the
tracer off) must stay within 2% of a stripped baseline where ``run`` goes
straight to ``execute``, i.e. with even the ``is None`` check removed, on
a 2M-row scan/aggregate.  Everything else the engine observes is pulled
by the host (``repro_traces()``, ``metrics_text()``, the statement log),
so no background sampler has an overhead to gate.

Timing noise dominates a few-percent margin, so each variant takes the
best of several repeats, the two variants alternating repeat by repeat so
machine drift hits both alike, and the gate carries a small absolute slack
for scheduler jitter.  The connection runs with ``trace_enabled`` off
whatever ``REPRO_TRACE`` says, and with the result cache off so every
repeat executes the query; a gate whose baseline drops under
``MIN_QUERY_S`` is timing something other than the query and fails.
"""

import time

import numpy as np
import pytest

import repro
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
        config={"threads": 1, "result_cache_entries": 0,
                "trace_enabled": False})
    connection.execute("CREATE TABLE t (g INTEGER, v INTEGER)")
    index = np.arange(ROWS)
    with connection.appender("t") as appender:
        appender.append_numpy({
            "g": (index % 29).astype(np.int32),
            "v": index.astype(np.int32),
        })
    yield connection
    connection.close()


def _time_query(con):
    start = time.perf_counter()
    con.execute(QUERY).fetchall()
    return time.perf_counter() - start


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
    # Stripped baseline: run() bypassed entirely -- no tracer lookup, no
    # ``is None`` test, exactly the pre-observability pull loop.
    variants = {"instrumented": PhysicalOperator.run,
                "baseline": lambda self: self.execute()}
    best = dict.fromkeys(variants, float("inf"))
    order = list(variants)
    for _ in range(REPEATS):
        for name in order:
            monkeypatch.setattr(PhysicalOperator, "run", variants[name])
            best[name] = min(best[name], _time_query(con))
        order.reverse()  # neither variant always runs first
    _gate("T2", "quacktrace disabled-path overhead",
          "baseline (run->execute)", best["baseline"],
          "instrumented, tracer off", best["instrumented"], 0.02)
