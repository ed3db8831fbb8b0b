"""Overhead gates: tracer, profiler and telemetry must stay (nearly) free.

Three production features promise to cost next to nothing, and each
promise is held to a number on the same scan/aggregate workload:

* T2, the disabled tracer: the shipping default (instrumented
  ``PhysicalOperator.run`` with the tracer off) must stay within 2% of a
  stripped baseline where ``run`` goes straight to ``execute``, i.e. with
  even the ``is None`` check removed;
* T3, the sampling profiler: a background thread walking stacks at
  ~97 Hz, on vs off, within 3%;
* T4, continuous telemetry: the 250 ms metrics sampler plus a JSONL sink,
  on vs off, within 3%.  The statement log always records (one ring
  append per statement), so "off" means sampler and sink off, the real
  production knob.

Timing noise dominates a few-percent margin, so each variant takes the
best of several repeats over a 2M-row aggregation and each gate carries a
small absolute slack for scheduler jitter.  The result cache is off so
every repeat executes the query; a gate whose baseline drops under
``MIN_QUERY_S`` is timing something other than the query and fails.
"""

import os
import tempfile
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
#: Absolute slack on every gate, for timer and scheduler jitter.
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
          max_relative_overhead, notes=()):
    """Report one gate, then hold ``on`` to ``off`` plus the margin."""
    overhead = on / off - 1.0
    record_experiment(experiment_id, title, [
        f"rows: {ROWS}",
        f"{off_label}: {off * 1e3:.2f} ms",
        f"{on_label}: {on * 1e3:.2f} ms",
        *notes,
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


def test_profiler_overhead_under_three_percent(con):
    baseline = _best_of(con)
    con.execute("PRAGMA enable_profiling")
    try:
        profiled = _best_of(con)
    finally:
        con.execute("PRAGMA disable_profiling")
    samples = con.execute(
        "SELECT coalesce(sum(samples), 0) FROM repro_profile()").fetchvalue()
    _gate("T3", "sampling-profiler overhead",
          "profiler off", baseline, "profiler on (~97 Hz)", profiled, 0.03,
          [f"stack samples attributed: {samples}"])
    assert samples > 0, "the profiler attributed no stack to the query"


def test_telemetry_overhead_under_three_percent(con):
    baseline = _best_of(con)
    with tempfile.TemporaryDirectory() as tmp:
        sink_path = os.path.join(tmp, "telemetry.jsonl")
        con.execute(f"PRAGMA telemetry_path='{sink_path}'")
        con.execute("PRAGMA telemetry_interval_ms=250")
        try:
            telemetry = _best_of(con)
        finally:
            # Force one synchronous sample: the workload can finish inside
            # the sampler's first 250 ms wait, and the history/sink
            # assertions below need at least one data point regardless of
            # machine speed.
            con.execute("PRAGMA telemetry_sample")
            con.execute("PRAGMA telemetry_interval_ms=0")
            con.execute("PRAGMA telemetry_path=''")
        with open(sink_path, "r", encoding="utf-8") as handle:
            emitted = sum(1 for _ in handle)
    history_rows = con.execute(
        "SELECT count(*) FROM repro_metrics_history()").fetchvalue()
    statements_logged = con.execute(
        "SELECT count(*) FROM repro_statement_log()").fetchvalue()
    _gate("T4", "continuous-telemetry overhead",
          "telemetry off", baseline,
          "telemetry on (250 ms sampler + JSONL sink)", telemetry, 0.03,
          [f"history samples retained: {history_rows} rows",
           f"statements accounted: {statements_logged}",
           f"sink records emitted: {emitted}"])
    assert history_rows > 0
    assert statements_logged > 0
    assert emitted > 0
