"""Concurrency hammering of the telemetry surfaces (ISSUE 5 satellite).

MetricsRegistry, Tracer, and the introspection snapshot providers are all
read and written from parallel morsel workers plus arbitrary application
threads; these tests drive them hard from many threads at once.  Under
``REPRO_SANITIZE=1`` the whole suite doubles as a quacksan gate (see
``conftest.py``): any lock-order inversion or hold-time anomaly recorded
while these tests run fails the session, and the explicit checks below
assert no violations were recorded *by these workloads* either way.
"""

import threading

import numpy as np
import pytest

import repro
from repro import observability as obs
from repro import sanitizer
from repro.observability.accounting import (
    RECENT_ENTRIES,
    StatementLog,
    StatementRecord,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import Tracer

THREADS = 8
ITERATIONS = 300


def _hammer(worker, threads=THREADS):
    """Run ``worker(index)`` on several threads; re-raise the first error."""
    errors = []
    barrier = threading.Barrier(threads)

    def run(index):
        barrier.wait()
        try:
            worker(index)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
            raise

    pool = [threading.Thread(target=run, args=(index,))
            for index in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


def _sanitizer_violations():
    if not sanitizer.enabled():
        return []
    return sanitizer.lock_order_reports() + sanitizer.race_reports()


class TestMetricsRegistryHammer:
    def test_parallel_counters_lose_no_increments(self):
        registry = MetricsRegistry()

        def worker(index):
            counter = registry.counter("hammer_total", "test")
            gauge = registry.gauge("hammer_gauge", "test")
            histogram = registry.histogram("hammer_seconds", "test")
            for step in range(ITERATIONS):
                counter.inc()
                gauge.set(float(step))
                histogram.observe(step / 1000.0)
                registry.snapshot()

        _hammer(worker)
        snapshot = registry.snapshot()
        assert snapshot["hammer_total"] == THREADS * ITERATIONS
        assert registry.render_text()
        assert _sanitizer_violations() == []


class TestTracerHammer:
    def test_parallel_span_trees_stay_consistent(self):
        tracer = Tracer()

        def worker(index):
            for step in range(ITERATIONS):
                root = tracer.start_query(f"q-{index}-{step}")
                with tracer.span("child", kind="operator"):
                    pass
                tracer.finish_query(root, 1000, 1000)

        _hammer(worker)
        spans = tracer.spans()
        assert spans
        # Every span closed; children link to a root of their own thread.
        assert all(span.closed for span in spans)
        roots = [span for span in spans if span.kind == "query"]
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.parent_id:
                assert by_id[span.parent_id].thread_ident \
                    == span.thread_ident
        assert len(roots) <= len(spans)
        assert _sanitizer_violations() == []


class TestIntrospectionHammer:
    def test_snapshots_under_parallel_morsel_load(self):
        con = repro.connect(config={"threads": 4, "morsel_size": 4096})
        try:
            con.execute("CREATE TABLE big (g INTEGER, v INTEGER)")
            index = np.arange(200_000)
            with con.appender("big") as appender:
                appender.append_numpy({
                    "g": (index % 17).astype(np.int32),
                    "v": index.astype(np.int32),
                })
            stop = threading.Event()
            errors = []

            def churn():
                # Parallel morsel aggregation keeps worker threads busy
                # while snapshots race against them.
                worker_con = con._database.connect()
                try:
                    while not stop.is_set():
                        worker_con.execute(
                            "SELECT g, count(*), sum(v) FROM big GROUP BY g"
                        ).fetchall()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                finally:
                    worker_con.close()

            churners = [threading.Thread(target=churn) for _ in range(2)]
            for thread in churners:
                thread.start()
            try:
                def snapshotter(index):
                    snap_con = con._database.connect()
                    try:
                        for _ in range(40):
                            for fn in ("repro_metrics", "repro_tables",
                                       "repro_transactions", "repro_locks",
                                       "repro_storage", "repro_settings"):
                                snap_con.execute(
                                    f"SELECT count(*) FROM {fn}()"
                                ).fetchall()
                    finally:
                        snap_con.close()

                _hammer(snapshotter, threads=4)
            finally:
                stop.set()
                for thread in churners:
                    thread.join()
            assert errors == []
            assert _sanitizer_violations() == []
        finally:
            con.close()

    def test_statement_log_rings_race_free(self):
        # The flight dump's statements are the statement log's recent ring;
        # the slow-query log is its slow ring.  Appends racing readers must
        # lose nothing.
        log = StatementLog()

        def worker(index):
            for step in range(ITERATIONS):
                record = StatementRecord(index, step, f"SELECT {index}",
                                         wall_ms=0.1, rows_out=step)
                if step % 10 == 0:
                    record.mark_slow(0.05)
                log.record(record)
                log.records()
                log.slow()
                log.rows()

        _hammer(worker, threads=4)
        assert log.total_recorded == 4 * ITERATIONS
        assert len(log.slow()) == 4 * ITERATIONS // 10
        assert len(log.records()) == min(RECENT_ENTRIES, 4 * ITERATIONS)
        assert _sanitizer_violations() == []


@pytest.mark.skipif(not sanitizer.enabled(),
                    reason="needs REPRO_SANITIZE=1")
class TestSanitizerIntegration:
    def test_lock_statistics_visible_via_sql_after_hammer(self):
        con = repro.connect()
        try:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("INSERT INTO t VALUES (1)")
            rows = con.execute(
                "SELECT lock, acquisitions FROM repro_locks() "
                "WHERE acquisitions > 0").fetchall()
            names = {name for name, _ in rows}
            assert "transaction_manager" in names
        finally:
            con.close()
        assert _sanitizer_violations() == []
