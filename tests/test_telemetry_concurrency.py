"""Concurrency hammering of the telemetry surfaces (ISSUE 5 satellite).

The statement metrics, Tracer, and the introspection snapshot providers
are all read and written from parallel morsel workers plus arbitrary
application threads; these tests drive them hard from many threads at
once.  Under ``REPRO_SANITIZE=1`` the whole suite doubles as a quacksan
gate (see ``conftest.py``): any lock-order inversion or hold-time anomaly
recorded while these tests run fails the session, and the explicit checks
below assert no violations were recorded *by these workloads* either way.
"""

import contextlib
import os
import sys
import threading

import numpy as np
import pytest

import repro
from repro import sanitizer
from repro.cooperation.controller import ReactiveController
from repro.cooperation.monitor import ResourceMonitor, SimulatedApplication
from repro.observability.accounting import (
    RECENT_ENTRIES,
    StatementLog,
    StatementRecord,
)
from repro.observability.trace import Tracer
from repro.server import QueryServer

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
        thread.join(timeout=300)
        assert not thread.is_alive(), "a hammer thread did not finish"
    if errors:
        raise errors[0]


@contextlib.contextmanager
def _frequent_switches():
    """Switch threads every 10 µs, so an unguarded read-modify-write of a
    shared count loses updates within a few hundred iterations."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _sanitizer_violations():
    if not sanitizer.enabled():
        return []
    return sanitizer.lock_order_reports() + sanitizer.race_reports()


class TestMetricsHammer:
    def test_parallel_statements_count_exactly(self):
        # One database, one connection per thread: every statement is
        # counted once, by the statement log, whatever thread records it.
        con = repro.connect(config={"trace_enabled": False})
        try:
            con.execute("CREATE TABLE t (i INTEGER)")
            con.execute("INSERT INTO t VALUES (1), (2)")
            database = con.database
            before = con.metrics()

            def worker(index):
                own = database.connect()
                try:
                    for step in range(ITERATIONS):
                        assert len(own.execute(
                            "SELECT i FROM t").fetchall()) == 2
                        if step % 50 == 0:
                            own.metrics()
                            own.metrics_text()
                finally:
                    own.close()

            with _frequent_switches():
                _hammer(worker)
            after = con.metrics()
            statements = THREADS * ITERATIONS
            assert after["repro_queries_total"] \
                - before["repro_queries_total"] == statements
            assert after["repro_statement_seconds"]["count"] \
                - before["repro_statement_seconds"]["count"] == statements
            assert after["repro_rows_returned_total"] \
                - before["repro_rows_returned_total"] == 2 * statements
            assert after["repro_queries_total"] \
                == database.statement_log.total_recorded
        finally:
            con.close()
        assert _sanitizer_violations() == []

    def test_worker_degrades_count_exactly(self, monkeypatch):
        # Every admitting session thread asks the controller for a worker
        # count; each shrunk pool must be counted once.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        controller = ReactiveController(ResourceMonitor(
            1 << 30, lambda: 0, SimulatedApplication([(1000.0, 0, 1.0)])))

        def worker(index):
            for _ in range(ITERATIONS):
                assert controller.choose_worker_count(4) == 1

        with _frequent_switches():
            _hammer(worker)
        assert controller.worker_degrades == THREADS * ITERATIONS


class TestMetricsReadTheirOwners:
    def test_each_metric_equals_its_owner(self, tmp_path):
        con = repro.connect(str(tmp_path / "owners.qdb"))
        try:
            con.execute("CREATE TABLE t (i INTEGER)")
            con.execute("INSERT INTO t VALUES (1), (2), (3)")
            # No engine read path consults the block cache yet; touch it
            # directly so its counters are not trivially 0 == 0.
            buffers = con.database.buffer_manager
            buffers.cache_block(7, b"payload")
            buffers.get_cached_block(7)
            buffers.get_cached_block(8)
            server = QueryServer(con.database)
            with server.session("owners") as session:
                for value in (0, 1, 1):
                    session.execute("SELECT count(*) FROM t WHERE i > ?",
                                    (value,)).fetchall()
                session.execute("INSERT INTO t VALUES (4)")
                con.execute("CHECKPOINT")
                # One statement reads both tables: no cache lookup or
                # statement lands between them.
                owners = dict(con.execute(
                    "SELECT name, value FROM repro_storage() UNION ALL "
                    "SELECT name, value FROM repro_serving()").fetchall())
                metrics = con.metrics()
            assert metrics["repro_block_cache_misses_total"] == 1
            assert metrics["repro_plan_cache_hits_total"] > 0
            assert metrics["repro_checkpoints_total"] == 1
            for metric, owner in (
                ("repro_block_cache_hits_total", "block_cache_hits"),
                ("repro_block_cache_misses_total", "block_cache_misses"),
                ("repro_block_cache_evictions_total",
                 "block_cache_evictions"),
                ("repro_buffer_used_bytes", "buffer_used_bytes"),
                ("repro_checkpoints_total", "checkpoints_written"),
                ("repro_checkpoint_bytes_written_total",
                 "last_checkpoint_bytes"),
                ("repro_plan_cache_hits_total", "plan_cache.hits"),
                ("repro_plan_cache_misses_total", "plan_cache.misses"),
                ("repro_plan_cache_evictions_total", "plan_cache.evictions"),
                ("repro_plan_cache_invalidations_total",
                 "plan_cache.invalidations"),
                ("repro_result_cache_hits_total", "result_cache.hits"),
                ("repro_result_cache_misses_total", "result_cache.misses"),
                ("repro_result_cache_evictions_total",
                 "result_cache.evictions"),
                ("repro_admission_admitted_total", "admission.admitted"),
                ("repro_admission_waits_total", "admission.waits"),
                ("repro_admission_timeouts_total", "admission.timeouts"),
                ("repro_queries_active", "admission.active"),
                ("repro_sessions_active", "sessions.active"),
            ):
                assert metrics[metric] == owners[owner], metric
            assert metrics["repro_queries_total"] \
                == con.database.statement_log.total_recorded
        finally:
            con.close()


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
        # Every per-statement surface reads the statement log's one ring.
        # Appends racing readers must lose nothing.
        log = StatementLog()

        def worker(index):
            for step in range(ITERATIONS):
                log.record(StatementRecord(index, step, f"SELECT {index}",
                                           wall_ms=0.1, rows_out=step))
                log.records()
                log.rows()
                log.totals()

        _hammer(worker, threads=4)
        assert log.total_recorded == 4 * ITERATIONS
        assert log.totals()[1] == 4 * sum(range(ITERATIONS))
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
