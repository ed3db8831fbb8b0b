"""Pull-only telemetry: statement accounting, live activity and session
tables, and scrape pages.

The process-wide metrics registry is shared across the test session, so
assertions compare *deltas* and structural invariants rather than absolute
counter values wherever another test could have moved a counter.
"""

import dataclasses
import pathlib
import re

import pytest

import repro
from repro.config import DatabaseConfig
from repro.errors import InvalidInputError
from repro.observability import StatementLog, StatementRecord
from repro.observability.accounting import RECENT_ENTRIES

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


# -- statement accounting ----------------------------------------------------

class TestStatementLog:
    @staticmethod
    def _record(seq, session=1):
        return StatementRecord(session, seq, f"SELECT {seq}",
                               wall_ms=1.0, rows_out=seq)

    def test_bounded_ring(self):
        log = StatementLog()
        for seq in range(1, RECENT_ENTRIES + 3):
            log.record(self._record(seq))
        assert [record.statement_seq for record in log.records()] \
            == list(range(3, RECENT_ENTRIES + 3))
        assert log.total_recorded == RECENT_ENTRIES + 2
        assert len(log) == RECENT_ENTRIES

    def test_row_shape(self):
        log = StatementLog()
        log.record(StatementRecord(7, 3, "SELECT 1", timestamp=9.0,
                                   wall_ms=1.5, cpu_ms=0.5, rows_out=1,
                                   rows_scanned=10, vectors=2,
                                   buffer_hits=4, buffer_misses=1,
                                   memory_bytes=2048, error=""))
        assert log.rows() == [(7, 3, "SELECT 1", 9.0, 1.5, 0.5, 1, 10, 2,
                               4, 1, 2048, "", 0)]


class TestStatementAccounting:
    def test_connection_statements_attributed_in_sequence(self):
        con = repro.connect()
        try:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("INSERT INTO t VALUES (1), (2), (3)")
            con.execute("SELECT * FROM t").fetchall()
            rows = con.execute(
                "SELECT session_id, statement_seq, sql, rows_out "
                "FROM repro_statement_log()").fetchall()
            # Direct (serverless) connections bill to session 0.
            assert [row[0] for row in rows] == [0, 0, 0]
            assert [row[1] for row in rows] == [1, 2, 3]
            assert rows[2][2] == "SELECT * FROM t"
            assert rows[2][3] == 3
        finally:
            con.close()

    def test_accounting_fields_populated(self):
        con = repro.connect()
        try:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.executemany("INSERT INTO t VALUES (?)",
                            [(i,) for i in range(1000)])
            con.execute("SELECT sum(a) FROM t").fetchall()
            record = con.database.statement_log.records()[-1]
            assert record.sql == "SELECT sum(a) FROM t"
            assert record.rows_out == 1
            assert record.rows_scanned >= 1000
            assert record.wall_ms > 0
            assert record.vectors > 0
            assert record.memory_bytes > 0
            assert record.error == ""
        finally:
            con.close()

    def test_memory_bytes_is_the_statements_own_peak(self):
        # The same statement bills the same memory whatever ran before it.
        distinct = "SELECT g, count(DISTINCT v) FROM t GROUP BY g"
        larger = "SELECT g, v, sum(v), avg(v) FROM t GROUP BY g, v"
        bills = []
        for order in ((distinct, larger), (larger, distinct)):
            con = repro.connect(config={"threads": 1,
                                        "result_cache_entries": 0})
            con.execute("CREATE TABLE t (g INTEGER, v INTEGER)")
            con.executemany("INSERT INTO t VALUES (?, ?)",
                            [(i % 7, i % 101) for i in range(3000)])
            for sql in order:
                con.execute(sql).fetchall()
            records = {record.sql: record.memory_bytes
                       for record in con.database.statement_log.records()}
            bills.append(records[distinct])
            con.close()
        assert bills[0] == bills[1] > 0

    def test_failed_statement_billed_with_error(self):
        con = repro.connect()
        try:
            with pytest.raises(Exception):
                con.execute("SELECT * FROM no_such_table")
            rows = con.execute(
                "SELECT sql, error FROM repro_statement_log()").fetchall()
            assert any("no_such_table" in sql and error != ""
                       for sql, error in rows)
        finally:
            con.close()

    # The statement log feeds every per-statement surface, so its bound is
    # a constant, not a knob that could switch them off.  The other names
    # drove the sampling profiler, the metrics-history sampler, workload
    # capture, the slow-query log and the crash flight dump: the engine
    # starts no thread and writes no file of its own, and the embedding
    # host reads statement history, slow statements included, from
    # repro_statement_log(), so none of them is an option or a PRAGMA verb,
    # on a direct connection or in a served session.
    @pytest.mark.parametrize("name", [
        "statement_log_entries",
        "profile_enabled", "profile_hz",
        "telemetry_interval_ms", "telemetry_path",
        "enable_profiling", "disable_profiling", "telemetry_sample",
        "capture_enabled", "capture_path",
        "slow_query_ms", "flight_dump",
    ])
    def test_removed_option_raises(self, name):
        with pytest.raises(InvalidInputError):
            repro.connect(config={name: 1})
        con = repro.connect()
        try:
            for pragma in (f"PRAGMA {name}", f"PRAGMA {name} = 1"):
                with pytest.raises(InvalidInputError):
                    con.execute(pragma)
        finally:
            con.close()
        with repro.serve() as server:
            with server.session("ops") as session:
                for pragma in (f"PRAGMA {name}", f"PRAGMA {name} = 1"):
                    with pytest.raises(InvalidInputError):
                        session.execute(pragma)

    def test_knobs_and_env_vars_are_documented(self):
        # The DatabaseConfig docstring has one entry per config field, and
        # the README names exactly the REPRO_* variables the engine reads:
        # none missing, none stale.
        documented = set(re.findall(r"^    (\w+):$", DatabaseConfig.__doc__,
                                    re.M))
        assert documented == {
            field.name for field in dataclasses.fields(DatabaseConfig)}
        read = {name
                for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
                for name in re.findall(
                    r"os\.environ\.get\(\s*[\"'](REPRO_[A-Z_]+)",
                    path.read_text(encoding="utf-8"))}
        assert read, "the scan must find the engine's REPRO_* variables"
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert set(re.findall(r"REPRO_[A-Z_]+", readme)) == read


# -- live system tables ------------------------------------------------------

class TestTelemetryTables:
    def test_activity_observes_running_statement(self):
        with repro.serve() as server:
            with server.session("watcher") as session:
                rows = session.execute(
                    "SELECT session_id, name, sql, phase, statement_seq, "
                    "elapsed_ms FROM repro_activity()").fetchall()
                # The watcher's own in-flight SELECT is the busy statement.
                assert len(rows) == 1
                session_id, name, sql, phase, seq, elapsed = rows[0]
                assert name == "watcher"
                assert "repro_activity" in sql
                assert phase == "executing"
                assert seq >= 1
                assert elapsed >= 0
                # Idle again after the statement finished.
                assert session.execute(
                    "SELECT count(*) FROM repro_activity()"
                ).fetchvalue() == 1  # still self-observing
        con = repro.connect()
        try:
            assert con.execute(
                "SELECT count(*) FROM repro_activity()").fetchvalue() == 0
        finally:
            con.close()

    def test_sessions_expose_resource_accounting(self):
        with repro.serve() as server:
            with server.session("worker") as session:
                session.execute("CREATE TABLE t (a INTEGER)")
                session.executemany("INSERT INTO t VALUES (?)",
                                    [(i,) for i in range(500)])
                session.execute("SELECT sum(a) FROM t").fetchall()
                row = session.execute(
                    "SELECT statements, wall_ms, cpu_ms, rows_scanned, "
                    "peak_memory FROM repro_sessions() "
                    "WHERE name = 'worker'").fetchone()
                statements, wall_ms, cpu_ms, rows_scanned, peak = row
                # CREATE + executemany (one statement, whatever its 500
                # items) + SELECT sum + the in-flight repro_sessions query
                # itself.
                assert statements == 4
                assert wall_ms > 0
                assert rows_scanned >= 500
                assert peak > 0
                stats = session.stats()
                # stats() runs after the snapshot query finished and was
                # itself folded in, so it can only have grown since.
                assert stats["rows_scanned"] >= rows_scanned
                # Session ids attribute the statement log per session.
                logged = session.execute(
                    "SELECT DISTINCT session_id FROM repro_statement_log() "
                    "WHERE sql LIKE 'INSERT INTO t%'").fetchall()
                assert logged == [(session.session_id,)]


# -- getting telemetry out ---------------------------------------------------

class TestTelemetryExport:
    def test_scrape_returns_prometheus_text(self):
        with repro.serve() as server:
            with server.session("scraped") as session:
                session.execute("SELECT 1").fetchall()
            page = server.scrape()
        assert "# TYPE repro_queries_total counter" in page
        assert page.endswith("\n")


# -- metrics_text round-trip -------------------------------------------------

_BUCKET_RE = re.compile(r'^(\w+)_bucket\{le="([^"]+)"\} (\d+)$')


class TestMetricsTextRoundTrip:
    def test_histogram_cumulative_buckets_round_trip(self):
        con = repro.connect()
        try:
            for value in range(50):
                con.execute("SELECT ?", [value]).fetchall()
            text = con.metrics_text()
            snapshot = con.metrics()
        finally:
            con.close()

        buckets = {}
        scalars = {}
        for line in text.splitlines():
            match = _BUCKET_RE.match(line)
            if match:
                name, bound, count = match.groups()
                buckets.setdefault(name, []).append(
                    (float(bound), int(count)))
                continue
            if line.startswith("#") or " " not in line:
                continue
            metric, value = line.rsplit(" ", 1)
            if "{" not in metric:
                scalars[metric] = float(value)

        assert buckets, "the latency histogram must render buckets"
        for name, pairs in buckets.items():
            bounds = [bound for bound, _ in pairs]
            counts = [count for _, count in pairs]
            # Bounds ascend and end at +Inf; counts are cumulative.
            assert bounds == sorted(bounds)
            assert bounds[-1] == float("inf")
            assert counts == sorted(counts)
            # The +Inf bucket IS the _count scalar, and both match the
            # programmatic snapshot exactly.
            assert counts[-1] == scalars[f"{name}_count"]
            assert snapshot[name]["count"] == counts[-1]
            rendered = dict(pairs)
            for bound, cumulative in snapshot[name]["buckets"].items():
                assert rendered[bound] == cumulative
            assert scalars[f"{name}_sum"] == pytest.approx(
                snapshot[name]["sum"])
