"""Pull-only telemetry: statement accounting, live activity and session
tables, scrape pages, and workload capture/replay.

The process-wide metrics registry is shared across the test session, so
assertions compare *deltas* and structural invariants rather than absolute
counter values wherever another test could have moved a counter.
"""

import json
import re

import pytest

import repro
from repro.config import DatabaseConfig
from repro.errors import InvalidInputError
from repro.observability import StatementLog, StatementRecord
from repro.observability.accounting import RECENT_ENTRIES
from repro.server import WorkloadCapture, load_capture, replay_workload


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
        assert log.slow() == []

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

    # The statement log feeds the flight dump and the slow-query log, so its
    # bound is a constant, not a knob that could switch them off.  The other
    # names drove the sampling profiler and the metrics-history sampler:
    # the engine starts no thread of its own, so none of them is an option
    # or a PRAGMA verb, on a direct connection or in a served session.
    @pytest.mark.parametrize("name", [
        "statement_log_entries",
        "profile_enabled", "profile_hz",
        "telemetry_interval_ms", "telemetry_path",
        "enable_profiling", "disable_profiling", "telemetry_sample",
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

    def test_slow_statement_outlives_fast_ones(self):
        con = repro.connect()
        try:
            con.execute("PRAGMA slow_query_ms = 0.0001")
            con.execute("SELECT 42").fetchall()
            con.execute("PRAGMA slow_query_ms = 0")
            for _ in range(600):
                con.execute("SELECT 1").fetchall()
            slow = [sql for (sql,) in con.execute(
                "SELECT sql FROM repro_slow_queries()").fetchall()]
            assert "SELECT 42" in slow and "SELECT 1" not in slow
            # ... although the recent ring has long since dropped it.
            assert "SELECT 42" not in {
                record.sql for record in con.database.statement_log.records()}
        finally:
            con.close()

    def test_slow_log_carries_session_and_seq(self):
        con = repro.connect(config={"slow_query_ms": 0.0001})
        try:
            con.execute("SELECT 1").fetchall()
            rows = con.execute(
                "SELECT sql, session_id, statement_seq "
                "FROM repro_slow_queries()").fetchall()
            by_sql = {sql: (session, seq) for sql, session, seq in rows}
            assert by_sql["SELECT 1"] == (0, 1)
            # The client-side view exposes the same attribution.
            record = [r for r in con.slow_queries() if r.sql == "SELECT 1"][0]
            assert (record.session_id, record.statement_seq) == (0, 1)
        finally:
            con.close()


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
    def test_env_default_capture_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAPTURE_PATH", "cap.jsonl")
        assert DatabaseConfig.from_dict({}).capture_path == "cap.jsonl"

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


# -- workload capture and replay ---------------------------------------------

class TestWorkloadCapture:
    def test_capture_enabled_requires_path(self):
        con = repro.connect()
        try:
            with pytest.raises(InvalidInputError):
                con.execute("PRAGMA capture_enabled=1")
            # The failed enable did not leave the flag set.
            assert con.database.config.capture_enabled is False
        finally:
            con.close()

    def test_capture_file_format(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        capture = WorkloadCapture(path)
        capture.emit_statement("s1", 1, 1, "SELECT ?", (42,), 1, 0.5)
        capture.emit_statement("s1", 1, 2, "PRAGMA capture_enabled=0",
                               None, 0, 0.1)
        capture.close()
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert lines[0]["type"] == "capture_start"
        statements = [line for line in lines if line["type"] == "statement"]
        # PRAGMA capture control statements are excluded from the capture
        # (replaying them would re-arm capture on the replay server).
        assert len(statements) == 1
        assert statements[0]["sql"] == "SELECT ?"
        assert statements[0]["params"] == [42]
        assert load_capture(path)[0]["seq"] == 1

    def test_server_sessions_are_captured(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        config = {"capture_enabled": True, "capture_path": path}
        with repro.serve(config=config) as server:
            with server.session("alpha") as session:
                session.execute("CREATE TABLE t (a INTEGER)")
                session.execute("INSERT INTO t VALUES (1), (2)")
                session.execute("SELECT count(*) FROM t").fetchall()
        statements = load_capture(path)
        assert [record["sql"] for record in statements] == [
            "CREATE TABLE t (a INTEGER)",
            "INSERT INTO t VALUES (1), (2)",
            "SELECT count(*) FROM t",
        ]
        assert statements[-1]["rowcount"] == 1
        assert all(record["session"] == "alpha" for record in statements)
        assert all(record["offset_s"] >= 0 for record in statements)

    def test_pragma_capture_routes_to_database_config(self, tmp_path):
        # Capture is instance-wide: enabling it from a serving session
        # (which runs on a private config copy) must still arm the
        # database-level recorder.
        path = str(tmp_path / "cap.jsonl")
        with repro.serve() as server:
            with server.session("ops") as session:
                session.execute(f"PRAGMA capture_path='{path}'")
                session.execute("PRAGMA capture_enabled=1")
                assert server.database.workload_capture is not None
                session.execute("SELECT 1").fetchall()
                session.execute("PRAGMA capture_enabled=0")
                assert server.database.workload_capture is None
        statements = load_capture(path)
        assert [record["sql"] for record in statements] == [
            "SELECT 1"]

    def test_capture_replay_round_trip_exact_parity(self, tmp_path):
        # Serial sessions mixing every statement shape a served client
        # sends: `?` and `:name` reads, single INSERTs, one executemany,
        # an UPDATE, and one statement that fails.
        path = str(tmp_path / "cap.jsonl")
        config = {"capture_enabled": True, "capture_path": path}
        with repro.serve(config=config) as server:
            with server.session("setup") as session:
                session.execute(
                    "CREATE TABLE events (id INTEGER, v DOUBLE)")
                session.executemany(
                    "INSERT INTO events VALUES (?, ?)",
                    [(i, float(i)) for i in range(20)])
            with server.session("reader") as session:
                session.execute(
                    "SELECT count(*) FROM events WHERE v > ?",
                    (5.0,)).fetchall()
                session.execute(
                    "SELECT avg(v), max(v) FROM events WHERE id < :n",
                    {"n": 10}).fetchall()
                session.execute(
                    "SELECT id, v FROM events ORDER BY id").fetchall()
            with server.session("writer") as session:
                session.execute("INSERT INTO events VALUES (?, ?)",
                                (20, 20.0))
                session.execute("INSERT INTO events VALUES (?, ?)",
                                (21, 21.0))
                session.execute(
                    "UPDATE events SET v = v + ? WHERE id < ?", (1.0, 5))
                with pytest.raises(repro.Error):
                    session.execute("SELECT missing FROM events")
            with server.session("dashboard") as session:
                session.execute(
                    "SELECT count(*), sum(v) FROM events WHERE v > :floor",
                    {"floor": 3.0}).fetchall()
                session.execute(
                    "SELECT id FROM events WHERE v >= ? ORDER BY id",
                    (19.0,)).fetchall()

        records = load_capture(path)
        assert len({record["session"] for record in records}) == 4
        assert sum(bool(record["error"]) for record in records) == 1
        assert sum(record["many"] for record in records) == 1
        report = replay_workload(path, speed="max")
        replay = report["replay"]
        assert replay["statements"] == len(records) == 11
        assert replay["matches"] == replay["statements"]
        assert replay["mismatches"] == 0
        assert replay["mismatch_samples"] == []
        serving = report["serving"]
        # The failing statement fails again on replay, and only it.
        assert serving["errors"] == 1
        assert serving["statements"] == 11
        assert serving["p99_ms"] >= serving["p50_ms"]

    def test_replay_recorded_speed_preserves_order(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        config = {"capture_enabled": True, "capture_path": path}
        with repro.serve(config=config) as server:
            with server.session("one") as session:
                session.execute("CREATE TABLE t (a INTEGER)")
                session.execute("INSERT INTO t VALUES (1)")
                session.execute("SELECT * FROM t").fetchall()
        report = replay_workload(path, speed="recorded")
        assert report["replay"]["mismatches"] == 0
        assert report["replay"]["speed"] == "recorded"

    def test_replay_reports_mismatches(self, tmp_path):
        path = str(tmp_path / "cap.jsonl")
        capture = WorkloadCapture(path)
        capture.emit_statement("s", 1, 1, "CREATE TABLE t (a INTEGER)",
                               None, 1, 0.1)
        # Recorded rowcount lies: replay must flag the divergence.
        capture.emit_statement("s", 1, 2, "SELECT * FROM t", None, 99, 0.1)
        capture.close()
        report = replay_workload(path)
        assert report["replay"]["mismatches"] == 1
        assert report["replay"]["mismatch_samples"]
