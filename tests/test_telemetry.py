"""Continuous telemetry: metrics history, statement accounting, capture/replay,
and telemetry export (ISSUE 10).

The process-wide metrics registry is shared across the test session, so
assertions compare *deltas* and structural invariants rather than absolute
counter values wherever another test could have moved a counter.
"""

import json
import os
import re
import threading

import pytest

import repro
from repro.config import DatabaseConfig
from repro.errors import InvalidInputError
from repro.observability import (
    JsonlTelemetrySink,
    MetricsHistory,
    StatementLog,
    StatementRecord,
    TelemetrySink,
)
from repro.observability.history import DEFAULT_INTERVAL_MS, RETENTION_TIERS
from repro.observability.metrics import registry
from repro.server import WorkloadCapture, load_capture, replay_workload


# -- metrics history ---------------------------------------------------------

#: Tiny tiers so downsampling and eviction are testable in a few appends.
TEST_TIERS = (("raw", 1, 4), ("mid", 2, 3), ("coarse", 4, 2))


def _flat(value, gauge=0.0):
    return [("queries", "counter", float(value)),
            ("inflight", "gauge", float(gauge))]


class TestMetricsHistory:
    def test_deltas_against_previous_sample(self):
        history = MetricsHistory(TEST_TIERS)
        history.record(_flat(10, gauge=5))
        sample = history.record(_flat(17, gauge=2))
        entries = {name: (value, delta)
                   for name, _, value, delta in sample.entries}
        assert entries["queries"] == (17.0, 7.0)
        assert entries["inflight"] == (2.0, -3.0)

    def test_first_sample_delta_is_full_value(self):
        history = MetricsHistory(TEST_TIERS)
        sample = history.record(_flat(10))
        assert sample.entries[0][3] == 10.0

    def test_downsampled_delta_is_sum_value_is_latest(self):
        history = MetricsHistory(TEST_TIERS)
        history.record(_flat(10, gauge=1))
        history.record(_flat(25, gauge=9))  # mid stride=2: emit here
        mid = history.samples("mid")
        assert len(mid) == 1
        entries = {name: (value, delta)
                   for name, _, value, delta in mid[0].entries}
        # value = latest raw value in the window; delta = sum of raw deltas.
        assert entries["queries"] == (25.0, 25.0)
        assert entries["inflight"] == (9.0, 9.0)

    def test_delta_conservation_across_tiers(self):
        # sum(delta) over any tier == true counter movement, any stride.
        history = MetricsHistory(TEST_TIERS)
        values = [3, 7, 7, 12, 20, 21, 30, 44]
        for value in values:
            history.record(_flat(value))
        # Per tier: sum(delta) over the retained ring == the counter's true
        # movement across the window the ring still covers, whatever the
        # stride.  raw keeps the last 4 of 8 samples (12 -> 44); mid keeps
        # the last 3 of its 4 stride-2 windows (7 -> 44); coarse keeps both
        # stride-4 windows (0 -> 44).
        expected = {"raw": 44 - 12, "mid": 44 - 7, "coarse": 44}
        for tier in ("raw", "mid", "coarse"):
            moved = sum(
                dict((name, delta)
                     for name, _, _, delta in sample.entries)["queries"]
                for sample in history.samples(tier))
            assert moved == expected[tier], tier

    def test_ring_capacity_bounds_memory(self):
        history = MetricsHistory(TEST_TIERS)
        for value in range(100):
            history.record(_flat(value))
        assert len(history.samples("raw")) == 4
        assert len(history.samples("mid")) == 3
        assert len(history.samples("coarse")) == 2
        assert history.total_samples == 100

    def test_rows_shape_and_latest(self):
        history = MetricsHistory(TEST_TIERS)
        history.record(_flat(1), timestamp=123.0)
        assert history.latest().timestamp == 123.0
        rows = history.rows()
        assert ("raw", 1, 123.0, "queries", "counter", 1.0, 1.0) in rows
        tiers = {row[0] for row in rows}
        assert tiers == {"raw"}  # strides 2/4 have not emitted yet

    def test_unknown_tier_raises(self):
        with pytest.raises(KeyError):
            MetricsHistory(TEST_TIERS).samples("minutely")

    def test_clear(self):
        history = MetricsHistory(TEST_TIERS)
        history.record(_flat(5))
        history.clear()
        assert history.rows() == []
        assert history.latest() is None
        # After clear the next delta is the full value again.
        assert history.record(_flat(5)).entries[0][3] == 5.0

    def test_default_tiers_match_documented_horizons(self):
        assert RETENTION_TIERS == (("raw", 1, 240), ("mid", 8, 180),
                                   ("coarse", 64, 120))
        # 240 raw samples at the 250 ms default cadence = the last minute.
        assert 240 * DEFAULT_INTERVAL_MS / 1000.0 == 60.0


# -- statement accounting ----------------------------------------------------

class TestStatementLog:
    @staticmethod
    def _record(seq, session=1):
        return StatementRecord(session, seq, f"SELECT {seq}",
                               wall_ms=1.0, rows_out=seq)

    def test_bounded_ring(self):
        log = StatementLog(capacity=3)
        for seq in range(1, 6):
            log.record(self._record(seq))
        assert [record.statement_seq for record in log.records()] == [3, 4, 5]
        assert log.total_recorded == 5
        assert len(log) == 3

    def test_capacity_zero_disables(self):
        log = StatementLog(capacity=0)
        log.record(self._record(1))
        assert log.records() == []
        assert log.total_recorded == 0

    def test_row_shape(self):
        log = StatementLog()
        log.record(StatementRecord(7, 3, "SELECT 1", timestamp=9.0,
                                   wall_ms=1.5, cpu_ms=0.5, rows_out=1,
                                   rows_scanned=10, vectors=2,
                                   buffer_hits=4, buffer_misses=1,
                                   memory_bytes=2048, error=""))
        assert log.rows() == [(7, 3, "SELECT 1", 9.0, 1.5, 0.5, 1, 10, 2,
                               4, 1, 2048, "")]


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

    def test_statement_log_entries_zero_disables(self):
        con = repro.connect(config={"statement_log_entries": 0})
        try:
            con.execute("SELECT 1").fetchall()
            assert con.execute(
                "SELECT count(*) FROM repro_statement_log()").fetchvalue() == 0
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


# -- system tables + sampler -------------------------------------------------

class TestTelemetryTables:
    def test_pragma_telemetry_sample_populates_history(self):
        con = repro.connect()
        try:
            con.execute("SELECT 1").fetchall()
            message = con.execute("PRAGMA telemetry_sample").fetchvalue()
            assert re.fullmatch(r"sampled \d+ metrics", message)
            rows = con.execute(
                "SELECT tier, name, kind, value, delta "
                "FROM repro_metrics_history()").fetchall()
            assert rows, "one forced sample must be queryable"
            assert {tier for tier, *_ in rows} == {"raw"}
            assert all(kind in ("counter", "gauge")
                       for _, _, kind, _, _ in rows)
        finally:
            con.close()

    def test_history_agrees_with_live_registry(self):
        con = repro.connect()
        try:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("INSERT INTO t VALUES (1), (2)")
            sample = con.database.telemetry_sample()
            # No engine activity between the sample and this snapshot, so
            # every sampled value must equal the live registry value.
            live = {name: value
                    for name, _, value in registry().flat_snapshot()}
            for name, _, value, _ in sample.entries:
                assert live[name] == value
        finally:
            con.close()

    def test_history_counters_never_exceed_repro_metrics(self):
        con = repro.connect()
        try:
            con.execute("SELECT 1").fetchall()
            con.execute("PRAGMA telemetry_sample")
            # Counters are monotonic: the sampled past <= the folded now.
            stale = con.execute(
                "SELECT count(*) FROM repro_metrics_history() h "
                "JOIN repro_metrics() m ON h.name = m.name "
                "WHERE h.kind = 'counter' AND h.value > m.value"
            ).fetchvalue()
            assert stale == 0
        finally:
            con.close()

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

    def test_sampler_lifecycle_and_interval_clamp(self):
        # Explicitly blank telemetry_path: the CI telemetry job exports
        # REPRO_TELEMETRY_PATH, which would auto-start the sampler.
        con = repro.connect(config={"telemetry_path": ""})
        try:
            sampler = con.database.telemetry
            assert not sampler.running
            sampler.start(0.0001)  # clamps to 1 ms, must not spin at 0
            assert sampler.running
            assert sampler._interval == 0.001
            sampler.start(500)  # idempotent retune
            assert sampler._interval == 0.5
            assert threading.active_count() >= 2
            sampler.stop()
            assert not sampler.running
            sampler.stop()  # idempotent
        finally:
            con.close()

    def test_background_sampler_fills_history(self):
        con = repro.connect(config={"telemetry_interval_ms": 5,
                                    "telemetry_path": ""})
        try:
            assert con.database.telemetry.running
            stop = threading.Event()
            while not stop.wait(0.01):
                if con.database.telemetry.history.total_samples >= 3:
                    break
            assert con.database.telemetry.history.total_samples >= 3
            con.execute("PRAGMA telemetry_interval_ms=0")
            assert not con.database.telemetry.running
            # History survives the sampler stopping.
            assert con.execute(
                "SELECT count(*) FROM repro_metrics_history()"
            ).fetchvalue() > 0
        finally:
            con.close()


# -- export sinks ------------------------------------------------------------

class TestTelemetryExport:
    def test_jsonl_sink_writes_samples_and_spans(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        sink = JsonlTelemetrySink(path)
        sink.emit_sample({"type": "metric_sample", "sample": 1})
        sink.emit_span({"type": "span", "span_id": 2})
        sink.close()
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert [line["type"] for line in lines] == ["metric_sample", "span"]
        assert sink.samples_written == 1
        assert sink.spans_written == 1
        sink.close()  # idempotent
        sink.emit_sample({"ignored": True})  # after close: dropped, no raise
        assert sink.samples_written == 1

    def test_base_sink_is_noop(self):
        sink = TelemetrySink()
        sink.emit_sample({})
        sink.emit_span({})
        sink.flush()
        sink.close()

    def test_pragma_telemetry_path_attaches_sink(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        con = repro.connect()
        try:
            con.execute(f"PRAGMA telemetry_path='{path}'")
            assert con.database.telemetry.running  # path implies cadence
            con.execute("SELECT 1").fetchall()
            con.execute("PRAGMA telemetry_sample")
        finally:
            con.close()
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        samples = [line for line in lines if line["type"] == "metric_sample"]
        # At least the forced sample and the final close-time sample.
        assert len(samples) >= 2
        metrics = samples[-1]["metrics"]
        assert all(set(entry) == {"kind", "value", "delta"}
                   for entry in metrics.values())

    def test_env_default_telemetry_path(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_TELEMETRY_PATH", path)
        config = DatabaseConfig.from_dict({})
        assert config.telemetry_path == path
        monkeypatch.setenv("REPRO_CAPTURE_PATH", "cap.jsonl")
        assert DatabaseConfig.from_dict({}).capture_path == "cap.jsonl"

    def test_scrape_returns_prometheus_text(self):
        with repro.serve() as server:
            with server.session("scraped") as session:
                session.execute("SELECT 1").fetchall()
            page = server.scrape()
        assert "# TYPE repro_queries_total counter" in page
        assert page.endswith("\n")

    def test_set_sink_closes_previous(self, tmp_path):
        con = repro.connect()
        try:
            first = JsonlTelemetrySink(str(tmp_path / "a.jsonl"))
            con.database.telemetry.set_sink(first)
            second = JsonlTelemetrySink(str(tmp_path / "b.jsonl"))
            con.database.telemetry.set_sink(second)
            assert first.closed
            assert not second.closed
        finally:
            con.close()
        assert second.closed  # database close flushes and closes the sink


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

    def test_flat_snapshot_matches_views(self):
        con = repro.connect()
        try:
            con.execute("SELECT 1").fetchall()
            con.database.fold_metrics()
            flat = {name: (kind, value)
                    for name, kind, value in registry().flat_snapshot()}
            for name, counter in registry().counters.items():
                assert flat[name] == ("counter", counter.value)
            for name, histogram in registry().histograms.items():
                assert flat[f"{name}_count"][1] == float(histogram.count)
                assert flat[f"{name}_sum"][1] == histogram.sum
        finally:
            con.close()


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
