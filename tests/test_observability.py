"""quacktrace: spans, per-database metrics, EXPLAIN ANALYZE.

Tracing is per database: each ``Database`` owns one ``Tracer`` and a
statement is traced when its connection's config has ``trace_enabled``.
Tests that need spans turn it on for their own connection (the ``traced``
fixture, or ``config={"trace_enabled": True}``); tests that need none say
``trace_enabled: False`` explicitly, since the CI trace job runs the whole
suite under ``REPRO_TRACE=1``.
"""

import numpy as np
import pytest

import repro
from repro.observability import (
    Metric,
    Tracer,
    render_span_tree,
    worker_summary,
)
from repro.observability.metrics import render_text, snapshot
from repro.observability.trace import CAPACITY
from repro.server import QueryServer


class TestSpanCore:
    def test_span_tree_identity(self):
        tracer = Tracer()
        root = tracer.start_query("SELECT 1")
        child = tracer.start_span("child", kind="operator")
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id == root.span_id
        tracer.end_span(child)
        tracer.finish_query(root, wall_ns=1000, cpu_ns=500)
        assert tracer.current() is None
        spans = tracer.trace(root.trace_id)
        assert [span.name for span in spans] == ["child", "SELECT 1"]

    def test_end_span_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("once")
        tracer.end_span(span)
        tracer.end_span(span)
        assert len(tracer) == 1

    def test_span_context_manager_times_and_closes(self):
        tracer = Tracer()
        root = tracer.start_query("INSERT INTO t VALUES (1)")
        with tracer.span("wal.commit_group", kind="wal") as span:
            assert tracer.current() is span
        assert span.closed
        assert span.parent_id == root.span_id
        assert span.wall_ns >= 0
        assert tracer.current() is root
        tracer.finish_query(root, 0, 0)

    def test_span_outside_a_traced_statement_is_a_shared_noop(self):
        # Outside a traced statement the WAL and checkpoint paths pay one
        # thread-local read: the same shared no-op context every time.
        tracer = Tracer()
        first = tracer.span("checkpoint", kind="checkpoint")
        second = tracer.span("wal.commit_group", kind="wal")
        assert first is second
        with first as span:
            assert span is None
        assert len(tracer) == 0

    def test_sink_is_a_ring_buffer(self):
        tracer = Tracer()
        for i in range(CAPACITY + 2):
            tracer.end_span(tracer.start_span(f"s{i}"))
        assert len(tracer) == CAPACITY
        names = [span.name for span in tracer.spans()]
        assert names[0] == "s2" and names[-1] == f"s{CAPACITY + 1}"

    def test_trace_filters_by_trace_id(self):
        tracer = Tracer()
        a = tracer.start_query("A")
        tracer.finish_query(a, 0, 0)
        b = tracer.start_query("B")
        tracer.finish_query(b, 0, 0)
        assert [s.name for s in tracer.trace(a.trace_id)] == ["A"]
        assert [s.name for s in tracer.trace(b.trace_id)] == ["B"]


def _query_roots(database):
    return [span.name for span in database.tracer.spans()
            if span.kind == "query"]


class TestPerDatabaseTracing:
    def test_untraced_connection_records_no_spans(self):
        con = repro.connect(config={"trace_enabled": False})
        try:
            assert con.execute("SELECT 41 + 1").fetchvalue() == 42
            assert len(con.database.tracer) == 0
            assert con.execute(
                "SELECT count(*) FROM repro_traces()").fetchvalue() == 0
        finally:
            con.close()

    def test_served_session_pragma_traces_only_that_session(self):
        with repro.serve(config={"trace_enabled": False}) as server:
            with server.session("traced") as traced_session, \
                    server.session("plain") as plain:
                traced_session.execute("PRAGMA trace_enabled = 1")
                traced_session.execute("SELECT 1 AS traced").fetchall()
                plain.execute("SELECT 2 AS plain").fetchall()
                assert _query_roots(server.database) == ["SELECT 1 AS traced"]
                assert server.database.config.trace_enabled is False

    def test_pragma_off_stops_new_spans(self):
        con = repro.connect(config={"trace_enabled": True})
        try:
            con.execute("SELECT 1").fetchall()
            con.execute("PRAGMA trace_enabled = 0")
            recorded = len(con.database.tracer)
            for _ in range(3):
                con.execute("SELECT 2").fetchall()
            assert len(con.database.tracer) == recorded
            # What was recorded stays readable with tracing off.
            assert con.execute(
                "SELECT count(*) FROM repro_traces() WHERE name = 'SELECT 1'"
            ).fetchvalue() == 1
        finally:
            con.close()

    def test_second_database_holds_none_of_the_first_databases_spans(self):
        first = repro.connect(config={"trace_enabled": True})
        second = repro.connect(config={"trace_enabled": False})
        try:
            first.execute("SELECT 1").fetchall()
            assert _query_roots(first.database) == ["SELECT 1"]
            assert second.execute(
                "SELECT count(*) FROM repro_traces()").fetchvalue() == 0
        finally:
            first.close()
            second.close()

    def test_traced_insert_nests_wal_commit_group(self, tmp_path):
        con = repro.connect(str(tmp_path / "wal.qdb"),
                            config={"trace_enabled": True})
        try:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("INSERT INTO t VALUES (1), (2)")
            spans = con.database.tracer.spans()
            (root,) = [span for span in spans if span.kind == "query"
                       and span.name.startswith("INSERT")]
            (wal,) = [span for span in spans
                      if span.name == "wal.commit_group"
                      and span.trace_id == root.trace_id]
            assert wal.kind == "wal" and wal.parent_id == root.span_id
            assert wal.attrs["records"] == 1 and wal.attrs["bytes"] > 0
            # A bare CHECKPOINT is no traced statement: it records nothing.
            recorded = len(con.database.tracer)
            con.execute("CHECKPOINT")
            assert len(con.database.tracer) == recorded
        finally:
            con.close()

    def test_statement_log_joins_repro_traces_on_trace_id(self):
        con = repro.connect(config={"trace_enabled": True})
        try:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("INSERT INTO t VALUES (1), (2), (3)")
            sql = "SELECT sum(a) FROM t"
            con.execute(sql).fetchall()
            joined = con.execute(
                "SELECT s.span_id FROM repro_statement_log() l "
                "JOIN repro_traces() s ON s.trace_id = l.trace_id "
                "WHERE l.sql = ?", [sql]).fetchall()
            (record,) = [record for record
                         in con.database.statement_log.records()
                         if record.sql == sql]
            spans = con.database.tracer.trace(record.trace_id)
            assert record.trace_id == spans[-1].span_id  # the root
            assert len(spans) > 1
            assert sorted(span_id for (span_id,) in joined) \
                == sorted(span.span_id for span in spans)
            con.execute("PRAGMA trace_enabled = 0")
            con.execute(sql).fetchall()
            assert con.database.statement_log.records()[-1].trace_id == 0
        finally:
            con.close()


class TestQueryTracing:
    def test_statement_produces_query_rooted_span_tree(self, traced,
                                                       populated):
        populated.execute("SELECT i, d FROM sample WHERE i > 1").fetchall()
        spans = traced.spans()
        roots = [s for s in spans if s.kind == "query"]
        assert roots, "no query root span was recorded"
        root = roots[-1]
        operators = [s for s in spans
                     if s.kind == "operator" and s.trace_id == root.trace_id]
        assert operators, "no operator spans attached to the query root"
        by_id = {s.span_id for s in operators} | {root.span_id}
        assert all(s.parent_id in by_id for s in operators)
        assert root.wall_ns > 0
        assert any(s.rows > 0 for s in operators)

    def test_traced_statement_folded_to_no_rows(self, traced, populated):
        # WHERE 1 = 0 lowers to an EMPTY operator, which the tracer wraps
        # and closes like any other.
        assert populated.execute(
            "SELECT i FROM sample WHERE 1 = 0").fetchall() == []
        assert any(s.kind == "operator" and s.name == "EMPTY"
                   for s in traced.spans())

    def test_streaming_result_closes_query_span(self, traced, populated):
        result = populated.execute("SELECT i FROM sample", stream=True)
        assert result.fetchone() is not None
        result.close()
        roots = [s for s in traced.spans() if s.kind == "query"]
        assert roots and roots[-1].closed

    def test_explain_analyze_reports_operator_profile(self, populated):
        text = "\n".join(row[0] for row in populated.execute(
            "EXPLAIN ANALYZE SELECT s, count(*) FROM sample GROUP BY s"
        ).fetchall())
        assert "-- execution statistics --" in text
        assert "result rows: 4" in text
        assert "-- operator profile (quacktrace) --" in text
        assert "rows_out=" in text

    def test_traced_explain_analyze_as_first_statement_keeps_its_spans(self):
        # The database's tracer holds no span yet, yet it is the tracer a
        # traced ANALYZE must profile into.
        con = repro.connect(config={"trace_enabled": True})
        try:
            con.execute("EXPLAIN ANALYZE SELECT 1").fetchall()
            (trace_id,) = con.execute(
                "SELECT trace_id FROM repro_traces() "
                "WHERE name = 'explain analyze'").fetchone()
            assert con.execute(
                "SELECT count(*) FROM repro_traces() "
                "WHERE kind = 'operator' AND trace_id = ?",
                [trace_id]).fetchvalue() > 0
        finally:
            con.close()

    def test_explain_analyze_does_not_enable_global_tracing(self):
        # ANALYZE profiles an untraced statement with a private tracer: the
        # database's ring stays empty, before and after.
        con = repro.connect(config={"trace_enabled": False})
        try:
            con.execute("EXPLAIN ANALYZE SELECT 1").fetchall()
            con.execute("SELECT 1").fetchall()
            assert len(con.database.tracer) == 0
        finally:
            con.close()


class TestRender:
    def _spans(self):
        tracer = Tracer()
        root = tracer.start_query("SELECT ...")
        op = tracer.start_span("SEQ_SCAN sample", kind="operator")
        op.rows = 100
        op.add_timing(2_000_000, 1_000_000)
        tracer.end_span(op)
        tracer.finish_query(root, 3_000_000, 1_500_000)
        return tracer.trace(root.trace_id), root

    def test_render_span_tree(self):
        spans, root = self._spans()
        lines = render_span_tree(spans, root)
        assert any("SEQ_SCAN sample" in line for line in lines)
        assert any("rows_out=100" in line for line in lines)

    def test_worker_summary_groups_by_thread(self):
        tracer = Tracer()
        root = tracer.start_query("Q")
        for rows in (10, 20):
            morsel = tracer.start_span("morsel", kind="morsel")
            morsel.rows = rows
            tracer.end_span(morsel)
        tracer.finish_query(root, 0, 0)
        summary = worker_summary(tracer.trace(root.trace_id))
        assert len(summary) == 1
        _, morsels, rows = summary[0]
        assert (morsels, rows) == (2, 30)


class TestMetrics:
    def test_counter_gauge_histogram_snapshot(self):
        snap = snapshot([
            Metric("queries", "counter", "q", 3.0),
            Metric("buffer", "gauge", "", 42.0),
            Metric("latency", "histogram", "", {
                "count": 1, "sum": 0.5, "buckets": {0.1: 0, 1.0: 1}}),
        ])
        assert snap["queries"] == 3
        assert snap["buffer"] == 42.0
        assert snap["latency"]["count"] == 1
        assert snap["latency"]["buckets"][1.0] == 1
        assert snap["latency"]["buckets"][0.1] == 0

    def test_render_text_is_prometheus_format(self):
        text = render_text([
            Metric("repro_queries_total", "counter", "Statements executed",
                   1.0),
            Metric("repro_statement_seconds", "histogram", "latency",
                   {"count": 1, "sum": 0.05, "buckets": {0.1: 1}}),
        ])
        assert "# HELP repro_queries_total Statements executed" in text
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_queries_total 1" in text
        assert 'repro_statement_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_statement_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_statement_seconds_count 1" in text
        assert text.endswith("\n")

    def test_connection_metrics_counts_statements(self, populated):
        before = populated.metrics()["repro_queries_total"]
        populated.execute("SELECT i FROM sample").fetchall()
        metrics = populated.metrics()
        assert metrics["repro_queries_total"] == before + 1
        assert metrics["repro_statement_seconds"]["count"] == before + 1
        assert "repro_buffer_used_bytes" in metrics

    def test_rows_returned_counter(self, populated):
        before = populated.metrics()["repro_rows_returned_total"]
        populated.execute("SELECT i FROM sample").fetchall()
        after = populated.metrics()["repro_rows_returned_total"]
        assert after == before + 5

    def test_connection_metrics_text(self, populated):
        populated.execute("SELECT 1").fetchall()
        text = populated.metrics_text()
        assert "# TYPE repro_queries_total counter" in text


class TestMetricsArePerDatabase:
    """Two databases in one process: B's metrics show none of A's work.

    A is file-backed and runs statements, plan-cache hits and an INSERT
    that writes the WAL; B, in memory, runs nothing but its own reads.
    """

    #: Counters A's work moves; each must read 0 on B.
    A_WORK = ("repro_queries_total", "repro_rows_returned_total",
              "repro_plan_cache_hits_total", "repro_wal_bytes_written_total",
              "repro_wal_commit_groups_total")

    @pytest.fixture
    def pair(self, db_path):
        a = repro.connect(db_path, config={"trace_enabled": False})
        b = repro.connect(config={"trace_enabled": False})
        try:
            a.execute("CREATE TABLE t (i INTEGER)")
            a.execute("INSERT INTO t VALUES (1), (2), (3)")
            for value in range(5):
                a.execute("SELECT i FROM t WHERE i > ?", [value]).fetchall()
            metrics = a.metrics()
            assert all(metrics[name] > 0 for name in self.A_WORK), metrics
            yield a, b
        finally:
            b.close()
            a.close()

    def test_connection_metrics(self, pair):
        _, b = pair
        metrics = b.metrics()
        assert {name: metrics[name] for name in self.A_WORK} \
            == dict.fromkeys(self.A_WORK, 0)
        assert metrics["repro_statement_seconds"]["count"] == 0

    def test_repro_metrics_table(self, pair):
        _, b = pair
        rows = dict(b.execute(
            "SELECT name, value FROM repro_metrics()").fetchall())
        assert {name: rows[name] for name in self.A_WORK} \
            == dict.fromkeys(self.A_WORK, 0)
        assert rows["repro_statement_seconds_count"] == 0

    def test_server_scrape(self, pair):
        _, b = pair
        page = QueryServer(b.database).scrape().splitlines()
        for name in self.A_WORK:
            assert f"{name} 0" in page

    def test_every_name_present_from_open(self):
        con = repro.connect()
        try:
            metrics = con.metrics()
        finally:
            con.close()
        counters = [name for name, value in metrics.items()
                    if name.endswith("_total") and not isinstance(value, dict)]
        assert len(counters) == 21
        assert all(metrics[name] == 0 for name in counters)
        for gauge in ("repro_sessions_active", "repro_queries_active",
                      "repro_buffer_used_bytes"):
            assert gauge in metrics
        assert metrics["repro_statement_seconds"]["count"] == 0


class TestExpositionFormat:
    """The text format's escaping rules, held to a round trip.

    A scraper unescapes label values by the Prometheus spec: ``\\\\`` ->
    backslash, ``\\"`` -> quote, ``\\n`` -> newline.  Rendering then
    unescaping must recover the original value exactly -- the spec's own
    definition of correct escaping.
    """

    @staticmethod
    def _unescape(value):
        out = []
        index = 0
        while index < len(value):
            char = value[index]
            if char == "\\" and index + 1 < len(value):
                nxt = value[index + 1]
                out.append({"\\": "\\", '"': '"', "n": "\n"}[nxt])
                index += 2
            else:
                out.append(char)
                index += 1
        return "".join(out)

    @pytest.mark.parametrize("raw", [
        'plain',
        'with "quotes"',
        "back\\slash",
        "new\nline",
        'every\\thing "at\nonce\\"',
        '\\n',  # literal backslash-n must not collapse into a newline
    ])
    def test_label_value_round_trip(self, raw):
        from repro.observability.metrics import _render_labels

        rendered = _render_labels({"lock": raw})
        assert rendered.startswith('{lock="') and rendered.endswith('"}')
        inner = rendered[len('{lock="'):-len('"}')]
        # The rendered form is a single physical line ...
        assert "\n" not in inner
        # ... and unescaping recovers the original value exactly.
        assert self._unescape(inner) == raw

    def test_non_finite_values_render_per_spec(self):
        from repro.observability.metrics import _format_value

        assert _format_value(float("inf")) == "+Inf"
        assert _format_value(float("-inf")) == "-Inf"
        assert _format_value(float("nan")) == "NaN"
        assert _format_value(3.0) == "3"
        assert _format_value(3.5) == "3.5"

    def test_non_finite_gauge_renders_without_raising(self):
        text = render_text([Metric("g_inf", "gauge", "", float("inf")),
                            Metric("g_nan", "gauge", "", float("nan"))])
        assert "g_inf +Inf" in text
        assert "g_nan NaN" in text


class TestParallelTracing:
    def test_morsel_spans_carry_worker_identity(self):
        rows = 50_000  # several morsels' worth (morsels align to scan chunks)
        con = repro.connect(config={"threads": 4, "morsel_size": 16384,
                                    "trace_enabled": True})
        try:
            con.execute("CREATE TABLE big (i INTEGER)")
            with con.appender("big") as appender:
                appender.append_numpy(
                    {"i": np.arange(rows, dtype=np.int64)})
            con.execute("SELECT sum(i) FROM big").fetchall()
            morsels = [s for s in con.database.tracer.spans()
                       if s.kind == "morsel"]
            assert morsels, "parallel scan recorded no morsel spans"
            assert all(s.attrs.get("morsel") is not None for s in morsels)
            summary = worker_summary(morsels)
            assert sum(row_count for _, _, row_count in summary) == rows
        finally:
            con.close()
