"""In-band introspection: system table functions and SQL composability.

Engine state is a relation.  Every registered ``repro_*()`` function must
be usable anywhere a table is -- filtered, joined, ordered, aggregated --
through the ordinary binder/planner/executor path, with no special-case
client API.
"""

from collections import defaultdict

import pytest

import repro
from repro import introspection
from repro.errors import BinderError, CatalogError
from repro.introspection import SystemTableFunction, register, unregister
from repro.types import VECTOR_SIZE
from repro.types.logical import BIGINT


@pytest.fixture
def con():
    connection = repro.connect()
    yield connection
    connection.close()


class TestSystemTableFunctions:
    @pytest.mark.parametrize("name", introspection.function_names())
    def test_every_function_is_queryable(self, con, name):
        rows = con.execute(f"SELECT count(*) FROM {name}()").fetchall()
        assert len(rows) == 1
        assert rows[0][0] >= 0

    @pytest.mark.parametrize("name", introspection.function_names())
    def test_column_schema_matches_registration(self, con, name):
        function = introspection.lookup(name)
        result = con.execute(f"SELECT * FROM {name}()")
        assert list(result.names) == list(function.column_names)
        result.close()

    def test_case_insensitive_lookup(self, con):
        rows = con.execute("SELECT count(*) FROM REPRO_SETTINGS()").fetchall()
        assert rows[0][0] > 0

    def test_arguments_rejected(self, con):
        with pytest.raises(BinderError, match="takes no arguments"):
            con.execute("SELECT * FROM repro_settings(1)")

    def test_unknown_table_function_still_errors(self, con):
        with pytest.raises((BinderError, CatalogError)):
            con.execute("SELECT * FROM repro_no_such_thing()")


class TestComposability:
    def _setup(self, con):
        con.execute("CREATE TABLE points (x INTEGER, label VARCHAR)")
        con.execute("INSERT INTO points VALUES (1, 'a'), (2, 'b'), (3, 'c')")

    def test_where_filter(self, con):
        self._setup(con)
        rows = con.execute(
            "SELECT name, row_count FROM repro_tables() "
            "WHERE type = 'table'").fetchall()
        assert rows == [("points", 3)]

    def test_alias_and_order_by_limit(self, con):
        self._setup(con)
        rows = con.execute(
            "SELECT c.column_name FROM repro_columns() c "
            "ORDER BY c.column_index DESC LIMIT 1").fetchall()
        assert rows == [("label",)]

    def test_join_tables_with_columns(self, con):
        self._setup(con)
        rows = con.execute(
            "SELECT t.name, c.column_name, c.dtype "
            "FROM repro_tables() t "
            "JOIN repro_columns() c ON t.name = c.table_name "
            "ORDER BY c.column_index").fetchall()
        assert rows == [("points", "x", "INTEGER"),
                        ("points", "label", "VARCHAR")]

    def test_aggregate_over_system_table(self, con):
        self._setup(con)
        rows = con.execute(
            "SELECT table_name, count(*) AS cols FROM repro_columns() "
            "GROUP BY table_name").fetchall()
        assert rows == [("points", 2)]

    def test_settings_reflect_pragma(self, con):
        con.execute("PRAGMA threads = 3")
        value = con.execute(
            "SELECT value FROM repro_settings() WHERE name = 'threads'"
        ).fetchvalue()
        assert value == "3"

    def test_transactions_shows_own_snapshot(self, con):
        rows = con.execute(
            "SELECT state, has_writes FROM repro_transactions()").fetchall()
        # The introspecting statement runs inside a transaction itself.
        assert len(rows) >= 1
        assert all(state == "active" for state, _ in rows)

    def test_storage_counters_present(self, con):
        rows = dict(con.execute("SELECT * FROM repro_storage()").fetchall())
        assert rows["in_memory"] == 1
        assert rows["wal_enabled"] == 0
        assert rows["buffer_memory_limit"] > 0

    def test_metrics_include_query_counter(self, con):
        con.execute("SELECT 1").fetchall()
        value = con.execute(
            "SELECT value FROM repro_metrics() "
            "WHERE name = 'repro_queries_total'").fetchvalue()
        assert value >= 1.0


class TestChunking:
    def test_snapshot_larger_than_vector_size_chunks_correctly(self, con):
        total = VECTOR_SIZE * 2 + 123
        function = SystemTableFunction(
            "repro_test_numbers", "test fixture",
            (("n", BIGINT),),
            lambda database, transaction: [(i,) for i in range(total)])
        register(function)
        try:
            assert con.execute(
                "SELECT count(*) FROM repro_test_numbers()").fetchvalue() \
                == total
            assert con.execute(
                "SELECT sum(n) FROM repro_test_numbers() WHERE n < 10"
            ).fetchvalue() == sum(range(10))
        finally:
            unregister("repro_test_numbers")


class TestTraceAgreement:
    def test_repro_traces_agrees_with_explain_analyze(self):
        con = repro.connect(config={"trace_enabled": True})
        try:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("INSERT INTO t VALUES (1), (2), (3)")
            analyze = con.execute(
                "EXPLAIN ANALYZE SELECT count(*) FROM t").fetchall()
            text = "\n".join(line for (line,) in analyze)
            # The same spans EXPLAIN ANALYZE rendered are visible, in-band,
            # via SQL: every operator span of that trace appears in the
            # report with the same row count.
            spans = con.execute(
                "SELECT name, rows FROM repro_traces() "
                "WHERE kind = 'operator' AND trace_id = "
                "  (SELECT max(trace_id) FROM repro_traces() "
                "   WHERE name = 'explain analyze')").fetchall()
            assert len(spans) >= 2  # scan + aggregate at minimum
            names = dict(spans)
            assert any(name.startswith("TABLE_SCAN t") for name in names)
            for name, rows in spans:
                line = next(ln for ln in text.splitlines()
                            if ln.strip().startswith(name)
                            and "rows_out=" in ln)
                assert f"rows_out={rows}" in line
        finally:
            con.close()

    def test_self_time_per_operator_from_traces(self):
        # Per-operator self time is a self-join: a span's wall time minus
        # the wall time of its children (operator spans are inclusive).
        workload = "SELECT g, sum(v) FROM t WHERE v % 3 = 0 GROUP BY g"
        con = repro.connect(config={"threads": 1, "trace_enabled": True})
        try:
            con.execute("CREATE TABLE t (g INTEGER, v INTEGER)")
            con.executemany("INSERT INTO t VALUES (?, ?)",
                            [(i % 7, i) for i in range(5000)])
            for _ in range(3):
                con.execute(workload).fetchall()
            rows = con.execute(
                "SELECT p.trace_id, p.name, "
                "       p.wall_ms - coalesce(sum(c.wall_ms), 0) AS self_ms "
                "FROM repro_traces() p "
                "LEFT JOIN repro_traces() c ON c.parent_id = p.span_id "
                "WHERE p.trace_id IN (SELECT span_id FROM repro_traces() "
                "                     WHERE kind = 'query' AND name = ?) "
                "GROUP BY p.trace_id, p.span_id, p.name, p.wall_ms",
                [workload]).fetchall()
            roots = dict(con.execute(
                "SELECT trace_id, wall_ms FROM repro_traces() "
                "WHERE kind = 'query' AND name = ?", [workload]).fetchall())
        finally:
            con.close()
        assert len(roots) == 3
        names = {name for _, name, _ in rows}
        assert any(name.startswith("TABLE_SCAN t") for name in names)
        assert any("AGGREGATE" in name for name in names)
        per_trace = defaultdict(float)
        for trace_id, name, self_ms in rows:
            assert self_ms >= -1e-6, name
            per_trace[trace_id] += self_ms
        assert set(per_trace) == set(roots)
        for trace_id, total in per_trace.items():
            assert total == pytest.approx(roots[trace_id], abs=1e-6)
