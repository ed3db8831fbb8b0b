"""Aggregation tests: grouping, NULL handling, DISTINCT, HAVING."""

import math

import numpy as np
import pytest

import repro
from repro.config import DatabaseConfig
from repro.errors import BinderError
from repro.execution.aggregate import (PhysicalHashAggregate,
                                      partial_state_types)
from repro.functions.aggregate import AGGREGATE_NAMES, bind_aggregate
from repro.planner.expressions import BoundAggregate, BoundConstant
from repro.types import INTEGER


class TestUngrouped:
    def test_count_star(self, populated):
        assert populated.query_value("SELECT count(*) FROM sample") == 5

    def test_count_column_skips_nulls(self, populated):
        assert populated.query_value("SELECT count(s) FROM sample") == 4
        assert populated.query_value("SELECT count(d) FROM sample") == 4

    def test_sum_avg(self, populated):
        assert populated.query_value("SELECT sum(i) FROM sample") == 15
        assert populated.query_value("SELECT avg(i) FROM sample") == 3.0

    def test_sum_ignores_nulls(self, populated):
        assert populated.query_value("SELECT sum(d) FROM sample") == \
            pytest.approx(9.0)

    def test_min_max(self, populated):
        assert populated.query_value("SELECT min(d) FROM sample") == 0.5
        assert populated.query_value("SELECT max(d) FROM sample") == 4.5

    def test_min_max_strings(self, populated):
        assert populated.query_value("SELECT min(s) FROM sample") == "alpha"
        assert populated.query_value("SELECT max(s) FROM sample") == "gamma"

    def test_stddev(self, con):
        con.execute("CREATE TABLE v (x DOUBLE)")
        con.execute("INSERT INTO v VALUES (1), (2), (3), (4)")
        import statistics

        assert con.query_value("SELECT stddev(x) FROM v") == \
            pytest.approx(statistics.stdev([1, 2, 3, 4]))
        assert con.query_value("SELECT var_samp(x) FROM v") == \
            pytest.approx(statistics.variance([1, 2, 3, 4]))

    def test_stddev_single_row_is_null(self, con):
        con.execute("CREATE TABLE v (x DOUBLE)")
        con.execute("INSERT INTO v VALUES (1)")
        assert con.query_value("SELECT stddev(x) FROM v") is None

    def test_aggregates_over_empty_table(self, con):
        con.execute("CREATE TABLE e (x INTEGER)")
        row = con.execute(
            "SELECT count(*), count(x), sum(x), min(x), avg(x) FROM e"
        ).fetchone()
        assert row == (0, 0, None, None, None)

    def test_aggregates_over_all_null(self, con):
        con.execute("CREATE TABLE n (x INTEGER)")
        con.execute("INSERT INTO n VALUES (NULL), (NULL)")
        row = con.execute("SELECT count(x), sum(x), max(x) FROM n").fetchone()
        assert row == (0, None, None)

    def test_expression_inside_aggregate(self, populated):
        assert populated.query_value("SELECT sum(i * 2) FROM sample") == 30

    def test_expression_of_aggregates(self, populated):
        value = populated.query_value(
            "SELECT sum(i) * 1.0 / count(*) FROM sample")
        assert value == pytest.approx(3.0)

    def test_sum_type_integer_stays_integer(self, populated):
        result = populated.execute("SELECT sum(i) FROM sample")
        from repro.types import BIGINT

        assert result.types[0] == BIGINT


class TestExactIntegerSum:
    """sum() over integers accumulates in int64, not float64."""

    @pytest.fixture
    def big(self, con):
        rng = np.random.default_rng(7)
        values = (1 << 40) + rng.integers(0, 1 << 20, 200_000)
        groups = rng.integers(0, 7, 200_000).astype(np.int32)
        con.execute("CREATE TABLE big (g INTEGER, v BIGINT)")
        with con.appender("big") as appender:
            appender.append_numpy({"g": groups, "v": values},
                                  {"v": np.arange(200_000) % 11 != 0})
        values = np.where(np.arange(200_000) % 11 != 0, values, 0)
        return con, groups, values

    def test_matches_python_integer_arithmetic_above_2_53(self, big):
        con, groups, values = big
        total = sum(values.tolist())
        assert total > 1 << 53
        assert con.query_value("SELECT sum(v) FROM big") == total
        assert con.execute("SELECT g, sum(v) FROM big GROUP BY g ORDER BY g"
                           ).fetchall() \
            == [(g, sum(values[groups == g].tolist())) for g in range(7)]

    def test_parallel_partial_sums_are_exact_too(self, big):
        con, _, values = big
        con.execute("PRAGMA threads = 4")
        assert con.query_value("SELECT sum(v) FROM big") == sum(values.tolist())

    def test_overflow_raises_instead_of_wrapping(self, con):
        con.execute("CREATE TABLE edge (g INTEGER, v BIGINT)")
        top = (1 << 63) - 1
        con.execute(f"INSERT INTO edge VALUES (1, {top}), (1, -5), (1, 3), "
                    f"(2, {top}), (2, 1)")
        assert con.query_value("SELECT sum(v) FROM edge WHERE g = 1") \
            == top - 2
        with pytest.raises(repro.ConversionError, match="out of range"):
            con.execute("SELECT sum(v) FROM edge").fetchall()
        with pytest.raises(repro.ConversionError, match="out of range"):
            con.execute("SELECT g, sum(v) FROM edge GROUP BY g").fetchall()

    @pytest.mark.parametrize("threads", [1, 4])
    def test_partial_sum_may_overflow_when_total_fits(self, threads):
        # The first 16384-row batch sums past 2**63 - 1; the total does not.
        con = repro.connect(config={"threads": threads, "morsel_size": 16384})
        top = (1 << 63) - 1
        values = np.zeros(40_000, dtype=np.int64)
        values[0], values[1], values[30_000] = top, 1, -10
        con.execute("CREATE TABLE wide (g INTEGER, v BIGINT)")
        with con.appender("wide") as appender:
            appender.append_numpy({"g": np.zeros(40_000, dtype=np.int32),
                                   "v": values})
        assert con.query_value("SELECT sum(v) FROM wide") == top - 9
        assert con.execute("SELECT g, sum(v) FROM wide GROUP BY g"
                           ).fetchall() == [(0, top - 9)]
        con.close()

    def test_float_sums_and_avg_unchanged(self, con):
        con.execute("CREATE TABLE f (i INTEGER, d DOUBLE)")
        con.execute("INSERT INTO f VALUES (1, 0.5), (2, 0.25), (NULL, NULL)")
        assert con.execute("SELECT sum(d), avg(i), sum(i) FROM f").fetchall() \
            == [(0.75, 1.5, 3)]


class TestGrouped:
    def test_group_by(self, populated):
        rows = populated.execute(
            "SELECT s, count(*), sum(i) FROM sample GROUP BY s "
            "ORDER BY s NULLS FIRST").fetchall()
        assert rows == [(None, 1, 4), ("alpha", 2, 4), ("beta", 1, 2),
                        ("gamma", 1, 5)]

    def test_null_forms_its_own_group(self, populated):
        rows = populated.execute(
            "SELECT s FROM sample GROUP BY s").fetchall()
        assert (None,) in rows
        assert len(rows) == 4

    def test_group_by_expression(self, populated):
        rows = populated.execute(
            "SELECT i % 2, count(*) FROM sample GROUP BY i % 2 ORDER BY 1"
        ).fetchall()
        assert rows == [(0, 2), (1, 3)]

    def test_group_by_position_and_alias(self, populated):
        by_position = populated.execute(
            "SELECT s, count(*) FROM sample GROUP BY 1 ORDER BY 1 NULLS FIRST"
        ).fetchall()
        by_alias = populated.execute(
            "SELECT s AS tag, count(*) FROM sample GROUP BY tag "
            "ORDER BY 1 NULLS FIRST").fetchall()
        assert by_position == by_alias

    def test_multi_column_groups(self, con):
        con.execute("CREATE TABLE g (a INTEGER, b VARCHAR, x INTEGER)")
        con.execute("INSERT INTO g VALUES (1,'x',10), (1,'x',11), (1,'y',12), "
                    "(2,'x',13)")
        rows = con.execute(
            "SELECT a, b, sum(x) FROM g GROUP BY a, b ORDER BY a, b").fetchall()
        assert rows == [(1, "x", 21), (1, "y", 12), (2, "x", 13)]

    def test_bare_column_requires_group_by(self, populated):
        with pytest.raises(BinderError):
            populated.execute("SELECT s, sum(i) FROM sample")

    def test_group_key_usable_in_expressions(self, populated):
        rows = populated.execute(
            "SELECT upper(s), count(*) FROM sample WHERE s IS NOT NULL "
            "GROUP BY s ORDER BY 1").fetchall()
        assert rows == [("ALPHA", 2), ("BETA", 1), ("GAMMA", 1)]

    def test_having(self, populated):
        rows = populated.execute(
            "SELECT s, count(*) AS c FROM sample GROUP BY s HAVING count(*) > 1"
        ).fetchall()
        assert rows == [("alpha", 2)]

    def test_having_without_groups_rejected(self, populated):
        with pytest.raises(BinderError):
            populated.execute("SELECT i FROM sample HAVING i > 1")

    def test_aggregate_in_where_rejected(self, populated):
        with pytest.raises(BinderError):
            populated.execute("SELECT i FROM sample WHERE sum(i) > 1")

    def test_nested_aggregate_rejected(self, populated):
        with pytest.raises(BinderError):
            populated.execute("SELECT sum(count(*)) FROM sample")

    def test_order_by_aggregate(self, populated):
        rows = populated.execute(
            "SELECT s, sum(i) FROM sample GROUP BY s ORDER BY sum(i) DESC, "
            "s NULLS FIRST").fetchall()
        assert rows[0][1] == 5

    def test_many_groups(self, con):
        con.execute("CREATE TABLE m (k INTEGER, v INTEGER)")
        with con.appender("m") as appender:
            n = 50_000
            appender.append_numpy({
                "k": (np.arange(n) % 1000).astype(np.int32),
                "v": np.ones(n, dtype=np.int32),
            })
        rows = con.execute(
            "SELECT k, count(*) FROM m GROUP BY k ORDER BY k LIMIT 3").fetchall()
        assert rows == [(0, 50), (1, 50), (2, 50)]
        assert con.query_value(
            "SELECT count(*) FROM (SELECT k FROM m GROUP BY k) sub") == 1000


class TestDistinctAggregates:
    def test_count_distinct(self, populated):
        assert populated.query_value(
            "SELECT count(DISTINCT s) FROM sample") == 3

    def test_sum_distinct(self, con):
        con.execute("CREATE TABLE d (x INTEGER)")
        con.execute("INSERT INTO d VALUES (1), (1), (2), (2), (3)")
        assert con.query_value("SELECT sum(DISTINCT x) FROM d") == 6
        assert con.query_value("SELECT sum(x) FROM d") == 9

    def test_count_distinct_grouped(self, con):
        con.execute("CREATE TABLE d (g VARCHAR, x INTEGER)")
        con.execute("INSERT INTO d VALUES ('a',1), ('a',1), ('a',2), ('b',5)")
        rows = con.execute(
            "SELECT g, count(DISTINCT x) FROM d GROUP BY g ORDER BY g").fetchall()
        assert rows == [("a", 2), ("b", 1)]

    def test_count_distinct_strings(self, con):
        con.execute("CREATE TABLE d (s VARCHAR)")
        con.execute("INSERT INTO d VALUES ('x'), ('x'), ('y'), (NULL)")
        assert con.query_value("SELECT count(DISTINCT s) FROM d") == 2

    def test_distinct_on_scalar_function_rejected(self, populated):
        with pytest.raises(BinderError):
            populated.execute("SELECT upper(DISTINCT s) FROM sample")


class TestFirstAggregate:
    def test_first(self, con):
        con.execute("CREATE TABLE f (g INTEGER, v VARCHAR)")
        con.execute("INSERT INTO f VALUES (1, 'a'), (1, 'b'), (2, 'c')")
        rows = con.execute(
            "SELECT g, first(v) FROM f GROUP BY g ORDER BY g").fetchall()
        assert rows == [(1, "a"), (2, "c")]


MORSEL_ROWS = DatabaseConfig.morsel_size


def _grouped_table(rows, **config):
    con = repro.connect(config=dict(config, result_cache_entries=0))
    rng = np.random.default_rng(11)
    con.execute("CREATE TABLE t (g INTEGER, v DOUBLE, f DOUBLE)")
    with con.appender("t") as appender:
        appender.append_numpy({"g": rng.integers(0, 50, rows).astype(np.int32),
                               "v": rng.normal(1000.0, 300.0, rows),
                               "f": rng.random(rows)})
    return con


def _memory_bytes(con, sql):
    con.execute(sql).fetchall()
    return con.database.statement_log.records()[-1].memory_bytes


class TestOneAggregatePath:
    """Serial GROUP BY folds one morsel at a time through the same partial
    states the parallel aggregate's workers produce."""

    #: Buffered bytes per row of ``GROUP BY g`` over sum(v), avg(v),
    #: count(*): the input chunk's g (4 + 1 validity) and v (8 + 1).
    ROW_BYTES = 5 + 9

    @pytest.mark.parametrize("rows", [250_000, 1_000_000])
    def test_buffered_input_is_one_morsel(self, rows):
        con = _grouped_table(rows, threads=1, morsel_size=MORSEL_ROWS)
        memory = _memory_bytes(
            con, "SELECT g, sum(v), avg(v), count(*) FROM t GROUP BY g")
        assert memory == MORSEL_ROWS * self.ROW_BYTES == 917_504
        con.close()

    def test_large_child_chunks_are_cut_to_one_morsel(self, monkeypatch):
        # A join emits one chunk per 65,536-row probe batch; the aggregate
        # above it still folds batches of at most one 16,384-row morsel.
        batches = []
        reduce = PhysicalHashAggregate._reduce

        def recording_reduce(operator, executor, buffer, rows, partial):
            batches.append(rows)
            return reduce(operator, executor, buffer, rows, partial)

        monkeypatch.setattr(PhysicalHashAggregate, "_reduce",
                            recording_reduce)
        rows = 200_000
        con = _grouped_table(rows, threads=1, morsel_size=16384)
        con.execute("CREATE TABLE d (g INTEGER, w DOUBLE)")
        con.execute("INSERT INTO d SELECT DISTINCT g, g * 0.5 FROM t")
        sql = ("SELECT d.g, sum(t.v * d.w), count(*) FROM t JOIN d "
               "ON t.g = d.g GROUP BY d.g ORDER BY d.g")
        batches.clear()
        got = con.execute(sql).fetchall()
        assert batches == [16384] * (rows // 16384) + [rows % 16384]
        table = con.execute("SELECT g, v FROM t").fetch_numpy()
        for g, total, count in got:
            mask = table["g"] == g
            assert count == int(mask.sum())
            assert total == pytest.approx(float((table["v"][mask]
                                                 * g * 0.5).sum()), rel=1e-9)
        con.close()

    def test_distinct_aggregate_buffers_its_whole_input(self):
        rows = 250_000
        con = _grouped_table(rows, threads=1, morsel_size=MORSEL_ROWS)
        memory = _memory_bytes(con, "SELECT g, count(DISTINCT v) FROM t "
                                    "GROUP BY g")
        assert memory == rows * (5 + 9)
        con.close()

    #: Grouped and ungrouped, with and without a filter, over a table with
    #: deleted rows that are still physically there (no checkpoint), and
    #: over a join.
    BIT_IDENTICAL = [
        "SELECT g, sum(v), avg(v), stddev(v), variance(v) FROM t "
        "GROUP BY g ORDER BY g",
        "SELECT sum(v), avg(v) FROM t",
        "SELECT sum(v), avg(v) FROM t WHERE f > 0.3",
        "SELECT g, sum(v), avg(v) FROM t WHERE f > 0.3 GROUP BY g ORDER BY g",
        "SELECT sum(v), avg(v) FROM u",
        "SELECT g, sum(v), avg(v) FROM u WHERE f > 0.3 GROUP BY g ORDER BY g",
        "SELECT d.w, sum(t.v), avg(t.v) FROM t JOIN d ON t.g = d.g "
        "WHERE t.f > 0.3 GROUP BY d.w ORDER BY d.w",
        "SELECT sum(t.v), avg(t.v) FROM t JOIN d ON t.g = d.g",
    ]

    def test_serial_and_parallel_are_bit_identical(self):
        # The answers at 1, 2 and 4 threads are the same bits at equal
        # morsel_size: ``threads`` only sets how many workers fold morsels.
        for rows, morsel_size in ((200_000, 16384), (600_000, MORSEL_ROWS)):
            answers = []
            for threads in (1, 2, 4):
                con = _grouped_table(rows, threads=threads,
                                     morsel_size=morsel_size)
                con.execute("CREATE TABLE u (g INTEGER, v DOUBLE, f DOUBLE)")
                con.execute("INSERT INTO u SELECT * FROM t")
                con.execute("DELETE FROM u WHERE f < 0.2")
                con.execute("CREATE TABLE d (g INTEGER, w INTEGER)")
                con.execute("INSERT INTO d SELECT DISTINCT g, g % 7 FROM t")
                answers.append([con.execute(sql).fetchall()
                                for sql in self.BIT_IDENTICAL])
                con.close()
            assert len(answers[0][0]) == 50
            for sql, one, two, four in zip(self.BIT_IDENTICAL, *answers):
                assert one == two == four, (rows, sql)

    @pytest.mark.parametrize("name", sorted(AGGREGATE_NAMES))
    def test_every_aggregate_has_a_partial_decomposition(self, name):
        return_type, _ = bind_aggregate(name, [INTEGER], False)
        aggregate = BoundAggregate(name, [BoundConstant(1, INTEGER)], False,
                                   return_type)
        assert partial_state_types(aggregate)
        sql = f"SELECT g, {name}(v) FROM t GROUP BY g ORDER BY g"
        folded = _grouped_table(40_000, threads=1, morsel_size=16384)
        whole = _grouped_table(40_000, threads=1, morsel_size=1 << 20)
        for got, want in zip(folded.execute(sql).fetchall(),
                             whole.execute(sql).fetchall()):
            assert got == pytest.approx(want, rel=1e-9)
        folded.close()
        whole.close()
