"""Sorting internals: external sorter edge cases, Top-N fusion, set ops."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.execution.sort import ExternalSorter, SortKey, sort_order
from repro.types import DataChunk, DOUBLE, INTEGER, VARCHAR, Vector


class TestSortOrder:
    def test_multi_key_mixed_directions(self):
        chunk = DataChunk.from_pylists(
            [[1, 1, 2, 2], ["b", "a", "d", "c"]], [INTEGER, VARCHAR])
        order = sort_order(chunk, [SortKey(0, ascending=True),
                                   SortKey(1, ascending=False)])
        assert chunk.slice(order).to_rows() == \
            [(1, "b"), (1, "a"), (2, "d"), (2, "c")]

    def test_nulls_first_and_last(self):
        chunk = DataChunk.from_pylists([[3, None, 1]], [INTEGER])
        first = sort_order(chunk, [SortKey(0, True, nulls_first=True)])
        assert chunk.slice(first).to_rows() == [(None,), (1,), (3,)]
        last = sort_order(chunk, [SortKey(0, True, nulls_first=False)])
        assert chunk.slice(last).to_rows() == [(1,), (3,), (None,)]

    def test_descending_strings(self):
        chunk = DataChunk.from_pylists([["b", "c", "a"]], [VARCHAR])
        order = sort_order(chunk, [SortKey(0, ascending=False)])
        assert chunk.slice(order).to_rows() == [("c",), ("b",), ("a",)]

    def test_empty_chunk(self):
        chunk = DataChunk.from_pylists([[]], [INTEGER])
        assert len(sort_order(chunk, [SortKey(0)])) == 0

    def test_float_keys(self):
        chunk = DataChunk.from_pylists([[2.5, -1.0, 0.0]], [DOUBLE])
        order = sort_order(chunk, [SortKey(0)])
        assert chunk.slice(order).to_rows() == [(-1.0,), (0.0,), (2.5,)]


class TestExternalSorter:
    def sort_values(self, values, run_limit):
        sorter = ExternalSorter([INTEGER], [SortKey(0)], None,
                                run_limit_bytes=run_limit)
        for start in range(0, len(values), 100):
            batch = values[start:start + 100]
            if batch:
                sorter.append(DataChunk([Vector.from_values(batch, INTEGER)]))
        out = []
        for chunk in sorter.sorted_chunks():
            out.extend(chunk.columns[0].to_pylist())
        return out

    def test_single_run(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1000, 500).tolist()
        assert self.sort_values(values, 1 << 30) == sorted(values)

    def test_many_tiny_runs(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 50, 3000).tolist()
        assert self.sort_values(values, 128) == sorted(values)

    def test_all_equal_keys(self):
        assert self.sort_values([7] * 1000, 256) == [7] * 1000

    def test_already_sorted_and_reversed(self):
        values = list(range(1500))
        assert self.sort_values(values, 512) == values
        assert self.sort_values(values[::-1], 512) == values

    def test_empty(self):
        assert self.sort_values([], 512) == []

    def test_spilled_flag(self):
        sorter = ExternalSorter([INTEGER], [SortKey(0)], None,
                                run_limit_bytes=64)
        for _ in range(10):
            sorter.append(DataChunk([Vector.from_values(list(range(50)),
                                                        INTEGER)]))
        assert sorter.spilled
        total = sum(chunk.size for chunk in sorter.sorted_chunks())
        assert total == 500


class TestTopNFusion:
    def test_order_limit_uses_topn(self, populated):
        lines = populated.execute(
            "EXPLAIN SELECT i FROM sample ORDER BY i DESC LIMIT 2").fetchall()
        text = "\n".join(row[0] for row in lines)
        assert "TOP_N" in text

    def test_order_without_limit_uses_sort(self, populated):
        lines = populated.execute(
            "EXPLAIN SELECT i FROM sample ORDER BY i").fetchall()
        text = "\n".join(row[0] for row in lines)
        assert "ORDER_BY" in text

    def test_topn_correctness_at_scale(self, con):
        con.execute("CREATE TABLE big (x INTEGER)")
        rng = np.random.default_rng(5)
        values = rng.integers(0, 10**6, 100_000).astype(np.int32)
        with con.appender("big") as appender:
            appender.append_numpy({"x": values})
        rows = con.execute(
            "SELECT x FROM big ORDER BY x DESC LIMIT 5").fetchall()
        expected = sorted(values.tolist(), reverse=True)[:5]
        assert [row[0] for row in rows] == expected

    def test_topn_with_offset(self, con):
        con.execute("CREATE TABLE t (x INTEGER)")
        con.execute("INSERT INTO t VALUES (5), (3), (1), (4), (2)")
        rows = con.execute(
            "SELECT x FROM t ORDER BY x LIMIT 2 OFFSET 1").fetchall()
        assert rows == [(2,), (3,)]

    def test_topn_limit_larger_than_input(self, con):
        con.execute("CREATE TABLE t (x INTEGER)")
        con.execute("INSERT INTO t VALUES (2), (1)")
        rows = con.execute("SELECT x FROM t ORDER BY x LIMIT 100").fetchall()
        assert rows == [(1,), (2,)]

    def test_topn_with_nulls(self, con):
        con.execute("CREATE TABLE t (x INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (NULL), (3)")
        rows = con.execute(
            "SELECT x FROM t ORDER BY x NULLS FIRST LIMIT 2").fetchall()
        assert rows == [(None,), (1,)]


class TestTopNAmortization:
    """The Top-N accumulator must not re-sort on every incoming chunk."""

    def _run_topn(self, chunk_values, limit, offset=0):
        from repro.execution.physical import ExecutionContext, PhysicalOperator
        from repro.execution.sort import PhysicalTopN
        from repro.planner.expressions import BoundColumnRef
        from repro.planner.logical import BoundOrderByItem

        context = ExecutionContext(None)

        class FeedOperator(PhysicalOperator):
            def execute(self):
                for values in chunk_values:
                    yield DataChunk([Vector.from_values(values, INTEGER)])

        child = FeedOperator(context, [], [INTEGER], ["x"])
        items = [BoundOrderByItem(BoundColumnRef(0, INTEGER, "x"), True, None)]
        topn = PhysicalTopN(context, child, items, limit, offset)
        rows = [row[0] for chunk in topn.execute() for row in chunk.to_rows()]
        return rows, context.stats

    def test_sort_count_amortized(self):
        # 200 chunks of 50 rows with keep=500: compaction may only fire
        # every ~10 chunks (when resident rows reach 2*keep), not per chunk.
        rng = np.random.default_rng(11)
        chunks = [rng.integers(0, 10**6, 50).tolist() for _ in range(200)]
        rows, stats = self._run_topn(chunks, limit=500)
        total = 200 * 50
        flat = sorted(value for chunk in chunks for value in chunk)
        assert rows == flat[:500]
        # Upper bound: one compaction per 2*keep-row fill, plus the final
        # output sort.  Per-chunk re-sorting would be ~190 sorts.
        assert stats["topn_sorts"] <= total // 500 + 2

    def test_amortized_results_with_offset(self):
        rng = np.random.default_rng(12)
        chunks = [rng.integers(0, 1000, 17).tolist() for _ in range(30)]
        rows, _ = self._run_topn(chunks, limit=10, offset=25)
        flat = sorted(value for chunk in chunks for value in chunk)
        assert rows == flat[25:35]

    def test_final_partial_buffer_flushed(self):
        # Fewer total rows than 2*keep: nothing compacts mid-stream, the
        # tail flush must still produce the right answer.
        chunks = [[5, 3], [9, 1], [7]]
        rows, _ = self._run_topn(chunks, limit=3)
        assert rows == [1, 3, 5]

    def test_limit_zero_yields_nothing(self):
        rows, _ = self._run_topn([[1, 2, 3]], limit=0)
        assert rows == []


class TestSetOpEdgeCases:
    def test_union_all_with_empty_side(self, con):
        con.execute("CREATE TABLE a (x INTEGER)")
        con.execute("CREATE TABLE b (x INTEGER)")
        con.execute("INSERT INTO a VALUES (1)")
        assert con.execute("SELECT x FROM a UNION ALL SELECT x FROM b"
                           ).fetchall() == [(1,)]
        assert con.execute("SELECT x FROM b UNION ALL SELECT x FROM a"
                           ).fetchall() == [(1,)]

    def test_except_empty_left(self, con):
        con.execute("CREATE TABLE a (x INTEGER)")
        con.execute("CREATE TABLE b (x INTEGER)")
        con.execute("INSERT INTO b VALUES (1)")
        assert con.execute("SELECT x FROM a EXCEPT SELECT x FROM b"
                           ).fetchall() == []

    def test_intersect_disjoint(self, con):
        con.execute("CREATE TABLE a (x INTEGER)")
        con.execute("CREATE TABLE b (x INTEGER)")
        con.execute("INSERT INTO a VALUES (1)")
        con.execute("INSERT INTO b VALUES (2)")
        assert con.execute("SELECT x FROM a INTERSECT SELECT x FROM b"
                           ).fetchall() == []

    def test_union_with_nulls_deduplicates(self, con):
        con.execute("CREATE TABLE a (x INTEGER)")
        con.execute("INSERT INTO a VALUES (NULL), (NULL), (1)")
        rows = con.execute("SELECT x FROM a UNION SELECT x FROM a "
                           "ORDER BY x NULLS FIRST").fetchall()
        assert rows == [(None,), (1,)]

    def test_multi_column_setops(self, con):
        con.execute("CREATE TABLE a (x INTEGER, y VARCHAR)")
        con.execute("CREATE TABLE b (x INTEGER, y VARCHAR)")
        con.execute("INSERT INTO a VALUES (1, 'p'), (1, 'q'), (2, 'p')")
        con.execute("INSERT INTO b VALUES (1, 'q')")
        rows = con.execute("SELECT * FROM a EXCEPT SELECT * FROM b "
                           "ORDER BY x, y").fetchall()
        assert rows == [(1, "p"), (2, "p")]

    @pytest.fixture
    def bags(self, con):
        con.execute("CREATE TABLE a (x INTEGER)")
        con.execute("CREATE TABLE b (x INTEGER)")
        con.execute("INSERT INTO a VALUES (1), (1), (1), (2), (NULL), (NULL)")
        con.execute("INSERT INTO b VALUES (1), (3), (NULL)")
        return con

    def test_except_all_subtracts_multiplicity(self, bags):
        # Each left row survives only as often as l - r for its value, and
        # the survivors keep left input order.
        assert bags.execute("SELECT x FROM a EXCEPT ALL SELECT x FROM b"
                            ).fetchall() == [(1,), (1,), (2,), (None,)]
        assert bags.execute("SELECT x FROM b EXCEPT ALL SELECT x FROM a"
                            ).fetchall() == [(3,)]

    def test_intersect_all_keeps_min_multiplicity(self, bags):
        assert bags.execute("SELECT x FROM a INTERSECT ALL SELECT x FROM b"
                            ).fetchall() == [(1,), (None,)]

    def test_set_variants_keep_one_row_per_value(self, bags):
        assert bags.execute("SELECT x FROM a EXCEPT SELECT x FROM b"
                            ).fetchall() == [(2,)]
        assert bags.execute("SELECT x FROM a INTERSECT SELECT x FROM b"
                            ).fetchall() == [(1,), (None,)]

    def test_all_variants_on_two_columns_with_nulls(self, con):
        con.execute("CREATE TABLE a (x INTEGER, y VARCHAR)")
        con.execute("CREATE TABLE b (x INTEGER, y VARCHAR)")
        con.execute("INSERT INTO a VALUES (1, 'p'), (1, 'p'), (NULL, 'q'), "
                    "(NULL, 'q'), (NULL, NULL), (2, NULL)")
        con.execute("INSERT INTO b VALUES (1, 'p'), (NULL, 'q'), "
                    "(NULL, NULL), (NULL, NULL)")
        assert con.execute("SELECT * FROM a EXCEPT ALL SELECT * FROM b"
                           ).fetchall() == [(1, "p"), (None, "q"), (2, None)]
        assert con.execute("SELECT * FROM a INTERSECT ALL SELECT * FROM b"
                           ).fetchall() == [(1, "p"), (None, "q"),
                                            (None, None)]

    @given(left=st.lists(st.one_of(st.none(), st.integers(0, 3)), max_size=12),
           right=st.lists(st.one_of(st.none(), st.integers(0, 3)),
                          max_size=12))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_all_variants_match_multiset_oracle(self, con, left, right):
        con.execute("DROP TABLE IF EXISTS a")
        con.execute("DROP TABLE IF EXISTS b")
        con.execute("CREATE TABLE a (x INTEGER)")
        con.execute("CREATE TABLE b (x INTEGER)")
        for table, values in (("a", left), ("b", right)):
            if values:
                con.executemany(f"INSERT INTO {table} VALUES (?)",
                                [(value,) for value in values])
        for op, expected in (("EXCEPT", Counter(left) - Counter(right)),
                             ("INTERSECT", Counter(left) & Counter(right))):
            rows = con.execute(f"SELECT x FROM a {op} ALL SELECT x FROM b"
                               ).fetchall()
            assert Counter(x for (x,) in rows) == expected

    def test_chained_setops(self, con):
        rows = con.execute(
            "SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3 "
            "EXCEPT SELECT 2 ORDER BY 1").fetchall()
        assert rows == [(1,), (3,)]
