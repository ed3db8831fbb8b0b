"""Statistics layer tests: sketches, per-column summaries, persistence,
selectivity estimation, the lazy NDV fold, and the ablation switch."""

import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import sanitizer
from repro.optimizer import cost
from repro.optimizer.statistics import (
    EXACT_NDV_LIMIT,
    ColumnStatistics,
    DistinctCounter,
    HyperLogLog,
    compute_column_statistics,
    restore_column_statistics,
)
from repro.planner.expressions import BoundColumnRef, BoundConstant, BoundOperator
from repro.storage.table_data import SEGMENT_ROWS
from repro.types import BOOLEAN, INTEGER, VARCHAR

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

_settings = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _split(values, cuts):
    """``values`` cut into consecutive batches at the (sorted) ``cuts``."""
    bounds = [0] + sorted(cut % (len(values) + 1) for cut in cuts) \
        + [len(values)]
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class TestHyperLogLog:
    def test_accuracy_large_integers(self):
        sketch = HyperLogLog()
        values = np.arange(100_000, dtype=np.int64)
        sketch.add_array(values)
        estimate = sketch.estimate()
        assert 0.93 * 100_000 < estimate < 1.07 * 100_000

    def test_duplicates_do_not_inflate(self):
        sketch = HyperLogLog()
        for _ in range(10):
            sketch.add_array(np.arange(1000, dtype=np.int64))
        assert sketch.estimate() < 1200

    def test_small_cardinality_linear_counting(self):
        sketch = HyperLogLog()
        sketch.add_array(np.arange(10, dtype=np.int64))
        assert 8 <= sketch.estimate() <= 12

    def test_merge_is_union(self):
        a, b = HyperLogLog(), HyperLogLog()
        a.add_array(np.arange(0, 50_000, dtype=np.int64))
        b.add_array(np.arange(25_000, 75_000, dtype=np.int64))
        a.merge(b)
        assert 0.9 * 75_000 < a.estimate() < 1.1 * 75_000

    def test_float_negative_zero_canonicalized(self):
        sketch = HyperLogLog()
        sketch.add_array(np.array([0.0, -0.0], dtype=np.float64))
        assert sketch.estimate() <= 2


class TestDistinctCounter:
    def test_exact_below_limit(self):
        counter = DistinctCounter()
        counter.add_array(np.arange(100, dtype=np.int64))
        counter.add_array(np.arange(50, dtype=np.int64))  # duplicates
        assert counter.estimate() == 100.0
        assert not counter.approximate

    def test_promotion_keeps_estimate_consistent(self):
        # Values seen before promotion must hash the same as values added
        # after, or re-adding the same data would double-count.
        counter = DistinctCounter(limit=512)
        counter.add_array(np.arange(400, dtype=np.int64))
        assert not counter.approximate
        counter.add_array(np.arange(400, dtype=np.int64))  # same values again
        counter.add_array(np.arange(400, 1000, dtype=np.int64))  # promotes
        assert counter.approximate
        estimate = counter.estimate()
        assert 0.9 * 1000 < estimate < 1.1 * 1000

    def test_string_promotion_consistent(self):
        counter = DistinctCounter(limit=64)
        values = np.array([f"key-{i}" for i in range(50)], dtype=object)
        counter.add_array(values)
        counter.add_array(
            np.array([f"key-{i}" for i in range(120)], dtype=object))
        assert counter.approximate
        assert 100 < counter.estimate() < 140

    def test_default_limit(self):
        counter = DistinctCounter()
        counter.add_array(np.arange(EXACT_NDV_LIMIT, dtype=np.int64))
        assert not counter.approximate

    def test_overlapping_batches_stay_exact_while_the_union_fits(self):
        # The second batch has more distinct values than the room left,
        # but most of them are already members: the union of 3500 fits.
        counter = DistinctCounter()
        counter.add_array(np.arange(3000, dtype=np.int64))
        counter.add_array(np.arange(1500, 3500, dtype=np.int64))
        assert not counter.approximate
        assert counter.estimate() == 3500.0

    def test_nan_counts_once_across_batches(self):
        counter = DistinctCounter()
        counter.add_array(np.array([np.nan, 1.0, -0.0]))
        counter.add_array(np.array([np.nan, 0.0, -np.nan]))
        assert counter.estimate() == 3.0


def _batching_invariant(values, cuts, limit):
    whole = DistinctCounter(limit=limit)
    whole.add_array(values)
    split = DistinctCounter(limit=limit)
    for batch in _split(values, cuts):
        split.add_array(batch)
    assert split.approximate == whole.approximate
    assert split.estimate() == whole.estimate()


@st.composite
def _split_values(draw, members):
    """(values, cuts, limit): values drawn from ``limit + 1`` possible
    members, so the union is sometimes within the exact limit and
    sometimes one past it."""
    limit = draw(st.sampled_from([4, 8, 16]))
    values = draw(st.lists(members(limit), max_size=6 * limit))
    cuts = draw(st.lists(st.integers(0, 10_000), max_size=6))
    return values, cuts, limit


class TestBatchingInvariance:
    """NDV depends only on the set of values added, not on the batches:
    what makes the lazy fold's segment slicing invisible in any answer."""

    @_settings
    @given(_split_values(lambda limit: st.integers(-limit // 2, limit // 2)))
    def test_ints(self, drawn):
        values, cuts, limit = drawn
        _batching_invariant(np.array(values, dtype=np.int64), cuts, limit)

    @_settings
    @given(_split_values(lambda limit: st.one_of(
        st.sampled_from([0.0, -0.0, np.nan, -np.nan]),
        st.integers(1, limit - 1).map(float))))
    def test_floats_with_nan_and_negative_zero(self, drawn):
        values, cuts, limit = drawn
        _batching_invariant(np.array(values, dtype=np.float64), cuts, limit)

    @_settings
    @given(_split_values(lambda limit: st.integers(0, limit).map(
        lambda i: "\u00e9" * (i % 3) + str(i))))
    def test_strings(self, drawn):
        values, cuts, limit = drawn
        array = np.empty(len(values), dtype=object)
        array[:] = values
        _batching_invariant(array, cuts, limit)


class TestReproducibleStringNdv:
    def test_same_ndv_under_two_hash_seeds(self):
        # A 20,000-distinct-string column is past the exact limit, so its
        # NDV comes from the sketch, which must not hash with Python's
        # per-process salted hash().
        script = textwrap.dedent("""
            import numpy as np, repro
            con = repro.connect()
            con.execute("CREATE TABLE t (s VARCHAR)")
            values = np.array([f"name-{i}" for i in range(20000)], dtype=object)
            with con.appender("t") as appender:
                appender.append_numpy({"s": values})
            print(con.execute("SELECT ndv FROM repro_column_stats() "
                              "WHERE table_name = 't'").fetchall()[0][0])
        """)
        answers = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
            output = subprocess.run([sys.executable, "-c", script], env=env,
                                    check=True, capture_output=True,
                                    text=True).stdout
            answers.append(float(output.split()[-1]))
        assert answers[0] == answers[1]
        assert 0.95 * 20_000 < answers[0] < 1.05 * 20_000


class TestColumnStatistics:
    def test_observe_append_tracks_min_max_nulls(self):
        stats = ColumnStatistics(INTEGER)
        data = np.array([5, 2, 9, 7], dtype=np.int32)
        validity = np.array([True, True, False, True])
        stats.observe_append_locked(data, validity)
        assert stats.row_count == 4
        assert stats.null_count == 1
        assert stats.min_value == 2
        assert stats.max_value == 7
        assert not stats.stale

    def test_update_widens_and_marks_stale(self):
        stats = ColumnStatistics(INTEGER)
        stats.observe_append_locked(np.array([1, 2, 3], dtype=np.int32),
                                    np.ones(3, dtype=bool))
        stats.observe_update_locked(np.array([100], dtype=np.int32),
                                    np.ones(1, dtype=bool))
        assert stats.stale
        assert stats.max_value == 100
        assert stats.min_value == 1

    def test_restore_uses_baseline_ndv_floor(self):
        stats = restore_column_statistics(INTEGER, 1000, 10, 250.0, False,
                                          0, 999)
        assert stats.ndv == 250.0
        # Fresh observations below the baseline do not lower the estimate.
        data, validity = np.array([1, 2], dtype=np.int32), np.ones(2, bool)
        stats.observe_append_locked(data, validity)
        stats.fold_pending_locked(data, validity)
        assert stats.watermark == 1002
        assert stats.ndv == 250.0

    def test_compute_exact(self):
        data = np.array([3, 1, 3, 2], dtype=np.int32)
        stats = compute_column_statistics(data, np.ones(4, dtype=bool),
                                          INTEGER)
        assert stats.min_value == 1
        assert stats.max_value == 3
        assert stats.ndv == 3.0


def _stats_for(values, nulls=0):
    data = np.asarray(values, dtype=np.int64)
    validity = np.ones(len(data), dtype=bool)
    stats = compute_column_statistics(data, validity, INTEGER)
    stats.null_count = nulls
    stats.row_count += nulls
    return stats


class TestSelectivity:
    def test_equality_is_one_over_ndv(self):
        stats = _stats_for(range(100))
        resolver = lambda position: stats
        predicate = BoundOperator("=", [BoundColumnRef(0, INTEGER, "c"),
                                        BoundConstant(42, INTEGER)], BOOLEAN)
        assert cost.predicate_selectivity(predicate, resolver) == \
            pytest.approx(0.01)

    def test_out_of_range_equality_is_zero(self):
        stats = _stats_for(range(100))
        predicate = BoundOperator("=", [BoundColumnRef(0, INTEGER, "c"),
                                        BoundConstant(5000, INTEGER)], BOOLEAN)
        assert cost.predicate_selectivity(predicate, lambda p: stats) == 0.0

    def test_range_interval_fraction(self):
        stats = _stats_for(range(101))  # min 0, max 100
        predicate = BoundOperator("<", [BoundColumnRef(0, INTEGER, "c"),
                                        BoundConstant(25, INTEGER)], BOOLEAN)
        assert cost.predicate_selectivity(predicate, lambda p: stats) == \
            pytest.approx(0.25)

    def test_flipped_comparison(self):
        stats = _stats_for(range(101))
        # 25 > c  is  c < 25
        predicate = BoundOperator(">", [BoundConstant(25, INTEGER),
                                        BoundColumnRef(0, INTEGER, "c")],
                                  BOOLEAN)
        assert cost.predicate_selectivity(predicate, lambda p: stats) == \
            pytest.approx(0.25)

    def test_null_fraction_scales_estimates(self):
        stats = _stats_for(range(50), nulls=50)  # half the rows are NULL
        predicate = BoundOperator("<", [BoundColumnRef(0, INTEGER, "c"),
                                        BoundConstant(1000, INTEGER)], BOOLEAN)
        selectivity = cost.predicate_selectivity(predicate, lambda p: stats)
        assert selectivity == pytest.approx(0.5)

    def test_conjunction_multiplies(self):
        stats = _stats_for(range(101))
        ref = BoundColumnRef(0, INTEGER, "c")
        conjunct = BoundOperator("and", [
            BoundOperator("<", [ref, BoundConstant(50, INTEGER)], BOOLEAN),
            BoundOperator(">=", [ref, BoundConstant(0, INTEGER)], BOOLEAN),
        ], BOOLEAN)
        assert cost.predicate_selectivity(conjunct, lambda p: stats) == \
            pytest.approx(0.5, abs=0.01)

    def test_defaults_without_stats(self):
        predicate = BoundOperator("=", [BoundColumnRef(0, INTEGER, "c"),
                                        BoundConstant(1, INTEGER)], BOOLEAN)
        selectivity = cost.predicate_selectivity(predicate, lambda p: None)
        assert selectivity == pytest.approx(
            cost.DEFAULT_EQUALITY_SELECTIVITY
            * (1.0 - cost.DEFAULT_NULL_FRACTION))


class TestStatisticsLifecycle:
    def test_append_maintains_stats(self, con):
        con.execute("CREATE TABLE t (a INTEGER, s VARCHAR)")
        con.executemany("INSERT INTO t VALUES (?, ?)",
                        [(i, f"v{i % 10}") for i in range(500)])
        row = con.execute(
            "SELECT row_count, null_count, ndv, min_value, max_value, stale "
            "FROM repro_column_stats() "
            "WHERE table_name = 't' AND column_name = 'a'").fetchall()[0]
        assert row[0] == 500
        assert row[1] == 0
        assert row[2] == 500.0
        assert row[3] == "0" and row[4] == "499"
        assert row[5] is False

    def test_update_marks_stale(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2), (3)")
        con.execute("UPDATE t SET a = 99 WHERE a = 2")
        row = con.execute(
            "SELECT stale, max_value FROM repro_column_stats() "
            "WHERE table_name = 't'").fetchall()[0]
        assert row[0] is True
        assert row[1] == "99"

    def test_delete_marks_stale(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2), (3)")
        con.execute("DELETE FROM t WHERE a = 3")
        row = con.execute("SELECT stale FROM repro_column_stats() "
                          "WHERE table_name = 't'").fetchall()[0]
        assert row[0] is True

    def test_checkpoint_persists_stats(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (a INTEGER, s VARCHAR)")
        con.executemany("INSERT INTO t VALUES (?, ?)",
                        [(i, f"name-{i % 7}") for i in range(300)])
        con.close()

        con = repro.connect(db_path)
        rows = {row[0]: row for row in con.execute(
            "SELECT column_name, row_count, ndv, min_value, max_value, stale "
            "FROM repro_column_stats() WHERE table_name = 't'").fetchall()}
        assert rows["a"][1] == 300
        assert rows["a"][2] == 300.0
        assert rows["a"][3] == "0" and rows["a"][4] == "299"
        assert rows["a"][5] is False
        assert rows["s"][2] == 7.0
        assert rows["s"][3] == "'name-0'"
        con.close()

    def test_checkpoint_recomputes_stale_stats(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (a INTEGER)")
        con.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(100)])
        con.execute("DELETE FROM t WHERE a >= 10")
        con.close()  # checkpoint: compaction + exact recompute

        con = repro.connect(db_path)
        row = con.execute(
            "SELECT row_count, ndv, min_value, max_value, stale "
            "FROM repro_column_stats() WHERE table_name = 't'").fetchall()[0]
        assert row[0] == 10
        assert row[1] == 10.0
        assert row[2] == "0" and row[3] == "9"
        assert row[4] is False
        con.close()

    def test_rolled_back_insert_not_persisted(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("INSERT INTO t VALUES (1)")
        con.execute("BEGIN TRANSACTION")
        con.execute("INSERT INTO t VALUES (1000000)")
        con.execute("ROLLBACK")
        con.close()

        con = repro.connect(db_path)
        assert con.execute("SELECT count(*), max(a) FROM t").fetchall() == \
            [(1, 1)]
        con.close()


def _count_ndv_work(monkeypatch):
    """Record the dtype and length of every array NDV is handed."""
    calls = []
    original = DistinctCounter.add_array

    def counting(self, values, distinct=False):
        calls.append((values.dtype, len(values)))
        return original(self, values, distinct)

    monkeypatch.setattr(DistinctCounter, "add_array", counting)
    return calls


def _column(con, table, index):
    manager = con.database.transaction_manager
    transaction = manager.begin()
    try:
        return con.database.catalog.get_table(
            table, transaction).data.columns[index]
    finally:
        manager.rollback(transaction)


class TestLazyNdvFold:
    def test_bulk_append_then_drop_does_no_ndv_work(self, con, monkeypatch):
        rows = 75_000
        rng = np.random.default_rng(5)
        words = np.array([f"w{i:02d}" for i in range(16)], dtype=object)
        con.execute("CREATE TABLE scratch "
                    "(a BIGINT, b DOUBLE, c INTEGER, s VARCHAR, d DOUBLE)")
        calls = _count_ndv_work(monkeypatch)
        with con.appender("scratch") as appender:
            appender.append_numpy(
                {"a": np.arange(rows, dtype=np.int64),
                 "b": rng.normal(size=rows),
                 "c": rng.integers(0, 1000, rows).astype(np.int32),
                 "s": words[rng.integers(0, len(words), rows)],
                 "d": rng.normal(size=rows)},
                {"d": rng.random(rows) >= 0.1})
        con.execute("DROP TABLE scratch")
        # Only the VARCHAR column counted, from its 16 new dictionary
        # entries; no row of the other four columns was looked at.
        assert [dtype for dtype, _ in calls] == [np.dtype(object)]
        assert sum(length for _, length in calls) == len(words)

    @_settings
    @given(st.lists(st.tuples(st.integers(1, 2_500), st.integers(0, 2**32),
                              st.booleans()),
                    min_size=1, max_size=6))
    def test_folded_ndv_equals_exact_after_any_appends(self, batches):
        con = repro.connect()
        try:
            con.execute("CREATE TABLE t (a BIGINT, d DOUBLE)")
            for size, seed, with_nulls in batches:
                rng = np.random.default_rng(seed)
                valid = rng.random(size) >= (0.2 if with_nulls else 0.0)
                with con.appender("t") as appender:
                    appender.append_numpy(
                        {"a": rng.integers(0, 6_000, size).astype(np.int64),
                         "d": rng.integers(0, 50, size) / 4.0},
                        {"a": valid, "d": valid})
            row_count = sum(size for size, _, _ in batches)
            for index in range(2):
                column = _column(con, "t", index)
                folded = column.folded_stats()
                exact = column.exact_statistics(row_count)
                assert folded.watermark == row_count
                assert folded.ndv == exact.ndv
                assert folded.distinct.approximate == \
                    exact.distinct.approximate
                assert (folded.min_value, folded.max_value,
                        folded.null_count) == \
                    (exact.min_value, exact.max_value, exact.null_count)
        finally:
            con.close()

    def test_fold_reads_at_most_a_segment_at_a_time(self, con, monkeypatch):
        rows = 2 * SEGMENT_ROWS + 10
        con.execute("CREATE TABLE t (a BIGINT)")
        with con.appender("t") as appender:
            appender.append_numpy({"a": np.arange(rows, dtype=np.int64) % 7})
        calls = _count_ndv_work(monkeypatch)
        assert con.execute("SELECT ndv FROM repro_column_stats() "
                           "WHERE table_name = 't'").fetchall() == [(7.0,)]
        assert [length for _, length in calls] == \
            [SEGMENT_ROWS, SEGMENT_ROWS, 10]

    def test_update_folds_the_values_it_overwrites(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2), (3)")
        con.execute("UPDATE t SET a = 0")
        # As with eager upkeep: the overwritten 1, 2, 3 and the new 0.
        assert con.execute("SELECT ndv, stale FROM repro_column_stats() "
                           "WHERE table_name = 't'").fetchall() == \
            [(4.0, True)]

    def test_reopen_folds_only_rows_appended_since(self, db_path,
                                                   monkeypatch):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (a BIGINT, d DOUBLE)")
        with con.appender("t") as appender:
            appender.append_numpy({"a": np.arange(10_000, dtype=np.int64),
                                   "d": np.arange(10_000) / 2.0})
        con.close()

        con = repro.connect(db_path)
        try:
            floors = [_column(con, "t", index).stats.ndv for index in range(2)]
            with con.appender("t") as appender:
                appender.append_numpy(
                    {"a": np.arange(10_000, 10_500, dtype=np.int64),
                     "d": np.arange(10_000, 10_500) / 2.0})
            calls = _count_ndv_work(monkeypatch)
            con.execute("SELECT a FROM t WHERE a = 7 AND d = 3.5").fetchall()
            # Each column folds its 500 new rows once, not the 10,000
            # loaded ones (the checkpoint's NDV is their floor).
            assert sorted((str(dtype), length) for dtype, length in calls) \
                == [("float64", 500), ("int64", 500)]
            for index in range(2):
                stats = _column(con, "t", index).stats
                assert stats.watermark == 10_500
                assert stats.ndv == floors[index]  # 500 new rows stay below
        finally:
            con.close()

    def test_concurrent_appends_and_planning(self):
        # Four appenders and four planners on one table: every plan folds
        # under the table lock while appends move the row count.  Under
        # REPRO_SANITIZE=1 the run must be race- and inversion-free.
        batches, batch_rows = 20, 40
        con = repro.connect()
        try:
            con.execute("CREATE TABLE t (a BIGINT, d DOUBLE)")
            database = con.database
            errors = []
            barrier = threading.Barrier(8)

            def append(index):
                own = database.connect()
                try:
                    for batch in range(batches):
                        first = (index * batches + batch) * batch_rows
                        keys = np.arange(first, first + batch_rows,
                                         dtype=np.int64)
                        with own.appender("t") as appender:
                            appender.append_numpy({"a": keys,
                                                   "d": keys / 2.0})
                finally:
                    own.close()

            def plan(index):
                own = database.connect()
                try:
                    for step in range(batches):
                        own.execute(f"EXPLAIN SELECT a FROM t "
                                    f"WHERE a = {step} AND d > {index}"
                                    ).fetchall()
                        own.execute("SELECT ndv FROM repro_column_stats()"
                                    ).fetchall()
                finally:
                    own.close()

            def run(work, index):
                barrier.wait()
                try:
                    work(index)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(work, index))
                       for work in (append, plan) for index in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave folds with appends
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            assert errors == []
            total = 4 * batches * batch_rows
            assert con.execute("SELECT ndv FROM repro_column_stats() "
                               "WHERE table_name = 't'").fetchall() == \
                [(float(total),), (float(total),)]
        finally:
            con.close()
        if sanitizer.enabled():
            assert sanitizer.lock_order_reports() + \
                sanitizer.race_reports() == []


class TestAblationSwitch:
    def test_disabling_statistics_restores_defaults(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        con.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(100)])
        previous = cost.set_statistics_enabled(False)
        try:
            rows = con.execute(
                "EXPLAIN SELECT a FROM t WHERE a = 1").fetchall()
            text = "\n".join(row[0] for row in rows)
            # 100 rows * default equality selectivity, not 1/NDV.
            assert "est=10 rows" in text
        finally:
            cost.set_statistics_enabled(previous)
        rows = con.execute("EXPLAIN SELECT a FROM t WHERE a = 1").fetchall()
        text = "\n".join(row[0] for row in rows)
        assert "est=1 rows" in text
