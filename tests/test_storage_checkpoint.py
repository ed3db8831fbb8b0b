"""Checkpoint tests: persistence round trips, column-granular rewrites,
compaction, and crash safety via the double-header scheme."""

import os

import numpy as np
import pytest

import repro
from repro.errors import CorruptionError, TransactionContextError


def reopen(path, **config):
    return repro.connect(path, config or None)


class TestRoundTrip:
    def test_types_survive(self, db_path):
        con = repro.connect(db_path)
        con.execute(
            "CREATE TABLE every (b BOOLEAN, i INTEGER, big BIGINT, d DOUBLE, "
            "s VARCHAR, dt DATE, ts TIMESTAMP)")
        con.execute(
            "INSERT INTO every VALUES "
            "(true, 1, 9999999999, 1.5, 'hello', DATE '2021-01-02', NULL), "
            "(false, NULL, -1, NULL, NULL, NULL, "
            "TIMESTAMP '2020-05-06 07:08:09')"
            .replace("DATE '2021-01-02'", "CAST('2021-01-02' AS DATE)")
            .replace("TIMESTAMP '2020-05-06 07:08:09'",
                     "CAST('2020-05-06 07:08:09' AS TIMESTAMP)"))
        before = con.execute("SELECT * FROM every ORDER BY i NULLS FIRST"
                             ).fetchall()
        con.close()
        con = reopen(db_path)
        after = con.execute("SELECT * FROM every ORDER BY i NULLS FIRST"
                            ).fetchall()
        con.close()
        assert after == before

    def test_defaults_and_not_null_survive(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR DEFAULT 'x')")
        con.execute("INSERT INTO t (a) VALUES (1)")
        con.close()
        con = reopen(db_path)
        con.execute("INSERT INTO t (a) VALUES (2)")
        assert con.execute("SELECT b FROM t ORDER BY a").fetchall() == \
            [("x",), ("x",)]
        with pytest.raises(repro.ConstraintError):
            con.execute("INSERT INTO t VALUES (NULL, 'y')")
        con.close()

    def test_views_survive(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (i INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2)")
        con.execute("CREATE VIEW doubled AS SELECT i * 2 AS x FROM t")
        con.close()
        con = reopen(db_path)
        assert con.execute("SELECT x FROM doubled ORDER BY x").fetchall() == \
            [(2,), (4,)]
        con.close()

    def test_multi_segment_table(self, db_path):
        from repro.storage.table_data import SEGMENT_ROWS

        con = repro.connect(db_path)
        con.execute("CREATE TABLE big (i INTEGER)")
        n = SEGMENT_ROWS + 1234
        with con.appender("big") as appender:
            appender.append_numpy({"i": np.arange(n, dtype=np.int32)})
        con.close()
        con = reopen(db_path)
        assert con.query_value("SELECT count(*) FROM big") == n
        assert con.query_value("SELECT sum(i) FROM big") == sum(range(n))
        con.close()

    def test_empty_table_survives(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE empty (i INTEGER, s VARCHAR)")
        con.close()
        con = reopen(db_path)
        assert con.query_value("SELECT count(*) FROM empty") == 0
        con.execute("INSERT INTO empty VALUES (1, 'x')")
        con.close()

    def test_deleted_rows_compacted(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (i INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
        con.execute("DELETE FROM t WHERE i % 2 = 0")
        con.execute("CHECKPOINT")
        table = con.database.catalog.get_table(
            "t", con.database.transaction_manager.begin())
        assert table.data.row_count == 2  # physically compacted
        con.close()
        con = reopen(db_path)
        assert con.execute("SELECT i FROM t ORDER BY i").fetchall() == \
            [(1,), (3,)]
        con.close()

    def test_checkpoint_after_full_delete(self, db_path):
        """Regression: compacting to zero rows must not mark phantom row 0
        dirty -- the follow-up checkpoint would serialize garbage."""
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (i INTEGER, s VARCHAR)")
        con.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        con.execute("CHECKPOINT")
        con.execute("DELETE FROM t")
        con.execute("CHECKPOINT")
        transaction = con.database.transaction_manager.begin()
        table = con.database.catalog.get_table("t", transaction)
        assert table.data.row_count == 0
        for column in table.data.columns:
            assert not column.is_dirty()
        con.database.transaction_manager.rollback(transaction)
        con.close()
        con = reopen(db_path)
        assert con.query_value("SELECT count(*) FROM t") == 0
        con.execute("INSERT INTO t VALUES (9, 'z')")
        assert con.execute("SELECT * FROM t").fetchall() == [(9, "z")]
        con.close()


class TestColumnGranularRewrite:
    def test_update_rewrites_only_touched_column(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE wide (a INTEGER, b INTEGER, c INTEGER, "
                    "d INTEGER)")
        with con.appender("wide") as appender:
            n = 10_000
            appender.append_numpy({
                "a": np.arange(n, dtype=np.int32),
                "b": np.arange(n, dtype=np.int32),
                "c": np.arange(n, dtype=np.int32),
                "d": np.arange(n, dtype=np.int32),
            })
        con.execute("CHECKPOINT")
        baseline = con.database.storage.last_checkpoint_stats
        assert baseline["segments_written"] >= 4

        con.execute("UPDATE wide SET b = b + 1")
        con.execute("CHECKPOINT")
        stats = con.database.storage.last_checkpoint_stats
        # Only column b was rewritten; a, c, d reuse their segments.
        assert stats["segments_written"] == 1
        assert stats["segments_reused"] == 3
        con.close()
        con = reopen(db_path)
        assert con.query_value("SELECT sum(b) - sum(a) FROM wide") == 10_000
        con.close()

    def test_append_rewrites_only_tail_segments(self, db_path):
        from repro.storage.table_data import SEGMENT_ROWS

        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (x INTEGER)")
        with con.appender("t") as appender:
            appender.append_numpy(
                {"x": np.arange(2 * SEGMENT_ROWS, dtype=np.int32)})
        con.execute("CHECKPOINT")
        con.execute("INSERT INTO t VALUES (1)")
        con.execute("CHECKPOINT")
        stats = con.database.storage.last_checkpoint_stats
        # Two full clean segments reused; only the new tail written.
        assert stats["segments_reused"] == 2
        assert stats["segments_written"] == 1
        con.close()

    def test_no_changes_writes_nothing(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (x INTEGER)")
        con.execute("INSERT INTO t VALUES (1)")
        con.execute("CHECKPOINT")
        con.execute("SELECT * FROM t").fetchall()
        con.execute("CHECKPOINT")
        stats = con.database.storage.last_checkpoint_stats
        assert stats["segments_written"] == 0
        con.close()


class TestCrashSafety:
    def test_wal_only_changes_survive_crash(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (i INTEGER)")
        con.execute("INSERT INTO t VALUES (1)")
        # Simulate a hard crash: close file handles without checkpointing.
        database = con.database
        database.storage.wal.close()
        database.storage.block_file.close()
        con2 = repro.connect(db_path)
        assert con2.execute("SELECT i FROM t").fetchall() == [(1,)]
        con2.close()

    def test_crash_between_checkpoints_keeps_old_state(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (i INTEGER)")
        con.execute("INSERT INTO t VALUES (1), (2)")
        con.close()  # checkpoint on close

        # Start modifying, then crash before any checkpoint.
        con = repro.connect(db_path)
        con.execute("INSERT INTO t VALUES (3)")
        database = con.database
        database.storage.wal.close()
        database.storage.block_file.close()

        con = repro.connect(db_path)
        # WAL replay restores the insert.
        assert con.query_value("SELECT count(*) FROM t") == 3
        con.close()

    def test_file_space_is_reused_across_checkpoints(self, db_path):
        con = repro.connect(db_path, {"checkpoint_on_close": False})
        con.execute("CREATE TABLE t (x INTEGER)")
        with con.appender("t") as appender:
            appender.append_numpy({"x": np.arange(50_000, dtype=np.int32)})
        con.execute("CHECKPOINT")
        size_after_first = os.path.getsize(db_path)
        for _ in range(5):
            con.execute("UPDATE t SET x = x + 1")
            con.execute("CHECKPOINT")
        size_after_many = os.path.getsize(db_path)
        # Repeated update+checkpoint cycles must not grow the file linearly:
        # freed blocks are recycled through the persisted free list.
        assert size_after_many < size_after_first * 3
        con.close()

    def test_compaction_frees_the_segments_it_replaces(self, db_path):
        # Rolling retention: append a batch, drop the oldest, checkpoint
        # every 5th batch.  Each checkpoint compacts and rewrites the whole
        # table; the blocks of the segments it replaces must return to the
        # free list, so the file stops growing once the live window is full.
        con = repro.connect(db_path, {"checkpoint_on_close": False})
        con.execute("CREATE TABLE t (batch INTEGER, k INTEGER, v DOUBLE)")
        rows = 30_000
        sizes = []
        for batch in range(30):
            with con.appender("t") as appender:
                appender.append_numpy({
                    "batch": np.full(rows, batch, dtype=np.int32),
                    "k": np.arange(rows, dtype=np.int32),
                    "v": np.arange(rows, dtype=np.float64) * 0.5 + batch,
                })
            con.execute(f"DELETE FROM t WHERE batch <= {batch - 5}")
            if batch % 5 == 4:
                con.execute("CHECKPOINT")
                sizes.append(os.path.getsize(db_path))
        assert sizes[2:] == [sizes[1]] * (len(sizes) - 2), sizes
        query = "SELECT count(*), sum(k), sum(v), min(batch) FROM t"
        before = con.execute(query).fetchall()
        con.close()
        con = reopen(db_path)
        assert con.execute(query).fetchall() == before
        con.close()

    def test_checkpoint_requires_quiescence(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (i INTEGER)")
        other = con.duplicate()
        other.begin()
        other.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(TransactionContextError):
            con.execute("CHECKPOINT")
        other.rollback()
        con.execute("CHECKPOINT")  # fine once quiescent
        con.close()

    def test_checkpoint_inside_transaction_rejected(self, file_con):
        file_con.execute("BEGIN")
        with pytest.raises(TransactionContextError):
            file_con.execute("CHECKPOINT")
        file_con.execute("ROLLBACK")


class TestAutoCheckpoint:
    def test_wal_threshold_triggers_checkpoint(self, db_path):
        con = repro.connect(db_path, {"wal_autocheckpoint": 4096,
                                      "checkpoint_on_close": False})
        con.execute("CREATE TABLE t (i INTEGER)")
        for batch in range(5):
            values = ", ".join(f"({i})" for i in range(200))
            con.execute(f"INSERT INTO t VALUES {values}")
        assert con.database.storage.checkpoints_written >= 1
        # All data still visible after auto-checkpoint + more inserts.
        assert con.query_value("SELECT count(*) FROM t") == 1000
        con.close()
