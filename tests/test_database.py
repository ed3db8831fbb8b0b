"""Database-level tests: lifecycle, limits, interruption, persistence."""

import threading
import time

import numpy as np
import pytest

import repro
from repro.database import Database
from repro.errors import (
    InterruptError,
    OutOfMemoryError,
)
from repro.errors import ConnectionError as ClosedError
from repro.server import QueryServer


class TestLifecycle:
    def test_database_context_manager(self):
        with Database() as database:
            con = database.connect()
            assert con.execute("SELECT 1").fetchvalue() == 1
            con.close()

    def test_multiple_connections_share_state(self):
        database = Database()
        first = database.connect()
        second = database.connect()
        first.execute("CREATE TABLE t (i INTEGER)")
        first.execute("INSERT INTO t VALUES (1)")
        assert second.query_value("SELECT count(*) FROM t") == 1
        database.close()

    def test_connect_after_close_rejected(self):
        database = Database()
        database.close()
        with pytest.raises(ClosedError):
            database.connect()

    def test_double_close(self):
        database = Database()
        database.close()
        database.close()

    def test_repr(self, db_path):
        assert "in-memory" in repr(Database())
        database = Database(db_path)
        assert db_path in repr(database)
        database.close()


class TestMemoryLimit:
    def test_memory_limit_enforced_on_buffers(self):
        con = repro.connect(config={"memory_limit": 1 << 20})
        with pytest.raises(OutOfMemoryError):
            con.database.buffer_manager.allocate_buffer(2 << 20)
        con.close()

    def test_big_join_respects_limit_via_merge_fallback(self):
        """A build side exceeding the hard memory limit must take the
        out-of-core merge join path instead of failing."""
        con = repro.connect(config={"memory_limit": 2 << 20})
        con.execute("CREATE TABLE a (k INTEGER)")
        con.execute("CREATE TABLE b (k INTEGER, pad INTEGER)")
        n = 300_000
        with con.appender("a") as appender:
            appender.append_numpy({
                "k": np.arange(0, 2 * n, 2, dtype=np.int32)[:50_000]})
        with con.appender("b") as appender:
            appender.append_numpy({
                "k": np.arange(n, dtype=np.int32),
                "pad": np.arange(n, dtype=np.int32),
            })
        count = con.query_value(
            "SELECT count(*) FROM a JOIN b ON a.k = b.k")
        assert count == 50_000
        con.close()

    def test_sort_spills_under_limit(self):
        con = repro.connect(config={"memory_limit": 1 << 20})
        con.execute("CREATE TABLE t (x INTEGER)")
        rng = np.random.default_rng(0)
        with con.appender("t") as appender:
            appender.append_numpy(
                {"x": rng.integers(0, 10**6, 300_000).astype(np.int32)})
        rows = con.execute("SELECT x FROM t ORDER BY x LIMIT 3").fetchall()
        values = sorted(rng.integers(0, 10**6, 1))  # dummy
        first_three = con.execute(
            "SELECT min(x) FROM t").fetchvalue()
        assert rows[0][0] == first_three
        con.close()


class TestInterrupt:
    def test_interrupt_streaming_query(self):
        con = repro.connect()
        con.execute("CREATE TABLE t (x INTEGER)")
        with con.appender("t") as appender:
            appender.append_numpy({"x": np.arange(500_000, dtype=np.int32)})
        result = con.execute("SELECT x + 1 FROM t", stream=True)
        assert result.fetch_chunk() is not None
        con.interrupt()
        with pytest.raises(InterruptError):
            while result.fetch_chunk() is not None:
                pass
        con.close()

    def test_interrupt_does_not_poison_connection(self):
        con = repro.connect()
        con.execute("CREATE TABLE t (x INTEGER)")
        con.execute("INSERT INTO t VALUES (1)")
        result = con.execute("SELECT x FROM t", stream=True)
        con.interrupt()
        try:
            result.fetchall()
        except InterruptError:
            pass
        result.close()
        # A fresh statement runs normally.
        assert con.query_value("SELECT count(*) FROM t") == 1
        con.close()


class TestPersistenceLifecycle:
    def test_many_tables_and_views_survive(self, db_path):
        con = repro.connect(db_path)
        for index in range(12):
            con.execute(f"CREATE TABLE t{index} (a INTEGER, b VARCHAR)")
            con.execute(f"INSERT INTO t{index} VALUES ({index}, 'v{index}')")
        con.execute("CREATE VIEW all3 AS SELECT a FROM t3")
        con.close()
        con = repro.connect(db_path)
        assert len(con.table_names()) == 12
        assert con.query_value("SELECT b FROM t7") == "v7"
        assert con.query_value("SELECT a FROM all3") == 3
        con.close()

    def test_reopen_then_modify_then_reopen(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE log (x INTEGER)")
        con.execute("INSERT INTO log VALUES (1)")
        con.close()
        con = repro.connect(db_path)
        con.execute("INSERT INTO log VALUES (2)")
        con.execute("UPDATE log SET x = x * 10")
        con.close()
        con = repro.connect(db_path)
        assert con.execute("SELECT x FROM log ORDER BY x").fetchall() == \
            [(10,), (20,)]
        con.close()

    def test_drop_table_persists(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE doomed (x INTEGER)")
        con.execute("CREATE TABLE kept (x INTEGER)")
        con.close()
        con = repro.connect(db_path)
        con.execute("DROP TABLE doomed")
        con.close()
        con = repro.connect(db_path)
        assert con.table_names() == ["kept"]
        con.close()

    def test_wal_only_view_replays(self, db_path):
        con = repro.connect(db_path, {"checkpoint_on_close": False})
        con.execute("CREATE TABLE t (x INTEGER)")
        con.execute("CREATE VIEW doubled AS SELECT x * 2 AS y FROM t")
        con.execute("INSERT INTO t VALUES (21)")
        database = con.database
        database.storage.wal.close()
        database.storage.block_file.close()
        con = repro.connect(db_path)
        assert con.query_value("SELECT y FROM doubled") == 42
        con.close()

    def test_checkpoint_losing_the_lock_to_close_raises(self, db_path,
                                                        monkeypatch):
        # The close lands between checkpoint's open check and its lock:
        # the checkpoint must see it under the lock and not write the
        # closed file.
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (x INTEGER)")
        con.execute("INSERT INTO t VALUES (7)")
        database = con.database
        check_open = database.check_open

        def check_then_close():
            check_open()
            monkeypatch.setattr(database, "check_open", check_open)
            database.close()

        monkeypatch.setattr(database, "check_open", check_then_close)
        with pytest.raises(ClosedError):
            database.checkpoint(force=True)
        database.maybe_auto_checkpoint()  # closed: nothing to do, no error
        con = repro.connect(db_path)
        assert con.query_value("SELECT x FROM t") == 7
        con.close()

    def test_wal_size_pragma_and_truncation(self, db_path):
        con = repro.connect(db_path, {"checkpoint_on_close": False})
        con.execute("CREATE TABLE t (x INTEGER)")
        con.execute("INSERT INTO t VALUES (1)")
        assert con.execute("PRAGMA wal_size").fetchvalue() > 0
        con.execute("CHECKPOINT")
        assert con.execute("PRAGMA wal_size").fetchvalue() == 0
        con.close()


class TestCooperation:
    def test_engine_owns_no_thread_between_statements(self, db_path):
        # The host owns the process: once a statement returns, no thread
        # the engine started is still alive.  Morsel workers are named
        # ``repro-morsel`` and are joined when their pipeline ends.
        def check_no_engine_threads():
            names = [thread.name for thread in threading.enumerate()
                     if thread.name.startswith("repro-")]
            assert names == []

        aggregate = "SELECT g, count(*), sum(v) FROM t GROUP BY g"
        # 400k rows make 25 morsels, each long enough that the pool's
        # first worker is still busy while the next ones start: all four
        # workers run.
        con = repro.connect(db_path, {"threads": 4, "morsel_size": 4096})
        try:
            check_no_engine_threads()
            con.execute("CREATE TABLE t (g INTEGER, v INTEGER)")
            with con.appender("t") as appender:
                index = np.arange(400_000)
                appender.append_numpy({"g": (index % 7).astype(np.int32),
                                       "v": index.astype(np.int32)})
            check_no_engine_threads()
            analyze = "\n".join(line for (line,) in con.execute(
                f"EXPLAIN ANALYZE {aggregate}").fetchall())
            assert "parallel_workers: 4" in analyze
            check_no_engine_threads()
            assert len(con.execute(aggregate).fetchall()) == 7
            check_no_engine_threads()
            con.execute("INSERT INTO t VALUES (7, 1)")
            check_no_engine_threads()
            con.execute("CHECKPOINT")
            check_no_engine_threads()
            with QueryServer(con.database) as server:
                with server.session("host") as session:
                    assert len(session.execute(aggregate).fetchall()) == 8
                    check_no_engine_threads()
            check_no_engine_threads()
        finally:
            con.close()
        check_no_engine_threads()


class TestCatalogMaintenance:
    def test_catalog_prunes_dropped_versions(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (x INTEGER)")
        con.execute("DROP TABLE t")
        con.execute("CREATE TABLE t (y VARCHAR)")
        con.execute("CHECKPOINT")  # prunes invisible versions
        catalog = con.database.catalog
        assert len(catalog._entries["t"]) == 1
        con.close()

    def test_recreated_table_has_new_schema(self, db_path):
        con = repro.connect(db_path)
        con.execute("CREATE TABLE t (x INTEGER)")
        con.execute("DROP TABLE t")
        con.execute("CREATE TABLE t (y VARCHAR)")
        con.execute("INSERT INTO t VALUES ('hello')")
        con.close()
        con = repro.connect(db_path)
        assert con.query_value("SELECT y FROM t") == "hello"
        con.close()
