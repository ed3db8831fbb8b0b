"""The statement log is the engine's flight recorder, and it writes no file.

An embedded engine has no server log, and it must not assume it owns the
host's disk either.  Every statement -- success, user error or engine
fault -- lands in the statement log's ring, readable as
``repro_statement_log()``; the exception itself reaches the host.  Nothing
is dumped into the working directory or beside the database file.
"""

import pytest

import repro
from repro.errors import BinderError, CatalogError, InternalError
from repro.execution.executor import Executor


class TestConnectionRecording:
    def test_statements_land_in_ring(self):
        con = repro.connect()
        try:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("INSERT INTO t VALUES (1), (2)")
            con.execute("SELECT * FROM t").fetchall()
            with pytest.raises(BinderError):
                con.execute("SELECT nope FROM t")
            by_sql = {sql: (rows, error) for sql, rows, error in con.execute(
                "SELECT sql, rows_out, error FROM repro_statement_log()"
            ).fetchall()}
            assert by_sql["SELECT * FROM t"] == (2, "")
            assert by_sql["SELECT nope FROM t"] == (0, "BinderError")
        finally:
            con.close()

    def test_user_error_does_not_dump(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        con = repro.connect()
        try:
            with pytest.raises(CatalogError):
                con.execute("SELECT * FROM missing_table")
        finally:
            con.close()
        assert list(tmp_path.glob("repro_flight_*.json")) == []

    def test_engine_fault_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        con = repro.connect()
        try:
            con.execute("CREATE TABLE t (a INTEGER)")

            def boom(self, plan):
                raise InternalError("forced fault for test")

            # run_plan is the funnel every SELECT execution passes through.
            monkeypatch.setattr(Executor, "run_plan", boom)
            with pytest.raises(InternalError, match="forced fault"):
                con.execute("SELECT * FROM t")
            monkeypatch.undo()

            assert list(tmp_path.iterdir()) == []
            rows = con.execute(
                "SELECT error FROM repro_statement_log() "
                "WHERE sql = 'SELECT * FROM t'").fetchall()
            assert rows == [("InternalError",)]
        finally:
            con.close()
