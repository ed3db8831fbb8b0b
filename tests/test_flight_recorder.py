"""Crash flight recorder: dumped statements, fault classification, JSON dumps.

ISSUE 5's resilience satellite: an embedded engine has no server log, so
when it faults the process must leave a self-contained JSON post-mortem
behind -- automatically on engine faults, on demand via
``PRAGMA flight_dump``.
"""

import json
import os

import pytest

import repro
from repro.errors import (
    BinderError,
    CatalogError,
    CorruptionError,
    InternalError,
    InvalidInputError,
)
from repro.execution.executor import Executor
from repro.introspection.flight import (
    MAX_DUMPED_STATEMENTS,
    MAX_SQL_CHARS,
    dump,
    is_engine_fault,
    statement_entry,
    try_dump,
)
from repro.observability import StatementRecord


def _record(sql, wall_ms=0.0, rows=0, error=None):
    return StatementRecord(
        0, 0, sql, wall_ms=wall_ms, rows_out=rows,
        error=type(error).__name__ if error is not None else "",
        message=str(error) if error is not None else "")


def _dumped_statements(tmp_path, records):
    path = dump(directory=str(tmp_path), statements=records)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["statements"]


class TestFaultClassification:
    def test_internal_and_corruption_are_faults(self):
        assert is_engine_fault(InternalError("x"))
        assert is_engine_fault(CorruptionError("x"))

    def test_user_errors_are_not_faults(self):
        assert not is_engine_fault(BinderError("x"))
        assert not is_engine_fault(CatalogError("x"))
        assert not is_engine_fault(InvalidInputError("x"))

    def test_foreign_exceptions_are_faults(self):
        # An escaping KeyError is by definition an engine bug.
        assert is_engine_fault(KeyError("x"))
        assert is_engine_fault(ZeroDivisionError())

    def test_interpreter_control_exceptions_are_not(self):
        assert not is_engine_fault(KeyboardInterrupt())
        assert not is_engine_fault(SystemExit())


class TestRing:
    """The dump renders statement-log records into its statement entries."""

    def test_records_success_and_error(self, tmp_path):
        error = BinderError("no such column")
        ok, bad = _dumped_statements(tmp_path, [
            _record("SELECT 1", wall_ms=1.23456, rows=1),
            _record("SELECT broken", wall_ms=0.2, error=error)])
        assert set(ok) == {"sql", "timestamp", "duration_ms", "rows",
                           "status"}
        assert ok["status"] == "ok" and ok["rows"] == 1
        assert ok["duration_ms"] == 1.235
        assert bad["status"] == "error"
        assert bad["error"] == f"BinderError: {error}"
        assert "no such column" in bad["error"]

    def test_ring_is_bounded(self, tmp_path):
        records = [_record(f"SELECT {index}")
                   for index in range(MAX_DUMPED_STATEMENTS + 10)]
        statements = _dumped_statements(tmp_path, records)
        assert len(statements) == MAX_DUMPED_STATEMENTS
        assert statements[0]["sql"] == "SELECT 10"
        assert statements[-1]["sql"] == \
            f"SELECT {MAX_DUMPED_STATEMENTS + 9}"

    def test_sql_is_truncated(self, tmp_path):
        (entry,) = _dumped_statements(
            tmp_path, [_record("SELECT " + "x" * 10000)])
        assert len(entry["sql"]) == MAX_SQL_CHARS

    def test_default_capacity(self, tmp_path):
        assert MAX_DUMPED_STATEMENTS == 128
        records = [_record("SELECT 1") for _ in range(3)]
        assert len(_dumped_statements(tmp_path, records)) == 3


class TestConnectionRecording:
    def test_statements_land_in_ring(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        con = repro.connect()
        try:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("INSERT INTO t VALUES (1), (2)")
            con.execute("SELECT * FROM t").fetchall()
            with pytest.raises(BinderError):
                con.execute("SELECT nope FROM t")
            (path,) = con.execute("PRAGMA flight_dump").fetchone()
            with open(path, encoding="utf-8") as handle:
                statements = json.load(handle)["statements"]
            by_sql = {entry["sql"]: entry for entry in statements}
            assert by_sql["SELECT * FROM t"]["status"] == "ok"
            assert by_sql["SELECT * FROM t"]["rows"] == 2
            assert by_sql["SELECT nope FROM t"]["status"] == "error"
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


class TestDump:
    def test_pragma_flight_dump_writes_valid_json(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        con = repro.connect()
        try:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("INSERT INTO t VALUES (1)")
            (path,) = con.execute("PRAGMA flight_dump").fetchone()
            assert os.path.exists(path)
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            assert payload["format"] == "repro-flight-recorder-v1"
            assert payload["pid"] == os.getpid()
            assert payload["reason"] == "PRAGMA flight_dump"
            sqls = [entry["sql"] for entry in payload["statements"]]
            assert "INSERT INTO t VALUES (1)" in sqls
            assert payload["config"]["memory_limit"] > 0
            assert "metric_deltas" in payload
        finally:
            con.close()

    def test_engine_fault_auto_dumps(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        con = repro.connect()
        try:
            con.execute("CREATE TABLE t (a INTEGER)")

            def boom(self, plan):
                raise InternalError("forced fault for test")

            # run_plan is the funnel every SELECT execution passes through
            # (both the plan-cache path and the legacy execute_select path).
            monkeypatch.setattr(Executor, "run_plan", boom)
            with pytest.raises(InternalError):
                con.execute("SELECT * FROM t")
            monkeypatch.undo()

            (dump,) = list(tmp_path.glob("repro_flight_*.json"))
            payload = json.loads(dump.read_text(encoding="utf-8"))
            assert payload["error"] == {
                "type": "InternalError",
                "message": "forced fault for test"}
            assert payload["reason"] == "engine fault: InternalError"
            last = payload["statements"][-1]
            assert last["sql"] == "SELECT * FROM t"
            assert last["status"] == "error"
        finally:
            con.close()

    def test_dump_statements_are_the_statement_log_tail(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        con = repro.connect()
        try:
            for index in range(MAX_DUMPED_STATEMENTS + 22):
                con.execute(f"SELECT {index}").fetchall()
            (path,) = con.execute("PRAGMA flight_dump").fetchone()
            with open(path, encoding="utf-8") as handle:
                statements = json.load(handle)["statements"]
            # The PRAGMA's own record lands after the dump was written.
            records = con.database.statement_log.records()[:-1]
            assert statements == [statement_entry(record) for record
                                  in records[-MAX_DUMPED_STATEMENTS:]]
            assert statements[0]["sql"] == "SELECT 22"
        finally:
            con.close()

    def test_persistent_database_dumps_beside_file(self, tmp_path):
        (tmp_path / "db").mkdir()
        con = repro.connect(str(tmp_path / "db" / "data.repro"))
        try:
            con.execute("CREATE TABLE t (a INTEGER)")
            (path,) = con.execute("PRAGMA flight_dump").fetchone()
            assert os.path.dirname(path) == str(tmp_path / "db")
        finally:
            con.close()

    def test_dump_failure_is_swallowed_on_fault_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("builtins.open", refuse)
        assert try_dump(reason="test") is None

    def test_metric_deltas_since_creation(self, tmp_path, monkeypatch):
        # Metrics count from zero when the database opens, so the dump's
        # deltas are its non-zero metrics: here, one statement's worth.
        monkeypatch.chdir(tmp_path)
        con = repro.connect()
        try:
            con.execute("SELECT 42").fetchall()
            (path,) = con.execute("PRAGMA flight_dump").fetchone()
            with open(path, encoding="utf-8") as handle:
                deltas = json.load(handle)["metric_deltas"]
            assert deltas["repro_queries_total"] == 1
            assert deltas["repro_rows_returned_total"] == 1
            assert "repro_wal_bytes_written_total" not in deltas
        finally:
            con.close()

    def test_spans_serialized_when_tracing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        con = repro.connect(config={"trace_enabled": True})
        try:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("SELECT * FROM t").fetchall()
            (path,) = con.execute("PRAGMA flight_dump").fetchone()
            payload = json.loads(open(path, encoding="utf-8").read())
            assert payload["spans"], "tracing was on; spans must be dumped"
            span_names = {span["name"] for span in payload["spans"]}
            assert "SELECT * FROM t" in span_names
        finally:
            con.close()
