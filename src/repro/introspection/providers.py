"""Snapshot providers behind the built-in system table functions.

Every provider turns one slice of engine state into a list of plain row
tuples.  The sources are the same structures the Python-level APIs expose
(``connection.metrics()``, the tracer's span ring, the statement log,
quacksan's lock statistics, the catalog, the transaction manager, the
storage layer, the serving registry) -- this module only flattens them
into relational shape.  Every table is a pull snapshot taken when it is
scanned; nothing behind them samples in the background.

All providers follow the copy-then-release rule (quacklint QLO003): state
guarded by an engine lock is copied into the result list inside the lock's
scope and the lock is released before any row is handed to the scan; no
provider is a generator that yields mid-snapshot.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, List, Tuple

from ..sanitizer import lock_statistics
from ..types import BIGINT, BOOLEAN, DOUBLE, VARCHAR
from .registry import SystemTableFunction, register

__all__ = ["register_builtin_functions"]

Row = Tuple[Any, ...]


# -- observability -----------------------------------------------------------

def metrics_rows(database: Any, transaction: Any) -> List[Row]:
    """The database's metrics as ``(name, kind, value)`` rows; a histogram
    gives its ``_count`` and ``_sum``."""
    rows: List[Row] = []
    for name, kind, _, value in database.metrics():
        if kind == "histogram":
            rows.append((name + "_count", kind, float(value["count"])))
            rows.append((name + "_sum", kind, float(value["sum"])))
        else:
            rows.append((name, kind, float(value)))
    return rows


def traces_rows(database: Any, transaction: Any) -> List[Row]:
    """The database's completed quacktrace spans, oldest first."""
    rows: List[Row] = []
    for span in database.tracer.spans():
        rows.append((span.span_id, span.parent_id, span.trace_id, span.name,
                     span.kind, span.thread_ident, span.wall_ms, span.cpu_ms,
                     span.rows, span.chunks, span.bytes_processed))
    return rows


def slow_queries_rows(database: Any, transaction: Any) -> List[Row]:
    rows: List[Row] = []
    for record in database.statement_log.slow():
        rows.append((record.sql, record.wall_ms, record.threshold_ms,
                     record.timestamp, record.span_count,
                     record.session_id, record.statement_seq))
    return rows


def statement_log_rows(database: Any, transaction: Any) -> List[Row]:
    """Per-statement resource bills, oldest first (bounded ring)."""
    return list(database.statement_log.rows())


def activity_rows(database: Any, transaction: Any) -> List[Row]:
    """Statements in flight *right now*, one row per busy session.

    A session querying this table sees its own statement (phase
    ``executing``) -- the query observing the activity is itself activity.
    """
    rows: List[Row] = []
    for info in database.session_registry.activity_snapshot():
        rows.append((info["session_id"], info["name"],
                     info["statement_seq"], info["sql"], info["phase"],
                     info["started_at"], info["elapsed_ms"],
                     info["rows_so_far"]))
    return rows


# -- configuration -----------------------------------------------------------

def settings_rows(database: Any, transaction: Any) -> List[Row]:
    config = database.config
    rows: List[Row] = []
    for field in dataclasses.fields(config):
        rows.append((field.name, str(getattr(config, field.name))))
    return rows


# -- catalog -----------------------------------------------------------------

def tables_rows(database: Any, transaction: Any) -> List[Row]:
    """Catalog entries visible to the *introspecting* transaction (MVCC)."""
    rows: List[Row] = []
    for table in database.catalog.tables(transaction):
        rows.append((table.name, "table", len(table.columns),
                     table.data.row_count, table.created_by))
    for view in database.catalog.views(transaction):
        rows.append((view.name, "view", None, None, view.created_by))
    return rows


def columns_rows(database: Any, transaction: Any) -> List[Row]:
    rows: List[Row] = []
    for table in database.catalog.tables(transaction):
        for index, column in enumerate(table.columns):
            rows.append((table.name, column.name, index, str(column.dtype),
                         column.nullable))
    return rows


# -- transactions ------------------------------------------------------------

def transactions_rows(database: Any, transaction: Any) -> List[Row]:
    rows: List[Row] = []
    for info in database.transaction_manager.snapshot_active():
        rows.append((info["transaction_id"], info["start_time"],
                     info["state"], info["has_writes"], info["wal_records"],
                     info["modified_tables"]))
    return rows


# -- locks (quacksan) --------------------------------------------------------

def locks_rows(database: Any, transaction: Any) -> List[Row]:
    """Per-lock statistics from quacksan (empty while REPRO_SANITIZE is off)."""
    rows: List[Row] = []
    for name, stats in sorted(lock_statistics().items()):
        data = stats.as_dict()
        rows.append((name, int(data["acquisitions"]), int(data["contentions"]),
                     float(data["wait_time"]), float(data["hold_time"]),
                     float(data["max_hold"]), int(data["same_name_nestings"])))
    return rows


# -- optimizer ---------------------------------------------------------------

def optimizer_rows(database: Any, transaction: Any) -> List[Row]:
    """Decisions of the newest logged statement that ran the optimizer.

    Plan-cache and result-cache hits skip the optimizer, and statements
    reading a system table record no decisions, so neither replaces the
    report.  Only the statement log's window is searched.
    """
    record = database.statement_log.newest_with("decisions")
    if record is None:
        return []
    return [(record.statement_seq, seq) + decision
            for seq, decision in enumerate(record.decisions)]


def plan_checks_rows(database: Any, transaction: Any) -> List[Row]:
    """quackplan results of the newest logged statement that has any.

    Empty unless the database runs with ``verify_plans``.  A plan-cache
    hit's checks are its own lowering; statements reading a system table
    are verified but record nothing, so reading never replaces the report.
    """
    record = database.statement_log.newest_with("plan_checks")
    if record is None:
        return []
    return [(record.statement_seq, seq) + check
            for seq, check in enumerate(record.plan_checks)]


def column_stats_rows(database: Any, transaction: Any) -> List[Row]:
    """Per-column statistics backing the cost model (min/max/NDV/nulls)."""
    rows: List[Row] = []
    for table in database.catalog.tables(transaction):
        for index, column in enumerate(table.columns):
            stats = table.data.columns[index].folded_stats()
            rows.append((table.name, column.name, int(stats.row_count),
                         int(stats.null_count), float(stats.ndv),
                         repr(stats.min_value) if stats.min_value is not None
                         else None,
                         repr(stats.max_value) if stats.max_value is not None
                         else None,
                         bool(stats.stale)))
    return rows


# -- storage -----------------------------------------------------------------

def storage_rows(database: Any, transaction: Any) -> List[Row]:
    storage = database.storage
    buffers = database.buffer_manager
    block_file_bytes = 0
    if storage.block_file is not None and os.path.exists(storage.block_file.path):
        block_file_bytes = os.path.getsize(storage.block_file.path)
    checkpoint_stats = dict(storage.last_checkpoint_stats)
    pairs: List[Tuple[str, int]] = [
        ("in_memory", int(storage.in_memory)),
        ("wal_enabled", int(storage.wal.enabled)),
        ("wal_bytes", int(storage.wal.size())),
        ("block_file_bytes", int(block_file_bytes)),
        ("checkpoints_written", int(storage.checkpoints_written)),
        ("last_checkpoint_bytes", int(checkpoint_stats.get("bytes_written", 0))),
        ("buffer_used_bytes", int(buffers.used_bytes)),
        ("buffer_peak_bytes", int(buffers.peak_bytes)),
        ("buffer_memory_limit", int(buffers.memory_limit)),
        ("block_cache_hits", int(buffers.cache_hits)),
        ("block_cache_misses", int(buffers.cache_misses)),
        ("block_cache_evictions", int(buffers.cache_evictions)),
    ]
    return [(name, value) for name, value in pairs]


# -- serving front end -------------------------------------------------------

def sessions_rows(database: Any, transaction: Any) -> List[Row]:
    """Live serving sessions with their per-session statistics.

    Copy-then-release: the registry snapshots every session's stats inside
    one ``server.sessions`` critical section (sessions alias that lock for
    their stat writes), then the rows are built lock-free.
    """
    rows: List[Row] = []
    for info in database.session_registry.snapshot():
        rows.append((info["session_id"], info["name"], info["state"],
                     info["statements"], info["rows_returned"],
                     info["errors"], info["last_sql"], info["created_at"],
                     info["wall_ms"], info["cpu_ms"], info["rows_scanned"],
                     info["buffer_hits"], info["buffer_misses"],
                     info["peak_memory"]))
    return rows


def serving_rows(database: Any, transaction: Any) -> List[Row]:
    """Serving-layer counters: sessions, plan/result caches, admission."""
    pairs: List[Tuple[str, int]] = []
    for prefix, stats in (
        ("sessions", database.session_registry.stats()),
        ("plan_cache", database.plan_cache.stats()),
        ("result_cache", database.result_cache.stats()),
        ("admission", database.admission.stats()),
    ):
        for name, value in stats.items():
            pairs.append((f"{prefix}.{name}", int(value)))
    return pairs


# -- registration ------------------------------------------------------------

def register_builtin_functions() -> None:
    """Register the built-in system table functions (idempotent; called at
    package import)."""
    register(SystemTableFunction(
        "repro_metrics", "this database's engine metrics",
        [("name", VARCHAR), ("kind", VARCHAR), ("value", DOUBLE)],
        metrics_rows))
    register(SystemTableFunction(
        "repro_traces", "completed quacktrace spans, oldest first",
        [("span_id", BIGINT), ("parent_id", BIGINT), ("trace_id", BIGINT),
         ("name", VARCHAR), ("kind", VARCHAR), ("thread", BIGINT),
         ("wall_ms", DOUBLE), ("cpu_ms", DOUBLE), ("rows", BIGINT),
         ("chunks", BIGINT), ("bytes", BIGINT)],
        traces_rows))
    register(SystemTableFunction(
        "repro_slow_queries", "slow-query log records, oldest first",
        [("sql", VARCHAR), ("duration_ms", DOUBLE), ("threshold_ms", DOUBLE),
         ("timestamp", DOUBLE), ("span_count", BIGINT),
         ("session_id", BIGINT), ("statement_seq", BIGINT)],
        slow_queries_rows))
    register(SystemTableFunction(
        "repro_statement_log",
        "per-statement resource accounting, oldest first",
        [("session_id", BIGINT), ("statement_seq", BIGINT), ("sql", VARCHAR),
         ("timestamp", DOUBLE), ("wall_ms", DOUBLE), ("cpu_ms", DOUBLE),
         ("rows_out", BIGINT), ("rows_scanned", BIGINT),
         ("vectors", BIGINT), ("buffer_hits", BIGINT),
         ("buffer_misses", BIGINT), ("memory_bytes", BIGINT),
         ("error", VARCHAR), ("trace_id", BIGINT)],
        statement_log_rows))
    register(SystemTableFunction(
        "repro_activity",
        "live per-session activity: the statements in flight right now",
        [("session_id", BIGINT), ("name", VARCHAR),
         ("statement_seq", BIGINT), ("sql", VARCHAR), ("phase", VARCHAR),
         ("started_at", DOUBLE), ("elapsed_ms", DOUBLE),
         ("rows_so_far", BIGINT)],
        activity_rows))
    register(SystemTableFunction(
        "repro_settings", "current database configuration options",
        [("name", VARCHAR), ("value", VARCHAR)],
        settings_rows))
    register(SystemTableFunction(
        "repro_tables", "catalog tables and views visible to this transaction",
        [("name", VARCHAR), ("type", VARCHAR), ("column_count", BIGINT),
         ("row_count", BIGINT), ("created_by", BIGINT)],
        tables_rows))
    register(SystemTableFunction(
        "repro_columns", "columns of every visible table",
        [("table_name", VARCHAR), ("column_name", VARCHAR),
         ("column_index", BIGINT), ("dtype", VARCHAR),
         ("nullable", BOOLEAN)],
        columns_rows))
    register(SystemTableFunction(
        "repro_transactions", "active transactions in this database",
        [("transaction_id", BIGINT), ("start_time", BIGINT),
         ("state", VARCHAR), ("has_writes", BOOLEAN),
         ("wal_records", BIGINT), ("modified_tables", BIGINT)],
        transactions_rows))
    register(SystemTableFunction(
        "repro_locks", "quacksan per-lock statistics (needs REPRO_SANITIZE)",
        [("lock", VARCHAR), ("acquisitions", BIGINT),
         ("contentions", BIGINT), ("wait_seconds", DOUBLE),
         ("hold_seconds", DOUBLE), ("max_hold_seconds", DOUBLE),
         ("same_name_nestings", BIGINT)],
        locks_rows))
    register(SystemTableFunction(
        "repro_storage", "block file, WAL, and buffer-manager statistics",
        [("name", VARCHAR), ("value", BIGINT)],
        storage_rows))
    register(SystemTableFunction(
        "repro_optimizer",
        "optimizer decisions of the last statement that ran the optimizer",
        [("statement", BIGINT), ("seq", BIGINT), ("phase", VARCHAR),
         ("decision", VARCHAR), ("detail", VARCHAR),
         ("estimated_rows", DOUBLE)],
        optimizer_rows))
    register(SystemTableFunction(
        "repro_plan_checks",
        "quackplan verification results of the last verified statement",
        [("statement", BIGINT), ("seq", BIGINT), ("stage", VARCHAR),
         ("invariant", VARCHAR), ("status", VARCHAR),
         ("operator", VARCHAR), ("detail", VARCHAR)],
        plan_checks_rows))
    register(SystemTableFunction(
        "repro_sessions",
        "live serving sessions and their per-session statistics",
        [("session_id", BIGINT), ("name", VARCHAR), ("state", VARCHAR),
         ("statements", BIGINT), ("rows_returned", BIGINT),
         ("errors", BIGINT), ("last_sql", VARCHAR),
         ("created_at", DOUBLE), ("wall_ms", DOUBLE), ("cpu_ms", DOUBLE),
         ("rows_scanned", BIGINT), ("buffer_hits", BIGINT),
         ("buffer_misses", BIGINT), ("peak_memory", BIGINT)],
        sessions_rows))
    register(SystemTableFunction(
        "repro_serving",
        "serving-layer counters: caches, admission, session registry",
        [("name", VARCHAR), ("value", BIGINT)],
        serving_rows))
    register(SystemTableFunction(
        "repro_column_stats", "per-column statistics behind the cost model",
        [("table_name", VARCHAR), ("column_name", VARCHAR),
         ("row_count", BIGINT), ("null_count", BIGINT), ("ndv", DOUBLE),
         ("min_value", VARCHAR), ("max_value", VARCHAR),
         ("stale", BOOLEAN)],
        column_stats_rows))
