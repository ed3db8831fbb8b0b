"""The one file of the benchmark that names engine internals.

End-to-end numbers come from the public API alone (``workloads.py``).  The
traced run additionally wants to know where an op's time goes, layer by
layer, where a layer is a module under ``src/repro/``.  The engine records no
spans of its own that the benchmark uses, so this file puts a span *around*
each layer's entry point: :func:`install` replaces the entry points listed in
``ENTRY_POINTS`` with wrappers that record a span per call and then call the
original.  The op stream itself still runs through the public API, so the
spans nest exactly as the real calls do and a layer's self time is what the
real path spends there.

If an entry point has moved or gone, its span is reported as unavailable with
the reason, every metric computed from it is too, and the run goes on: its
time then shows up as self time of the caller.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Tracer

__all__ = ["ENTRY_POINTS", "install", "uninstall", "database_counters",
           "statement_log"]

#: (span name, module, class or None for a module global, attribute, kind).
#: The span name's prefix is the layer.  Kinds: ``call`` puts a span around
#: the call; ``iter`` around every ``next()`` of the iterator it returns;
#: ``chunks`` around every ``next()`` of the returned result's ``.chunks``.
#: A module global is patched in the module that *calls* it.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str, str], ...] = (
    ("server.session_open", "repro.server.server", "QueryServer", "session",
     "call"),
    ("server.session_close", "repro.server.session", "Session", "close",
     "call"),
    ("server.execute", "repro.server.session", "Session", "execute", "call"),
    ("server.admission", "repro.server.admission", "AdmissionController",
     "admit", "call"),
    ("server.plan_cache", "repro.server.cache", "PlanCache", "lookup", "call"),
    ("server.plan_cache", "repro.server.cache", "PlanCache", "store", "call"),
    ("server.result_cache", "repro.server.cache", "ResultCache", "lookup",
     "call"),
    ("server.result_cache", "repro.server.cache", "ResultCache", "store",
     "call"),
    ("client.execute", "repro.client.connection", "Connection", "execute",
     "call"),
    ("client.executemany", "repro.client.connection", "Connection",
     "executemany", "call"),
    ("client.fetch_numpy", "repro.client.result", "QueryResult", "fetch_numpy",
     "call"),
    ("client.fetch_chunk", "repro.client.result", "QueryResult", "fetch_chunk",
     "call"),
    ("client.fetchall", "repro.client.result", "QueryResult", "fetchall",
     "call"),
    ("client.cursor_execute", "repro.client.cursor", "Cursor", "execute",
     "call"),
    ("client.cursor_fetchmany", "repro.client.cursor", "Cursor", "fetchmany",
     "call"),
    ("client.append_numpy", "repro.client.appender", "Appender",
     "append_numpy", "call"),
    ("client.appender_close", "repro.client.appender", "Appender", "close",
     "call"),
    ("sql.parse", "repro.client.connection", None, "parse", "call"),
    ("planner.bind", "repro.planner.binder", "Binder", "bind_statement",
     "call"),
    ("optimizer.optimize", "repro.execution.executor", "Executor",
     "prepare_select", "call"),
    ("execution.statement", "repro.execution.executor", "Executor", "execute",
     "call"),
    ("execution.lower", "repro.execution.executor", None,
     "create_physical_plan", "call"),
    ("execution.run", "repro.execution.executor", "Executor", "run_plan",
     "chunks"),
    ("transaction.begin", "repro.transaction.manager", "TransactionManager",
     "begin", "call"),
    ("transaction.commit", "repro.transaction.manager", "TransactionManager",
     "commit", "call"),
    ("transaction.rollback", "repro.transaction.manager",
     "TransactionManager", "rollback", "call"),
    ("storage.wal_append", "repro.storage.wal", "WriteAheadLog",
     "append_commit_group", "call"),
    ("storage.checkpoint", "repro.database", "Database", "checkpoint", "call"),
    ("etl.sniff_csv", "repro.etl.csv_reader", None, "sniff_csv", "call"),
    ("etl.read_csv", "repro.etl.csv_reader", None, "read_csv_chunks", "iter"),
)

_installed: List[Tuple[Any, str, Any]] = []


def _wrap(tracer: Tracer, name: str, kind: str,
          original: Callable[..., Any]) -> Callable[..., Any]:
    if kind == "call":
        return tracer.wrap(name, original)
    if kind == "iter":
        def traced_iter(*args: Any, **kwargs: Any) -> Any:
            return tracer.wrap_iterator(name, original(*args, **kwargs))
        return traced_iter

    def traced_chunks(*args: Any, **kwargs: Any) -> Any:
        result = original(*args, **kwargs)
        result.chunks = tracer.wrap_iterator(name, result.chunks)
        return result
    return traced_chunks


def install(tracer: Tracer) -> Dict[str, str]:
    """Put spans around every entry point; return ``{span name: reason}``
    for those that could not be found."""
    unavailable: Dict[str, str] = {}
    for name, module_name, owner_name, attribute, kind in ENTRY_POINTS:
        where = f"{module_name}.{owner_name + '.' if owner_name else ''}" \
                f"{attribute}"
        try:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError) as missing:
            unavailable[name] = f"{where}: {missing}"
            continue
        setattr(owner, attribute, _wrap(tracer, name, kind, original))
        _installed.append((owner, attribute, original))
    return unavailable


def uninstall() -> None:
    while _installed:
        owner, attribute, original = _installed.pop()
        setattr(owner, attribute, original)


def database_counters(handle: Any) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Cache, admission and buffer counters of the database behind a
    connection or server, and ``{group: reason}`` for what has gone."""
    counters: Dict[str, float] = {}
    unavailable: Dict[str, str] = {}
    database = handle.database
    for group, read in (
        ("plan_cache", lambda: database.plan_cache.stats()),
        ("result_cache", lambda: database.result_cache.stats()),
        ("admission", lambda: database.admission.stats()),
        ("buffer", lambda: {
            "hits": database.buffer_manager.cache_hits,
            "misses": database.buffer_manager.cache_misses}),
    ):
        try:
            for key, value in read().items():
                counters[f"{group}.{key}"] = float(value)
        except AttributeError as missing:
            unavailable[group] = str(missing)
    return counters, unavailable


def statement_log(connection: Any) -> Tuple[Dict[str, float], Optional[str]]:
    """Rows scanned, rows returned and vectors handed over, summed over the
    SELECTs still in the engine's statement log (a bounded ring)."""
    try:
        rows = connection.execute(
            "SELECT rows_out, rows_scanned, vectors FROM repro_statement_log() "
            "WHERE rows_scanned > 0").fetchall()
    except Exception as failure:  # any engine error means: not measurable
        return {}, f"repro_statement_log(): {failure}"
    return {"statements": float(len(rows)),
            "rows_out": float(sum(row[0] for row in rows)),
            "rows_scanned": float(sum(row[1] for row in rows)),
            "vectors": float(sum(row[2] for row in rows))}, None
