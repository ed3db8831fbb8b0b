"""The declared engine lock hierarchy: one order, everywhere.

PR 1's morsel-driven worker pool put eight real locks on the hot path.  A
deadlock needs only two of them taken in opposite orders on two threads, so
the engine declares a single global order -- outermost first -- and every
code path must acquire nested locks in (a subsequence of) that order:

    connection                (client/connection.py  Connection._lock)
      -> server.sessions      (server/session.py     SessionRegistry._lock)
        -> server.admission   (server/admission.py   AdmissionController._lock)
          -> server.plan_cache (server/cache.py      PlanCache._lock)
            -> server.result_cache (server/cache.py  ResultCache._lock)
              -> database.checkpoint  (database.py   Database._checkpoint_lock)
                -> transaction_manager (transaction/manager.py TransactionManager._lock)
                  -> catalog          (catalog/catalog.py     Catalog._lock)
                    -> table_data     (storage/table_data.py  TableData.lock)
                      -> buffer_manager (storage/buffer_manager.py BufferManager._lock)
                        -> morsel_driver  (execution/parallel.py MorselDriver._lock)
                          -> operator_stats (execution/physical.py ExecutionContext._stats_lock)
                            -> statement_log (observability/accounting.py StatementLog._lock,
                                              the one lock over every per-statement record)

The four ``server.*`` locks of the serving front end sit between the
connection lock and the engine proper: a connection may consult a cache or
the admission controller while holding its own lock (and a cache fold may
run at a statement boundary under it), but no server lock is ever held
while calling back into a connection -- which is why a session close always
leaves the registry's critical section before closing its connection.

Skipping levels is fine (a scan takes ``table_data`` without ``catalog``);
*inverting* them is not.  The hierarchy is enforced twice:

* statically by quacklint's QLL rule family
  (:mod:`repro.analysis.rules.lockorder`), which flags nested ``with``
  acquisitions -- including one/two-hop self-call chains -- whose order
  contradicts this table;
* dynamically by LockSan (:mod:`repro.sanitizer.locksan`), which witnesses
  the orders actually taken under load and reports cycles in the resulting
  lock-order graph.

This module is pure data with no engine imports, so both the analyzer and
the runtime sanitizer can share it without import cycles.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = [
    "LOCK_HIERARCHY",
    "CLASS_LOCK_ATTRS",
    "GLOBAL_LOCK_ATTRS",
    "lock_level",
]

#: Outermost-first declared acquisition order of every named engine lock.
LOCK_HIERARCHY: Tuple[str, ...] = (
    "connection",
    "server.sessions",
    "server.admission",
    "server.plan_cache",
    "server.result_cache",
    "database.checkpoint",
    "transaction_manager",
    "catalog",
    "table_data",
    "buffer_manager",
    "morsel_driver",
    "operator_stats",
    "statement_log",
)

_LEVELS: Dict[str, int] = {name: level
                           for level, name in enumerate(LOCK_HIERARCHY)}

#: Lock attributes per (package path, class): which ``self.<attr>`` is which
#: named lock.  Seeded from the eight engine locks instrumented by LockSan.
CLASS_LOCK_ATTRS: Dict[str, Dict[str, Dict[str, str]]] = {
    "repro/database.py": {
        "Database": {"_checkpoint_lock": "database.checkpoint"},
    },
    "repro/client/connection.py": {
        "Connection": {"_lock": "connection"},
    },
    "repro/server/session.py": {
        "SessionRegistry": {"_lock": "server.sessions"},
        "Session": {"_registry_lock": "server.sessions"},
    },
    "repro/server/admission.py": {
        "AdmissionController": {"_lock": "server.admission"},
    },
    "repro/server/cache.py": {
        "PlanCache": {"_lock": "server.plan_cache"},
        "ResultCache": {"_lock": "server.result_cache"},
    },
    "repro/transaction/manager.py": {
        "TransactionManager": {"_lock": "transaction_manager"},
    },
    "repro/catalog/catalog.py": {
        "Catalog": {"_lock": "catalog"},
    },
    "repro/storage/table_data.py": {
        "TableData": {"lock": "table_data"},
    },
    "repro/types/dictionary.py": {
        # A column dictionary shares its table's lock.
        "StringDictionary": {"lock": "table_data"},
    },
    "repro/storage/buffer_manager.py": {
        "BufferManager": {"_lock": "buffer_manager"},
    },
    "repro/execution/parallel.py": {
        "MorselDriver": {"_lock": "morsel_driver"},
    },
    "repro/execution/physical.py": {
        "ExecutionContext": {"_stats_lock": "operator_stats"},
    },
    # Innermost: any engine thread may append a statement record while
    # holding its own locks.
    "repro/observability/accounting.py": {
        "StatementLog": {"_lock": "statement_log"},
    },
}

#: Attribute names that identify a lock regardless of the receiver
#: expression (``table.data.lock``, ``self._database._checkpoint_lock``).
#: ``_lock`` is deliberately absent -- it is ambiguous across classes and
#: only resolvable through :data:`CLASS_LOCK_ATTRS`.
GLOBAL_LOCK_ATTRS: Dict[str, str] = {
    "_checkpoint_lock": "database.checkpoint",
    "_stats_lock": "operator_stats",
    "lock": "table_data",
}


def lock_level(name: str) -> Optional[int]:
    """Position of ``name`` in the hierarchy (0 = outermost), or None."""
    return _LEVELS.get(name)
