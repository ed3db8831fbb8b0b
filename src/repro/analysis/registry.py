"""The thread-safety registry: which engine state is shared across threads.

PR 1 introduced morsel-driven parallelism: ``execution/parallel.py`` runs
pipeline fragments on a ``ThreadPoolExecutor``, so everything a fragment can
reach -- the execution context, the buffer manager, the catalog, the
transaction manager -- is *shared mutable state*.  Each of those classes
already serializes writes behind a ``threading.Lock``; this registry writes
that design down in machine-checkable form so the concurrency rule family
(QLC) can enforce it forever:

* every class listed in :data:`DEFAULT_SHARED_CLASSES` must guard writes to
  ``self`` state with ``with self.<lock_attr>:``;
* methods whose names end in ``_locked`` are asserted (by convention) to be
  called with the lock already held, and are exempt;
* ``__init__`` is exempt -- the object is not yet published to other
  threads while it is being constructed;
* attributes in ``unguarded_ok`` are *documented* benign races
  (e.g. ``ExecutionContext.interrupted`` is a monotonic bool flag polled
  between chunks; ``_subquery_results`` is only touched by the coordinator
  because :func:`~repro.execution.parallel.expressions_parallel_safe` keeps
  subquery pipelines serial).

Modules listed in :data:`DEFAULT_WORKER_REACHABLE` execute on worker
threads; writes to module-level globals there are flagged outright (QLC002)
because no lock discipline can be inferred for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from ..sanitizer.hierarchy import (
    CLASS_LOCK_ATTRS,
    GLOBAL_LOCK_ATTRS,
    LOCK_HIERARCHY,
)

__all__ = [
    "SharedClassSpec",
    "ThreadSafetyRegistry",
    "DEFAULT_SHARED_CLASSES",
    "DEFAULT_WORKER_REACHABLE",
]


@dataclass(frozen=True)
class SharedClassSpec:
    """Lock discipline for one class shared across worker threads."""

    lock_attr: str
    #: Attributes with documented benign unguarded writes.
    unguarded_ok: FrozenSet[str] = frozenset()


#: Seeded from the modules the morsel-driven executor actually shares:
#: physical.py (ExecutionContext), parallel.py (MorselDriver),
#: buffer_manager.py, catalog.py, transaction/manager.py, and the
#: client-facing Connection (one connection may be driven from several
#: application threads).
DEFAULT_SHARED_CLASSES: Dict[str, Dict[str, SharedClassSpec]] = {
    "repro/execution/physical.py": {
        # ``interrupted`` is a cross-thread cancellation flag: single bool
        # store, polled between chunks -- guarding it would serialize the
        # hot path for nothing.  ``_subquery_results`` is coordinator-only:
        # pipelines containing subqueries never parallelize (see
        # expressions_parallel_safe).  ``lowering_active`` is likewise
        # coordinator-only: plans (including subquery plans) are lowered
        # before/outside morsel workers.
        "ExecutionContext": SharedClassSpec(
            "_stats_lock", frozenset({"interrupted", "_subquery_results",
                                      "lowering_active"})),
    },
    "repro/execution/parallel.py": {
        # ``_parent_span`` is written once by the coordinator before any
        # morsel task is submitted (pool.submit is the happens-before edge)
        # and only read by workers afterwards.
        "MorselDriver": SharedClassSpec("_lock",
                                        frozenset({"_parent_span"})),
    },
    "repro/storage/buffer_manager.py": {
        "BufferManager": SharedClassSpec("_lock"),
    },
    "repro/types/dictionary.py": {
        # A column's string dictionary grows while appenders and updaters
        # hold its table's lock (``lock`` *is* ``TableData.lock``); readers
        # resolve codes lock-free, which append-only growth makes safe.
        "StringDictionary": SharedClassSpec("lock"),
    },
    "repro/optimizer/statistics.py": {
        # A column's summary has no lock of its own: it changes only under
        # its table's ``TableData.lock``.  Appenders, updaters and deletes
        # call its ``*_locked`` mutators with that lock held, and so does
        # the one NDV fold site (``ColumnData.folded_stats``), the only
        # writer of ``watermark``; planners read it afterwards.
        "ColumnStatistics": SharedClassSpec("lock"),
    },
    "repro/catalog/catalog.py": {
        "Catalog": SharedClassSpec("_lock"),
    },
    "repro/transaction/manager.py": {
        "TransactionManager": SharedClassSpec("_lock"),
    },
    "repro/client/connection.py": {
        # ``_active_context`` is published so Connection.interrupt() (called
        # from another thread) can set the cancellation flag; a stale read
        # merely misses an interrupt window, it cannot corrupt state.
        # ``_session_id`` and ``_bill_sink`` are written once by
        # Session.__init__ before the connection serves any statement.
        "Connection": SharedClassSpec(
            "_lock", frozenset({"_active_context", "_session_id",
                                "_bill_sink"})),
    },
    "repro/server/cache.py": {
        # Every connection thread looks up / stores through the shared
        # caches; all state (the LRU map and its counters) lives behind one
        # lock per cache.
        "PlanCache": SharedClassSpec("_lock"),
        "ResultCache": SharedClassSpec("_lock"),
    },
    "repro/server/admission.py": {
        "AdmissionController": SharedClassSpec("_lock"),
    },
    "repro/server/session.py": {
        "SessionRegistry": SharedClassSpec("_lock"),
        # Session stats share the registry's lock (aliased at construction)
        # so the repro_sessions() snapshot is one consistent critical
        # section.  ``_closed``/``state`` transitions happen under it too.
        "Session": SharedClassSpec("_registry_lock"),
    },
    "repro/observability/accounting.py": {
        # Every connection thread appends statement records; the system
        # table providers and the statement metrics read them concurrently.
        "StatementLog": SharedClassSpec("_lock"),
    },
}

#: Modules whose functions run on morsel worker threads (or are called from
#: code that does).  Module-global writes here are always violations.
DEFAULT_WORKER_REACHABLE: Tuple[str, ...] = (
    "repro/execution/",
    "repro/functions/",
    "repro/types/",
    "repro/storage/buffer_manager.py",
    "repro/storage/table_data.py",
    "repro/catalog/",
    "repro/transaction/",
    "repro/verifier/",
)


@dataclass
class ThreadSafetyRegistry:
    """Queryable view over the shared-state seed data (tests may override)."""

    shared_classes: Dict[str, Dict[str, SharedClassSpec]] = field(
        default_factory=lambda: {
            path: dict(classes)
            for path, classes in DEFAULT_SHARED_CLASSES.items()
        })
    worker_reachable: Tuple[str, ...] = DEFAULT_WORKER_REACHABLE
    locked_suffix: str = "_locked"

    def spec_for(self, pkg_path: str,
                 class_name: str) -> Optional[SharedClassSpec]:
        return self.shared_classes.get(pkg_path, {}).get(class_name)

    def classes_in(self, pkg_path: str) -> Dict[str, SharedClassSpec]:
        return self.shared_classes.get(pkg_path, {})

    def is_worker_reachable(self, pkg_path: str) -> bool:
        return any(pkg_path == prefix or pkg_path.startswith(prefix)
                   for prefix in self.worker_reachable)

    # -- lock hierarchy (shared with the runtime sanitizer) -----------------
    lock_hierarchy: Tuple[str, ...] = LOCK_HIERARCHY
    class_lock_attrs: Dict[str, Dict[str, Dict[str, str]]] = field(
        default_factory=lambda: {
            path: {cls: dict(attrs) for cls, attrs in classes.items()}
            for path, classes in CLASS_LOCK_ATTRS.items()
        })
    global_lock_attrs: Dict[str, str] = field(
        default_factory=lambda: dict(GLOBAL_LOCK_ATTRS))

    def lock_level(self, name: str) -> Optional[int]:
        """Position of lock ``name`` in the hierarchy (0 = outermost)."""
        try:
            return self.lock_hierarchy.index(name)
        except ValueError:
            return None

    def resolve_lock_attr(self, pkg_path: str, class_name: Optional[str],
                          attr: str, on_self: bool) -> Optional[str]:
        """Hierarchy name of the lock behind attribute ``attr``, or None.

        ``self.<attr>`` inside a class listed in :data:`CLASS_LOCK_ATTRS`
        resolves precisely; any other receiver falls back to the globally
        unambiguous attribute names (``_checkpoint_lock``, ``_stats_lock``,
        ``lock``) -- deliberately not ``_lock``, which half the engine uses.
        """
        if on_self and class_name is not None:
            attrs = self.class_lock_attrs.get(pkg_path, {}).get(class_name)
            if attrs and attr in attrs:
                return attrs[attr]
        if not on_self:
            return self.global_lock_attrs.get(attr)
        return None
