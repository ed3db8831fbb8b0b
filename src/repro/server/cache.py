"""Plan and result caches: memoization layers of the serving front end.

Both caches hang off the :class:`~repro.database.Database` so every
connection and server session shares them, and both are version-keyed
against the transaction manager's counters rather than walked on
invalidation:

* the **plan cache** memoizes parse+bind+optimize for SELECT, INSERT,
  UPDATE and DELETE on ``(SQL text, parameter-type fingerprint)``, never
  holding a parameter value.  A literal single-table SELECT that misses is
  keyed on its ``?`` template instead, with the lifted literals as its
  parameters (:mod:`repro.sql.template`), so ad-hoc texts that differ only
  in their constants share one plan.  Each entry
  records the catalog version at fill time; a DDL commit bumps that
  version, so stale plans fail validation lazily on their next lookup.
  Data-only commits do *not* move the catalog version -- a mixed OLAP/ETL
  workload keeps its warm plans.
* the **result cache** memoizes materialized read-only query results on
  ``(SQL text, parameter values, data version)`` -- for a lifted text, the
  template and the lifted values.  Any committed write advances the data
  version, so a hit is always snapshot-consistent with "begin a fresh
  transaction now"; superseded entries age out by LRU.  DML never reaches
  it.

Lock discipline: each cache owns one lock (``server.plan_cache`` /
``server.result_cache``, declared between ``connection`` and
``database.checkpoint`` in the hierarchy) and its critical sections are
pure dict operations -- no engine lock is ever taken while one is held.
Hit/miss counters are plain ints under that lock; :meth:`stats` is what
the database's ``repro_*_cache_*`` metrics read (same pattern as the
buffer manager).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..sanitizer import SanLock

__all__ = ["CachedPlan", "PlanCache", "CachedResult", "ResultCache",
           "plan_result_cacheable"]


def plan_result_cacheable(plan: Any) -> bool:
    """Whether a logical plan's output is stable for a given data version.

    Introspection scans read live engine state (metrics, locks, sessions)
    and CSV scans read files the engine does not version -- results over
    either must never be served from cache.
    """
    from ..planner.logical import LogicalCSVScan, LogicalIntrospectionScan

    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, (LogicalCSVScan, LogicalIntrospectionScan)):
            return False
        stack.extend(node.children)
    return True


class CachedPlan:
    """One bound+optimized plan (``Executor.prepare_select``'s result),
    shared read-only across executions."""

    __slots__ = ("plan", "statement", "catalog_version")

    def __init__(self, plan: Any, statement: Any,
                 catalog_version: int) -> None:
        self.plan = plan
        #: The parsed statement it was bound from: a hit needs no parse.
        self.statement = statement
        self.catalog_version = catalog_version


class PlanCache:
    """LRU cache of optimized plans keyed on SQL + parameter types."""

    def __init__(self, config) -> None:
        self._config = config
        self._lock = SanLock("server.plan_cache")
        self._entries: "OrderedDict[Any, CachedPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def capacity(self) -> int:
        return max(0, int(getattr(self._config, "plan_cache_entries", 0)))

    def lookup(self, key: Any, catalog_version: int,
               final: bool = True) -> Optional[CachedPlan]:
        """The cached plan for ``key``, or None on miss/stale entry.

        Each statement counts one hit or one miss.  A caller that may probe
        again under another key passes ``final=False``: a miss here is not
        counted, and the caller's next probe or :meth:`count_miss` is.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None \
                    and entry.catalog_version != catalog_version:
                # Lazy invalidation: a DDL commit moved the catalog version.
                del self._entries[key]
                self.invalidations += 1
                entry = None
            if entry is None:
                if final:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def count_miss(self) -> None:
        """Count the miss a ``final=False`` lookup left uncounted."""
        with self._lock:
            self.misses += 1

    def store(self, key: Any, entry: CachedPlan) -> None:
        capacity = self.capacity
        if capacity <= 0:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> int:
        """Drop every entry (PRAGMA-style manual invalidation)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }

    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0


class CachedResult:
    """One materialized read-only result set, replayed on every hit."""

    __slots__ = ("names", "types", "chunks", "rowcount", "rows")

    def __init__(self, names: List[str], types: List[Any],
                 chunks: Tuple[Any, ...], rowcount: int) -> None:
        self.names = names
        self.types = types
        self.chunks = chunks
        self.rowcount = rowcount
        self.rows = sum(chunk.size for chunk in chunks)

    def copy(self) -> "CachedResult":
        """The same result over private copies of every chunk."""
        return CachedResult(self.names, self.types,
                            tuple(chunk.copy() for chunk in self.chunks),
                            self.rowcount)


class ResultCache:
    """LRU cache of result sets keyed on SQL + parameter values + version.

    The cache owns its chunks: :meth:`store` keeps a private copy and every
    :meth:`lookup` hit hands out a fresh one, because clients receive result
    arrays zero-copy and may write to them (and ``fetch_chunk`` decodes
    dictionary-coded vectors in place) -- a shared chunk would leak one
    client's writes into every later hit.
    """

    def __init__(self, config) -> None:
        self._config = config
        self._lock = SanLock("server.result_cache")
        self._entries: "OrderedDict[Any, CachedResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return max(0, int(getattr(self._config, "result_cache_entries", 0)))

    @property
    def max_rows(self) -> int:
        return max(0, int(getattr(self._config, "result_cache_max_rows", 0)))

    def lookup(self, key: Any) -> Optional[CachedResult]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return entry.copy()

    def store(self, key: Any, entry: CachedResult) -> None:
        capacity = self.capacity
        if capacity <= 0 or entry.rows > self.max_rows:
            return
        entry = entry.copy()
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
