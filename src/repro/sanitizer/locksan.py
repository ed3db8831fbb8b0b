"""LockSan: instrumented locks, the lock-order graph, and cycle reports.

Every engine lock is created through :func:`repro.sanitizer.SanLock` /
:func:`repro.sanitizer.SanRLock`.  When the sanitizer is disabled (the
default) those factories return plain :class:`threading.Lock` objects --
zero overhead, bit-identical behavior.  When enabled they return tracked
locks that report to one global :class:`LockSanitizer`:

* **lock-order graph** -- acquiring lock B while holding lock A witnesses
  the directed edge A -> B (keyed by lock *name*, i.e. lock class, so an
  ABBA pattern across two tables or two connections is still one edge
  pair).  The first witness of each edge keeps both acquisition stacks.
  A new edge that closes a cycle is a potential deadlock and is reported
  with the stacks of every edge on the cycle.
* **hierarchy check** -- edges that invert the declared order of
  :data:`~repro.sanitizer.hierarchy.LOCK_HIERARCHY` are reported even
  before a full cycle exists (an inversion is half a deadlock; the static
  QLL rule flags the same pattern without needing to execute it).
* **hold/contention stats** -- per lock name: acquisitions, contended
  acquisitions, total wait time, total/max hold time.  Exported through
  :meth:`repro.cooperation.monitor.ResourceMonitor.lock_stats`.

Same-name nestings (two *instances* of one lock class held at once, e.g.
two tables) cannot be ordered by name and are excluded from the graph;
they are counted in the stats instead.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from .hierarchy import lock_level
from .reports import (
    Frame,
    LockEdgeWitness,
    LockOrderReport,
    LockStats,
    capture_stack,
)

__all__ = ["LockSanitizer", "TrackedLock", "TrackedRLock"]


class _HeldEntry:
    """One lock currently held by one thread."""

    __slots__ = ("lock", "stack", "since")

    def __init__(self, lock: "TrackedLock", stack: Tuple[Frame, ...],
                 since: float) -> None:
        self.lock = lock
        self.stack = stack
        self.since = since


class LockSanitizer:
    """Global lock-order graph, per-thread held stacks, and statistics."""

    def __init__(self) -> None:
        # The sanitizer's own mutex is a plain lock and never participates
        # in the graph; critical sections below are tiny and leaf-level.
        self._mu = threading.Lock()
        self._tls = threading.local()
        #: (held_name, acquired_name) -> first witness of that edge.
        self._edges: Dict[Tuple[str, str], LockEdgeWitness] = {}
        #: Adjacency view of the same graph, for cycle search.
        self._successors: Dict[str, Set[str]] = {}
        self._stats: Dict[str, LockStats] = {}
        self.reports: List[LockOrderReport] = []
        self._reported_cycles: Set[frozenset] = set()

    # -- per-thread state -----------------------------------------------------
    def _held(self) -> List[_HeldEntry]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held

    def held_names(self) -> Tuple[str, ...]:
        """Names of the locks the calling thread holds, outermost first."""
        return tuple(entry.lock.name for entry in self._held())

    # -- acquisition / release hooks ------------------------------------------
    def on_acquire(self, lock: "TrackedLock", wait: float,
                   contended: bool) -> None:
        held = self._held()
        stack = capture_stack(skip=3)
        entry = _HeldEntry(lock, stack, perf_counter())
        new_edges: List[Tuple[_HeldEntry, LockEdgeWitness]] = []
        same_name = 0
        thread_name = threading.current_thread().name
        for outer in held:
            if outer.lock.name == lock.name:
                same_name += 1
                continue
            witness = LockEdgeWitness(outer.lock.name, lock.name,
                                      outer.stack, stack, thread_name)
            new_edges.append((outer, witness))
        held.append(entry)
        with self._mu:
            stats = self._stats.get(lock.name)
            if stats is None:
                stats = self._stats[lock.name] = LockStats(lock.name)
            stats.acquisitions += 1
            stats.same_name_nestings += same_name
            if contended:
                stats.contentions += 1
                stats.wait_time += wait
            for outer, witness in new_edges:
                key = (witness.held, witness.acquired)
                if key in self._edges:
                    continue
                self._edges[key] = witness
                self._successors.setdefault(witness.held,
                                            set()).add(witness.acquired)
                self._check_cycle_locked(witness)
                self._check_hierarchy_locked(witness)

    def on_failed_acquire(self, name: str) -> None:
        """A non-blocking acquire that lost the race still counts as
        contention."""
        with self._mu:
            stats = self._stats.get(name)
            if stats is None:
                stats = self._stats[name] = LockStats(name)
            stats.contentions += 1

    def on_release(self, lock: "TrackedLock") -> None:
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index].lock is lock:
                entry = held.pop(index)
                duration = perf_counter() - entry.since
                with self._mu:
                    stats = self._stats.get(lock.name)
                    if stats is not None:
                        stats.hold_time += duration
                        if duration > stats.max_hold:
                            stats.max_hold = duration
                return

    # -- cycle / hierarchy detection ------------------------------------------
    def _check_cycle_locked(self, witness: LockEdgeWitness) -> None:
        """After adding edge A -> B, a path B ->* A closes a cycle."""
        path = self._find_path_locked(witness.acquired, witness.held)
        if path is None:
            return
        # path is [B, ..., A]; the cycle is A -> B -> ... -> A.
        cycle = (witness.held,) + tuple(path[:-1])
        key = frozenset(cycle)
        if key in self._reported_cycles:
            return
        self._reported_cycles.add(key)
        edges = [witness]
        for here, there in zip(path, path[1:]):
            edge = self._edges.get((here, there))
            if edge is not None:
                edges.append(edge)
        self.reports.append(LockOrderReport(cycle, tuple(edges)))

    def _find_path_locked(self, source: str,
                          target: str) -> Optional[List[str]]:
        """DFS path source ->* target in the edge graph, or None."""
        stack: List[Tuple[str, List[str]]] = [(source, [source])]
        seen = {source}
        while stack:
            node, path = stack.pop()
            if node == target:
                return path
            for successor in self._successors.get(node, ()):
                if successor not in seen:
                    seen.add(successor)
                    stack.append((successor, path + [successor]))
        return None

    def _check_hierarchy_locked(self, witness: LockEdgeWitness) -> None:
        """An edge that inverts the declared hierarchy is half a deadlock."""
        outer_level = lock_level(witness.held)
        inner_level = lock_level(witness.acquired)
        if outer_level is None or inner_level is None:
            return
        if inner_level >= outer_level:
            return
        key = frozenset((witness.held, witness.acquired, "#hierarchy"))
        if key in self._reported_cycles:
            return
        self._reported_cycles.add(key)
        self.reports.append(LockOrderReport(
            (witness.held, witness.acquired), (witness,)))

    # -- reporting -------------------------------------------------------------
    def statistics(self) -> Dict[str, LockStats]:
        with self._mu:
            return dict(self._stats)

    def order_reports(self) -> List[LockOrderReport]:
        with self._mu:
            return list(self.reports)


class TrackedLock:
    """A non-reentrant lock that reports to the :class:`LockSanitizer`."""

    _reentrant = False

    def __init__(self, name: str, sanitizer: LockSanitizer) -> None:
        self.name = name
        self._san = sanitizer
        self._inner = threading.RLock() if self._reentrant \
            else threading.Lock()
        self._owner: Optional[int] = None
        self._count = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if self._reentrant and self._owner == me:
            self._inner.acquire()
            self._count += 1
            return True
        wait = 0.0
        contended = False
        if not self._inner.acquire(False):
            contended = True
            if not blocking:
                self._san.on_failed_acquire(self.name)
                return False
            started = perf_counter()
            acquired = self._inner.acquire(True, timeout)
            wait = perf_counter() - started
            if not acquired:
                return False
        self._owner = me
        self._count = 1
        self._san.on_acquire(self, wait, contended)
        return True

    def release(self) -> None:
        if self._owner == threading.get_ident():
            self._count -= 1
            if self._count == 0:
                self._owner = None
                self._san.on_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._count > 0

    def held_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "locked" if self._count else "unlocked"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class TrackedRLock(TrackedLock):
    """Reentrant variant: nested acquires by the owner do not re-witness
    edges (re-entry cannot deadlock against itself)."""

    _reentrant = True
