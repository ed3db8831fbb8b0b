"""RaceSan: witness actual unsynchronized interleavings at runtime.

quacklint's QLC family proves statically that registered classes *textually*
wrap their writes in ``with self.<lock>:`` -- it cannot see a write that
reaches shared state through an un-analyzed path, nor one that holds the
*wrong* lock.  RaceSan closes that gap dynamically: structures registered in
the thread-safety registry are instrumented at their touch points with

    with tracked_access(("table_data", id(self)), write=True,
                        lock=self.lock):
        ... mutate ...

Each in-flight access records its thread, direction (read/write), whether
the owning lock is actually held *right now* (asked of the LockSan-tracked
lock object), and its stack.  When a write overlaps in time with any access
from another thread and at least one side does not hold the owning lock,
both stacks are reported.  Because instrumentation sits at chunk/morsel
granularity this is a sampling sanitizer: it costs a dict operation per
chunk when enabled and exactly one ``None`` check when disabled.

``lock`` may be:

* a LockSan-tracked lock -- held-ness is queried precisely;
* ``None`` -- the access is declared lock-free (used by fixtures and by
  coordinator-only state such as the subquery cache, where *any* overlap
  is a violation);
* a plain :class:`threading.Lock` (created before the sanitizer was
  enabled) -- held-ness is unknowable, the access is conservatively treated
  as guarded so stale locks never produce false reports.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, List, Set, Tuple

from .reports import RaceAccess, RaceReport, capture_stack

__all__ = ["RaceSanitizer", "AccessToken", "NOOP_ACCESS", "locked_state"]


class _NoopAccess:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopAccess":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


NOOP_ACCESS = _NoopAccess()


class AccessToken:
    """One in-flight access to one registered structure."""

    __slots__ = ("tracker", "key", "write", "locked", "thread",
                 "thread_name", "stack")

    def __init__(self, tracker: "RaceSanitizer", key: Hashable, write: bool,
                 locked: bool) -> None:
        self.tracker = tracker
        self.key = key
        self.write = write
        self.locked = locked
        self.thread = threading.get_ident()
        self.thread_name = threading.current_thread().name
        self.stack = capture_stack(skip=3)

    def __enter__(self) -> "AccessToken":
        self.tracker._begin(self)
        return self

    def __exit__(self, *exc: object) -> None:
        self.tracker._end(self)

    def as_race_access(self) -> RaceAccess:
        return RaceAccess(self.thread_name, self.write, self.locked,
                          self.stack)


class RaceSanitizer:
    """Tracks overlapping accesses per registered structure."""

    #: Stop collecting after this many reports -- a genuinely racy loop
    #: would otherwise flood memory with near-identical findings.
    MAX_REPORTS = 100

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._inflight: Dict[Hashable, List[AccessToken]] = {}
        self.reports: List[RaceReport] = []
        self._seen: Set[Tuple] = set()

    def access(self, key: Hashable, write: bool, locked: bool) -> AccessToken:
        return AccessToken(self, key, write, locked)

    def _begin(self, token: AccessToken) -> None:
        with self._mu:
            peers = self._inflight.setdefault(token.key, [])
            for other in peers:
                if other.thread == token.thread:
                    continue
                if not (token.write or other.write):
                    continue  # two reads never race
                if token.locked and other.locked:
                    continue  # both serialized by the owning lock
                self._report_locked(other, token)
                break
            peers.append(token)

    def _end(self, token: AccessToken) -> None:
        with self._mu:
            peers = self._inflight.get(token.key)
            if peers is None:
                return
            try:
                peers.remove(token)
            except ValueError:
                pass
            if not peers:
                del self._inflight[token.key]

    def _report_locked(self, first: AccessToken, second: AccessToken) -> None:
        if len(self.reports) >= self.MAX_REPORTS:
            return
        label = self._key_label(second.key)
        signature = (label,
                     first.stack[0] if first.stack else None,
                     second.stack[0] if second.stack else None)
        if signature in self._seen:
            return
        self._seen.add(signature)
        self.reports.append(RaceReport(label, first.as_race_access(),
                                       second.as_race_access()))

    @staticmethod
    def _key_label(key: Hashable) -> str:
        if isinstance(key, tuple) and key and isinstance(key[0], str):
            return f"{key[0]}#{key[1] if len(key) > 1 else ''}"
        return repr(key)

    def race_reports(self) -> List[RaceReport]:
        with self._mu:
            return list(self.reports)


def locked_state(lock: object) -> bool:
    """Best-effort: does the calling thread hold ``lock`` right now?

    Tracked locks answer precisely; ``None`` means declared lock-free;
    anything else (a plain lock predating ``enable()``) is conservatively
    treated as held to avoid false reports.
    """
    if lock is None:
        return False
    probe = getattr(lock, "held_by_current_thread", None)
    if probe is None:
        return True
    return bool(probe())
