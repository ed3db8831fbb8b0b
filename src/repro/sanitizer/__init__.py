"""quacksan: runtime concurrency sanitizer for the parallel engine.

The combined-OLAP-&-ETL pillar (paper §2) means concurrent appenders,
checkpoints, and morsel-parallel aggregates all share one in-process engine,
and eight real locks sit on that hot path.  quacklint (:mod:`repro.analysis`)
proves lock *discipline* statically; this package witnesses lock *ordering*
and actual interleavings at runtime:

* **LockSan** (:mod:`.locksan`) -- :func:`SanLock` / :func:`SanRLock`
  wrap every engine lock, record per-thread acquisition stacks, build a
  global lock-order graph, and report cycles (potential deadlocks) and
  declared-hierarchy inversions, plus hold-time/contention statistics.
* **RaceSan** (:mod:`.racesan`) -- :func:`tracked_access` samples
  reads/writes of registry-listed structures during execution and reports
  writes observed concurrently with any access not under the owning lock.
* the declared lock hierarchy (:mod:`.hierarchy`) shared with quacklint's
  QLL rule family.

Enablement: set ``REPRO_SANITIZE=1`` in the environment before the engine
is imported/instantiated, or call :func:`enable` programmatically *before*
creating the :class:`~repro.database.Database` (locks created while the
sanitizer is disabled are plain ``threading`` locks and stay untracked --
that is the zero-overhead guarantee).
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Hashable, List, Optional, Union

from .hierarchy import LOCK_HIERARCHY, lock_level
from .locksan import LockSanitizer, TrackedLock, TrackedRLock
from .racesan import NOOP_ACCESS, AccessToken, RaceSanitizer, locked_state
from .reports import (
    LockEdgeWitness,
    LockOrderReport,
    LockStats,
    RaceAccess,
    RaceReport,
)

__all__ = [
    "LOCK_HIERARCHY",
    "lock_level",
    "SanLock",
    "SanRLock",
    "tracked_access",
    "enabled",
    "enable",
    "disable",
    "reset",
    "lock_statistics",
    "lock_order_reports",
    "race_reports",
    "assert_clean",
    "SanitizerError",
    "LockSanitizer",
    "RaceSanitizer",
    "LockOrderReport",
    "LockEdgeWitness",
    "LockStats",
    "RaceAccess",
    "RaceReport",
]

EnvTruthy = ("1", "true", "on", "yes")

_locksan: Optional[LockSanitizer] = None
_racesan: Optional[RaceSanitizer] = None


class SanitizerError(AssertionError):
    """Raised by :func:`assert_clean` when quacksan collected findings."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in EnvTruthy


def enabled() -> bool:
    """Is the sanitizer collecting right now?"""
    return _locksan is not None


def enable() -> None:
    """Start sanitizing.  Affects locks created from this point on."""
    global _locksan, _racesan
    if _locksan is None:
        _locksan = LockSanitizer()
        _racesan = RaceSanitizer()


def disable() -> None:
    """Stop sanitizing.  Previously created tracked locks keep working
    (they still wrap a real lock) but new locks are plain again."""
    global _locksan, _racesan
    _locksan = None
    _racesan = None


def reset() -> None:
    """Drop all collected state; keeps the enabled/disabled setting."""
    global _locksan, _racesan
    if _locksan is not None:
        _locksan = LockSanitizer()
        _racesan = RaceSanitizer()


if _env_enabled():  # honored at import so engine singletons are tracked
    enable()


# -- lock factories ------------------------------------------------------------
def SanLock(name: str) -> Union[TrackedLock, "threading.Lock"]:
    """A named engine lock: plain ``threading.Lock`` when the sanitizer is
    off (zero overhead), a tracked lock when it is on."""
    san = _locksan
    if san is None:
        return threading.Lock()
    return TrackedLock(name, san)


def SanRLock(name: str) -> Union[TrackedRLock, "threading.RLock"]:
    """Reentrant variant of :func:`SanLock`."""
    san = _locksan
    if san is None:
        return threading.RLock()
    return TrackedRLock(name, san)


# -- access tracking ------------------------------------------------------------
def tracked_access(key: Hashable, write: bool,
                   lock: object = None) -> Union[AccessToken, object]:
    """Context manager marking one access to a registered shared structure.

    ``key`` identifies the structure (conventionally ``(kind, id(obj))``),
    ``write`` its direction, ``lock`` the owning lock object (or None for
    declared lock-free state).  No-op when the sanitizer is disabled.
    """
    tracker = _racesan
    if tracker is None:
        return NOOP_ACCESS
    return tracker.access(key, write, locked_state(lock))


# -- reporting -----------------------------------------------------------------
def lock_statistics() -> Dict[str, LockStats]:
    """Per-lock hold/contention statistics ({} while disabled)."""
    san = _locksan
    return san.statistics() if san is not None else {}


def lock_order_reports() -> List[LockOrderReport]:
    san = _locksan
    return san.order_reports() if san is not None else []


def race_reports() -> List[RaceReport]:
    tracker = _racesan
    return tracker.race_reports() if tracker is not None else []


def assert_clean() -> None:
    """Raise :class:`SanitizerError` listing every collected finding."""
    findings = [report.render() for report in lock_order_reports()]
    findings += [report.render() for report in race_reports()]
    if findings:
        raise SanitizerError(
            f"quacksan collected {len(findings)} finding(s):\n\n"
            + "\n\n".join(findings))
