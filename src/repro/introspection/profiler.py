"""Sampling wall-clock profiler: always-on-able, in-band, low overhead.

``EXPLAIN ANALYZE`` profiles one statement by instrumenting every operator
pull; that is exact but costs a tracer on the hot path.  This profiler is
the complementary tool for *production*: a background thread wakes
``profile_hz`` times per second, walks every other thread's Python stack
(:func:`sys._current_frames`), and attributes the sample to the innermost
engine frame -- the physical operator whose method is on CPU (morsel
workers included; they are ordinary threads) and a coarse engine phase
derived from the module path.  The engine itself runs unmodified: zero
instrumentation, zero per-operator cost, overhead bounded by the sampling
rate (gated < 3% by ``benchmarks/test_overhead.py``).

Sample buckets are queryable from SQL via ``repro_profile()`` and
accumulate until :meth:`SamplingProfiler.reset`.  Enablement:
``PRAGMA enable_profiling``, ``config.profile_enabled``, or
``REPRO_PROFILE=1``.
"""

from __future__ import annotations

import os
import sys
import threading
from types import FrameType
from typing import Dict, List, Optional, Tuple

__all__ = ["SamplingProfiler", "DEFAULT_HZ"]

#: Default sampling rate; deliberately off the 100 Hz timer-tick beat.
DEFAULT_HZ = 97.0

#: Innermost-match module-path prefixes -> engine phase label.
_PHASES: Tuple[Tuple[str, str], ...] = (
    ("repro/execution/parallel", "parallel"),
    ("repro/execution/", "execute"),
    ("repro/functions/", "execute"),
    ("repro/types/", "execute"),
    ("repro/storage/wal", "wal"),
    ("repro/storage/", "storage"),
    ("repro/sql/", "parse"),
    ("repro/planner/", "plan"),
    ("repro/optimizer/", "plan"),
    ("repro/transaction/", "transaction"),
    ("repro/catalog/", "catalog"),
    ("repro/etl/", "etl"),
    ("repro/client/", "client"),
)

#: Placeholder operator label for engine samples outside any operator.
_NO_OPERATOR = "(engine)"


def _engine_path(filename: str) -> Optional[str]:
    """``repro/...`` package path of a frame's file, or None if foreign."""
    normalized = filename.replace(os.sep, "/")
    index = normalized.rfind("/repro/")
    if index < 0:
        return None
    return normalized[index + 1:]


def _phase_of(pkg_path: str) -> str:
    for prefix, phase in _PHASES:
        if pkg_path.startswith(prefix):
            return phase
    return "other"


class SamplingProfiler:
    """Walks thread stacks on a timer into per-operator/per-phase buckets.

    Thread-safe: the sampler thread writes buckets under ``_lock`` while
    introspection queries snapshot them.  Start/stop are idempotent; the
    sampler is a daemon thread so it never blocks interpreter exit.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buckets: Dict[Tuple[str, str], int] = {}
        self._interval = 1.0 / DEFAULT_HZ
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._total_samples = 0

    # -- lifecycle ---------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None

    @property
    def total_samples(self) -> int:
        return self._total_samples

    def start(self, hz: float = DEFAULT_HZ) -> None:
        """Start (or retune) the sampler; idempotent."""
        with self._lock:
            self._interval = 1.0 / min(max(float(hz), 1.0), 1000.0)
            if self._thread is not None:
                return
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True)
            self._thread.start()

    def stop(self) -> None:
        """Stop sampling; collected buckets remain queryable."""
        with self._lock:
            thread = self._thread
            self._thread = None
            if thread is None:
                return
            self._stop.set()
        thread.join(timeout=2.0)

    def reset(self) -> None:
        with self._lock:
            self._buckets.clear()
            self._total_samples = 0

    # -- sampling ----------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.sample_once()

    def sample_once(self) -> int:
        """Take one sample of every foreign thread; returns engine hits."""
        own = threading.get_ident()
        hits: List[Tuple[str, str]] = []
        for ident, frame in sys._current_frames().items():
            if ident == own:
                continue
            attribution = self._attribute(frame)
            if attribution is not None:
                hits.append(attribution)
        with self._lock:
            self._total_samples += 1
            for key in hits:
                self._buckets[key] = self._buckets.get(key, 0) + 1
        return len(hits)

    def _attribute(self, frame: Optional[FrameType]
                   ) -> Optional[Tuple[str, str]]:
        """(operator, phase) of the innermost engine frame, else None.

        The phase comes from the innermost frame inside the ``repro``
        package; the operator label from the innermost frame executing a
        method of a physical operator (``self`` is a PhysicalOperator).
        Foreign stacks -- application threads not currently inside the
        engine -- produce no attribution at all, so an embedded profiler
        never charges host-application work to the database.
        """
        from ..execution.physical import PhysicalOperator

        phase: Optional[str] = None
        operator: Optional[str] = None
        node = frame
        while node is not None:
            pkg_path = _engine_path(node.f_code.co_filename)
            if pkg_path is not None and not pkg_path.startswith(
                    "repro/introspection/"):
                if phase is None:
                    phase = _phase_of(pkg_path)
                if operator is None:
                    self_obj = node.f_locals.get("self")
                    if isinstance(self_obj, PhysicalOperator):
                        operator = type(self_obj).__name__
            if phase is not None and operator is not None:
                break
            node = node.f_back
        if phase is None:
            return None
        return (operator or _NO_OPERATOR, phase)

    # -- export ------------------------------------------------------------
    def snapshot(self) -> List[Tuple[str, str, int, float]]:
        """``(operator, phase, samples, self_seconds)`` rows, copy-then-
        release: buckets are copied under the lock, rows built outside it."""
        with self._lock:
            interval = self._interval
            buckets = dict(self._buckets)
        return [(operator, phase, count, count * interval)
                for (operator, phase), count in sorted(buckets.items())]
