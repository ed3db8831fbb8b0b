"""The Database: one embedded database instance.

Owns the catalog, the transaction manager, the storage manager (single file
+ WAL), the buffer manager, and the cooperation controller.  Multiple
:class:`~repro.client.connection.Connection` objects -- potentially on
different threads, e.g. an ETL writer and a dashboard reader (paper §2) --
can share one Database; MVCC keeps them consistent.
"""

from __future__ import annotations

import dataclasses
import os
from typing import TYPE_CHECKING, Any, Dict, Optional

from . import observability
from .catalog.catalog import Catalog
from .config import DatabaseConfig
from .cooperation.controller import ReactiveController, StaticController
from .cooperation.monitor import ResourceMonitor, SimulatedApplication
from .errors import ConnectionError as DatabaseConnectionError
from .errors import InvalidInputError
from .introspection.flight import FlightRecorder
from .observability.accounting import StatementLog
from .observability.trace import Tracer
from .sanitizer import SanLock
from .server.admission import AdmissionController
from .server.cache import PlanCache, ResultCache
from .server.session import SessionRegistry
from .storage.buffer_manager import BufferManager
from .storage.storage_manager import StorageManager
from .transaction.manager import TransactionManager
from .verifier import PlanVerifier

if TYPE_CHECKING:
    from .server.capture import WorkloadCapture

__all__ = ["Database"]


class Database:
    """An embedded analytical database instance (in-memory or single-file)."""

    def __init__(self, path: str = ":memory:",
                 config: Optional[DatabaseConfig] = None) -> None:
        self.path = path
        self.config = config or DatabaseConfig()
        self.buffer_manager = BufferManager(self.config)
        self.catalog = Catalog()
        self.transaction_manager = TransactionManager()
        #: This database's quacktrace tracer and span ring.  A statement
        #: records into it when its connection's config has
        #: ``trace_enabled``; the spans stay readable (``repro_traces()``)
        #: after tracing is turned off, until the ring evicts them.
        self.tracer = Tracer()
        self.storage = StorageManager(path, self.config, self.buffer_manager,
                                      self.tracer)
        self.transaction_manager.pre_commit_hooks.append(self.storage.commit_hook)
        self.transaction_manager.drop_commit_hooks.append(self.catalog.prune)
        #: Cooperation controller; swapped for a ReactiveController when
        #: reactive resources are enabled (see :meth:`enable_reactive_resources`).
        self.resource_controller = StaticController()
        #: Serializes checkpoints (explicit, auto, and on-close).  Lock
        #: order: a connection's ``_lock`` may be held when this is taken
        #: (``connection`` -> ``database.checkpoint`` in the declared
        #: hierarchy, see :mod:`repro.sanitizer.hierarchy`); the reverse
        #: order is forbidden everywhere.
        self._checkpoint_lock = SanLock("database.checkpoint")
        self._closed = False
        #: Crash flight recorder: metric baselines plus the statement
        #: log's tail, dumped as JSON on engine faults and on
        #: ``PRAGMA flight_dump`` (see :meth:`dump_flight`).
        self.flight_recorder = FlightRecorder()
        #: Static plan verifier; consulted by the optimizer and the
        #: physical planner only while ``config.verify_plans`` is on.
        self.plan_verifier = PlanVerifier()
        #: Shared plan cache: bound+optimized SELECT plans keyed on
        #: (SQL, parameter-type fingerprint), invalidated by DDL commits.
        self.plan_cache = PlanCache(self.config)
        #: Shared read-only result cache, keyed on (SQL, parameter values,
        #: data version) -- any committed write supersedes its entries.
        self.result_cache = ResultCache(self.config)
        #: Live serving sessions (see :mod:`repro.server.session`), the
        #: source of the ``repro_sessions()`` system table.
        self.session_registry = SessionRegistry()
        #: Admission controller shared by every serving session.
        self.admission = AdmissionController(self)
        #: Last buffer-manager counter values folded into the metrics
        #: registry (see :meth:`fold_metrics`).
        self._metrics_baseline: Dict[str, int] = {}
        #: The one per-statement record store: ``repro_statement_log()``,
        #: the slow-query log, the flight dump, ``repro_optimizer()`` and
        #: ``repro_plan_checks()`` all read it.
        self.statement_log = StatementLog()
        #: Workload capture (JSONL statement recorder) when
        #: ``config.capture_enabled`` (see :meth:`sync_capture`).
        self.workload_capture: Optional["WorkloadCapture"] = None
        self.sync_capture()
        self.storage.load(self.catalog, self.transaction_manager)

    # -- observability --------------------------------------------------------
    def sync_capture(self) -> None:
        """Bring the workload capture in line with the current config.

        Instance-wide by design: PRAGMA plumbing routes capture option
        changes here against the *database* config even when issued from a
        serving session with a private config copy -- a capture records
        the whole instance's workload or none of it.
        """
        from .server.capture import WorkloadCapture

        if self.config.capture_enabled and not self._closed:
            path = self.config.capture_path
            if not path:
                self.config.capture_enabled = False
                raise InvalidInputError(
                    "capture_enabled requires capture_path to be set")
            if (self.workload_capture is None
                    or self.workload_capture.path != path):
                previous = self.workload_capture
                self.workload_capture = WorkloadCapture(path)
                if previous is not None:
                    previous.close()
        elif self.workload_capture is not None:
            capture, self.workload_capture = self.workload_capture, None
            capture.close()

    def dump_flight(self, reason: str, error: Optional[BaseException] = None,
                    best_effort: bool = False) -> Optional[str]:
        """Write the flight recorder's dump to ``repro_flight_<pid>.json``.

        Persistent databases dump next to their data file; in-memory ones
        dump into the current directory.  With ``best_effort`` the dump
        swallows I/O failures (the crash path must never mask the original
        engine error) and returns ``None`` on failure.
        """
        self.fold_metrics()
        spans = self.tracer.spans()
        directory = None
        if not self.storage.in_memory:
            directory = os.path.dirname(os.path.abspath(self.path)) or None
        config = dataclasses.asdict(self.config)
        statements = self.statement_log.records()
        if best_effort:
            return self.flight_recorder.try_dump(
                directory=directory, reason=reason, error=error, spans=spans,
                config=config, statements=statements)
        return self.flight_recorder.dump(
            directory=directory, reason=reason, error=error, spans=spans,
            config=config, statements=statements)

    def fold_metrics(self) -> None:
        """Fold this instance's cheap counters into the process registry.

        The buffer manager counts block-cache traffic with plain ints (no
        registry lock on the I/O path); this folds the deltas into the
        shared counters.  Called at statement boundaries and on metric
        export -- both low-frequency points.
        """
        registry = observability.registry()
        baseline = self._metrics_baseline
        for attr, name, help_text in (
            ("cache_hits", "repro_block_cache_hits_total",
             "Block-cache lookups served from memory"),
            ("cache_misses", "repro_block_cache_misses_total",
             "Block-cache lookups that went to disk"),
            ("cache_evictions", "repro_block_cache_evictions_total",
             "Blocks evicted from the block cache"),
        ):
            current = getattr(self.buffer_manager, attr)
            delta = current - baseline.get(attr, 0)
            if delta > 0:
                registry.counter(name, help_text).inc(delta)
                baseline[attr] = current
        for source, prefix, attrs in (
            (self.plan_cache, "repro_plan_cache", ("hits", "misses",
                                                   "evictions",
                                                   "invalidations")),
            (self.result_cache, "repro_result_cache", ("hits", "misses",
                                                       "evictions")),
            (self.admission, "repro_admission", ("admitted", "waits",
                                                 "timeouts")),
        ):
            stats = source.stats()
            for attr in attrs:
                key = f"{prefix}_{attr}"
                current = stats[attr]
                delta = current - baseline.get(key, 0)
                if delta > 0:
                    registry.counter(f"{key}_total",
                                     f"Serving front end: {prefix[6:]} {attr}"
                                     ).inc(delta)
                    baseline[key] = current
        registry.gauge("repro_sessions_active",
                       "Serving sessions currently open"
                       ).set(len(self.session_registry))
        registry.gauge("repro_queries_active",
                       "Queries currently admitted for execution"
                       ).set(self.admission.active)
        registry.gauge("repro_buffer_used_bytes",
                       "Bytes currently accounted by the buffer manager"
                       ).set(self.buffer_manager.used_bytes)

    # -- lifecycle ----------------------------------------------------------
    def connect(self):
        """Open a new connection (its own transaction context)."""
        self.check_open()
        from .client.connection import Connection

        return Connection(self)

    def check_open(self) -> None:
        if self._closed:
            raise DatabaseConnectionError("The database has been closed")

    def close(self) -> None:
        if not self._closed:
            capture, self.workload_capture = self.workload_capture, None
            if capture is not None:
                capture.close()
        # Checkpoint-on-close runs under the same ``_checkpoint_lock`` as
        # explicit/auto checkpoints (and in the same position in the lock
        # hierarchy: the closing connection already holds its ``_lock``),
        # so a concurrent CHECKPOINT or auto-checkpoint can never interleave
        # with shutdown.
        with self._checkpoint_lock:
            if self._closed:
                return
            self._closed = True
            self.storage.close(self.catalog, self.transaction_manager)

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- checkpointing --------------------------------------------------------
    def checkpoint(self, force: bool = False) -> bool:
        """Fold the WAL into the data file (no-op for in-memory databases)."""
        self.check_open()
        with self._checkpoint_lock:
            return self.storage.checkpoint(self.catalog, self.transaction_manager,
                                           force=force)

    def maybe_auto_checkpoint(self) -> None:
        """Checkpoint when the WAL grew past the configured threshold."""
        if self._closed:
            return
        if self.storage.should_auto_checkpoint():
            with self._checkpoint_lock:
                if self.storage.should_auto_checkpoint():
                    self.storage.checkpoint(self.catalog,
                                            self.transaction_manager)

    # -- cooperation ------------------------------------------------------------
    def memory_usage(self) -> int:
        """Approximate resident bytes: buffers + undo + table data."""
        total = self.buffer_manager.used_bytes
        total += self.transaction_manager.retired_undo_memory()
        bootstrap = self.transaction_manager.begin()
        try:
            for table in self.catalog.tables(bootstrap):
                total += table.data.memory_usage()
        finally:
            self.transaction_manager.rollback(bootstrap)
        return total

    def enable_reactive_resources(self, total_ram: int,
                                  application: Optional[SimulatedApplication] = None,
                                  clock=None) -> ReactiveController:
        """Turn on the Figure 1 reactive controller against a RAM budget."""
        monitor = ResourceMonitor(total_ram, lambda: self.buffer_manager.used_bytes,
                                  application, clock=clock)
        controller = ReactiveController(monitor)
        self.resource_controller = controller
        self.config.reactive_resources = True
        return controller

    def disable_reactive_resources(self) -> None:
        self.resource_controller = StaticController()
        self.config.reactive_resources = False

    def __repr__(self) -> str:
        kind = "in-memory" if self.storage.in_memory else self.path
        return f"Database({kind})"
