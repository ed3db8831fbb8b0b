"""The Database: one embedded database instance.

Owns the catalog, the transaction manager, the storage manager (single file
+ WAL), the buffer manager, and the cooperation controller.  Multiple
:class:`~repro.client.connection.Connection` objects -- potentially on
different threads, e.g. an ETL writer and a dashboard reader (paper §2) --
can share one Database; MVCC keeps them consistent.
"""

from __future__ import annotations

from typing import List, Optional

from .catalog.catalog import Catalog
from .config import DatabaseConfig
from .cooperation.controller import ReactiveController, StaticController
from .cooperation.monitor import ResourceMonitor, SimulatedApplication
from .errors import ConnectionError as DatabaseConnectionError
from .observability.accounting import StatementLog
from .observability.metrics import Metric
from .observability.trace import Tracer
from .sanitizer import SanLock
from .server.admission import AdmissionController
from .server.cache import PlanCache, ResultCache
from .server.session import SessionRegistry
from .storage.buffer_manager import BufferManager
from .storage.storage_manager import StorageManager
from .transaction.manager import TransactionManager
from .verifier import PlanVerifier

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
        #: The one per-statement record store: ``repro_statement_log()``,
        #: ``repro_optimizer()``, ``repro_plan_checks()`` and the statement
        #: metrics all read it.
        self.statement_log = StatementLog()
        self.storage.load(self.catalog, self.transaction_manager)

    # -- observability --------------------------------------------------------
    def metrics(self) -> List[Metric]:
        """Every engine metric of this database, read from its owners.

        Nothing copies a number at statement boundaries: each is read here
        from the component that counts it, so all exports (``metrics()``,
        ``metrics_text()``, ``repro_metrics()``, ``QueryServer.scrape()``)
        agree, and each starts at zero when the database opens.  Counters first, then gauges, then the latency histogram,
        each kind sorted by name.
        """
        statements, rows, latency = self.statement_log.totals()
        buffers = self.buffer_manager
        storage = self.storage
        controller = self.resource_controller
        counters = [
            ("repro_queries_total", "Statements executed", statements),
            ("repro_rows_returned_total", "Rows handed to clients", rows),
            ("repro_block_cache_hits_total",
             "Block-cache lookups served from memory", buffers.cache_hits),
            ("repro_block_cache_misses_total",
             "Block-cache lookups that went to disk", buffers.cache_misses),
            ("repro_block_cache_evictions_total",
             "Blocks evicted from the block cache", buffers.cache_evictions),
            ("repro_wal_bytes_written_total",
             "Bytes appended to the write-ahead log",
             storage.wal.bytes_written),
            ("repro_wal_commit_groups_total",
             "Transaction commit groups written to the WAL",
             storage.wal.commit_groups),
            ("repro_checkpoints_total",
             "Checkpoints folded into the data file",
             storage.checkpoints_written),
            ("repro_checkpoint_bytes_written_total",
             "Bytes written by checkpoints",
             storage.checkpoint_bytes_written),
            ("repro_compression_level_switches_total",
             "Reactive intermediate-compression level changes",
             controller.level_switches),
            ("repro_worker_degrade_total",
             "Times the cooperation controller shrank a worker pool",
             controller.worker_degrades),
        ]
        for prefix, stats, attrs in (
            ("plan_cache", self.plan_cache.stats(),
             ("hits", "misses", "evictions", "invalidations")),
            ("result_cache", self.result_cache.stats(),
             ("hits", "misses", "evictions")),
            ("admission", self.admission.stats(),
             ("admitted", "waits", "timeouts")),
        ):
            for attr in attrs:
                counters.append((f"repro_{prefix}_{attr}_total",
                                 f"Serving front end: {prefix} {attr}",
                                 stats[attr]))
        gauges = [
            ("repro_sessions_active", "Serving sessions currently open",
             len(self.session_registry)),
            ("repro_queries_active",
             "Queries currently admitted for execution", self.admission.active),
            ("repro_buffer_used_bytes",
             "Bytes currently accounted by the buffer manager",
             buffers.used_bytes),
        ]
        metrics = [Metric(name, "counter", help_text, float(value))
                   for name, help_text, value in sorted(counters)]
        metrics += [Metric(name, "gauge", help_text, float(value))
                    for name, help_text, value in sorted(gauges)]
        metrics.append(Metric("repro_statement_seconds", "histogram",
                              "End-to-end statement latency", latency))
        return metrics

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
            # Again under the lock: a close() may have won it since.
            self.check_open()
            return self.storage.checkpoint(self.catalog, self.transaction_manager,
                                           force=force)

    def maybe_auto_checkpoint(self) -> None:
        """Checkpoint when the WAL grew past the configured threshold."""
        if self._closed:
            return
        if self.storage.should_auto_checkpoint():
            with self._checkpoint_lock:
                # A close() that won the lock has checkpointed already.
                if not self._closed and self.storage.should_auto_checkpoint():
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
