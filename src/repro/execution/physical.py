"""Physical operator base classes and the execution context.

Physical operators implement the paper's "Vector Volcano" model (§6):
execution pulls chunks from the root; each operator recursively pulls from
its children.  In Python the pull loop is a generator chain -- each
operator's :meth:`execute` yields :class:`~repro.types.chunk.DataChunk`\\ s.
The client result object simply iterates the root generator, which is
exactly the paper's "the client application becomes the root operator".
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..config import DatabaseConfig
from ..errors import InterruptError
from ..sanitizer import SanLock, tracked_access
from ..storage.table_data import aligned_morsel_rows
from ..types import DataChunk, LogicalType

__all__ = ["PhysicalOperator", "ExecutionContext", "StatementMemory"]


class StatementMemory:
    """The buffer manager as one statement sees it: its reservations also
    count toward the statement's own ``peak_bytes`` (its ``memory_bytes``
    bill), whatever other statements hold meanwhile."""

    def __init__(self, manager, lock) -> None:
        self._manager = manager
        self._lock = lock  # the context's stats lock: workers reserve too
        self.used_bytes = self.peak_bytes = 0
        self.can_reserve = manager.can_reserve

    def reserve(self, nbytes: int, description: str) -> None:
        self._manager.reserve(nbytes, description)
        with self._lock:
            self.used_bytes += nbytes
            self.peak_bytes = max(self.peak_bytes, self.used_bytes)

    def release(self, nbytes: int) -> None:
        self._manager.release(nbytes)
        with self._lock:
            self.used_bytes -= nbytes


class ExecutionContext:
    """Per-query execution state shared by all operators of one plan."""

    def __init__(self, transaction, database=None, parameters=None,
                 config=None, parameter_rows=None, record=None) -> None:
        self.transaction = transaction
        self.database = database
        #: The statement's StatementRecord, or None: quackplan appends the
        #: checks of every root lowering -- subquery plans lowered
        #: mid-execution included -- to this statement's own record.
        self.record = record
        #: Late-bound parameter values for BoundParameterRef slots: a
        #: sequence for qmark parameters, a mapping for named parameters.
        self.parameters = parameters if parameters is not None else ()
        #: None for scalar parameter values.  An ``executemany`` INSERT
        #: binds parameter *columns* instead -- each value above is a Vector
        #: this many rows long -- and its one VALUES row becomes that many.
        self.parameter_rows = parameter_rows
        #: Effective configuration for this query.  Usually the database's
        #: config object itself, but a server session passes its own copy
        #: here so session-scoped PRAGMAs (threads, memory_limit,
        #: morsel_size) and admission quotas apply per query without
        #: mutating global state.
        self.config = config if config is not None \
            else (database.config if database is not None else None)
        #: The database's tracer when this statement is traced, else None.
        #: The connection decides that once, when it opens the root span
        #: and stamps its id on the record; re-reading the config here
        #: could race a PRAGMA.  The hot path (PhysicalOperator.run) pays
        #: one ``is None`` test; EXPLAIN ANALYZE swaps in a private tracer
        #: when this is None.
        self.tracer = database.tracer \
            if record is not None and record.trace_id else None
        #: Uncorrelated subqueries are evaluated once and cached by plan id.
        self._subquery_results = {}
        #: Set (from any thread) to interrupt the query.  Morsel workers poll
        #: this flag between chunks, so an interrupt propagates into the
        #: worker pool of a parallel pipeline as well.
        self.interrupted = False
        #: Statistics filled during execution (rows scanned, spills, ...).
        #: Guarded by ``_stats_lock``: parallel pipeline workers bump stats
        #: concurrently.
        self.stats = {}
        self._stats_lock = SanLock("operator_stats")
        #: Where this statement's intermediates reserve memory.
        self.buffer_manager = StatementMemory(
            database.buffer_manager, self._stats_lock) \
            if database is not None else None
        #: True while ``create_physical_plan`` is lowering this query's
        #: tree, so the recursive per-child calls know they are not the
        #: root (only the root lowering is verified by quackplan).
        #: Coordinator-only, like the subquery cache: plans are lowered
        #: before morsel workers exist, and subquery lowerings happen on
        #: the coordinator (``materialize_subquery``).
        self.lowering_active = False

    @property
    def controller(self):
        """The reactive resource controller (cooperation, Figure 1)."""
        return self.database.resource_controller if self.database is not None else None

    @property
    def memory_limit(self) -> int:
        if self.config is not None:
            return self.config.memory_limit
        return 1 << 62

    @property
    def morsel_rows(self) -> int:
        """``config.morsel_size`` in whole scan chunks: the rows of one
        aggregate morsel and of a scan's largest batch."""
        config = self.config if self.config is not None else DatabaseConfig
        return aligned_morsel_rows(config.morsel_size)

    def check_interrupted(self) -> None:
        if self.interrupted:
            raise InterruptError("Query execution was interrupted")

    def materialize_subquery(self, plan) -> DataChunk:
        """Run an uncorrelated subquery plan once; cache the materialization.

        Coordinator-only by design: pipelines containing subqueries never
        parallelize (see ``expressions_parallel_safe``).  The RaceSan probe
        declares the cache lock-free, so any overlap -- i.e. a future change
        that lets a worker thread in here -- is reported as a race.
        """
        key = id(plan)
        with tracked_access(("subquery_cache", id(self)), True, None):
            return self._materialize_subquery(plan, key)

    def _materialize_subquery(self, plan, key) -> DataChunk:
        if key not in self._subquery_results:
            from .physical_planner import create_physical_plan

            physical = create_physical_plan(plan, self)
            chunks = [chunk for chunk in physical.run() if chunk.size]
            if chunks:
                result = DataChunk.concat_many(chunks)
            else:
                from ..types import Vector

                result = DataChunk([Vector.empty(dtype, 0) for dtype in plan.types])
            self._subquery_results[key] = result
        return self._subquery_results[key]

    def bump_stat(self, name: str, amount: int = 1) -> None:
        with self._stats_lock, tracked_access(("operator_stats", id(self)),
                                              True, self._stats_lock):
            self.stats[name] = self.stats.get(name, 0) + amount

    def max_stat(self, name: str, value: int) -> None:
        """Record the high-water mark of a statistic (e.g. workers used)."""
        with self._stats_lock, tracked_access(("operator_stats", id(self)),
                                              True, self._stats_lock):
            if value > self.stats.get(name, 0):
                self.stats[name] = value


class PhysicalOperator:
    """Base class: children, output types, and a chunk generator."""

    #: Optimizer cardinality estimate, copied from the logical operator by
    #: the physical planner; EXPLAIN ANALYZE compares it to actual rows.
    estimated_rows: Optional[float] = None
    #: True when the estimate leaned on column statistics marked stale
    #: (rows changed since the last recompute); copied from the logical
    #: operator so EXPLAIN can flag it.
    estimate_stale: bool = False

    def __init__(self, context: ExecutionContext,
                 children: List["PhysicalOperator"],
                 types: List[LogicalType], names: Optional[List[str]] = None) -> None:
        self.context = context
        self.children = children
        self.types = types
        self.names = names or [f"col{i}" for i in range(len(types))]

    def execute(self) -> Iterator[DataChunk]:
        """Yield result chunks; must be overridden."""
        raise NotImplementedError

    def run(self) -> Iterator[DataChunk]:
        """Entry point callers use: ``execute()`` wrapped in a trace span.

        For an untraced query this *is* ``execute()`` -- no wrapper
        generator, no allocation, just one ``is None`` test per operator
        per query.  For a traced one the chunk stream is accounted to
        an operator span whose parent is the span current at call time
        (the parent operator's span, a morsel span on a worker thread, or
        the query root span).
        """
        tracer = self.context.tracer
        if tracer is None:
            return self.execute()
        return tracer.trace_operator(self, tracer.current())

    def explain(self, indent: int = 0) -> str:
        line = " " * indent + self._explain_line()
        if self.estimated_rows is not None:
            stale = ", stale" if self.estimate_stale else ""
            line += f" (est={int(round(self.estimated_rows))} rows{stale})"
        parts = [line]
        for child in self.children:
            parts.append(child.explain(indent + 2))
        return "\n".join(parts)

    def _explain_line(self) -> str:
        return type(self).__name__
