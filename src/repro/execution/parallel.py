"""Morsel-driven parallel execution: worker pool, parallel scan, parallel
aggregation.

The paper's §2 demands OLAP queries run "as fast as the hardware allows";
on a multi-core host that means exploiting all cores the user granted via
``config.threads`` (PRAGMA ``threads``).  The design follows the
morsel-driven model: a table scan is partitioned into fixed-size row-range
*morsels* (aligned to the scan chunk size so per-chunk work is bit-identical
to a serial scan), each worker of a ``ThreadPoolExecutor`` runs an entire
pipeline fragment -- scan, pushed filters, residual filters, projection,
partial aggregation -- over its morsel, and the coordinator merges the
partial states.  NumPy kernels release the GIL, so the workers genuinely
overlap on multi-core machines.

Two invariants keep parallel execution transparent:

* **identical results** -- morsel boundaries align with serial chunk
  boundaries, the coordinator consumes worker results in morsel order, and
  a serial aggregate folds morsel-sized batches into the same partial
  states (see :mod:`~repro.execution.aggregate`) that workers fold
  morsels into.  At equal ``morsel_size`` on unfiltered input, a parallel
  plan returns bit-identical rows in the same order as its serial twin;
  a filter moves batch boundaries, which changes only floating-point
  summation order;
* **cooperation** -- the worker count honors ``config.threads`` and, when
  the reactive controller is active, degrades under application CPU load
  (:meth:`~repro.cooperation.controller.ReactiveController.choose_worker_count`).

``EXPLAIN ANALYZE`` reports ``morsels``, ``parallel_workers``, and
``worker_<i>_rows`` statistics for every parallel pipeline that ran.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Iterator, List, Optional, Tuple

from ..sanitizer import SanLock, tracked_access
from ..storage.table_data import SCAN_CHUNK_ROWS
from ..types import DataChunk, VECTOR_SIZE
from ..planner.subquery import (
    BoundExistsSubquery,
    BoundInSubquery,
    BoundScalarSubquery,
)
from .aggregate import PhysicalHashAggregate
from .physical import ExecutionContext, PhysicalOperator
from .scan import PhysicalTableScan

__all__ = ["MORSEL_ROWS", "MorselDriver", "PhysicalParallelTableScan",
           "PhysicalParallelHashAggregate", "plan_worker_count",
           "aligned_morsel_rows", "expressions_parallel_safe"]

#: Default rows per morsel (~64K, the classic morsel-driven granularity).
MORSEL_ROWS = 65536

_SUBQUERY_NODES = (BoundScalarSubquery, BoundInSubquery, BoundExistsSubquery)


def aligned_morsel_rows(morsel_rows: int) -> int:
    """Morsel size rounded down to a whole number of scan chunks."""
    return max(SCAN_CHUNK_ROWS,
               (int(morsel_rows) // SCAN_CHUNK_ROWS) * SCAN_CHUNK_ROWS)


def expressions_parallel_safe(expressions) -> bool:
    """False when any expression needs coordinator-only state.

    Subquery nodes materialize through the shared execution-context cache
    (and may lower plans recursively), which is not thread-safe; pipelines
    containing them stay serial.
    """
    stack = list(expressions)
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, _SUBQUERY_NODES):
            return False
        stack.extend(node.children)
    return True


def plan_worker_count(context: ExecutionContext) -> int:
    """Workers this query may use: ``config.threads``, degraded by the
    cooperation controller under application CPU load."""
    database = context.database
    if database is None:
        return 1
    config = context.config if context.config is not None else database.config
    threads = int(getattr(config, "threads", 1) or 1)
    if threads <= 1:
        return 1
    controller = context.controller
    if controller is not None:
        chooser = getattr(controller, "choose_worker_count", None)
        if chooser is not None:
            threads = chooser(threads)
    return max(1, int(threads))


class MorselDriver:
    """Schedules per-morsel tasks on a worker pool.

    Results are yielded in *morsel order* (not completion order), which
    keeps parallel output ordering identical to a serial scan while workers
    still execute concurrently.  Interrupts propagate both ways: tasks poll
    ``context.interrupted`` between chunks, and an abandoned or failing
    drive cancels all not-yet-started morsels.
    """

    def __init__(self, context: ExecutionContext, worker_count: int) -> None:
        self.context = context
        self.worker_count = max(1, worker_count)
        self._lock = SanLock("morsel_driver")
        #: rows processed per worker thread, in first-use order.
        self._worker_rows: dict = {}
        #: Coordinator-side parent for per-morsel spans (set by map()).
        self._parent_span = None

    def record_rows(self, count: int) -> None:
        """Attribute ``count`` processed rows to the calling worker."""
        ident = threading.get_ident()
        with self._lock, tracked_access(("morsel_driver", id(self)), True,
                                        self._lock):
            self._worker_rows[ident] = self._worker_rows.get(ident, 0) + count
        tracer = self.context.tracer
        if tracer is not None:
            span = tracer.current()
            if span is not None and span.kind == "morsel":
                span.rows += count

    def _run_task(self, index: int, task: Callable):
        self.context.check_interrupted()
        tracer = self.context.tracer
        if tracer is None:
            return task()
        # Per-morsel span on the worker thread: fragment operator spans
        # nest under it, and the renderer derives per-worker morsel counts
        # and skew from these.
        span = tracer.start_span(f"morsel {index}", kind="morsel",
                                 parent=self._parent_span,
                                 attrs={"morsel": index})
        tracer.push(span)
        wall = time.perf_counter_ns()
        cpu = time.thread_time_ns()
        try:
            return task()
        finally:
            span.add_timing(time.perf_counter_ns() - wall,
                            time.thread_time_ns() - cpu)
            tracer.pop(span)
            tracer.end_span(span)

    def map(self, tasks: List[Callable]) -> Iterator:
        """Run every task on the pool; yield results in task order."""
        context = self.context
        tracer = context.tracer
        if tracer is not None:
            self._parent_span = tracer.current()
        pool = ThreadPoolExecutor(max_workers=self.worker_count,
                                  thread_name_prefix="repro-morsel")
        futures = [pool.submit(self._run_task, index, task)
                   for index, task in enumerate(tasks)]
        try:
            for future in futures:
                yield future.result()
        finally:
            for future in futures:
                future.cancel()
            pool.shutdown(wait=True)
            context.bump_stat("morsels", len(futures))
            with self._lock:
                rows = list(self._worker_rows.values())
            for index, count in enumerate(rows):
                context.bump_stat(f"worker_{index}_rows", count)
            context.max_stat("parallel_workers", len(rows))


class PhysicalParallelTableScan(PhysicalOperator):
    """Morsel-parallel MVCC table scan (scan + pushed filters on workers).

    Each worker executes a serial :class:`PhysicalTableScan` restricted to
    one morsel's row range; the coordinator yields the resulting chunks in
    morsel order, so downstream operators observe the exact chunk stream a
    serial scan would produce.
    """

    def __init__(self, context: ExecutionContext, table_entry, column_ids,
                 types, names, filters=None, worker_count: int = 1,
                 morsel_rows: int = MORSEL_ROWS) -> None:
        super().__init__(context, [], types, names)
        self.table_entry = table_entry
        self.column_ids = column_ids
        self.filters = filters or []
        self.worker_count = max(1, worker_count)
        self.morsel_rows = aligned_morsel_rows(morsel_rows)
        #: Serial twin, reused for full-table fallback and EXPLAIN output.
        self._template = PhysicalTableScan(context, table_entry, column_ids,
                                           types, names, self.filters)

    def _scan_for(self, row_range: Optional[Tuple[int, int]]) -> PhysicalTableScan:
        return PhysicalTableScan(self.context, self.table_entry,
                                 self.column_ids, self.types, self.names,
                                 self.filters, row_range=row_range)

    def _scan_morsel(self, driver: MorselDriver,
                     row_range: Tuple[int, int]) -> List[DataChunk]:
        chunks = list(self._scan_for(row_range).run())
        driver.record_rows(sum(chunk.size for chunk in chunks))
        return chunks

    def execute(self) -> Iterator[DataChunk]:
        ranges = self.table_entry.data.morsel_ranges(self.morsel_rows)
        if self.worker_count <= 1 or len(ranges) <= 1:
            yield from self._template.run()
            return
        driver = MorselDriver(self.context,
                              min(self.worker_count, len(ranges)))
        tasks = [partial(self._scan_morsel, driver, row_range)
                 for row_range in ranges]
        for chunks in driver.map(tasks):
            for chunk in chunks:
                yield chunk

    def _explain_line(self) -> str:
        return (f"PARALLEL_{self._template._explain_line()} "
                f"workers={self.worker_count}")


class PhysicalParallelHashAggregate(PhysicalHashAggregate):
    """Morsel-parallel GROUP BY: a :class:`PhysicalHashAggregate` whose
    batches are table morsels, folded on workers.

    Each worker runs a full pipeline fragment (scan -> filter -> projection)
    over one morsel and folds it into a partial-state chunk exactly as the
    serial operator folds a batch; the coordinator merges the partials in
    morsel order.  With one worker or one morsel it is the serial operator
    over the full-range fragment.
    """

    def __init__(self, context: ExecutionContext, table_data,
                 fragment_factory: Callable[[Optional[Tuple[int, int]]], PhysicalOperator],
                 groups, aggregates, types, names, worker_count: int,
                 morsel_rows: int = MORSEL_ROWS) -> None:
        # The full-range fragment is the serial input and the EXPLAIN child.
        super().__init__(context, fragment_factory(None), groups, aggregates,
                         types, names, aligned_morsel_rows(morsel_rows))
        self.table_data = table_data
        self.fragment_factory = fragment_factory
        self.worker_count = max(1, worker_count)

    def execute(self) -> Iterator[DataChunk]:
        ranges = self.table_data.morsel_ranges(self.batch_rows)
        if self.worker_count <= 1 or len(ranges) <= 1:
            yield from super().execute()
            return
        driver = MorselDriver(self.context,
                              min(self.worker_count, len(ranges)))
        tasks = [partial(self._consume, self.fragment_factory(row_range),
                         driver) for row_range in ranges]
        result = self._merge([chunk for partials, _ in driver.map(tasks)
                              for chunk in partials])
        if result is not None:
            yield from result.split(VECTOR_SIZE)

    def _explain_line(self) -> str:
        return (f"PARALLEL_HASH_AGGREGATE groups={len(self.groups)} "
                f"aggs={len(self.aggregates)} workers={self.worker_count}")
