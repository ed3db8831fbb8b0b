"""Morsel-driven execution: the worker pool and its scheduling policy.

The paper's §2 demands OLAP queries run "as fast as the hardware allows";
on a multi-core host that means exploiting all cores the user granted via
``config.threads`` (PRAGMA ``threads``).  The design follows the
morsel-driven model: a table is cut into fixed-size physical row-range
*morsels* (``config.morsel_size``, aligned to scan chunks), a
:class:`MorselDriver` runs one pipeline fragment -- scan, pushed filters,
residual filters, projection, partial aggregation -- per morsel, and the
coordinator consumes the results in morsel order.  NumPy kernels release
the GIL, so workers genuinely overlap on multi-core machines.

Workers run only where per-morsel partials fold: in a hash aggregate over
a scan pipeline, whose fragments are copies of the one pipeline it
lowered, each restricted to one morsel.  Every other scan runs in place,
batch by batch, at every thread count: workers queueing a morsel's batches
would hold storage views that an UPDATE must then copy (copy-on-write).

The morsel is the unit of work at every thread count: with one worker the
driver runs the same tasks inline, on the calling thread.  Two invariants
follow:

* **identical results** -- an aggregate over a scan pipeline folds one
  partial state per morsel and merges the partials in morsel order
  (:class:`~repro.execution.aggregate.PhysicalHashAggregate`); a morsel's
  scan batches are those of a whole-table scan.  So at equal ``morsel_size``
  the answer is the same bits whatever ``threads`` is, with or without
  filters and deleted rows -- ``threads`` only sets how many workers run
  the morsels;
* **cooperation** -- the worker count honors ``config.threads`` and, when
  the reactive controller is active, degrades under application CPU load
  (:meth:`~repro.cooperation.controller.ReactiveController.choose_worker_count`),
  which by the first invariant never changes an answer.

``EXPLAIN`` shows ``workers=N`` on an aggregate granted more than one
worker (at most one per morsel); ``EXPLAIN ANALYZE`` reports ``morsels``,
``parallel_workers`` and ``worker_<i>_rows`` for every morsel pipeline
that ran.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, List

from ..sanitizer import SanLock, tracked_access
from ..planner.subquery import (
    BoundExistsSubquery,
    BoundInSubquery,
    BoundScalarSubquery,
)
from .physical import ExecutionContext

__all__ = ["MorselDriver", "plan_worker_count", "expressions_parallel_safe"]

_SUBQUERY_NODES = (BoundScalarSubquery, BoundInSubquery, BoundExistsSubquery)


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
    """Schedules per-morsel tasks on a worker pool, or inline with one
    worker.

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
        """Run every task; yield results in task order.  One worker runs
        them inline, one at a time, on the calling thread."""
        context = self.context
        tracer = context.tracer
        if tracer is not None:
            self._parent_span = tracer.current()
        try:
            if self.worker_count == 1:
                for index, task in enumerate(tasks):
                    yield self._run_task(index, task)
            else:
                yield from self._pool_map(tasks)
        finally:
            context.bump_stat("morsels", len(tasks))
            with self._lock:
                rows = list(self._worker_rows.values())
            for index, count in enumerate(rows):
                context.bump_stat(f"worker_{index}_rows", count)
            context.max_stat("parallel_workers", len(rows))

    def _pool_map(self, tasks: List[Callable]) -> Iterator:
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
