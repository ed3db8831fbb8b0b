"""Grouped aggregation, DISTINCT, and set operations.

All three share the factorization machinery of
:mod:`~repro.execution.keys`: group keys are turned into dense integer ids
with ``np.unique`` and every aggregate is then a segmented NumPy reduction
over a whole batch of input -- the vectorized (low cycles-per-value)
execution style the paper's §2 demands for OLAP workloads.

Grouped aggregation buffers its input chunks in a
:class:`~repro.execution.intermediates.ChunkBuffer` (so under memory
pressure the reactive controller compresses them, Figure 1), one
morsel-sized batch at a time, and evaluates its group keys and arguments
once per batch.  An input that fits in one batch is aggregated directly.
A longer one folds each batch into a *partial-state chunk* and merges the
partials, in input order, at the end.  Over a base-table scan pipeline
(scan -> filter/projection) the batches are the table's morsels: one
fragment of the pipeline per morsel, run by a
:class:`~repro.execution.parallel.MorselDriver` on as many workers as were
granted, one included, so the partials -- and the float sums they hold --
do not depend on ``threads``.  Any other input (a join, a pipeline with a
subquery) never runs on workers and is cut into batches of surviving
rows.  DISTINCT aggregates have no partial state, so they -- like DISTINCT
and set operations -- buffer their whole input.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ConversionError, InternalError
from ..functions.aggregate import compute_aggregate
from ..planner.expressions import BoundAggregate, BoundExpression
from ..types import BIGINT, DOUBLE, DataChunk, LogicalType, VECTOR_SIZE, Vector
from .expression_executor import ExpressionExecutor
from .intermediates import ChunkBuffer
from .keys import factorize_for_groups
from .parallel import MorselDriver
from .physical import ExecutionContext, PhysicalOperator

__all__ = ["PhysicalHashAggregate", "PhysicalDistinct", "PhysicalSetOp",
           "aggregate_supports_partial", "partial_state_types",
           "compute_partial_state", "finalize_merged_state"]


# -- partial aggregation --------------------------------------------------------
#
# Every non-DISTINCT aggregate decomposes into per-batch *partial states*
# plus a commutative merge applied over the concatenated partials.  Each
# state is an ordinary column, so merging reuses the same factorize +
# segmented-reduction machinery: count -> sum of counts, min/max -> min/max
# of extremes, avg -> (sum, count), variance -> (sum, sum-of-squares,
# count).  An integer sum carries the sums of its values' low and high
# 32-bit halves, which cannot overflow, and is range-checked once, when
# finalized.  ``first`` merges with ``first`` because partials arrive in
# input order, preserving first-occurrence semantics.

_VARIANCE_NAMES = ("stddev", "stddev_samp", "var_samp", "variance")
_COUNTED = frozenset(("count", "sum", "avg") + _VARIANCE_NAMES)
_LOW_HALF = 0xFFFFFFFF


def aggregate_supports_partial(aggregate: BoundAggregate) -> bool:
    """True when this aggregate decomposes into partial states plus merge:
    all but DISTINCT ones, which need global deduplication."""
    return not aggregate.distinct


def partial_state_types(aggregate: BoundAggregate) -> List[Tuple[str, LogicalType]]:
    """``(merge aggregate name, state type)`` per partial-state column."""
    name = aggregate.name.lower()
    if name == "count":
        return [("sum", BIGINT)]
    if name == "sum":
        if aggregate.return_type.is_integer():
            return [("sum", BIGINT), ("sum", BIGINT)]
        return [("sum", aggregate.return_type)]
    if name in ("min", "max", "first"):
        return [(name, aggregate.args[0].return_type)]
    if name == "avg":
        return [("sum", DOUBLE), ("sum", BIGINT)]
    if name in _VARIANCE_NAMES:
        return [("sum", DOUBLE), ("sum", DOUBLE), ("sum", BIGINT)]
    raise InternalError(f"Aggregate {name} has no partial decomposition")


def compute_partial_state(aggregate: BoundAggregate, argument: Optional[Vector],
                          group_ids: np.ndarray, group_count: int,
                          counts: Optional[np.ndarray] = None) -> List[Vector]:
    """One batch's partial-state columns for one aggregate; ``counts`` is
    the batch's shared all-rows group count, if any (see
    :func:`~repro.functions.aggregate.compute_aggregate`)."""
    name = aggregate.name.lower()
    aggregate_of = partial(compute_aggregate, group_ids=group_ids,
                           group_count=group_count, counts=counts)
    if name == "count":
        return [aggregate_of("count", False, argument, return_type=BIGINT)]
    if name == "sum" and aggregate.return_type.is_integer():
        values = np.where(argument.validity, argument.data, 0).astype(
            np.int64, copy=False)
        return [aggregate_of("sum", False,
                             Vector(BIGINT, half, argument.validity),
                             return_type=BIGINT)
                for half in (values & _LOW_HALF, values >> 32)]
    if name == "sum":
        return [aggregate_of("sum", False, argument,
                             return_type=aggregate.return_type)]
    if name in ("min", "max", "first"):
        return [aggregate_of(name, False, argument,
                             return_type=argument.dtype)]
    if name == "avg":
        return [aggregate_of("sum", False, argument, return_type=DOUBLE),
                aggregate_of("count", False, argument, return_type=BIGINT)]
    if name in _VARIANCE_NAMES:
        cleaned = np.where(argument.validity, argument.data, 0).astype(np.float64)
        squares = Vector(DOUBLE, cleaned * cleaned, argument.validity.copy())
        return [aggregate_of("sum", False, argument, return_type=DOUBLE),
                aggregate_of("sum", False, squares, return_type=DOUBLE),
                aggregate_of("count", False, argument, return_type=BIGINT)]
    raise InternalError(f"Aggregate {name} has no partial decomposition")


def _join_halves(low: Vector, high: Vector, return_type: LogicalType) -> Vector:
    """Integer sums from the sums of their values' 32-bit halves; raises
    instead of wrapping when a sum leaves the int64 range."""
    high_data = high.data + (low.data >> 32)
    low_data = low.data & _LOW_HALF
    outside = high.validity & ((high_data < -(1 << 31)) | (high_data >= 1 << 31))
    if outside.any():
        group = np.flatnonzero(outside)[0]
        exact = (int(high_data[group]) << 32) + int(low_data[group])
        raise ConversionError(f"Value {exact} out of range for {return_type}")
    return Vector(return_type, (high_data << 32) | low_data, high.validity)


def finalize_merged_state(aggregate: BoundAggregate,
                          states: List[Vector]) -> Vector:
    """Turn merged partial states back into the aggregate's result column."""
    name = aggregate.name.lower()
    if name == "sum" and len(states) == 2:
        return _join_halves(states[0], states[1], aggregate.return_type)
    if name in ("count", "sum", "min", "max", "first"):
        return states[0]
    # Merged states are sums, whose data is 0 wherever they are NULL.
    if name == "avg":
        sums, counts = states
        with np.errstate(all="ignore"):
            means = sums.data / np.maximum(counts.data, 1)
        return Vector(DOUBLE, means, counts.data > 0)
    if name in _VARIANCE_NAMES:
        sums, squares, counts = states
        n = counts.data.astype(np.float64)
        with np.errstate(all="ignore"):
            variance = (squares.data - sums.data * sums.data / np.maximum(n, 1)) \
                / np.maximum(n - 1, 1)
        variance = np.maximum(variance, 0.0)
        if name in ("stddev", "stddev_samp"):
            variance = np.sqrt(variance)
        return Vector(DOUBLE, variance, n > 1)
    raise InternalError(f"Aggregate {name} has no partial decomposition")


class PhysicalHashAggregate(PhysicalOperator):
    """GROUP BY aggregation: output = group key columns ++ aggregate columns.

    The input is buffered and evaluated ``batch_rows`` rows at a time (see
    the module docstring); with a DISTINCT aggregate it is one batch.  When
    ``child`` is a scan pipeline over a table of more than one morsel,
    ``fragments`` restricts it to one of ``table_data``'s morsels, and the
    table is folded morsel by morsel on ``worker_count`` workers (at most
    one per morsel); ``child`` itself then never runs.
    """

    def __init__(self, context: ExecutionContext, child: PhysicalOperator,
                 groups: List[BoundExpression], aggregates: List[BoundAggregate],
                 types, names, batch_rows: int,
                 fragments: Optional[Callable[[Tuple[int, int]],
                                              PhysicalOperator]] = None,
                 table_data=None, worker_count: int = 1) -> None:
        super().__init__(context, [child], types, names)
        self.groups = groups
        self.aggregates = aggregates
        self.batch_rows: Optional[int] = batch_rows
        self.fragments = fragments
        self.table_data = table_data
        self.worker_count = worker_count
        # A batch evaluates to the group-key columns followed by one
        # column per aggregate argument; argumentless aggregates
        # (``count(*)``) get slot -1.
        self._inputs = list(groups)
        self._argument_slots: List[int] = []
        # Whether a batch's rows per group are counted once, up front, and
        # passed to every aggregate that counts (an argument with NULLs
        # still counts its own).  Passed, not stored: morsel workers reduce
        # their batches concurrently.
        self._counts_shared = False
        for aggregate in aggregates:
            if not aggregate_supports_partial(aggregate):
                self.batch_rows = None
            elif aggregate.name.lower() in _COUNTED:
                self._counts_shared = True
            self._argument_slots.append(
                len(self._inputs) if aggregate.args else -1)
            self._inputs.extend(aggregate.args[:1])

    def execute(self) -> Iterator[DataChunk]:
        if self.fragments is not None:
            ranges = self.table_data.morsel_ranges(self.batch_rows)
            driver = MorselDriver(self.context,
                                  min(self.worker_count, len(ranges)))
            tasks = [partial(self._consume, self.fragments(row_range), driver)
                     for row_range in ranges]
            result = self._merge([chunk for partials, _ in driver.map(tasks)
                                  for chunk in partials])
        else:
            partials, result = self._consume(self.children[0])
            if partials:
                result = self._merge(partials)
        if result is not None:
            yield from result.split(VECTOR_SIZE)

    def _consume(self, child: PhysicalOperator, driver=None
                 ) -> Tuple[List[Optional[DataChunk]], Optional[DataChunk]]:
        """Buffer ``child``'s chunks, folding each full batch into a
        partial.  A chunk that overfills the batch is cut (views, no copy):
        the rest starts the next batch, so no batch exceeds ``batch_rows``.

        Returns ``(partials, None)``, or ``([], result)`` when the input was
        one batch and no morsel worker's ``driver`` asks for partials.
        """
        context = self.context
        executor = ExpressionExecutor(context)
        partials: List[Optional[DataChunk]] = []
        rows = 0
        with ChunkBuffer(child.types, context, "aggregate input") as buffer:
            for chunk in child.run():
                context.check_interrupted()
                start, size = 0, chunk.size
                while True:
                    end = size
                    if self.batch_rows is not None:
                        if rows >= self.batch_rows:
                            partials.append(
                                self._reduce(executor, buffer, rows, True))
                            rows = 0
                        if rows + size - start > self.batch_rows:
                            end = start + self.batch_rows - rows
                    if self._inputs:
                        buffer.append(chunk if end - start == size
                                      else chunk.slice(slice(start, end)))
                    rows += end - start
                    start = end
                    if start == size:
                        break
            if driver is None and not partials:
                return [], self._reduce(executor, buffer, rows, False)
            partials.append(self._reduce(executor, buffer, rows, True))
        if driver is not None:
            driver.record_rows(rows)  # a morsel is one batch
        return partials, None

    def _factorize(self, batch: DataChunk, rows: int):
        """Dense group ids of ``batch``'s rows, the group count, and the
        key columns holding one row per group."""
        if not self.groups:
            return np.zeros(rows, dtype=np.int64), 1, []
        keys = batch.columns[:len(self.groups)]
        group_ids, group_count, representatives = factorize_for_groups(keys)
        return group_ids, group_count, [key.slice(representatives)
                                        for key in keys]

    def _reduce(self, executor: ExpressionExecutor, buffer: ChunkBuffer,
                rows: int, partial: bool) -> Optional[DataChunk]:
        """Evaluate the keys and arguments over the buffered batch and
        aggregate it into a partial-state chunk (one row per group, key
        columns ++ state columns; empties ``buffer`` for the next batch) or
        into the result; None when there are no groups."""
        batch = buffer.materialize() if self._inputs else None
        if partial:
            buffer.close()
        if self.groups and rows == 0:
            return None
        if batch is not None:
            batch = DataChunk([executor.execute(expression, batch)
                               for expression in self._inputs])
        group_ids, group_count, columns = self._factorize(batch, rows)
        if self.groups and not partial:
            self.context.bump_stat("aggregate_groups", group_count)
        counts = np.bincount(group_ids, minlength=group_count) \
            if self._counts_shared else None
        for slot, aggregate in zip(self._argument_slots, self.aggregates):
            argument = batch.columns[slot] if slot >= 0 else None
            if partial:
                columns.extend(compute_partial_state(
                    aggregate, argument, group_ids, group_count, counts))
            else:
                columns.append(compute_aggregate(
                    aggregate.name, aggregate.distinct, argument, group_ids,
                    group_count, aggregate.return_type, counts))
        return DataChunk(columns)

    def _merge(self, partials: List[Optional[DataChunk]]) -> Optional[DataChunk]:
        """Merge partial-state chunks (in input order) into the result."""
        partials = [chunk for chunk in partials if chunk is not None]
        if not partials:
            return None
        merged = DataChunk.concat_many(partials)
        group_ids, group_count, columns = self._factorize(merged, merged.size)
        if self.groups:
            self.context.bump_stat("aggregate_groups", group_count)
        counts = np.bincount(group_ids, minlength=group_count) \
            if self._counts_shared else None
        offset = len(self.groups)
        for aggregate in self.aggregates:
            specs = partial_state_types(aggregate)
            states = [compute_aggregate(merge_name, False,
                                        merged.columns[offset + index],
                                        group_ids, group_count, state_type,
                                        counts)
                      for index, (merge_name, state_type) in enumerate(specs)]
            columns.append(finalize_merged_state(aggregate, states))
            offset += len(specs)
        return DataChunk(columns)

    def _explain_line(self) -> str:
        workers = f" workers={self.worker_count}" \
            if self.worker_count > 1 else ""
        return (f"HASH_AGGREGATE groups={len(self.groups)} "
                f"aggs={len(self.aggregates)}{workers}")


class PhysicalDistinct(PhysicalOperator):
    """DISTINCT: one representative row per unique full-row key."""

    def __init__(self, context: ExecutionContext, child: PhysicalOperator) -> None:
        super().__init__(context, [child], child.types, child.names)

    def execute(self) -> Iterator[DataChunk]:
        context = self.context
        with ChunkBuffer(self.types, context, "distinct input") as buffer:
            for chunk in self.children[0].run():
                context.check_interrupted()
                buffer.append(chunk)
            materialized = buffer.materialize()
        if materialized.size == 0:
            return
        _, _, representatives = factorize_for_groups(materialized.columns)
        # Keep first-occurrence order for reproducible output.
        representatives = np.sort(representatives)
        result = materialized.slice(representatives)
        for piece in result.split(VECTOR_SIZE):
            yield piece

    def _explain_line(self) -> str:
        return "DISTINCT"


class PhysicalSetOp(PhysicalOperator):
    """UNION [ALL] / EXCEPT / INTERSECT with SQL bag/set semantics."""

    def __init__(self, context: ExecutionContext, left: PhysicalOperator,
                 right: PhysicalOperator, op: str, all_: bool, types, names) -> None:
        super().__init__(context, [left, right], types, names)
        self.op = op
        self.all = all_

    def execute(self) -> Iterator[DataChunk]:
        context = self.context
        if self.op == "union" and self.all:
            for child in self.children:
                for chunk in child.run():
                    context.check_interrupted()
                    yield chunk
            return

        with ChunkBuffer(self.types, context, "setop left") as left_buffer:
            for chunk in self.children[0].run():
                context.check_interrupted()
                left_buffer.append(chunk)
            left = left_buffer.materialize()
        with ChunkBuffer(self.types, context, "setop right") as right_buffer:
            for chunk in self.children[1].run():
                context.check_interrupted()
                right_buffer.append(chunk)
            right = right_buffer.materialize()

        if self.op == "union":
            combined = DataChunk.concat_many([left, right]) \
                if left.size or right.size else left
            if combined.size == 0:
                return
            _, _, representatives = factorize_for_groups(combined.columns)
            result = combined.slice(np.sort(representatives))
            for piece in result.split(VECTOR_SIZE):
                yield piece
            return

        # EXCEPT / INTERSECT: each group keeps a quota of its left rows, the
        # first ones in left input order.  EXCEPT ALL keeps l - r of a
        # group's l left and r right rows, INTERSECT ALL min(l, r); the set
        # variants keep at most one.
        if left.size == 0:
            return
        combined = DataChunk.concat_many([left, right]) if right.size else left
        group_ids, group_total, _ = factorize_for_groups(combined.columns)
        left_ids = group_ids[:left.size]
        right_ids = group_ids[left.size:]
        left_counts = np.bincount(left_ids, minlength=group_total)
        right_counts = np.bincount(right_ids, minlength=group_total)
        if self.op == "intersect":
            quota = np.minimum(left_counts, right_counts)
        elif self.op == "except":
            quota = left_counts - right_counts if self.all \
                else (right_counts == 0).astype(np.int64)
        else:
            raise InternalError(f"Unknown set operation {self.op}")
        if not self.all:
            quota = np.minimum(quota, 1)
        # Occurrence rank of each left row within its group: its position
        # in a stable sort by group minus the group's first position.
        order = np.argsort(left_ids, kind="stable")
        group_starts = np.cumsum(left_counts) - left_counts
        rank = np.empty(left.size, dtype=np.int64)
        rank[order] = np.arange(left.size) - group_starts[left_ids[order]]
        kept_rows = np.flatnonzero(rank < quota[left_ids])
        if kept_rows.size == 0:
            return
        result = left.slice(kept_rows)
        for piece in result.split(VECTOR_SIZE):
            yield piece

    def _explain_line(self) -> str:
        suffix = " ALL" if self.all else ""
        return f"{self.op.upper()}{suffix}"
