"""Source operators: table scan, CSV scan, VALUES, empty."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..optimizer.rules import _remap_expression
from ..errors import ConversionError
from ..planner.expressions import (
    BoundCast,
    BoundColumnRef,
    BoundConstant,
    BoundExpression,
    BoundOperator,
    BoundParameterRef,
)
from ..storage.table_data import ROW_ID_COLUMN, SCAN_CHUNK_ROWS
from ..types import VECTOR_SIZE, DataChunk, Vector, cast_scalar, cast_vector
from ..types.logical import common_type
from .expression_executor import ExpressionExecutor
from .physical import ExecutionContext, PhysicalOperator

__all__ = ["PhysicalTableScan", "PhysicalCSVScan",
           "PhysicalIntrospectionScan", "PhysicalValues",
           "PhysicalEmptyResult"]


_NO_VALUE = object()


def _operand_value(expression: BoundExpression, parameters) -> object:
    """The value a comparison operand holds in this execution, or
    ``_NO_VALUE`` when it is not a constant.

    A constant holds its own value.  A parameter slot, possibly under one
    cast, holds this execution's value cast the way the expression executor
    casts it, so a ``?`` filter prunes zones exactly like its literal form.
    An ``executemany`` parameter column (a Vector) has no single value.
    """
    if isinstance(expression, BoundConstant):
        return expression.value
    target = None
    if isinstance(expression, BoundCast):
        target, expression = expression.return_type, expression.child
    if not isinstance(expression, BoundParameterRef):
        return _NO_VALUE
    try:
        value = parameters[expression.key]
    except (KeyError, IndexError, TypeError):
        return _NO_VALUE
    if isinstance(value, Vector):
        return _NO_VALUE
    try:
        value = cast_scalar(value, expression.return_type)
        return value if target is None else cast_scalar(value, target)
    except ConversionError:  # the filter itself reports it, if it runs
        return _NO_VALUE


def _zone_column(expression: BoundExpression):
    """``(column, None)`` for a column; ``(column, cast)`` for a widening
    numeric cast of one (as the binder makes of ``int_col > 1.5``), which is
    monotone: ``cast`` maps zone bounds the way the vector cast maps values."""
    if isinstance(expression, BoundColumnRef):
        return expression, None
    if isinstance(expression, BoundCast) \
            and isinstance(expression.child, BoundColumnRef):
        source, target = expression.child.return_type, expression.return_type
        if source.is_numeric() and target.is_numeric() \
                and common_type(source, target) == target:
            return expression.child, target.numpy_dtype.type
    return None, None


def _extract_zone_conditions(filters: List[BoundExpression],
                             column_ids: List[int], parameters=()):
    """Distill pushed filters into (physical column id, op, constant) triples
    usable against column zonemaps -- plus the cast, for a column under a
    widening cast.  Only column-vs-constant comparisons qualify -- a
    parameter counts as the constant ``parameters`` gives it; everything
    else is ignored (still evaluated on the fetched chunk as usual)."""
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    conditions: List[Tuple] = []
    for predicate in filters:
        if not isinstance(predicate, BoundOperator) or len(predicate.args) != 2:
            continue
        op = predicate.op
        if op not in ("<", "<=", ">", ">=", "="):
            continue
        left, right = predicate.args
        column, cast = _zone_column(left)
        if column is None:
            column, cast = _zone_column(right)
            left, right, op = right, left, flipped[op]
        if column is None:
            continue
        value = _operand_value(right, parameters)
        if value is _NO_VALUE or value is None or isinstance(value, str):
            continue
        if column_ids[column.position] == ROW_ID_COLUMN:
            continue
        if not (column.return_type.is_numeric()
                or column.return_type.is_temporal()):
            continue
        # Temporal constants compare against the stored integer encoding.
        import datetime

        if isinstance(value, datetime.datetime):
            from ..types.logical import timestamp_to_micros

            value = timestamp_to_micros(value)
        elif isinstance(value, datetime.date):
            from ..types.logical import date_to_days

            value = date_to_days(value)
        elif isinstance(value, bool):
            continue
        condition = (column_ids[column.position], op, value)
        conditions.append(condition if cast is None else condition + (cast,))
    return conditions


class PhysicalTableScan(PhysicalOperator):
    """MVCC scan of a base table, with pushed-down filters and projection.

    Pushed filters serve double duty: simple column-vs-constant comparisons
    (a ``?`` parameter counts as its value in this execution) are first
    checked against per-zone min/max bounds so whole
    :data:`~repro.storage.table_data.SCAN_CHUNK_ROWS` chunks are skipped
    *without fetching them* -- the paper's §6 "skip irrelevant blocks of
    rows during a scan" -- and every filter is then evaluated on the
    batches that do get fetched, before any parent operator sees them.

    A chunk is the zone and billing unit (``zones_skipped``,
    ``rows_scanned``); a *batch* -- a run of surviving chunks inside one
    morsel (``batch_rows``, fixed at lowering) -- is the fetch and filter
    unit.  Under a LIMIT (``limit_hint``) a batch is one chunk, so the
    scan stops as early as it can.

    Filters run left to right over a *selection* (the surviving row
    indices): each one sees only the columns it reads, cut down to the rows
    every earlier filter kept, and the output columns are materialized once,
    after the last filter -- not once per filter.

    ``column_ids`` may be longer than ``types``: the columns past the output
    ones are read only by the filters and are not emitted.

    A scan runs in place, batch by batch, at every ``threads`` value, and
    keeps no batch it handed on: an UPDATE writes the rows it read without
    copying their columns.  Only an aggregate folds morsels on workers,
    each through a copy of its scan pipeline restricted to one row range
    (``row_range``), which reads the batches the whole scan reads there.
    """

    def __init__(self, context: ExecutionContext, table_entry, column_ids: List[int],
                 types, names, filters: Optional[List[BoundExpression]] = None,
                 limit_hint: Optional[int] = None) -> None:
        super().__init__(context, [], types, names)
        self.table_entry = table_entry
        self.column_ids = column_ids
        self.filter_column_ids = column_ids[len(types):]
        self.filters = filters or []
        #: [start, end) physical row restriction, set on an aggregate's
        #: morsel fragments.  ``None`` scans the whole table.
        self.row_range: Optional[Tuple[int, int]] = None
        #: Stop fetching once this many rows passed the filters (LIMIT
        #: pushdown).  Exactness is still enforced by the LIMIT operator
        #: above; this only lets the scan quit early.
        self.limit_hint = limit_hint
        #: Rows per batch window: one morsel, or one chunk under a LIMIT.
        self.batch_rows = context.morsel_rows if limit_hint is None \
            else SCAN_CHUNK_ROWS
        self._zone_conditions = _extract_zone_conditions(
            self.filters, column_ids, context.parameters)

    def _range_predicate(self, start: int, end: int) -> bool:
        """False when zone bounds prove no row in [start, end) can match."""
        data = self.table_entry.data
        for column_id, op, constant, *cast in self._zone_conditions:
            bounds = data.columns[column_id].zone_bounds(start, end)
            if bounds is None:
                continue
            low, high = bounds
            if cast:
                low, high = cast[0](low), cast[0](high)
            if op == "=" and not (low <= constant <= high):
                self.context.bump_stat("zones_skipped", 1)
                return False
            if op in ("<", "<=") and not (low < constant
                                          or (op == "<=" and low <= constant)):
                self.context.bump_stat("zones_skipped", 1)
                return False
            if op in (">", ">=") and not (high > constant
                                          or (op == ">=" and high >= constant)):
                self.context.bump_stat("zones_skipped", 1)
                return False
        return True

    def _surviving(self, executor: ExpressionExecutor, chunk: DataChunk,
                   narrowed_filters: dict) -> Optional[np.ndarray]:
        """Row indices of the batch ``chunk`` that pass every pushed
        filter, in filter order; None when all rows do.  Until a filter
        rejects something the predicates run on the chunk as it is; from
        then on each one sees only its own columns, cut down to the
        survivors so far.

        ``narrowed_filters`` maps a filter index to the chunk positions it
        reads and the predicate rewritten to read them from a chunk of just
        those columns; it is filled on first use, because most scans never
        narrow, and belongs to one execution of the scan."""
        selection: Optional[np.ndarray] = None
        for index, predicate in enumerate(self.filters):
            if selection is None:
                mask = executor.execute_filter(predicate, chunk)
            else:
                narrowed = narrowed_filters.get(index)
                if narrowed is None:
                    # A column-free predicate still needs one column, for
                    # the row count.
                    positions = sorted(predicate.referenced_columns()) or [0]
                    narrowed = narrowed_filters[index] = (
                        positions, _remap_expression(predicate, {
                            position: slot
                            for slot, position in enumerate(positions)}))
                positions, predicate = narrowed
                mask = executor.execute_filter(predicate, DataChunk([
                    chunk.columns[position].slice(selection)
                    for position in positions]))
            if not mask.all():
                passed = np.flatnonzero(mask)
                selection = passed if selection is None else selection[passed]
                if not len(selection):
                    break
        return selection

    def execute(self) -> Iterator[DataChunk]:
        executor = ExpressionExecutor(self.context)
        range_predicate = self._range_predicate if self._zone_conditions \
            else None
        start_row, end_row = self.row_range if self.row_range is not None \
            else (0, None)
        produced = 0
        narrowed_filters: Dict[int, Tuple[List[int], BoundExpression]] = {}
        for chunk in self.table_entry.data.scan(self.context.transaction,
                                                self.column_ids,
                                                range_predicate=range_predicate,
                                                start_row=start_row,
                                                end_row=end_row,
                                                batch_rows=self.batch_rows):
            self.context.check_interrupted()
            self.context.bump_stat("rows_scanned", chunk.size)
            selection = self._surviving(executor, chunk, narrowed_filters)
            if self.filter_column_ids:
                chunk = DataChunk(chunk.columns[:len(self.types)])
            if selection is not None:
                chunk = chunk.slice(selection)
            if chunk.size:
                produced += chunk.size
                # Not held while suspended: a DML statement writes the rows
                # this chunk may view (ColumnData._unshare would copy).
                handoff = [chunk]
                del chunk
                yield handoff.pop()
                if self.limit_hint is not None \
                        and produced >= self.limit_hint:
                    self.context.bump_stat("scan_limit_stops", 1)
                    return

    def _explain_line(self) -> str:
        filters = f" filters={len(self.filters)}" if self.filters else ""
        zones = f" zonemap={len(self._zone_conditions)}" \
            if self._zone_conditions else ""
        hint = f" limit_hint={self.limit_hint}" \
            if self.limit_hint is not None else ""
        extra = [self.table_entry.columns[column_id].name
                 for column_id in self.filter_column_ids]
        filter_cols = f" filter_cols=[{', '.join(extra)}]" if extra else ""
        return (f"TABLE_SCAN {self.table_entry.name}"
                f"[{', '.join(self.names)}]{filters}{filter_cols}{zones}{hint}")


class PhysicalCSVScan(PhysicalOperator):
    """Streaming scan of a CSV file (paper §2: ETL directly from files)."""

    def __init__(self, context: ExecutionContext, path: str, options: dict,
                 types, names) -> None:
        super().__init__(context, [], types, names)
        self.path = path
        self.options = options

    def execute(self) -> Iterator[DataChunk]:
        from ..etl.csv_reader import read_csv_chunks

        for chunk in read_csv_chunks(self.path, self.types, **self.options):
            self.context.check_interrupted()
            self.context.bump_stat("rows_scanned", chunk.size)
            yield chunk

    def _explain_line(self) -> str:
        return f"CSV_SCAN {self.path!r}"


class PhysicalIntrospectionScan(PhysicalOperator):
    """Generator-backed scan over a system table function's snapshot.

    The provider materializes its snapshot once, at first pull (copy-then-
    release under the engine lock hierarchy -- see
    :mod:`repro.introspection.providers`); this operator then slices the
    row list into standard 2048-value vectors, so filters, joins, and
    aggregates over system tables go through the ordinary Vector Volcano
    machinery.
    """

    def __init__(self, context: ExecutionContext, function,
                 types, names) -> None:
        super().__init__(context, [], types, names)
        self.function = function

    def execute(self) -> Iterator[DataChunk]:
        rows = self.function.rows(self.context.database,
                                  self.context.transaction)
        for start in range(0, len(rows), VECTOR_SIZE):
            self.context.check_interrupted()
            batch = rows[start:start + VECTOR_SIZE]
            columns = [
                Vector.from_values([row[index] for row in batch], dtype)
                for index, dtype in enumerate(self.types)
            ]
            chunk = DataChunk(columns)
            self.context.bump_stat("rows_scanned", chunk.size)
            yield chunk

    def _explain_line(self) -> str:
        return f"INTROSPECT {self.function.name}()"


class PhysicalValues(PhysicalOperator):
    """Materializes literal rows (VALUES / SELECT without FROM)."""

    def __init__(self, context: ExecutionContext, rows, types, names) -> None:
        super().__init__(context, [], types, names)
        self.rows = rows

    def execute(self) -> Iterator[DataChunk]:
        if not self.rows:
            return
        executor = ExpressionExecutor(self.context)
        # One pass per expression.  Over executemany's parameter columns a
        # VALUES row stands for ``parameter_rows`` rows.
        dummy = DataChunk([Vector.constant(
            True, self.context.parameter_rows or 1)])
        chunks = [DataChunk([
            cast_vector(executor.execute(expression, dummy), dtype)
            for expression, dtype in zip(row, self.types)])
            for row in self.rows]
        yield chunks[0] if len(chunks) == 1 else DataChunk.concat_many(chunks)

    def _explain_line(self) -> str:
        return f"VALUES ({len(self.rows)} rows)"


class PhysicalEmptyResult(PhysicalOperator):
    def execute(self) -> Iterator[DataChunk]:
        # A generator, like every operator's: the tracer closes it.
        yield from ()

    def _explain_line(self) -> str:
        return "EMPTY"
