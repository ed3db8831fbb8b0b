"""Logical plan operators.

The binder produces a tree of these; the optimizer rewrites it; the physical
planner lowers it onto executable Vector Volcano operators.  Every operator
exposes ``schema``: an ordered list of :class:`ColumnSchema` describing its
output columns, against which parent expressions are positionally bound.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..types import LogicalType
from .expressions import BoundExpression

__all__ = [
    "ColumnSchema", "LogicalOperator", "LogicalGet", "LogicalCSVScan",
    "LogicalIntrospectionScan",
    "LogicalValues", "LogicalFilter", "LogicalProjection", "LogicalAggregate",
    "LogicalJoin", "LogicalOrder", "LogicalLimit", "LogicalDistinct",
    "LogicalSetOp", "BoundOrderByItem", "JoinCondition", "LogicalEmpty",
    "reads_system_table",
]


class ColumnSchema:
    """One output column of a logical operator."""

    __slots__ = ("name", "dtype")

    def __init__(self, name: str, dtype: LogicalType) -> None:
        self.name = name
        self.dtype = dtype

    def __repr__(self) -> str:
        return f"{self.name}:{self.dtype}"


class LogicalOperator:
    """Base: children plus an output schema."""

    #: Optimizer cardinality estimate (rows), stamped by ``cost.annotate``.
    estimated_rows: Optional[float] = None
    #: True when the estimate leaned on column statistics marked stale --
    #: rows changed since the summaries were last recomputed -- so EXPLAIN
    #: flags it as ``(est=N rows, stale)``.  Also stamped by ``annotate``.
    estimate_stale: bool = False

    def __init__(self, children: Sequence["LogicalOperator"],
                 schema: List[ColumnSchema]) -> None:
        self.children = list(children)
        self.schema = schema

    @property
    def types(self) -> List[LogicalType]:
        return [column.dtype for column in self.schema]

    @property
    def names(self) -> List[str]:
        return [column.name for column in self.schema]

    def explain(self, indent: int = 0) -> str:
        """Human-readable plan tree (the output of EXPLAIN)."""
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

    def __repr__(self) -> str:
        return self.explain()


class LogicalGet(LogicalOperator):
    """Scan of a base table (with projection & filter pushdown slots)."""

    def __init__(self, table_entry: Any, column_ids: List[int],
                 schema: List[ColumnSchema]) -> None:
        super().__init__([], schema)
        self.table_entry = table_entry
        #: Physical column indices to scan, aligned with ``schema ++
        #: filter_schema``: the first ``len(schema)`` are emitted.
        self.column_ids = column_ids
        #: Columns only the pushed filters read: scanned, never emitted
        #: (DuckDB's ``projection_ids``).
        self.filter_schema: List[ColumnSchema] = []
        #: Filters pushed into the scan (conjuncts over ``schema ++
        #: filter_schema``).
        self.pushed_filters: List[BoundExpression] = []
        #: Upper bound on rows the consumer needs (LIMIT pushdown); the
        #: scan may stop fetching once this many rows passed its filters.
        self.limit_hint: Optional[int] = None

    def _explain_line(self) -> str:
        filters = f" filters={len(self.pushed_filters)}" if self.pushed_filters else ""
        hint = f" limit_hint={self.limit_hint}" if self.limit_hint is not None else ""
        extra = [column.name for column in self.filter_schema]
        filter_cols = f" filter_cols=[{', '.join(extra)}]" if extra else ""
        return (f"GET {self.table_entry.name}"
                f"[{', '.join(column.name for column in self.schema)}]"
                f"{filters}{filter_cols}{hint}")


class LogicalCSVScan(LogicalOperator):
    """Direct scan of a CSV file (paper §2: scan existing files, reshape,
    append -- the ETL entry point)."""

    def __init__(self, path: str, options: dict, schema: List[ColumnSchema]) -> None:
        super().__init__([], schema)
        self.path = path
        self.options = options

    def _explain_line(self) -> str:
        return f"CSV_SCAN {self.path!r}"


class LogicalIntrospectionScan(LogicalOperator):
    """Scan of a system table function (``repro_metrics()``, ...): engine
    state surfaced as a relation, in-band (paper §4/§5 cooperation)."""

    def __init__(self, function: Any, schema: List[ColumnSchema]) -> None:
        super().__init__([], schema)
        #: The :class:`~repro.introspection.registry.SystemTableFunction`.
        self.function = function

    def _explain_line(self) -> str:
        return f"INTROSPECT {self.function.name}()"


def reads_system_table(plan: LogicalOperator) -> bool:
    """True when the plan scans a system table function.  Such a statement
    records no optimizer decisions or plan checks of its own, so reading
    ``repro_optimizer()`` or ``repro_plan_checks()`` reports the last
    statement that did the work, not the read."""
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, LogicalIntrospectionScan):
            return True
        stack.extend(node.children)
    return False


class LogicalValues(LogicalOperator):
    """Inline constant rows (VALUES lists, SELECT without FROM)."""

    def __init__(self, rows: List[List[BoundExpression]],
                 schema: List[ColumnSchema]) -> None:
        super().__init__([], schema)
        self.rows = rows

    def _explain_line(self) -> str:
        return f"VALUES ({len(self.rows)} rows)"


class LogicalEmpty(LogicalOperator):
    """Zero-row source with a schema (used for provably-empty results)."""

    def _explain_line(self) -> str:
        return "EMPTY"


class LogicalFilter(LogicalOperator):
    def __init__(self, child: LogicalOperator, predicate: BoundExpression) -> None:
        super().__init__([child], list(child.schema))
        self.predicate = predicate

    def _explain_line(self) -> str:
        return f"FILTER {self.predicate!r}"


class LogicalProjection(LogicalOperator):
    def __init__(self, child: LogicalOperator, expressions: List[BoundExpression],
                 names: List[str]) -> None:
        schema = [ColumnSchema(name, expression.return_type)
                  for name, expression in zip(names, expressions)]
        super().__init__([child], schema)
        self.expressions = expressions

    def _explain_line(self) -> str:
        return f"PROJECT [{', '.join(column.name for column in self.schema)}]"


class LogicalAggregate(LogicalOperator):
    """GROUP BY + aggregates; output schema = groups then aggregates."""

    def __init__(self, child: LogicalOperator, groups: List[BoundExpression],
                 aggregates: List[BoundExpression],
                 schema: List[ColumnSchema]) -> None:
        super().__init__([child], schema)
        self.groups = groups
        self.aggregates = aggregates

    def _explain_line(self) -> str:
        return f"AGGREGATE groups={len(self.groups)} aggs={len(self.aggregates)}"


class JoinCondition:
    """One equi-join condition: left-side expr == right-side expr.

    Each side is bound against its own child's schema.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: BoundExpression, right: BoundExpression) -> None:
        self.left = left
        self.right = right


class LogicalJoin(LogicalOperator):
    """Join of two children; output = left schema ++ right schema.

    ``conditions`` hold the extracted equi-conditions; ``residual`` is an
    arbitrary extra predicate over the combined schema (for non-equi parts),
    applied after matching.
    """

    def __init__(self, left: LogicalOperator, right: LogicalOperator,
                 join_type: str, conditions: List[JoinCondition],
                 residual: Optional[BoundExpression] = None) -> None:
        schema = list(left.schema) + list(right.schema)
        super().__init__([left, right], schema)
        self.join_type = join_type  # inner / left / right / full / cross / semi / anti
        self.conditions = conditions
        self.residual = residual

    def _explain_line(self) -> str:
        kind = self.join_type.upper()
        detail = f" eq={len(self.conditions)}"
        if self.residual is not None:
            detail += " +residual"
        return f"JOIN {kind}{detail}"


class BoundOrderByItem:
    __slots__ = ("expression", "ascending", "nulls_first")

    def __init__(self, expression: BoundExpression, ascending: bool,
                 nulls_first: Optional[bool]) -> None:
        self.expression = expression
        self.ascending = ascending
        # Resolve the SQL default: NULLS LAST when ascending, FIRST when not.
        self.nulls_first = nulls_first if nulls_first is not None else not ascending


class LogicalOrder(LogicalOperator):
    def __init__(self, child: LogicalOperator, items: List[BoundOrderByItem]) -> None:
        super().__init__([child], list(child.schema))
        self.items = items

    def _explain_line(self) -> str:
        return f"ORDER BY ({len(self.items)} keys)"


class LogicalLimit(LogicalOperator):
    def __init__(self, child: LogicalOperator, limit: Optional[int],
                 offset: int) -> None:
        super().__init__([child], list(child.schema))
        self.limit = limit
        self.offset = offset

    def _explain_line(self) -> str:
        return f"LIMIT {self.limit} OFFSET {self.offset}"


class LogicalDistinct(LogicalOperator):
    def __init__(self, child: LogicalOperator) -> None:
        super().__init__([child], list(child.schema))

    def _explain_line(self) -> str:
        return "DISTINCT"


class LogicalSetOp(LogicalOperator):
    def __init__(self, left: LogicalOperator, right: LogicalOperator, op: str,
                 all_: bool, schema: List[ColumnSchema]) -> None:
        super().__init__([left, right], schema)
        self.op = op
        self.all = all_

    def _explain_line(self) -> str:
        suffix = " ALL" if self.all else ""
        return f"{self.op.upper()}{suffix}"
