"""Bound statements: the binder's output, consumed by the executor."""

from __future__ import annotations

from typing import Any, List, Optional

from ..catalog.entry import ColumnDefinition, TableEntry
from ..types import LogicalType
from .logical import LogicalOperator

__all__ = [
    "BoundStatement", "BoundSelect", "BoundInsert", "BoundUpdate",
    "BoundDelete", "BoundCreateTable", "BoundCreateView", "BoundDrop",
    "BoundTransaction", "BoundCheckpoint", "BoundPragma", "BoundCopyFrom",
    "BoundCopyTo", "BoundExplain",
]


class BoundStatement:
    """Base class for everything the executor can run."""


class BoundSelect(BoundStatement):
    def __init__(self, plan: LogicalOperator) -> None:
        self.plan = plan

    @property
    def names(self) -> List[str]:
        return self.plan.names

    @property
    def types(self) -> List[LogicalType]:
        return self.plan.types


class BoundInsert(BoundStatement):
    """INSERT: a source plan whose columns align 1:1 with the target table.

    The binder already reordered/padded source columns (filling omitted
    columns with their defaults) and inserted casts, so the executor just
    appends chunks.
    """

    def __init__(self, table: TableEntry, source: LogicalOperator) -> None:
        self.table = table
        self.source = source


class BoundUpdate(BoundStatement):
    """UPDATE: a source plan yielding ``[row id, one value per SET column]``.

    The source scans the table with its row ids, filters by WHERE and
    projects each SET expression, cast to its column's type;
    ``column_indices`` names the column each value is written to.
    """

    def __init__(self, table: TableEntry, column_indices: List[int],
                 source: LogicalOperator) -> None:
        self.table = table
        self.column_indices = column_indices
        self.source = source


class BoundDelete(BoundStatement):
    """DELETE: a source plan yielding the row ids WHERE keeps."""

    def __init__(self, table: TableEntry, source: LogicalOperator) -> None:
        self.table = table
        self.source = source


class BoundCreateTable(BoundStatement):
    def __init__(self, name: str, columns: List[ColumnDefinition],
                 if_not_exists: bool, source: Optional[LogicalOperator]) -> None:
        self.name = name
        self.columns = columns
        self.if_not_exists = if_not_exists
        self.source = source


class BoundCreateView(BoundStatement):
    def __init__(self, name: str, sql: str, query: Any, or_replace: bool) -> None:
        self.name = name
        self.sql = sql
        self.query = query
        self.or_replace = or_replace


class BoundDrop(BoundStatement):
    def __init__(self, kind: str, name: str, if_exists: bool) -> None:
        self.kind = kind
        self.name = name
        self.if_exists = if_exists


class BoundTransaction(BoundStatement):
    def __init__(self, action: str) -> None:
        self.action = action


class BoundCheckpoint(BoundStatement):
    pass


class BoundPragma(BoundStatement):
    def __init__(self, name: str, value: Any) -> None:
        self.name = name
        self.value = value


class BoundCopyFrom(BoundStatement):
    """COPY table FROM 'file': bulk-load a CSV into a table."""

    def __init__(self, table: TableEntry, path: str, options: dict) -> None:
        self.table = table
        self.path = path
        self.options = options


class BoundCopyTo(BoundStatement):
    """COPY ... TO 'file': export a query result as CSV."""

    def __init__(self, source: LogicalOperator, path: str, options: dict) -> None:
        self.source = source
        self.path = path
        self.options = options


class BoundExplain(BoundStatement):
    def __init__(self, inner: BoundStatement, analyze: bool = False) -> None:
        self.inner = inner
        self.analyze = analyze
