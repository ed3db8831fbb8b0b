"""Catalog entries: versioned definitions of tables and views.

DDL is transactional: every entry carries ``created_by`` / ``dropped_by``
version tags interpreted with the same MVCC visibility rule as row versions,
so a table created inside an uncommitted transaction is invisible to others
and vanishes on rollback.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..errors import CatalogError
from ..transaction.version import version_visible
from ..types import LogicalType

__all__ = ["ColumnDefinition", "CatalogEntry", "TableEntry", "ViewEntry"]


class ColumnDefinition:
    """One column of a table: name, logical type, and constraints."""

    __slots__ = ("name", "dtype", "nullable", "default")

    def __init__(self, name: str, dtype: LogicalType, nullable: bool = True,
                 default: Any = None) -> None:
        self.name = name
        self.dtype = dtype
        self.nullable = nullable
        self.default = default

    def __repr__(self) -> str:
        constraint = "" if self.nullable else " NOT NULL"
        return f"ColumnDefinition({self.name} {self.dtype}{constraint})"


class CatalogEntry:
    """Base class for catalog objects, with MVCC visibility tags."""

    entry_type = "entry"

    def __init__(self, name: str, created_by: int) -> None:
        self.name = name
        #: Version tag of the creating transaction/commit.
        self.created_by = created_by
        #: Version tag of the dropping transaction/commit, or None if live.
        self.dropped_by: Optional[int] = None

    def visible_to(self, transaction_id: int, start_time: int) -> bool:
        """Is this entry part of the given snapshot?"""
        if not version_visible(self.created_by, transaction_id, start_time):
            return False
        if self.dropped_by is None:
            return True
        return not version_visible(self.dropped_by, transaction_id, start_time)


class TableEntry(CatalogEntry):
    """A base table: column definitions plus its transactional storage."""

    entry_type = "table"

    def __init__(self, name: str, columns: List[ColumnDefinition], data: Any,
                 created_by: int) -> None:
        super().__init__(name, created_by)
        if not columns:
            raise CatalogError(f"Table {name!r} must have at least one column")
        seen = set()
        for column in columns:
            key = column.name.lower()
            if key in seen:
                raise CatalogError(f"Duplicate column name {column.name!r} in table {name!r}")
            seen.add(key)
        self.columns = columns
        #: The :class:`~repro.storage.table_data.TableData` backing this table.
        self.data = data

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    @property
    def column_types(self) -> List[LogicalType]:
        return [column.dtype for column in self.columns]

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return index
        raise CatalogError(f"Table {self.name!r} has no column named {name!r}")


class ViewEntry(CatalogEntry):
    """A view: a named, parsed SELECT statement."""

    entry_type = "view"

    def __init__(self, name: str, sql: str, query: Any, created_by: int) -> None:
        super().__init__(name, created_by)
        #: Original view text (re-serialized into checkpoints and the WAL).
        self.sql = sql
        #: Parsed AST of the defining SELECT (re-bound on every use).
        self.query = query
