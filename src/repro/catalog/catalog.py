"""The catalog: name -> entry mapping with MVCC-versioned entries.

The single-file format stores "pointers to lists of schemas, tables and
views" (paper §6); this in-memory catalog is that structure's runtime form.
Entries are never removed eagerly -- dropping tags them with the dropper's
version so concurrent snapshots keep resolving names consistently.  A
checkpoint writes only entries visible to everyone and prunes the rest.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..errors import CatalogError
from ..sanitizer import SanRLock, tracked_access
from ..transaction.transaction import Transaction
from ..transaction.version import ABORTED_MARKER
from .entry import CatalogEntry, TableEntry, ViewEntry

__all__ = ["Catalog"]


class Catalog:
    """Thread-safe catalog of tables and views."""

    def __init__(self) -> None:
        self._lock = SanRLock("catalog")
        #: Per name, newest-first list of entry versions.
        self._entries: Dict[str, List[CatalogEntry]] = {}

    # -- lookup ------------------------------------------------------------
    def get_entry(self, name: str, transaction: Transaction) -> Optional[CatalogEntry]:
        """The entry visible to ``transaction`` under ``name``, or None."""
        with self._lock, tracked_access(("catalog", id(self)), False,
                                        self._lock):
            versions = self._entries.get(name.lower(), [])
            for entry in versions:
                if entry.visible_to(transaction.transaction_id, transaction.start_time):
                    return entry
        return None

    def names_view(self, name: str) -> bool:
        """Whether any version of ``name``, visible to some transaction or
        to none, is a view (a snapshot-free, conservative check)."""
        with self._lock, tracked_access(("catalog", id(self)), False,
                                        self._lock):
            return any(isinstance(entry, ViewEntry)
                       for entry in self._entries.get(name.lower(), ()))

    def get_table(self, name: str, transaction: Transaction) -> TableEntry:
        entry = self.get_entry(name, transaction)
        if entry is None:
            raise CatalogError(f"Table {name!r} does not exist")
        if not isinstance(entry, TableEntry):
            raise CatalogError(f"{name!r} is not a table (it is a {entry.entry_type})")
        return entry

    def tables(self, transaction: Transaction) -> Iterator[TableEntry]:
        """All tables visible to ``transaction``, sorted by name."""
        with self._lock:
            names = sorted(self._entries)
        for name in names:
            entry = self.get_entry(name, transaction)
            if isinstance(entry, TableEntry):
                yield entry

    def views(self, transaction: Transaction) -> Iterator[ViewEntry]:
        """All views visible to ``transaction``, sorted by name."""
        with self._lock:
            names = sorted(self._entries)
        for name in names:
            entry = self.get_entry(name, transaction)
            if isinstance(entry, ViewEntry):
                yield entry

    # -- modification --------------------------------------------------------
    def create_entry(self, entry: CatalogEntry, transaction: Transaction,
                     or_replace: bool = False, if_not_exists: bool = False) -> bool:
        """Register a new entry created by ``transaction``.

        Returns False when ``if_not_exists`` suppressed a duplicate-name
        error, True when the entry was actually created.
        """
        key = entry.name.lower()
        with self._lock, tracked_access(("catalog", id(self)), True,
                                        self._lock):
            existing = self.get_entry(entry.name, transaction)
            if existing is not None:
                if if_not_exists:
                    return False
                if not or_replace:
                    raise CatalogError(
                        f"{existing.entry_type.capitalize()} {entry.name!r} already exists"
                    )
                self._drop_locked(existing, transaction)
            entry.created_by = transaction.transaction_id
            self._entries.setdefault(key, []).insert(0, entry)
            transaction.record_catalog(entry, "create")
        return True

    def drop_entry(self, name: str, transaction: Transaction,
                   if_exists: bool = False, expected_type: Optional[str] = None) -> bool:
        """Tag the visible entry under ``name`` as dropped by ``transaction``."""
        with self._lock, tracked_access(("catalog", id(self)), True,
                                        self._lock):
            entry = self.get_entry(name, transaction)
            if entry is None:
                if if_exists:
                    return False
                raise CatalogError(f"{expected_type or 'Entry'} {name!r} does not exist")
            if expected_type is not None and entry.entry_type != expected_type:
                raise CatalogError(
                    f"{name!r} is a {entry.entry_type}, not a {expected_type}"
                )
            self._drop_locked(entry, transaction)
        return True

    def _drop_locked(self, entry: CatalogEntry, transaction: Transaction) -> None:
        if entry.dropped_by is not None:
            # Already dropped by a concurrent transaction: first writer wins.
            from ..errors import TransactionConflict

            raise TransactionConflict(
                f"Catalog entry {entry.name!r} was concurrently dropped"
            )
        entry.dropped_by = transaction.transaction_id
        transaction.record_catalog(entry, "drop")

    # -- maintenance ----------------------------------------------------------
    def prune(self, oldest_snapshot: int) -> None:
        """Physically delete entry versions invisible to every snapshot."""
        with self._lock, tracked_access(("catalog", id(self)), True,
                                        self._lock):
            for key in list(self._entries):
                survivors = []
                for entry in self._entries[key]:
                    if entry.created_by == ABORTED_MARKER:
                        continue
                    dropped = entry.dropped_by
                    if dropped is not None and dropped <= oldest_snapshot:
                        continue
                    survivors.append(entry)
                if survivors:
                    self._entries[key] = survivors
                else:
                    del self._entries[key]
