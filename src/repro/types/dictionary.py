"""String dictionaries: the physical form of VARCHAR.

A VARCHAR column is a duplicate-eliminated string heap (MonetDB's design)
plus one ``int32`` *code* per row.  Code 0 is reserved for NULL, so a
zero-filled code array is an all-NULL column and ``entries[codes]`` puts
``None`` exactly where the flat object-array representation does.

A dictionary is **append-only**: an entry, once assigned, never moves or
changes, which is what makes a code array meaningful without a lock -- a
reader holding codes it obtained earlier can resolve them against any later
state of the dictionary, and an undo pre-image of codes stays valid for as
long as the dictionary object lives.  Shrinking means building a *new*
dictionary (:meth:`~repro.storage.table_data.TableData.compact`); vectors
that still reference the old one keep it alive.

Adding entries is the only mutation and is serialized by ``lock`` -- the
owning table's lock for a column dictionary, nothing for a private one.
"""

from __future__ import annotations

import contextlib
from typing import Any, ContextManager, Iterable, Tuple

import numpy as np

__all__ = ["StringDictionary", "CODE_DTYPE", "NULL_CODE"]

#: Physical type of dictionary codes.
CODE_DTYPE = np.dtype(np.int32)
#: The code every dictionary reserves for NULL.
NULL_CODE = 0

_UNSHARED: ContextManager[Any] = contextlib.nullcontext()
_INITIAL_CAPACITY = 16


def _as_text(value: Any) -> str:
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).decode("utf-8")
    return str(value)


class _Lookup(dict):
    """string -> code; a miss appends the string to the owning dictionary.

    ``dict.__getitem__`` only calls ``__missing__`` for absent keys, so
    ``map(lookup.__getitem__, values)`` resolves known strings entirely in
    C: the one per-value pass left in the engine runs no bytecode per hit.
    """

    __slots__ = ("add",)

    def __missing__(self, key: Any) -> int:
        return self.add(key)


class StringDictionary:
    """Append-only ``code -> string`` heap with a ``string -> code`` index."""

    __slots__ = ("lock", "_entries", "_size", "_lookup")

    def __init__(self, entries: Iterable[str] = (),
                 lock: ContextManager[Any] = _UNSHARED) -> None:
        """``entries`` must be distinct strings; they get codes 1, 2, ..."""
        self.lock = lock
        entries = list(entries)
        self._entries = np.empty(max(len(entries) + 1, _INITIAL_CAPACITY),
                                 dtype=object)
        self._entries[1:len(entries) + 1] = entries
        self._size = len(entries) + 1
        self._lookup = _Lookup(zip(entries, range(1, self._size)))
        self._lookup[None] = NULL_CODE
        self._lookup.add = self._add_locked

    @property
    def size(self) -> int:
        """Number of codes in use, the NULL code included."""
        return self._size

    def entries(self, start: int = 0) -> np.ndarray:
        """Entries ``start..size`` (a view; entry 0 is ``None``)."""
        return self._entries[start:self._size]

    def take(self, codes: np.ndarray) -> np.ndarray:
        """The flat object array ``codes`` stand for (one gather)."""
        return self._entries[codes]

    def _add_locked(self, value: Any) -> int:
        if type(value) is not str:
            # Client arrays may carry bytes / numpy scalars; store text.
            return self._lookup[_as_text(value)]
        code = self._size
        if code == len(self._entries):
            grown = np.empty(2 * code, dtype=object)
            grown[:code] = self._entries
            # Published only once filled: a concurrent take() sees either
            # array, and both hold every code handed out so far.
            self._entries = grown
        self._entries[code] = value
        self._size = code + 1
        self._lookup[value] = code
        return code

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Codes for a flat object array (``None`` -> 0), adding new strings.

        This is the engine's only per-value string pass; storage, the
        segment/WAL codec and key factorization all share it.
        """
        with self.lock:
            return np.fromiter(map(self._lookup.__getitem__, values.tolist()),
                               dtype=CODE_DTYPE, count=len(values))

    def recode(self, codes: np.ndarray, source: "StringDictionary") -> np.ndarray:
        """Translate ``codes`` of ``source`` into this dictionary's codes.

        Work is per *distinct* code, not per row.
        """
        used, inverse = np.unique(codes, return_inverse=True)
        return self.encode(source.take(used))[inverse.reshape(-1)]

    def nbytes(self) -> int:
        """Approximate memory held: string payloads plus one pointer each."""
        return sum(map(len, self.entries(1).tolist())) + 8 * len(self._entries)

    def referenced(self, codes: np.ndarray, lock: ContextManager[Any] = _UNSHARED
                   ) -> Tuple["StringDictionary", np.ndarray]:
        """A fresh dictionary of only the entries ``codes`` use, and the
        same rows expressed in it (entries keep their relative order)."""
        used, inverse = np.unique(codes, return_inverse=True)
        inverse = inverse.reshape(-1).astype(CODE_DTYPE)
        if len(used) and used[0] == NULL_CODE:
            used = used[1:]
        else:
            inverse += 1
        return StringDictionary(self._entries[used].tolist(), lock), inverse
