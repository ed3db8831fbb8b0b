"""Key factorization: turning (multi-column, mixed-type) keys into dense ids.

The vectorized engine never hashes values one by one.  Instead, key columns
are *factorized* with NumPy (``np.unique``) into dense integer codes, and
multi-column keys are combined with mixed-radix arithmetic.  Equal keys get
equal codes, so grouping becomes ``np.bincount`` over code arrays and
joining becomes a binary search of code arrays -- both single NumPy kernels
over entire vectors, which is the whole point of the paper's vectorized
design.

NULL keys get the special code -1: they never join (SQL equality semantics)
but form their own group in GROUP BY (handled by the caller).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InternalError
from ..types import LogicalTypeId, StringDictionary, Vector

__all__ = ["factorize_for_groups", "BuildIndex", "expand_ranges"]

_OBJECT_FILLER = ""


def _column_arrays(vector: Vector) -> np.ndarray:
    """The column data with NULL positions normalized to a filler value."""
    if vector.dtype.id is LogicalTypeId.VARCHAR:
        if vector.all_valid():
            return vector.data
        out = vector.data.copy()
        out[~vector.validity] = _OBJECT_FILLER
        return out
    if not vector.all_valid():
        cleaned = vector.data.copy()
        cleaned[~vector.validity] = 0
        return cleaned
    return vector.data


def _combine_codes(combined: Optional[np.ndarray], cardinality: int,
                   codes: np.ndarray, new_cardinality: int) -> Tuple[np.ndarray, int]:
    """Mixed-radix combination of per-column codes, overflow-safe."""
    if combined is None:
        return codes.astype(np.int64), new_cardinality
    if cardinality * new_cardinality > (1 << 62):
        # Compress the running codes back to a dense range first.
        _, combined = np.unique(combined, return_inverse=True)
        cardinality = int(combined.max()) + 1 if combined.size else 1
        if cardinality * new_cardinality > (1 << 62):
            raise InternalError("Group key cardinality exceeds 2^62")
    return combined * new_cardinality + codes, cardinality * new_cardinality


#: Largest bounded code space the no-sort (bincount) paths will allocate.
_DENSE_CODE_LIMIT = 1 << 22


def _column_codes(column: Vector) -> Tuple[np.ndarray, int]:
    """Bounded integer codes for one key column (equal values, equal codes).

    Integer-family columns with a narrow value range are coded by value
    offset -- a single subtraction, no sort.  A string column's dictionary
    codes *are* such integers (a flat one is coded first, with the same
    dictionary pass storage uses); everything else goes through
    ``np.unique``.  NULLs always get their own dedicated code.
    """
    if column.dtype.id is LogicalTypeId.VARCHAR:
        data = column.codes
        if data is None:
            data = StringDictionary().encode(column.data)
    else:
        data = column.data
    all_valid = column.all_valid()
    if not all_valid:
        data = np.where(column.validity, data, 0)
    if data.dtype.kind in "iub" and len(data):
        low = int(data.min())
        high = int(data.max())
        span = high - low + 1
        if span <= max(4 * len(data), 1 << 16) and span <= _DENSE_CODE_LIMIT:
            codes = data.astype(np.int64) - low
            if not all_valid:
                codes = np.where(column.validity, codes, span)
                return codes, span + 1
            return codes, span
    _, codes = np.unique(data, return_inverse=True)
    codes = codes.astype(np.int64).reshape(-1)
    cardinality = int(codes.max()) + 1 if codes.size else 1
    if not all_valid:
        codes = np.where(column.validity, codes, cardinality)
        return codes, cardinality + 1
    return codes, cardinality


def factorize_for_groups(columns: Sequence[Vector]) -> Tuple[np.ndarray, int, np.ndarray]:
    """Assign each row a dense group id over the given key columns.

    NULLs are grouping-distinct: a NULL key value forms its own group (SQL
    GROUP BY semantics).  Returns ``(group_ids, group_count,
    representative_rows)`` where ``representative_rows[g]`` is the first
    input row of group ``g`` (used to materialize the key values).

    Fully vectorized and, for narrow integer keys, sort-free: per-column
    bounded codes combine with mixed-radix arithmetic and the final dense
    renumbering is a ``bincount`` + prefix sum -- this is the engine's
    "hash table build" for aggregation.
    """
    if not columns:
        raise InternalError("factorize_for_groups needs at least one column")
    count = len(columns[0])
    if count == 0:
        return np.zeros(0, dtype=np.int64), 0, np.zeros(0, dtype=np.int64)
    combined: Optional[np.ndarray] = None
    cardinality = 1
    for column in columns:
        codes, column_cardinality = _column_codes(column)
        combined, cardinality = _combine_codes(combined, cardinality, codes,
                                               column_cardinality)
    if cardinality <= _DENSE_CODE_LIMIT:
        # Sort-free dense renumbering.
        counts = np.bincount(combined, minlength=cardinality)
        present = counts > 0
        group_count = int(np.count_nonzero(present))
        code_map = np.cumsum(present, dtype=np.int64) - 1
        group_ids = code_map[combined]
        # First-occurrence representative per group: reversed assignment
        # makes the earliest row the last (winning) write.
        representative = np.empty(group_count, dtype=np.int64)
        representative[group_ids[::-1]] = np.arange(count - 1, -1, -1,
                                                    dtype=np.int64)
        return group_ids, group_count, representative
    unique_codes, representative, group_ids = np.unique(
        combined, return_index=True, return_inverse=True)
    return group_ids.astype(np.int64).reshape(-1), len(unique_codes), \
        representative.astype(np.int64)


#: Largest dense lookup table the index will allocate (entries).  Beyond
#: this, probing falls back to binary search -- trading the hash join's
#: O(1) probes for less memory, which is the very trade-off of §6.
_DENSE_TABLE_LIMIT = 1 << 23


class BuildIndex:
    """A join build index: factorized build keys with O(1) dense probing.

    The hash-table equivalent of the vectorized engine: build keys are
    factorized into dense codes, and per-code match ranges live in flat
    arrays indexed *directly* by code -- a probe is a couple of NumPy
    gathers, not a per-row hash loop.  Value-to-code translation also uses
    a direct-mapped array when the key range permits; otherwise it falls
    back to vectorized binary search.  Either way the index materializes
    the entire build side in memory: the high-RAM/low-CPU end of the
    paper's hash-vs-merge trade-off.
    """

    def __init__(self, build_columns: Sequence[Vector]) -> None:
        if not build_columns:
            raise InternalError("BuildIndex needs at least one key column")
        count = len(build_columns[0])
        self._uniques: List[np.ndarray] = []
        self._radices: List[int] = []
        #: Per column: ``_build_direct_map``'s (base, table), or None.
        self._direct_maps: List[Optional[Tuple[int, np.ndarray]]] = []
        build_valid = np.ones(count, dtype=np.bool_)
        combined: Optional[np.ndarray] = None
        cardinality = 1
        for column in build_columns:
            build_valid &= column.validity
            data = _column_arrays(column)
            uniques, codes = np.unique(data, return_inverse=True)
            codes = codes.astype(np.int64).reshape(-1)
            self._uniques.append(uniques)
            self._direct_maps.append(self._build_direct_map(uniques))
            radix = len(uniques) if len(uniques) else 1
            self._radices.append(radix)
            if combined is None:
                combined = codes
                cardinality = radix
            else:
                if cardinality * radix > (1 << 62):
                    raise InternalError("Join key cardinality exceeds 2^62")
                combined = combined * radix + codes
                cardinality *= radix
        assert combined is not None
        # Rows with NULL keys never match: give them an impossible code.
        codes64 = combined.astype(np.int64)
        codes64[~build_valid] = -1
        order = np.argsort(codes64, kind="stable")
        self.sorted_codes = codes64[order]
        self.sorted_rows = order.astype(np.int64)
        # Skip the leading -1 (NULL) section.
        first_valid = int(np.searchsorted(self.sorted_codes, 0, side="left"))
        self.sorted_codes = self.sorted_codes[first_valid:]
        self.sorted_rows = self.sorted_rows[first_valid:]
        #: No code has two build rows (a key build side): each probe row
        #: matches at most once, so a dense code space needs no expansion.
        self.unique = not np.any(self.sorted_codes[1:]
                                 == self.sorted_codes[:-1])
        self._code_counts = self._code_starts = self._code_rows = None
        if 0 < cardinality <= max(_DENSE_TABLE_LIMIT, 2 * count):
            if self.unique:
                # code -> build row or -1; a probe's -1 reads the last slot.
                self._code_rows = np.full(cardinality + 1, -1, dtype=np.int64)
                self._code_rows[self.sorted_codes] = self.sorted_rows
            else:
                # Dense per-code match ranges: start offset and count.
                self._code_counts = np.bincount(
                    self.sorted_codes, minlength=cardinality).astype(np.int64)
                self._code_starts = np.concatenate(
                    [[0], np.cumsum(self._code_counts)[:-1]])

    @staticmethod
    def _build_direct_map(uniques: np.ndarray) -> Optional[Tuple[int, np.ndarray]]:
        """``(base, table)`` with ``table[value - base]`` the value's code,
        for a narrow key range; -1 pads each end for clipped probe values."""
        if uniques.size == 0 or uniques.dtype.kind not in "iu":
            return None
        low = int(uniques[0])
        high = int(uniques[-1])
        span = high - low + 1
        if span > max(4 * uniques.size, 1 << 16) or span > _DENSE_TABLE_LIMIT:
            return None
        table = np.full(span + 2, -1, dtype=np.int64)
        table[uniques.astype(np.int64) - low + 1] = np.arange(uniques.size,
                                                              dtype=np.int64)
        return low - 1, table

    def probe_codes(self, probe_columns: Sequence[Vector]) -> np.ndarray:
        """Translate probe keys into build code space (-1 = cannot match)."""
        count = len(probe_columns[0])
        valid = combined = None
        for position, column in enumerate(probe_columns):
            data = _column_arrays(column)
            uniques = self._uniques[position]
            if len(uniques) == 0:
                return np.full(count, -1, dtype=np.int64)
            direct = self._direct_maps[position]
            if direct is not None:
                base, table = direct
                idx = table[np.clip(data.astype(np.int64, copy=False) - base,
                                    0, len(table) - 1)]
                found = idx >= 0
            else:
                idx = np.minimum(np.searchsorted(uniques, data),
                                 len(uniques) - 1).astype(np.int64)
                found = np.asarray(uniques[idx] == data, dtype=np.bool_)
            found &= column.validity
            # Rows found nowhere get -1 below, whatever their idx.
            valid = found if valid is None else valid & found
            combined = idx if combined is None \
                else combined * self._radices[position] + idx
        combined[~valid] = -1
        return combined

    def match(self, probe_columns: Sequence[Vector]):
        """Expand all (probe_row, build_row) match pairs for a probe chunk.

        Returns ``(probe_positions, build_rows)`` -- two aligned int64
        arrays; a probe row appears once per matching build row, in order
        (a gather, not an expansion, on a unique build side whose code
        space fits the dense table).
        """
        codes = self.probe_codes(probe_columns)
        if self._code_rows is not None:
            rows = self._code_rows[codes]
            probe_positions = np.flatnonzero(rows >= 0)
            return probe_positions, rows[probe_positions]
        if self._code_counts is not None:
            safe = np.maximum(codes, 0)
            counts = self._code_counts[safe]
            lo = self._code_starts[safe]
            counts = np.where(codes < 0, 0, counts)
        else:
            lo = np.searchsorted(self.sorted_codes, codes, side="left")
            hi = np.searchsorted(self.sorted_codes, codes, side="right")
            counts = hi - lo
            counts[codes < 0] = 0
        probe_positions, build_positions = expand_ranges(lo, counts)
        return probe_positions, self.sorted_rows[build_positions]


def expand_ranges(starts: np.ndarray, counts: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Pair each row ``i`` with ``starts[i]``, ``starts[i] + 1``, ... -- its
    ``counts[i]`` matches in a sorted run -- as two aligned int64 arrays."""
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return rows, shift + np.arange(len(rows), dtype=np.int64)
