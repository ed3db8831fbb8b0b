"""Per-column statistics: min/max, null count, and NDV sketches.

The paper's embedded-analytics pillar wants queries to run "as fast as the
hardware allows" with nobody tuning anything, which puts the burden of
collecting optimizer metadata on the engine itself.  The statistics here are
deliberately cheap to maintain:

* **min / max / null count** are updated incrementally on every append with
  one vectorized reduction over the incoming chunk.
* **NDV** (number of distinct values) starts as an exact set and degrades to
  a HyperLogLog sketch once the set would cost more memory than the estimate
  is worth -- the "HyperLogLog-or-exact" scheme.  Both paths consume whole
  NumPy arrays, never one value at a time on the hot path (one ``set`` or
  ``np.unique`` per batch for the exact set, and only of a prefix once the
  batch is known to overflow it; a vectorized splitmix64 for the sketch).
  The estimate depends only on the *set* of values added, never on how they
  were batched.
* **NDV is folded lazily.**  An append leaves its rows' distinct values
  uncounted: rows ``[watermark, row_count)`` of a column are *pending*.
  Nothing reads NDV until a query is planned, ``repro_column_stats()`` is
  read or a checkpoint is written, and each of those goes through the one
  fold site, :meth:`repro.storage.table_data.ColumnData.folded_stats`, which
  adds the pending rows as stored under the table lock and advances the
  watermark.  A bulk import into a table that is dropped before anyone asks
  pays for no NDV work at all.
* **VARCHAR** columns are dictionary-coded, so their summary widens from the
  *new dictionary entries* an append or update produced (the
  ``new_entries`` argument of the observation hooks), never from the rows:
  a batch of 20,000 rows over eight tags costs nothing after the first.
  That is cheap, so it stays eager and such a column has nothing pending.
* **updates and deletes** cannot shrink min/max or NDV without a rescan, so
  they only *widen* the summary and flip :attr:`ColumnStatistics.stale`;
  the next checkpoint recomputes exact values for dirty columns (clean
  columns are never re-scanned, preserving the incremental-checkpoint
  property from PR 3).

Statistics are *advisory*: a stale summary may overestimate, never silently
drop rows, because only the cost model consumes it -- correctness always
comes from the scan itself.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Optional, Set

import numpy as np

from ..types.logical import LogicalType, LogicalTypeId

__all__ = [
    "HyperLogLog",
    "DistinctCounter",
    "ColumnStatistics",
    "compute_column_statistics",
]

#: Exact distinct sets are kept up to this many members before degrading to
#: a HyperLogLog sketch.
EXACT_NDV_LIMIT = 4096

#: 2**_HLL_P registers; p=12 gives a ~1.6% standard error in ~4 KiB.
_HLL_P = 12
_HLL_M = 1 << _HLL_P
_HLL_ALPHA = 0.7213 / (1.0 + 1.079 / _HLL_M)

#: The one NaN an exact distinct set holds for every NaN it is given.
_NAN = float("nan")


def _hash_array(values: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit mix (splitmix64 finalizer) of an array's values.

    Fixed-width dtypes are reinterpreted as unsigned integers and mixed in
    bulk.  Object (VARCHAR) arrays are keyed per value by a fixed 64-bit
    hash of the UTF-8 text -- not Python's ``hash()``, which is salted per
    process and would make the estimate differ from run to run.  Only a
    sketch hashes strings, and only a column's new dictionary entries.
    """
    if values.dtype == object:
        keys = np.frombuffer(b"".join(
            hashlib.blake2b(str(value).encode("utf-8", "surrogatepass"),
                            digest_size=8).digest()
            for value in values.tolist()), dtype=np.uint64)
    elif values.dtype.kind == "f":
        # Canonicalize to float64 bit patterns (-0.0 to +0.0, every NaN to
        # one NaN) so equal values hash equally across FLOAT and DOUBLE.
        as_double = values.astype(np.float64) + 0.0
        as_double[np.isnan(as_double)] = np.nan
        keys = as_double.view(np.uint64)
    elif values.dtype.kind == "b":
        keys = values.astype(np.uint64)
    else:
        keys = values.astype(np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        keys = keys + np.uint64(0x9E3779B97F4A7C15)
        keys = (keys ^ (keys >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        keys = (keys ^ (keys >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        keys = keys ^ (keys >> np.uint64(31))
    return keys


class HyperLogLog:
    """Classic HyperLogLog cardinality sketch over 64-bit hashes."""

    __slots__ = ("registers",)

    def __init__(self) -> None:
        self.registers = np.zeros(_HLL_M, dtype=np.uint8)

    def add_array(self, values: np.ndarray) -> None:
        if len(values) == 0:
            return
        keys = _hash_array(values)
        buckets = (keys >> np.uint64(64 - _HLL_P)).astype(np.int64)
        remainder = keys << np.uint64(_HLL_P) | np.uint64(1 << (_HLL_P - 1))
        # Rank = leading zeros of the remaining bits, + 1; the OR above
        # guarantees a set bit so the subtraction below is well defined.
        bits = np.uint64(64)
        # np.log2 on uint64 loses precision above 2**53; shift down to the
        # top 32 bits, which is all the rank computation can ever use here.
        top = (remainder >> np.uint64(32)).astype(np.float64)
        low = (remainder & np.uint64(0xFFFFFFFF)).astype(np.float64)
        magnitude = np.where(top > 0, np.floor(np.log2(np.maximum(top, 1))) + 32,
                             np.floor(np.log2(np.maximum(low, 1))))
        rank = (63 - magnitude + 1).astype(np.uint8)
        np.maximum.at(self.registers, buckets, rank)

    def merge(self, other: "HyperLogLog") -> None:
        np.maximum(self.registers, other.registers, out=self.registers)

    def estimate(self) -> float:
        registers = self.registers.astype(np.float64)
        harmonic = float(np.sum(np.exp2(-registers)))
        raw = _HLL_ALPHA * _HLL_M * _HLL_M / harmonic
        zeros = int(np.count_nonzero(self.registers == 0))
        if raw <= 2.5 * _HLL_M and zeros:
            return _HLL_M * math.log(_HLL_M / zeros)
        return raw


class DistinctCounter:
    """Exact distinct set that degrades to HyperLogLog past a size limit.

    The estimate depends only on the set of values added: the exact set is
    given up only when the union would pass the limit, and both the set and
    the sketch's registers are unions.  So any split of the same values
    into batches gives the same answer.
    """

    __slots__ = ("_exact", "_sketch", "_limit")

    def __init__(self, limit: int = EXACT_NDV_LIMIT) -> None:
        self._exact: Optional[Set[Any]] = set()
        self._sketch: Optional[HyperLogLog] = None
        self._limit = limit

    @property
    def approximate(self) -> bool:
        return self._sketch is not None

    def add_array(self, values: np.ndarray, distinct: bool = False) -> None:
        """Fold ``values`` in; ``distinct`` promises they hold no duplicates."""
        if len(values) == 0:
            return
        if self._sketch is None:
            assert self._exact is not None
            fresh = self._new_members(values, distinct)
            if fresh is not None \
                    and len(self._exact) + len(fresh) <= self._limit:
                self._exact.update(fresh)
                return
            self._promote()
        assert self._sketch is not None
        self._sketch.add_array(values)

    def _new_members(self, values: np.ndarray,
                     distinct: bool) -> Optional[Set[Any]]:
        """Members of ``values`` not yet in the exact set, or None when the
        batch alone provably overflows the limit."""
        if len(values) > self._limit:
            # A prefix that overflows proves the batch does; only a batch
            # of few distinct values is worth sorting in full.
            if distinct or \
                    len(np.unique(values[:self._limit + 1])) > self._limit:
                return None
            values = np.unique(values)
        members = set(values.tolist())
        if values.dtype.kind == "f" and np.isnan(values).any():
            # NaN != NaN, so a set keeps every NaN object; one shared NaN
            # stands for them all.
            members = {member for member in members if member == member}
            members.add(_NAN)
        assert self._exact is not None
        return members - self._exact

    def _promote(self) -> None:
        self._sketch = HyperLogLog()
        if self._exact:
            # Rebuild a *typed* array: members must hash exactly as future
            # typed adds do (strings go through the object path, numerics
            # through the splitmix path).
            members = np.array(list(self._exact))
            if members.dtype.kind in ("U", "S"):
                members = members.astype(object)
            self._sketch.add_array(members)
        self._exact = None

    def estimate(self) -> float:
        if self._sketch is not None:
            return self._sketch.estimate()
        assert self._exact is not None
        return float(len(self._exact))


def _scalar(value: Any, dtype: LogicalType) -> Any:
    """Convert a NumPy reduction result to a plain Python scalar."""
    if isinstance(value, np.generic):
        value = value.item()
    if dtype.id is LogicalTypeId.BOOLEAN:
        return bool(value)
    return value


class ColumnStatistics:
    """Incrementally maintained summary of one table column.

    ``row_count`` is the number of rows observed (including nulls), which is
    the basis for the null fraction.  ``stale`` means an update or delete
    has happened since the last exact computation: min/max/NDV may
    *overestimate* the live data but never under-represent it.

    ``watermark`` is the row up to which ``distinct`` has seen the column's
    stored values: rows ``[watermark, row_count)`` of a column that is not
    dictionary-coded are pending until the table's fold site reads them.
    The summary has no lock of its own; every mutator is a ``*_locked``
    method, called with the owning table's lock held (or on a summary not
    yet published to other threads).
    """

    __slots__ = ("dtype", "min_value", "max_value", "null_count",
                 "row_count", "distinct", "watermark", "stale",
                 "_baseline_ndv")

    def __init__(self, dtype: LogicalType) -> None:
        self.dtype = dtype
        self.min_value: Any = None
        self.max_value: Any = None
        self.null_count = 0
        self.row_count = 0
        self.distinct = DistinctCounter()
        self.watermark = 0
        self.stale = False
        #: NDV carried over from a checkpoint whose sketch was not
        #: persisted; the live estimate never reports below this.
        self._baseline_ndv = 0.0

    # -- summaries -------------------------------------------------------
    @property
    def ndv(self) -> float:
        """Estimated number of distinct (non-null) values among the rows
        folded so far (see :attr:`watermark`)."""
        return max(self.distinct.estimate(), self._baseline_ndv)

    @property
    def approximate_ndv(self) -> bool:
        return self.distinct.approximate or self._baseline_ndv > 0

    def has_range(self) -> bool:
        return self.min_value is not None and self.max_value is not None

    # -- observation hooks ----------------------------------------------
    def observe_append_locked(self, data: np.ndarray, validity: np.ndarray,
                              new_entries: Optional[np.ndarray] = None
                              ) -> None:
        """Fold one appended chunk's min/max and null count in (vectorized).

        Its distinct values stay pending (see :attr:`watermark`), except for
        a dictionary-coded column: there ``data`` is codes and
        ``new_entries`` the strings this chunk added to the column's
        dictionary, and min/max/NDV can only move through those, so only
        those are looked at, now.  (The dictionary also keeps strings of
        aborted or overwritten rows, which widens the summary and never
        narrows it.)
        """
        self.row_count += len(data)
        self.null_count += int(len(data) - np.count_nonzero(validity))
        self._fold(data, validity, new_entries, new_entries is not None)

    def observe_update_locked(self, data: np.ndarray, validity: np.ndarray,
                              new_entries: Optional[np.ndarray] = None
                              ) -> None:
        """Fold updated values in.  Old values cannot be retracted, so the
        summary only widens and becomes stale until the next checkpoint."""
        self.stale = True
        self._fold(data, validity, new_entries, True)

    def fold_pending_locked(self, data: np.ndarray,
                            validity: np.ndarray) -> None:
        """Add the next ``len(data)`` pending rows, as stored, to NDV and
        move the watermark past them."""
        values = data if validity.all() else data[validity]
        if len(values) and self.dtype.id is not LogicalTypeId.SQLNULL:
            self.distinct.add_array(values)
        self.watermark += len(data)

    def _fold(self, data: np.ndarray, validity: np.ndarray,
              new_entries: Optional[np.ndarray], count_distinct: bool) -> None:
        if new_entries is not None:
            values = new_entries
        else:
            values = data if validity.all() else data[validity]
        if len(values) == 0 or self.dtype.id is LogicalTypeId.SQLNULL:
            return
        self._widen(values)
        if count_distinct:
            self.distinct.add_array(values, distinct=new_entries is not None)

    def mark_stale_locked(self) -> None:
        """Deletes (and anything else that shrinks the data) leave the
        summary as an overestimate until the next checkpoint recompute."""
        self.stale = True

    def _widen(self, valid: np.ndarray) -> None:
        low = _scalar(valid.min(), self.dtype)
        high = _scalar(valid.max(), self.dtype)
        if self.min_value is None or low < self.min_value:
            self.min_value = low
        if self.max_value is None or high > self.max_value:
            self.max_value = high

    def __repr__(self) -> str:
        bounds = (f"[{self.min_value!r}, {self.max_value!r}]"
                  if self.has_range() else "[]")
        return (f"ColumnStatistics(rows={self.row_count}, "
                f"nulls={self.null_count}, ndv~{self.ndv:.0f}, "
                f"range={bounds}{', stale' if self.stale else ''})")


def compute_column_statistics(data: np.ndarray, validity: np.ndarray,
                              dtype: LogicalType,
                              new_entries: Optional[np.ndarray] = None
                              ) -> ColumnStatistics:
    """Exact statistics for a fully materialized column (checkpoint path).

    ``data``/``validity`` must already be trimmed to the live row count.
    NDV is exact via ``np.unique`` up to :data:`EXACT_NDV_LIMIT` distinct
    members, a sketch beyond -- same contract as the incremental path, but
    with min/max/null counts always exact.  For a dictionary-coded column
    pass the referenced dictionary entries as ``new_entries``.
    """
    stats = ColumnStatistics(dtype)
    stats.observe_append_locked(data, validity, new_entries)
    if new_entries is None:
        stats.fold_pending_locked(data, validity)
    return stats


def restore_column_statistics(dtype: LogicalType, row_count: int,
                              null_count: int, ndv: float, stale: bool,
                              min_value: Any, max_value: Any
                              ) -> ColumnStatistics:
    """Rebuild a summary from its persisted checkpoint form.

    The distinct sketch itself is not persisted; the loaded NDV becomes a
    floor (``_baseline_ndv``) under a fresh counter that only sees
    post-checkpoint appends: the watermark starts at the restored
    ``row_count``, so the loaded rows are never folded again.
    ``max(baseline, fresh)`` can undercount the union, which is the
    conservative direction for ``1/ndv`` selectivity.
    """
    stats = ColumnStatistics(dtype)
    stats.row_count = row_count
    stats.watermark = row_count
    stats.null_count = null_count
    stats.stale = stale
    stats._baseline_ndv = float(ndv)
    stats.min_value = min_value
    stats.max_value = max_value
    return stats
