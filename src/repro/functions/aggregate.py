"""Aggregate function signatures and grouped vectorized implementations.

Binding resolves an aggregate's return type; execution happens inside the
hash-aggregate operator, which factorizes group keys into dense group ids
and then calls :func:`compute_aggregate` -- a segmented NumPy reduction over
all input rows at once (``np.bincount``-style), never a per-row loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BinderError, ConversionError, InternalError
from ..types import (
    BIGINT,
    DOUBLE,
    LogicalType,
    LogicalTypeId,
    SQLNULL,
    VARCHAR,
    Vector,
)

__all__ = ["bind_aggregate", "compute_aggregate", "AGGREGATE_NAMES"]

AGGREGATE_NAMES = frozenset([
    "count", "sum", "avg", "min", "max", "first",
    "stddev", "stddev_samp", "var_samp", "variance",
])


def bind_aggregate(name: str, arg_types: Sequence[LogicalType],
                   star_argument: bool) -> Tuple[LogicalType, List[LogicalType]]:
    """Resolve the result type and coerced argument types of an aggregate."""
    name = name.lower()
    if name == "count":
        if star_argument:
            return BIGINT, []
        if len(arg_types) != 1:
            raise BinderError("count() expects one argument or *")
        return BIGINT, [arg_types[0]]
    if star_argument:
        raise BinderError(f"{name}(*) is not defined")
    if len(arg_types) != 1:
        raise BinderError(f"{name}() expects exactly one argument")
    arg = arg_types[0]
    if name in ("sum", "avg", "stddev", "stddev_samp", "var_samp", "variance"):
        if arg.id is LogicalTypeId.SQLNULL:
            arg = DOUBLE
        if not arg.is_numeric():
            raise BinderError(f"{name}() requires a numeric argument, got {arg}")
        if name == "sum":
            result = BIGINT if arg.is_integer() else DOUBLE
            return result, [arg]
        return DOUBLE, [arg]
    if name in ("min", "max", "first"):
        return arg, [arg]
    raise BinderError(f"Unknown aggregate function {name!r}")


def _group_counts(group_ids: np.ndarray, group_count: int,
                  mask: Optional[np.ndarray] = None,
                  counts: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows per group where ``mask`` holds; ``counts`` -- the all-rows
    counts, when the caller has them -- answers an all-true mask."""
    if mask is not None and not mask.all():
        return np.bincount(group_ids[mask], minlength=group_count)
    if counts is not None:
        return counts
    return np.bincount(group_ids, minlength=group_count)


def _integer_sums(values: np.ndarray, group_ids: np.ndarray,
                  group_count: int, return_type: LogicalType) -> np.ndarray:
    """Exact per-group int64 sums; raises instead of wrapping on overflow.

    int64 addition wraps silently but is exact modulo 2**64, so a sum that
    fits is right whatever its partial sums did.  A float64 pass (off by a
    relative 1e-9 at most) tells which groups came anywhere near the range;
    only those are re-added with Python integers to decide.
    """
    if group_count == 1:
        sums = values.sum(dtype=np.int64, keepdims=True)
        approximate = values.sum(dtype=np.float64, keepdims=True)
    else:
        sums = np.zeros(group_count, dtype=np.int64)
        np.add.at(sums, group_ids, values)
        approximate = np.bincount(group_ids, weights=values,
                                  minlength=group_count)
    low, high = return_type.integer_range()
    for group in np.flatnonzero(np.abs(approximate) >= 2.0 ** 62):
        exact = sum(values[group_ids == group].tolist())
        if not low <= exact <= high:
            raise ConversionError(
                f"Value {exact} out of range for {return_type}")
    return sums


def _segmented_extreme(data: np.ndarray, validity: np.ndarray,
                       group_ids: np.ndarray, group_count: int,
                       pick_max: bool, dtype: LogicalType) -> Vector:
    """Per-group min/max via sort + reduceat-free boundary selection."""
    valid = np.flatnonzero(validity)
    out_validity = np.zeros(group_count, dtype=np.bool_)
    if dtype.id is LogicalTypeId.VARCHAR:
        out_data = np.empty(group_count, dtype=object)
    else:
        out_data = np.zeros(group_count, dtype=dtype.numpy_dtype)
    if valid.size == 0:
        return Vector(dtype, out_data, out_validity)
    groups = group_ids[valid]
    values = data[valid]
    if dtype.id is LogicalTypeId.VARCHAR:
        # Object arrays cannot use lexsort on values; sort per group boundary.
        order = np.argsort(groups, kind="stable")
        sorted_groups = groups[order]
        sorted_values = values[order]
        boundaries = np.flatnonzero(np.diff(sorted_groups)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(sorted_groups)]])
        chooser = max if pick_max else min
        for start, end in zip(starts, ends):
            group = int(sorted_groups[start])
            out_data[group] = chooser(sorted_values[start:end])
            out_validity[group] = True
        return Vector(dtype, out_data, out_validity)
    # Numeric path: sort by (group, value); group boundaries give extremes.
    order = np.lexsort((values, groups))
    sorted_groups = groups[order]
    sorted_values = values[order]
    boundaries = np.flatnonzero(np.diff(sorted_groups)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(sorted_groups)]]) - 1
    positions = ends if pick_max else starts
    present = sorted_groups[starts]
    out_data[present] = sorted_values[positions]
    out_validity[present] = True
    return Vector(dtype, out_data, out_validity)


def _deduplicate(values: np.ndarray, validity: np.ndarray, group_ids: np.ndarray,
                 dtype: LogicalType):
    """Keep one row per (group, value) pair -- implements DISTINCT aggregates."""
    valid = np.flatnonzero(validity)
    groups = group_ids[valid]
    data = values[valid]
    if dtype.id is LogicalTypeId.VARCHAR:
        seen = set()
        keep = []
        for position, (group, value) in enumerate(zip(groups, data)):
            key = (int(group), value)
            if key not in seen:
                seen.add(key)
                keep.append(position)
        keep = np.asarray(keep, dtype=np.int64)
    else:
        pairs = np.stack([groups.astype(np.int64), data.astype(np.float64)
                          if data.dtype.kind == "f" else data.astype(np.int64)])
        _, keep = np.unique(pairs, axis=1, return_index=True)
    new_validity = np.ones(len(keep), dtype=np.bool_)
    return data[keep], new_validity, groups[keep]


def compute_aggregate(name: str, distinct: bool, argument: Optional[Vector],
                      group_ids: np.ndarray, group_count: int,
                      return_type: LogicalType,
                      counts: Optional[np.ndarray] = None) -> Vector:
    """Evaluate one aggregate for all groups at once.

    ``argument`` is None only for ``count(*)``.  ``group_ids`` assigns each
    input row to a dense group id in ``[0, group_count)``.  ``counts`` --
    optional, ``np.bincount(group_ids, minlength=group_count)`` -- lets
    the aggregates of one batch share its all-rows group counts: it stands
    in for counting again where the argument has no NULLs.
    """
    name = name.lower()
    if name == "count" and argument is None:
        counts = _group_counts(group_ids, group_count, counts=counts)
        return Vector(BIGINT, counts.astype(np.int64),
                      np.ones(group_count, dtype=np.bool_))
    if argument is None:
        raise InternalError(f"aggregate {name} requires an argument")

    data = argument.data
    validity = argument.validity
    if distinct:
        data, validity, group_ids = _deduplicate(data, validity, group_ids,
                                                 argument.dtype)
        full_validity = validity
        counts = None  # of the rows before deduplication
    else:
        full_validity = validity

    if name == "count":
        counts = _group_counts(group_ids, group_count, full_validity, counts)
        return Vector(BIGINT, counts.astype(np.int64),
                      np.ones(group_count, dtype=np.bool_))

    if name in ("sum", "avg"):
        # bincount casts weights to float64 itself: same bits, no copy.
        values = data if full_validity.all() \
            else np.where(full_validity, data, 0)

    if name == "sum":
        counts = _group_counts(group_ids, group_count, full_validity, counts)
        out_validity = counts > 0
        if return_type.is_integer():
            return Vector(return_type,
                          _integer_sums(values.astype(np.int64, copy=False),
                                        group_ids, group_count, return_type),
                          out_validity)
        sums = np.bincount(group_ids, weights=values, minlength=group_count)
        return Vector(return_type, sums, out_validity)

    if name == "avg":
        sums = np.bincount(group_ids, weights=values, minlength=group_count)
        counts = _group_counts(group_ids, group_count, full_validity, counts)
        out_validity = counts > 0
        with np.errstate(all="ignore"):
            means = sums / np.maximum(counts, 1)
        return Vector(DOUBLE, means, out_validity)

    if name in ("stddev", "stddev_samp", "var_samp", "variance"):
        weights = np.where(full_validity, data, 0).astype(np.float64)
        counts = _group_counts(group_ids, group_count, full_validity,
                               counts).astype(np.float64)
        sums = np.bincount(group_ids, weights=weights, minlength=group_count)
        squares = np.bincount(group_ids, weights=weights * weights,
                              minlength=group_count)
        out_validity = counts > 1
        with np.errstate(all="ignore"):
            variance = (squares - sums * sums / np.maximum(counts, 1)) \
                / np.maximum(counts - 1, 1)
        variance = np.maximum(variance, 0.0)
        if name in ("stddev", "stddev_samp"):
            variance = np.sqrt(variance)
        return Vector(DOUBLE, variance, out_validity)

    if name in ("min", "max"):
        return _segmented_extreme(data, full_validity, group_ids, group_count,
                                  name == "max", argument.dtype)

    if name == "first":
        out_validity = np.zeros(group_count, dtype=np.bool_)
        if argument.dtype.id is LogicalTypeId.VARCHAR:
            out_data = np.empty(group_count, dtype=object)
        else:
            out_data = np.zeros(group_count, dtype=argument.dtype.numpy_dtype)
        valid = np.flatnonzero(full_validity)
        if valid.size:
            groups = group_ids[valid]
            # np.unique returns the first occurrence index per group.
            present, first_index = np.unique(groups, return_index=True)
            out_data[present] = data[valid][first_index]
            out_validity[present] = True
        return Vector(argument.dtype, out_data, out_validity)

    raise InternalError(f"Unhandled aggregate {name}")
