"""Vectorized casts between logical types.

Casting is a first-class vectorized operation: a cast consumes a whole
:class:`~repro.types.vector.Vector` and produces a new one, raising
:class:`~repro.errors.ConversionError` on the first offending value (with the
value included in the message, which matters for ETL debugging).
"""

from __future__ import annotations

import datetime
from typing import Any, Optional

import numpy as np

from ..errors import ConversionError
from . import logical
from .logical import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    LogicalType,
    LogicalTypeId,
    SQLNULL,
    TIMESTAMP,
    VARCHAR,
)
from .vector import Vector

__all__ = ["cast_vector", "cast_scalar"]

_TRUE_STRINGS = {"true", "t", "yes", "y", "1"}
_FALSE_STRINGS = {"false", "f", "no", "n", "0"}


def _parse_date(text: str) -> int:
    """Parse ``YYYY-MM-DD`` into day-offset storage form."""
    try:
        parsed = datetime.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ConversionError(f"Could not parse {text!r} as DATE: {exc}") from None
    return logical.date_to_days(parsed)


def _parse_timestamp(text: str) -> int:
    """Parse an ISO timestamp (date-only allowed) into microsecond storage form."""
    text = text.strip()
    try:
        parsed = datetime.datetime.fromisoformat(text)
    except ValueError:
        try:
            parsed_date = datetime.date.fromisoformat(text)
        except ValueError as exc:
            raise ConversionError(f"Could not parse {text!r} as TIMESTAMP: {exc}") from None
        parsed = datetime.datetime.combine(parsed_date, datetime.time())
    return logical.timestamp_to_micros(parsed)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE_STRINGS:
        return True
    if lowered in _FALSE_STRINGS:
        return False
    raise ConversionError(f"Could not parse {text!r} as BOOLEAN")


def _check_integer_range(values: np.ndarray, validity: np.ndarray, target: LogicalType) -> None:
    """Raise if any *valid* value falls outside the target integer range."""
    low, high = target.integer_range()
    valid_values = values[validity]
    if valid_values.size == 0:
        return
    bad = (valid_values < low) | (valid_values > high)
    if bad.any():
        offender = valid_values[bad][0]
        raise ConversionError(f"Value {offender} out of range for {target}")


def _varchar_from_physical(vector: Vector) -> np.ndarray:
    """Render a non-VARCHAR vector's values as strings (invalid entries -> None)."""
    out = np.empty(len(vector), dtype=object)
    source_id = vector.dtype.id
    for index in range(len(vector)):  # quacklint: disable=QLV001 -- rendering values as text has no NumPy bulk primitive
        if not vector.validity[index]:
            out[index] = None
            continue
        if source_id is LogicalTypeId.BOOLEAN:
            out[index] = "true" if vector.data[index] else "false"
        elif source_id is LogicalTypeId.DATE:
            out[index] = logical.days_to_date(int(vector.data[index])).isoformat()
        elif source_id is LogicalTypeId.TIMESTAMP:
            out[index] = logical.micros_to_timestamp(int(vector.data[index])).isoformat(sep=" ")
        elif vector.dtype.is_float():
            out[index] = repr(float(vector.data[index]))
        else:
            out[index] = str(int(vector.data[index]))
    return out


def _varchar_to_physical(vector: Vector, target: LogicalType) -> Vector:
    """Parse a VARCHAR vector into any other type, value by value."""
    count = len(vector)
    validity = vector.validity.copy()
    data = np.zeros(count, dtype=target.numpy_dtype)
    target_id = target.id
    for index in range(count):  # quacklint: disable=QLV001 -- parsing text has no NumPy bulk primitive
        if not validity[index]:
            continue
        text = vector.data[index]
        if target_id is LogicalTypeId.BOOLEAN:
            data[index] = _parse_bool(text)
        elif target_id is LogicalTypeId.DATE:
            data[index] = _parse_date(text)
        elif target_id is LogicalTypeId.TIMESTAMP:
            data[index] = _parse_timestamp(text)
        elif target.is_integer():
            try:
                parsed = int(text.strip())
            except ValueError:
                # Accept "3.0"-style text for integer casts when exact.
                try:
                    as_float = float(text.strip())
                except ValueError:
                    raise ConversionError(
                        f"Could not parse {text!r} as {target}"
                    ) from None
                parsed = int(as_float)
                if parsed != as_float:
                    raise ConversionError(
                        f"Could not parse {text!r} as {target} without loss"
                    ) from None
            low, high = target.integer_range()
            if not low <= parsed <= high:
                raise ConversionError(f"Value {parsed} out of range for {target}")
            data[index] = parsed
        elif target.is_float():
            try:
                data[index] = float(text.strip())
            except ValueError:
                raise ConversionError(f"Could not parse {text!r} as {target}") from None
        else:
            raise ConversionError(f"Unsupported cast VARCHAR -> {target}")
    return Vector(target, data, validity)


def cast_vector(vector: Vector, target: LogicalType) -> Vector:
    """Cast a vector to ``target``, preserving NULLs.

    Raises :class:`~repro.errors.ConversionError` when any valid value cannot
    be represented in the target type (integer overflow, malformed text, ...).
    """
    source = vector.dtype
    if source == target:
        return vector
    if source.id is LogicalTypeId.SQLNULL:
        return Vector.empty(target, len(vector))
    if target.id is LogicalTypeId.SQLNULL:
        raise ConversionError(f"Cannot cast {source} to NULL")

    if target.id is LogicalTypeId.VARCHAR:
        return Vector(VARCHAR, _varchar_from_physical(vector), vector.validity.copy())
    if source.id is LogicalTypeId.VARCHAR:
        return _varchar_to_physical(vector, target)

    source_numericish = source.is_numeric() or source.id is LogicalTypeId.BOOLEAN
    target_numericish = target.is_numeric() or target.id is LogicalTypeId.BOOLEAN
    if source_numericish and target_numericish:
        validity = vector.validity.copy()
        if target.is_integer():
            if source.is_float():
                valid_values = vector.data[validity]
                rounded = np.where(np.isfinite(valid_values), np.rint(valid_values), 0)
                if not np.isfinite(valid_values).all():
                    raise ConversionError(f"Cannot cast non-finite float to {target}")
                low, high = target.integer_range()
                if rounded.size and ((rounded < low) | (rounded > high)).any():
                    offender = valid_values[(rounded < low) | (rounded > high)][0]
                    raise ConversionError(f"Value {offender} out of range for {target}")
                data = np.zeros(len(vector), dtype=target.numpy_dtype)
                data[validity] = rounded.astype(target.numpy_dtype)
                return Vector(target, data, validity)
            _check_integer_range(vector.data, validity, target)
        data = vector.data.astype(target.numpy_dtype)
        # Scrub garbage under NULL positions for deterministic storage.
        if not validity.all():
            data = data.copy()
            data[~validity] = 0
        return Vector(target, data, validity)

    if source.id is LogicalTypeId.DATE and target.id is LogicalTypeId.TIMESTAMP:
        data = vector.data.astype(np.int64) * 86_400_000_000
        return Vector(TIMESTAMP, data, vector.validity.copy())
    if source.id is LogicalTypeId.TIMESTAMP and target.id is LogicalTypeId.DATE:
        data = np.floor_divide(vector.data, 86_400_000_000).astype(np.int32)
        return Vector(DATE, data, vector.validity.copy())

    raise ConversionError(f"Unsupported cast {source} -> {target}")


def cast_scalar(value: Any, target: LogicalType) -> Any:
    """Cast one Python value to ``target``'s Python representation."""
    if value is None:
        return None
    vector = Vector.from_values([value])
    return cast_vector(vector, target).get_value(0)
