"""Vectorized casts between logical types.

Casting is a first-class vectorized operation: a cast consumes a whole
:class:`~repro.types.vector.Vector` and produces a new one, raising
:class:`~repro.errors.ConversionError` on the first offending value (with the
value included in the message, which matters for ETL debugging).
"""

from __future__ import annotations

import datetime
import functools
import operator
from typing import Any, Callable, Iterable, List

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


def _parse_integer(target: LogicalType, text: str) -> int:
    """Parse integer text, accepting ``"3.0"``-style text when exact."""
    try:
        parsed = int(text.strip())
    except ValueError:
        try:
            as_float = float(text.strip())
        except ValueError:
            raise ConversionError(f"Could not parse {text!r} as {target}") from None
        parsed = int(as_float)
        if parsed != as_float:
            raise ConversionError(
                f"Could not parse {text!r} as {target} without loss"
            ) from None
    low, high = target.integer_range()
    if not low <= parsed <= high:
        raise ConversionError(f"Value {parsed} out of range for {target}")
    return parsed


def _parse_float(target: LogicalType, text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ConversionError(f"Could not parse {text!r} as {target}") from None


def _parse_each(texts: Iterable[str], target: LogicalType) -> List[Any]:
    """Parse text by text: the one definition of the spellings each type
    accepts and of the error raised -- for the first offending text, in
    order -- when one does not parse."""
    target_id = target.id
    if target_id is LogicalTypeId.BOOLEAN:
        parse: Callable[[str], Any] = _parse_bool
    elif target_id is LogicalTypeId.DATE:
        parse = _parse_date
    elif target_id is LogicalTypeId.TIMESTAMP:
        parse = _parse_timestamp
    elif target.is_integer():
        parse = functools.partial(_parse_integer, target)
    elif target.is_float():
        parse = functools.partial(_parse_float, target)
    else:
        raise ConversionError(f"Unsupported cast VARCHAR -> {target}")
    return list(map(parse, texts))


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
    """Render a non-VARCHAR vector's values as strings (invalid entries -> None).

    One ``tolist()`` per column and one C-level ``map`` over it: ``str`` for
    integers, ``repr`` for floats, ``isoformat`` for DATE / TIMESTAMP, one
    ``where`` for booleans.  Values under NULL positions are never rendered.
    """
    validity = vector.validity
    all_valid = vector.all_valid()
    values = vector.data if all_valid else vector.data[validity]
    source_id = vector.dtype.id
    if source_id is LogicalTypeId.BOOLEAN:
        rendered = np.where(values, "true", "false").tolist()
    elif source_id is LogicalTypeId.DATE:
        rendered = list(map(datetime.date.isoformat,
                            Vector(DATE, values).to_pylist()))
    elif source_id is LogicalTypeId.TIMESTAMP:
        rendered = list(map(operator.methodcaller("isoformat", " "),
                            Vector(TIMESTAMP, values).to_pylist()))
    elif vector.dtype.is_float():
        rendered = list(map(repr, values.tolist()))
    else:
        rendered = list(map(str, values.tolist()))
    out = np.empty(len(vector), dtype=object)  # all None
    if all_valid:
        out[:] = rendered
    else:
        out[validity] = rendered
    return out


def _parse_column(texts: np.ndarray, target: LogicalType) -> np.ndarray:
    """Non-NULL text -> the physical values of ``target``, one column at a time.

    Integers and floats take one C-level pass through Python's own ``int`` /
    ``float`` (so the spellings accepted are the scalar parse's) and one
    min/max for the range.  Everything else -- BOOLEAN, DATE and TIMESTAMP,
    and whatever the numeric pass cannot decide: ``"3.0"`` into an integer
    column, a value out of range or beyond 64 bits, malformed text -- goes
    through :func:`_parse_each`, which raises the error for the first
    offending text in row order.
    """
    dtype = target.numpy_dtype
    if target.is_integer() or target.is_float():
        integer = target.is_integer()
        try:
            values = np.fromiter(map(int if integer else float, texts),
                                 np.int64 if integer else np.float64, len(texts))
        except (ValueError, OverflowError):
            values = None
        if values is not None and integer and len(values):
            low, high = target.integer_range()
            if values.min() < low or values.max() > high:
                values = None
        if values is not None:
            return values.astype(dtype, copy=False)
    return np.array(_parse_each(texts, target), dtype=dtype)


def _varchar_to_physical(vector: Vector, target: LogicalType) -> Vector:
    """Parse a VARCHAR vector into any other type (NULL entries stay NULL)."""
    validity = vector.validity.copy()
    if vector.all_valid():
        data = _parse_column(vector.data, target)
    else:
        data = np.zeros(len(vector), dtype=target.numpy_dtype)
        data[validity] = _parse_column(vector.data[validity], target)
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


#: Python types whose values are already their logical type's Python form.
_OWN_TYPES = {**logical.NATIVE_TYPES, datetime.date: DATE}


def cast_scalar(value: Any, target: LogicalType) -> Any:
    """Cast one Python value to ``target``'s Python representation."""
    if value is None:
        return None
    # The common cases -- a value already of ``target`` (a parameter slot's
    # own type), or an int widened to DOUBLE -- need no vector round trip.
    kind = type(value)
    if kind is int and -2**63 <= value < 2**63:
        if target.is_integer():
            low, high = target.integer_range()
            if low <= value <= high:
                return value
        elif target.id is LogicalTypeId.DOUBLE:
            return float(value)
    elif _OWN_TYPES.get(kind) == target:
        return value
    vector = Vector.from_values([value])
    return cast_vector(vector, target).get_value(0)
