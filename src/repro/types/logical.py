"""Logical SQL types and their physical (NumPy) representation.

The engine follows the paper's vectorized design: every column of every chunk
is a NumPy array of the physical dtype associated with a logical SQL type.
DATE is stored as int32 days since the Unix epoch and TIMESTAMP as int64
microseconds since the Unix epoch, matching the fixed-width layouts used by
columnar engines such as DuckDB.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any, Optional

import numpy as np

from ..errors import ConversionError, InternalError

__all__ = [
    "LogicalTypeId",
    "LogicalType",
    "BOOLEAN",
    "TINYINT",
    "SMALLINT",
    "INTEGER",
    "BIGINT",
    "FLOAT",
    "DOUBLE",
    "VARCHAR",
    "DATE",
    "TIMESTAMP",
    "SQLNULL",
    "type_from_string",
    "infer_type_of_value",
    "common_type",
    "max_numeric_type",
]

#: Days / microseconds relative to this epoch for DATE / TIMESTAMP storage.
EPOCH_DATE = datetime.date(1970, 1, 1)
EPOCH_DATETIME = datetime.datetime(1970, 1, 1)


class LogicalTypeId(enum.Enum):
    """Identifier of a SQL-level type."""

    SQLNULL = "NULL"
    BOOLEAN = "BOOLEAN"
    TINYINT = "TINYINT"
    SMALLINT = "SMALLINT"
    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    FLOAT = "FLOAT"
    DOUBLE = "DOUBLE"
    VARCHAR = "VARCHAR"
    DATE = "DATE"
    TIMESTAMP = "TIMESTAMP"


_NUMPY_DTYPES = {
    LogicalTypeId.SQLNULL: np.dtype(np.bool_),
    LogicalTypeId.BOOLEAN: np.dtype(np.bool_),
    LogicalTypeId.TINYINT: np.dtype(np.int8),
    LogicalTypeId.SMALLINT: np.dtype(np.int16),
    LogicalTypeId.INTEGER: np.dtype(np.int32),
    LogicalTypeId.BIGINT: np.dtype(np.int64),
    LogicalTypeId.FLOAT: np.dtype(np.float32),
    LogicalTypeId.DOUBLE: np.dtype(np.float64),
    LogicalTypeId.VARCHAR: np.dtype(object),
    LogicalTypeId.DATE: np.dtype(np.int32),
    LogicalTypeId.TIMESTAMP: np.dtype(np.int64),
}

#: Numeric promotion ladder: the common type of two numerics is the one
#: further along this ladder (mirrors standard SQL implicit-cast rules).
_NUMERIC_ORDER = [
    LogicalTypeId.BOOLEAN,
    LogicalTypeId.TINYINT,
    LogicalTypeId.SMALLINT,
    LogicalTypeId.INTEGER,
    LogicalTypeId.BIGINT,
    LogicalTypeId.FLOAT,
    LogicalTypeId.DOUBLE,
]

_INTEGER_RANGES = {
    LogicalTypeId.TINYINT: (-(2**7), 2**7 - 1),
    LogicalTypeId.SMALLINT: (-(2**15), 2**15 - 1),
    LogicalTypeId.INTEGER: (-(2**31), 2**31 - 1),
    LogicalTypeId.BIGINT: (-(2**63), 2**63 - 1),
}


class LogicalType:
    """A SQL-level type. Instances are interned; compare with ``==``."""

    __slots__ = ("id",)

    _interned: dict = {}

    def __new__(cls, type_id: LogicalTypeId) -> "LogicalType":
        existing = cls._interned.get(type_id)
        if existing is not None:
            return existing
        instance = super().__new__(cls)
        object.__setattr__(instance, "id", type_id)
        cls._interned[type_id] = instance
        return instance

    def __setattr__(self, name: str, value: Any) -> None:
        raise InternalError("LogicalType instances are immutable")

    # -- classification -------------------------------------------------
    @property
    def numpy_dtype(self) -> np.dtype:
        """The physical NumPy dtype backing vectors of this type."""
        return _NUMPY_DTYPES[self.id]

    def is_numeric(self) -> bool:
        return self.id in _NUMERIC_ORDER and self.id != LogicalTypeId.BOOLEAN

    def is_integer(self) -> bool:
        return self.id in _INTEGER_RANGES

    def is_float(self) -> bool:
        return self.id in (LogicalTypeId.FLOAT, LogicalTypeId.DOUBLE)

    def is_temporal(self) -> bool:
        return self.id in (LogicalTypeId.DATE, LogicalTypeId.TIMESTAMP)

    def integer_range(self) -> tuple:
        """(min, max) representable by an integer type."""
        if not self.is_integer():
            raise InternalError(f"{self} is not an integer type")
        return _INTEGER_RANGES[self.id]

    # -- dunder ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, LogicalType) and other.id is self.id

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"LogicalType.{self.id.name}"

    def __str__(self) -> str:
        return self.id.value


BOOLEAN = LogicalType(LogicalTypeId.BOOLEAN)
TINYINT = LogicalType(LogicalTypeId.TINYINT)
SMALLINT = LogicalType(LogicalTypeId.SMALLINT)
INTEGER = LogicalType(LogicalTypeId.INTEGER)
BIGINT = LogicalType(LogicalTypeId.BIGINT)
FLOAT = LogicalType(LogicalTypeId.FLOAT)
DOUBLE = LogicalType(LogicalTypeId.DOUBLE)
VARCHAR = LogicalType(LogicalTypeId.VARCHAR)
DATE = LogicalType(LogicalTypeId.DATE)
TIMESTAMP = LogicalType(LogicalTypeId.TIMESTAMP)
SQLNULL = LogicalType(LogicalTypeId.SQLNULL)


_TYPE_ALIASES = {
    "BOOL": BOOLEAN,
    "BOOLEAN": BOOLEAN,
    "LOGICAL": BOOLEAN,
    "TINYINT": TINYINT,
    "INT1": TINYINT,
    "SMALLINT": SMALLINT,
    "INT2": SMALLINT,
    "SHORT": SMALLINT,
    "INT": INTEGER,
    "INTEGER": INTEGER,
    "INT4": INTEGER,
    "SIGNED": INTEGER,
    "BIGINT": BIGINT,
    "INT8": BIGINT,
    "LONG": BIGINT,
    "HUGEINT": BIGINT,
    "FLOAT": FLOAT,
    "FLOAT4": FLOAT,
    "REAL": FLOAT,
    "DOUBLE": DOUBLE,
    "FLOAT8": DOUBLE,
    "NUMERIC": DOUBLE,
    "DECIMAL": DOUBLE,
    "VARCHAR": VARCHAR,
    "CHAR": VARCHAR,
    "TEXT": VARCHAR,
    "STRING": VARCHAR,
    "DATE": DATE,
    "TIMESTAMP": TIMESTAMP,
    "DATETIME": TIMESTAMP,
}


def type_from_string(name: str) -> LogicalType:
    """Resolve a SQL type name (e.g. ``"INTEGER"``, ``"text"``) to a type.

    Raises :class:`~repro.errors.ConversionError` for unknown names.
    """
    base = name.strip().upper()
    # Strip parenthesized width, e.g. VARCHAR(32) or DECIMAL(10, 2).
    if "(" in base:
        base = base[: base.index("(")].strip()
    resolved = _TYPE_ALIASES.get(base)
    if resolved is None:
        raise ConversionError(f"Unknown SQL type: {name!r}")
    return resolved


#: Exact Python types whose logical type does not depend on the value
#: (``int`` does: INTEGER or BIGINT by magnitude), so a whole column of one
#: of them is typed without looking at its values.
NATIVE_TYPES = {bool: BOOLEAN, float: DOUBLE, str: VARCHAR}


def infer_type_of_value(value: Any) -> LogicalType:
    """Infer the narrowest logical type that can hold a Python value."""
    if value is None:
        return SQLNULL
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return BOOLEAN
    if isinstance(value, (int, np.integer)):
        value = int(value)
        for type_id in (
            LogicalTypeId.INTEGER,
            LogicalTypeId.BIGINT,
        ):
            low, high = _INTEGER_RANGES[type_id]
            if low <= value <= high:
                return LogicalType(type_id)
        raise ConversionError(f"Integer {value} out of BIGINT range")
    if isinstance(value, (float, np.floating)):
        return DOUBLE
    if isinstance(value, str):
        return VARCHAR
    if isinstance(value, datetime.datetime):
        return TIMESTAMP
    if isinstance(value, datetime.date):
        return DATE
    if isinstance(value, (bytes, bytearray)):
        return VARCHAR
    raise ConversionError(f"Cannot map Python value of type {type(value).__name__} to a SQL type")


def max_numeric_type(left: LogicalType, right: LogicalType) -> LogicalType:
    """The wider of two numeric (or boolean) types along the promotion ladder."""
    try:
        left_rank = _NUMERIC_ORDER.index(left.id)
        right_rank = _NUMERIC_ORDER.index(right.id)
    except ValueError:
        raise InternalError(f"max_numeric_type called on non-numeric {left}/{right}")
    return LogicalType(_NUMERIC_ORDER[max(left_rank, right_rank)])


def common_type(left: LogicalType, right: LogicalType) -> Optional[LogicalType]:
    """The implicit common type of two types, or ``None`` if incompatible.

    NULL unifies with anything; numerics promote along the ladder; DATE
    unifies with TIMESTAMP (dates widen to timestamps); everything unifies
    with itself.  VARCHAR does *not* implicitly unify with numerics: that
    requires an explicit CAST, as in most analytical systems.
    """
    if left == right:
        return left
    if left.id is LogicalTypeId.SQLNULL:
        return right
    if right.id is LogicalTypeId.SQLNULL:
        return left
    if left.id in _NUMERIC_ORDER and right.id in _NUMERIC_ORDER:
        return max_numeric_type(left, right)
    temporal = {left.id, right.id}
    if temporal == {LogicalTypeId.DATE, LogicalTypeId.TIMESTAMP}:
        return TIMESTAMP
    return None


def date_to_days(value: datetime.date) -> int:
    """Convert a Python date to the int32 day offset used for storage."""
    return (value - EPOCH_DATE).days


def days_to_date(days: int) -> datetime.date:
    """Inverse of :func:`date_to_days`."""
    return EPOCH_DATE + datetime.timedelta(days=int(days))


def timestamp_to_micros(value: datetime.datetime) -> int:
    """Convert a Python datetime to the int64 microsecond offset used for storage."""
    delta = value - EPOCH_DATETIME
    return (delta.days * 86_400 + delta.seconds) * 1_000_000 + delta.microseconds


def micros_to_timestamp(micros: int) -> datetime.datetime:
    """Inverse of :func:`timestamp_to_micros`."""
    return EPOCH_DATETIME + datetime.timedelta(microseconds=int(micros))
