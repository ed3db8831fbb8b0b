"""Logical type system, vectors, and data chunks.

This package defines the data representation shared by every layer of the
engine: logical SQL types mapped onto NumPy physical types, typed
:class:`Vector` column slices with validity masks, and :class:`DataChunk`
horizontal slices that flow through the Vector Volcano execution model and
across the zero-copy client API.
"""

from .logical import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    FLOAT,
    INTEGER,
    SMALLINT,
    SQLNULL,
    TIMESTAMP,
    TINYINT,
    VARCHAR,
    LogicalType,
    LogicalTypeId,
    common_type,
    infer_type_of_value,
    type_from_string,
)
from .dictionary import StringDictionary
from .vector import VECTOR_SIZE, Vector
from .chunk import DataChunk
from .casts import cast_scalar, cast_vector

__all__ = [
    "LogicalType",
    "LogicalTypeId",
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
    "Vector",
    "StringDictionary",
    "DataChunk",
    "VECTOR_SIZE",
    "cast_vector",
    "cast_scalar",
    "common_type",
    "infer_type_of_value",
    "type_from_string",
]
