"""Vectors: the unit of data flow in the Vector Volcano execution model.

A :class:`Vector` is a typed, fixed-length column slice -- a NumPy array of
values plus a validity mask marking which entries are non-NULL.  Query
operators consume and produce vectors of at most :data:`VECTOR_SIZE` entries,
which amortizes interpretation overhead over many values exactly as the
paper's vectorized engine does.
"""

from __future__ import annotations

import datetime
from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

from ..errors import ConversionError, InternalError
from . import logical
from .dictionary import NULL_CODE, StringDictionary
from .logical import (
    BOOLEAN,
    DATE,
    DOUBLE,
    LogicalType,
    LogicalTypeId,
    SQLNULL,
    TIMESTAMP,
    VARCHAR,
    infer_type_of_value,
)

__all__ = ["VECTOR_SIZE", "Vector"]

#: Number of values per vector -- DuckDB's STANDARD_VECTOR_SIZE.
VECTOR_SIZE = 2048

#: ``datetime64`` views whose ``tolist()`` yields ``date`` / ``datetime``.
_DATETIME64_UNITS = {LogicalTypeId.DATE: "datetime64[D]",
                     LogicalTypeId.TIMESTAMP: "datetime64[us]"}
#: Physical values Python's ``date`` / ``datetime`` can represent.
_PYTHON_TEMPORAL_RANGES = {
    LogicalTypeId.DATE: (logical.date_to_days(datetime.date.min),
                         logical.date_to_days(datetime.date.max)),
    LogicalTypeId.TIMESTAMP: (
        logical.timestamp_to_micros(datetime.datetime.min),
        logical.timestamp_to_micros(datetime.datetime.max)),
}


def _coerce_scalar_for_storage(value: Any, dtype: LogicalType) -> Any:
    """Convert a Python value into the physical representation of ``dtype``."""
    type_id = dtype.id
    if type_id is LogicalTypeId.DATE:
        if isinstance(value, datetime.date) and not isinstance(value, datetime.datetime):
            return logical.date_to_days(value)
        if isinstance(value, (int, np.integer)):
            return int(value)
        raise ConversionError(f"Cannot store {value!r} in a DATE vector")
    if type_id is LogicalTypeId.TIMESTAMP:
        if isinstance(value, datetime.datetime):
            return logical.timestamp_to_micros(value)
        if isinstance(value, (int, np.integer)):
            return int(value)
        raise ConversionError(f"Cannot store {value!r} in a TIMESTAMP vector")
    if type_id is LogicalTypeId.VARCHAR:
        if isinstance(value, str):
            return value
        if isinstance(value, (bytes, bytearray)):
            return bytes(value).decode("utf-8")
        return str(value)
    if type_id is LogicalTypeId.BOOLEAN:
        return bool(value)
    if dtype.is_integer():
        as_int = int(value)
        low, high = dtype.integer_range()
        if not low <= as_int <= high:
            raise ConversionError(f"Value {as_int} out of range for {dtype}")
        return as_int
    if dtype.is_float():
        return float(value)
    if type_id is LogicalTypeId.SQLNULL:
        return False
    raise InternalError(f"Unhandled type in scalar coercion: {dtype}")


def _physical_to_python(value: Any, dtype: LogicalType) -> Any:
    """Convert a stored physical value back to the natural Python object."""
    type_id = dtype.id
    if type_id is LogicalTypeId.DATE:
        return logical.days_to_date(int(value))
    if type_id is LogicalTypeId.TIMESTAMP:
        return logical.micros_to_timestamp(int(value))
    if type_id is LogicalTypeId.VARCHAR:
        return str(value)
    if type_id is LogicalTypeId.BOOLEAN:
        return bool(value)
    if dtype.is_integer():
        return int(value)
    if dtype.is_float():
        return float(value)
    if type_id is LogicalTypeId.SQLNULL:
        return None
    raise InternalError(f"Unhandled type in python conversion: {dtype}")


def _infer_column_type(values: List[Any], kind: Optional[type]) -> LogicalType:
    """The common type of a column's non-NULL values (SQLNULL if none).

    ``kind`` is the column's one Python type, or None when it is mixed.
    """
    dtype = logical.NATIVE_TYPES.get(kind)
    if dtype is not None:
        return dtype
    if kind is int:
        # The extremes decide between INTEGER and BIGINT (or overflow).
        values = [value for value in values if value is not None]
        values = [min(values), max(values)]
    dtype = SQLNULL
    for value in values:
        if value is None:
            continue
        value_type = infer_type_of_value(value)
        unified = logical.common_type(dtype, value_type)
        if unified is None:
            raise ConversionError(
                f"Values of incompatible types {dtype} and {value_type} in one column"
            )
        dtype = unified
    return dtype


def _native_column(values: List[Any], kind: Optional[type], dtype: LogicalType,
                   has_null: bool) -> Optional[np.ndarray]:
    """``values`` -- all of exact type ``kind``, or None -- as the physical
    array of ``dtype`` in one NumPy call; None when ``dtype`` does not store
    ``kind`` directly or a value does not fit (the caller's per-value path
    converts, or raises naming the value)."""
    if kind is str and dtype.id is LogicalTypeId.VARCHAR:
        data = np.empty(len(values), dtype=object)  # all None
        data[:] = values
        return data
    if kind is bool and dtype.id is LogicalTypeId.BOOLEAN:
        physical = np.bool_
    elif kind is float and dtype.is_float():
        physical = np.float64
    elif kind is int and dtype.is_integer():
        physical = np.int64
    else:
        return None
    if has_null:
        values = [0 if value is None else value for value in values]
    try:
        data = np.asarray(values, dtype=physical)
    except OverflowError:  # an int beyond 64 bits
        return None
    if kind is int and len(data):
        low, high = dtype.integer_range()
        if data.min() < low or data.max() > high:
            return None
    return data.astype(dtype.numpy_dtype, copy=False)


def _concatenate(arrays: List[np.ndarray]) -> np.ndarray:
    """``np.concatenate(arrays)``, or one read-only view when they are
    read-only consecutive views of one 1-D base (a scan's unfiltered chunks
    of a column)."""
    base = arrays[0].base
    if isinstance(base, np.ndarray) and base.ndim == 1 \
            and base.dtype == arrays[0].dtype:
        start = end = arrays[0].__array_interface__["data"][0]
        for array in arrays:
            if array.base is not base or array.flags.writeable \
                    or not array.flags.c_contiguous \
                    or array.__array_interface__["data"][0] != end:
                break
            end += array.nbytes
        else:
            origin = base.__array_interface__["data"][0]
            view = base[(start - origin) // base.itemsize:
                        (end - origin) // base.itemsize]
            view.flags.writeable = False
            return view
    return np.concatenate(arrays)


class Vector:
    """A typed column slice: NumPy data plus a boolean validity mask.

    ``data`` and ``validity`` always have identical length; ``validity[i]``
    is True when row ``i`` holds a real value and False when it is NULL.
    The arrays are exposed directly (``vector.data``) for zero-copy transfer
    into client code, which is the transfer-efficiency story of the paper.

    A VARCHAR vector has two physical forms.  *Flat* is an object array of
    ``str`` (computed strings, CSV and client input).  *Coded* is ``int32``
    ``codes`` into a shared append-only :class:`StringDictionary` (what
    storage hands out): ``slice``/``copy``/``concat_many`` then move four
    bytes per row and never touch a string.  Reading ``.data`` turns a coded
    vector flat for good -- one ``entries[codes]`` gather -- so a kernel that
    knows nothing about codes sees an ordinary object array, may write into
    it, and can never leave stale codes behind.
    """

    __slots__ = ("dtype", "_data", "validity", "codes", "dictionary")

    def __init__(self, dtype: LogicalType, data: np.ndarray, validity: Optional[np.ndarray] = None):
        if validity is None:
            validity = np.ones(len(data), dtype=np.bool_)
        if len(validity) != len(data):
            raise InternalError(
                f"Vector data length {len(data)} != validity length {len(validity)}"
            )
        self.dtype = dtype
        self._data: Optional[np.ndarray] = data
        self.validity = validity
        #: ``int32`` dictionary codes while the vector is coded, else None.
        self.codes: Optional[np.ndarray] = None
        self.dictionary: Optional[StringDictionary] = None

    @classmethod
    def from_codes(cls, codes: np.ndarray, dictionary: StringDictionary,
                   validity: Optional[np.ndarray] = None) -> "Vector":
        """A coded VARCHAR vector; ``codes`` index ``dictionary``."""
        vector = cls(VARCHAR, codes, validity)
        vector._data = None
        vector.codes = codes
        vector.dictionary = dictionary
        return vector

    def flatten(self) -> np.ndarray:
        """The physical value array; a coded vector is decoded in place
        first (see above) -- one gather, every later call is free."""
        codes = self.codes
        if codes is not None:
            # ``_data`` is set before ``codes`` is cleared, so a concurrent
            # reader that still sees codes merely repeats the gather.
            self._data = self.dictionary.take(codes)
            self.codes = None
        return self._data

    data = property(flatten)

    def _flat(self) -> np.ndarray:
        """The value array without changing this vector's form."""
        codes = self.codes
        return self._data if codes is None else self.dictionary.take(codes)

    def encode_into(self, dictionary: StringDictionary) -> np.ndarray:
        """Re-express this VARCHAR vector as codes of ``dictionary``.

        Same values, NULL rows -- and ``None`` values, which become NULL --
        get code 0; returns the codes.  Storage calls this on the vectors it
        is handed so that whoever serializes the same chunk next (the WAL)
        finds codes instead of repeating the string pass.
        """
        codes = self.codes
        if codes is None:
            flat = self._data
            if not self.all_valid():
                flat = np.where(self.validity, flat, None)
            codes = dictionary.encode(flat)
            if not codes.all():
                # A ``None`` among the values encodes as NULL: it is NULL.
                self.validity = self.validity & (codes != NULL_CODE)
        else:
            if not self.all_valid():
                codes = np.where(self.validity, codes, 0)
            if self.dictionary is not dictionary:
                codes = dictionary.recode(codes, self.dictionary)
        self.dictionary = dictionary
        self.codes = codes
        self._data = None
        return codes

    # -- constructors ----------------------------------------------------
    @classmethod
    def empty(cls, dtype: LogicalType, count: int = 0) -> "Vector":
        """An all-NULL vector of ``count`` entries."""
        data = np.zeros(count, dtype=dtype.numpy_dtype)
        if dtype.id is LogicalTypeId.VARCHAR:
            data = np.empty(count, dtype=object)
            data[:] = None
        return cls(dtype, data, np.zeros(count, dtype=np.bool_))

    @classmethod
    def from_values(cls, values: Sequence[Any], dtype: Optional[LogicalType] = None) -> "Vector":
        """Build a vector from Python values, inferring the type if needed.

        ``None`` entries become NULLs.  When ``dtype`` is omitted, the common
        type of all non-NULL values is inferred; an all-NULL sequence yields
        a SQLNULL-typed vector.  A column holding one native Python type
        (plus ``None``) that ``dtype`` stores directly converts in one NumPy
        call; anything else takes the per-value path, which also raises the
        exact error for a value that does not fit.
        """
        values = list(values)
        count = len(values)
        kinds = set(map(type, values))
        has_null = type(None) in kinds
        kinds.discard(type(None))
        kind = kinds.pop() if len(kinds) == 1 else None
        if dtype is None:
            dtype = _infer_column_type(values, kind)
        validity = np.fromiter((value is not None for value in values),
                               np.bool_, count) if has_null \
            else np.ones(count, dtype=np.bool_)
        data = _native_column(values, kind, dtype, has_null)
        if data is None:
            if dtype.id is LogicalTypeId.VARCHAR:
                data = np.empty(count, dtype=object)
            else:
                data = np.zeros(count, dtype=dtype.numpy_dtype)
            for index, value in enumerate(values):
                if value is not None:
                    data[index] = _coerce_scalar_for_storage(value, dtype)
        return cls(dtype, data, validity)

    @classmethod
    def constant(cls, value: Any, count: int, dtype: Optional[LogicalType] = None) -> "Vector":
        """A vector holding ``count`` copies of one value (or NULL)."""
        if dtype is None:
            dtype = infer_type_of_value(value)
        if value is None:
            return cls.empty(dtype, count)
        stored = _coerce_scalar_for_storage(value, dtype)
        if dtype.id is LogicalTypeId.VARCHAR:
            data = np.empty(count, dtype=object)
            data[:] = stored
        else:
            data = np.full(count, stored, dtype=dtype.numpy_dtype)
        return cls(dtype, data, np.ones(count, dtype=np.bool_))

    @classmethod
    def from_numpy(cls, array: np.ndarray, dtype: LogicalType,
                   validity: Optional[np.ndarray] = None) -> "Vector":
        """Wrap an existing NumPy array without copying (zero-copy import)."""
        expected = dtype.numpy_dtype
        if array.dtype != expected:
            array = array.astype(expected)
        return cls(dtype, array, validity)

    # -- basic accessors ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.validity)

    @property
    def count(self) -> int:
        return len(self.validity)

    def get_value(self, index: int) -> Any:
        """The Python value at ``index`` (``None`` for NULL)."""
        if not self.validity[index]:
            return None
        codes = self.codes
        value = self._data[index] if codes is None \
            else self.dictionary.take(codes[index])
        return _physical_to_python(value, self.dtype)

    def set_value(self, index: int, value: Any) -> None:
        """Store a Python value (or ``None`` for NULL) at ``index``."""
        if value is None:
            self.validity[index] = False
            if self.dtype.id is LogicalTypeId.VARCHAR:
                self.data[index] = None
            return
        self.data[index] = _coerce_scalar_for_storage(value, self.dtype)
        self.validity[index] = True

    def to_pylist(self) -> List[Any]:
        """Materialize the vector as a list of Python values.

        One pass per column, not one call per value: NumPy converts the
        physical array (as ``datetime64`` for DATE/TIMESTAMP, after one
        ``entries[codes]`` gather for a coded VARCHAR) with ``None``
        written at the NULL positions.  Equal to :meth:`get_value` at every
        index, value and Python type.
        """
        type_id = self.dtype.id
        if type_id is LogicalTypeId.SQLNULL:
            return [None] * len(self)
        data = self._flat()
        unit = _DATETIME64_UNITS.get(type_id)
        if unit is not None:
            valid = data[self.validity]
            low, high = _PYTHON_TEMPORAL_RANGES[type_id]
            if len(valid) and not (low <= valid.min() and valid.max() <= high):
                # tolist() would hand out bare integers for these; the scalar
                # conversion raises its OverflowError for the first one.
                _physical_to_python(valid[(valid < low) | (valid > high)][0],
                                    self.dtype)
            data = data.astype(unit)
        if not self.all_valid():
            data = data.astype(object)  # a copy: the vector keeps its values
            data[~self.validity] = None
        return data.tolist()  # quacklint: disable=QLZ002 -- Python objects are this method's contract; one tolist() per column is the bulk way to make them

    def null_count(self) -> int:
        return int(len(self) - np.count_nonzero(self.validity))

    def all_valid(self) -> bool:
        return bool(self.validity.all()) if len(self) else True

    # -- transformations --------------------------------------------------
    def slice(self, selection: np.ndarray) -> "Vector":
        """A new vector containing the rows selected by index array or mask."""
        codes = self.codes
        if codes is not None:
            return Vector.from_codes(codes[selection], self.dictionary,
                                     self.validity[selection])
        return Vector(self.dtype, self._data[selection], self.validity[selection])

    def copy(self) -> "Vector":
        """The same values in writable arrays of its own."""
        codes = self.codes
        validity = self.validity.copy()  # quacklint: disable=QLZ001 -- a private copy is this method's contract
        if codes is not None:
            return Vector.from_codes(codes.copy(), self.dictionary, validity)  # quacklint: disable=QLZ001 -- a private copy is this method's contract
        return Vector(self.dtype, self._data.copy(), validity)  # quacklint: disable=QLZ001 -- a private copy is this method's contract

    def concat(self, other: "Vector") -> "Vector":
        """This vector followed by ``other`` (types must match)."""
        return Vector.concat_many([self, other])

    @classmethod
    def concat_many(cls, vectors: Iterable["Vector"]) -> "Vector":
        """Concatenate a non-empty sequence of same-typed vectors."""
        vectors = list(vectors)
        if not vectors:
            raise InternalError("concat_many of zero vectors")
        dtype = vectors[0].dtype
        for vector in vectors[1:]:
            if vector.dtype != dtype:
                raise InternalError(f"concat_many of {dtype} with {vector.dtype}")
        validity = _concatenate([vector.validity for vector in vectors])
        dictionary = vectors[0].dictionary
        if all(vector.codes is not None and vector.dictionary is dictionary
               for vector in vectors):
            # One shared dictionary: only the codes move.
            return cls.from_codes(
                _concatenate([vector.codes for vector in vectors]),
                dictionary, validity)
        return cls(dtype, _concatenate([vector._flat() for vector in vectors]),
                   validity)

    def nbytes(self) -> int:
        """Approximate memory footprint in bytes.

        String payloads are *estimated* from a sample: this is accounting
        input for the buffer manager, called on every buffered chunk, so a
        full pass over every string would cost more than it protects.
        """
        if self.dtype.id is LogicalTypeId.VARCHAR:
            # The same estimate in either form, so buffer accounting (and
            # with it compression and spill decisions) does not depend on
            # whether a vector happens to be coded.
            count = len(self)
            codes = self.codes
            values = self._data if codes is None else codes
            if count > 64:
                values = values[::max(count // 64, 1)][:64]
            if codes is not None:
                values = self.dictionary.take(values)
            sampled = [len(value) for value in values if value is not None]
            if count <= 64:
                payload = sum(sampled)
            else:
                average = (sum(sampled) / len(sampled)) if sampled else 0
                payload = int(average * count)
            return payload + count * 8 + self.validity.nbytes
        return self._data.nbytes + self.validity.nbytes

    def __repr__(self) -> str:
        preview = self.slice(slice(0, 8)).to_pylist()
        suffix = ", ..." if len(self) > 8 else ""
        return f"Vector({self.dtype}, {len(self)} values: {preview}{suffix})"
