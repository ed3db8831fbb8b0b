"""Scalar function registry with vectorized NumPy implementations.

Each function consumes whole :class:`~repro.types.vector.Vector` arguments
and produces a vector -- per the paper's vectorized execution model, the
interpretation overhead of a function call is paid once per 2048 values,
not once per value.

The registry maps a lower-case name to a :class:`ScalarFunction` that knows
how to (a) resolve a return type from argument types at bind time, and
(b) execute over vectors at run time.  NULL handling defaults to SQL
semantics: any NULL argument yields NULL (``NULL_PROPAGATE``), except for
functions registered with ``NULL_CUSTOM`` that define their own behaviour
(``coalesce``, ``concat``, ...).  The kernel conformance harness checks
each kernel against the contract it declares here.
"""

from __future__ import annotations

import math
import re
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..errors import BinderError, ConversionError
from ..types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    LogicalType,
    LogicalTypeId,
    SQLNULL,
    TIMESTAMP,
    VARCHAR,
    Vector,
    cast_vector,
    common_type,
)

__all__ = ["ScalarFunction", "SCALAR_FUNCTIONS", "lookup_scalar_function",
           "like_to_regex", "NULL_PROPAGATE", "NULL_CUSTOM"]

#: NULL contracts a kernel declares.  ``propagate``: a NULL in any argument
#: lane yields a NULL output lane (extra NULLs for domain errors such as
#: ``sqrt(-1)`` are allowed).  ``custom``: the kernel defines its own NULL
#: semantics, so NULL in does not imply NULL out.
NULL_PROPAGATE = "propagate"
NULL_CUSTOM = "custom"


def like_to_regex(pattern: str, escape: Optional[str] = None) -> str:
    """Translate a SQL LIKE pattern into a Python regex source string.

    ``%`` matches any sequence, ``_`` any single character.  With an ESCAPE
    character, ``<escape>%`` / ``<escape>_`` / ``<escape><escape>`` match
    the literal character instead.  The standard requires the escape to be a
    single character and forbids a pattern ending in a dangling escape.
    """
    from ..errors import InvalidInputError

    if escape is not None and len(escape) != 1:
        raise InvalidInputError(
            f"LIKE ESCAPE must be a single character, got {escape!r}")
    parts = []
    index = 0
    while index < len(pattern):
        char = pattern[index]
        if escape is not None and char == escape:
            if index + 1 >= len(pattern):
                raise InvalidInputError(
                    f"LIKE pattern {pattern!r} ends with escape character")
            parts.append(re.escape(pattern[index + 1]))
            index += 2
            continue
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
        index += 1
    return "".join(parts) + r"\Z"


class ScalarFunction:
    """One scalar function: bind-time typing plus a vectorized kernel."""

    def __init__(self, name: str, bind: Callable, execute: Callable,
                 null_contract: str = NULL_PROPAGATE) -> None:
        self.name = name
        #: bind(arg_types) -> (return_type, coerced_arg_types)
        self.bind = bind
        #: execute(vectors, count) -> Vector
        self.execute = execute
        #: NULL_PROPAGATE or NULL_CUSTOM.
        self.null_contract = null_contract

    def __repr__(self) -> str:
        return f"ScalarFunction({self.name})"


def _require_args(name: str, arg_types: Sequence[LogicalType], low: int,
                  high: Optional[int] = None) -> None:
    high = low if high is None else high
    if not low <= len(arg_types) <= high:
        expected = str(low) if low == high else f"{low}-{high}"
        raise BinderError(f"{name}() expects {expected} argument(s), "
                          f"got {len(arg_types)}")


def _propagate_validity(vectors: Sequence[Vector]) -> np.ndarray:
    validity = vectors[0].validity.copy()
    for vector in vectors[1:]:
        validity &= vector.validity
    return validity


# -- numeric functions -------------------------------------------------------

def _bind_numeric_unary(name: str, result: Optional[LogicalType] = None):
    def bind(arg_types):
        _require_args(name, arg_types, 1)
        arg = arg_types[0]
        if arg.id is LogicalTypeId.SQLNULL:
            arg = DOUBLE
        if not arg.is_numeric():
            raise BinderError(f"{name}() requires a numeric argument, got {arg}")
        return (result or arg), [arg]
    return bind


def _numeric_unary_kernel(operation: Callable, result_dtype=None):
    def execute(vectors, count):
        source = vectors[0]
        with np.errstate(all="ignore"):
            data = operation(source.data)
        if result_dtype is not None:
            data = data.astype(result_dtype.numpy_dtype)
        out_type = result_dtype or source.dtype
        validity = source.validity.copy()
        if data.dtype.kind == "f":
            validity &= np.isfinite(np.where(validity, data, 0.0))
            data = np.where(validity, data, 0.0).astype(data.dtype)
        return Vector(out_type, data, validity)
    return execute


def _bind_double_unary(name: str):
    def bind(arg_types):
        _require_args(name, arg_types, 1)
        arg = arg_types[0]
        if not (arg.is_numeric() or arg.id is LogicalTypeId.SQLNULL):
            raise BinderError(f"{name}() requires a numeric argument, got {arg}")
        return DOUBLE, [DOUBLE]
    return bind


def _round_bind(arg_types):
    _require_args("round", arg_types, 1, 2)
    coerced = [DOUBLE] + ([INTEGER] if len(arg_types) == 2 else [])
    return DOUBLE, coerced


def _round_execute(vectors, count):
    """round(x[, digits]) with per-row digits and full NULL propagation.

    A NULL in either argument yields NULL; masked-out lanes never reach
    ``np.round`` (garbage independence).
    """
    source = vectors[0]
    validity = _propagate_validity(vectors)
    data = np.zeros(count, dtype=np.float64)
    if len(vectors) == 2:
        digits_vector = vectors[1]
        # Digits vary per row; one bulk np.round per distinct digit count
        # (almost always exactly one -- the literal-digits case).
        safe_digits = np.where(digits_vector.validity,
                               digits_vector.data, 0).astype(np.int64)
        for digits in np.unique(safe_digits[validity]):
            lanes = validity & (safe_digits == digits)
            data[lanes] = np.round(source.data[lanes], int(digits))
    else:
        data[validity] = np.round(source.data[validity])
    return Vector(DOUBLE, data, validity)


# -- string functions --------------------------------------------------------

def _bind_string_unary(name: str, result: LogicalType = VARCHAR):
    def bind(arg_types):
        _require_args(name, arg_types, 1)
        return result, [VARCHAR]
    return bind


def _string_map_kernel(mapper: Callable, result: LogicalType = VARCHAR):
    """Apply a per-string Python function to valid entries only.

    ``np.frompyfunc`` lifts the mapper to an object-array ufunc, so the
    kernel is a single masked bulk call rather than a Python-level loop.
    """
    ufunc = np.frompyfunc(mapper, 1, 1)
    def execute(vectors, count):
        source = vectors[0]
        validity = source.validity.copy()
        if result.id is LogicalTypeId.VARCHAR:
            data = np.empty(count, dtype=object)
            data[validity] = ufunc(source.data[validity])
        else:
            data = np.zeros(count, dtype=result.numpy_dtype)
            data[validity] = ufunc(source.data[validity]).astype(result.numpy_dtype)
        return Vector(result, data, validity)
    return execute


def _substr_bind(arg_types):
    _require_args("substr", arg_types, 2, 3)
    coerced = [VARCHAR, BIGINT] + ([BIGINT] if len(arg_types) == 3 else [])
    return VARCHAR, coerced


def _substr_execute(vectors, count):
    """SQL substr: 1-based start, optional length."""
    text, start = vectors[0], vectors[1]
    length = vectors[2] if len(vectors) == 3 else None
    validity = _propagate_validity(vectors)
    data = np.empty(count, dtype=object)
    # Per-row slice bounds (clamped, optional length) have no NumPy bulk
    # primitive for object arrays.
    for index in range(count):  # quacklint: disable=QLV001
        if not validity[index]:
            continue
        value = text.data[index]
        begin = int(start.data[index])
        # SQL semantics: position 1 is the first character; 0/negative clamp.
        zero_based = max(begin - 1, 0)
        if length is not None:
            data[index] = value[zero_based:zero_based + max(int(length.data[index]), 0)]
        else:
            data[index] = value[zero_based:]
    return Vector(VARCHAR, data, validity)


_replace_ufunc = np.frompyfunc(str.replace, 3, 1)


def _replace_execute(vectors, count):
    validity = _propagate_validity(vectors)
    data = np.empty(count, dtype=object)
    data[validity] = _replace_ufunc(vectors[0].data[validity],
                                    vectors[1].data[validity],
                                    vectors[2].data[validity])
    return Vector(VARCHAR, data, validity)


def _concat_bind(arg_types):
    if not arg_types:
        raise BinderError("concat() expects at least one argument")
    return VARCHAR, [VARCHAR] * len(arg_types)


def _concat_execute(vectors, count):
    """SQL concat: NULL arguments are treated as empty strings.

    One masked object-array "+" per argument replaces the per-row join:
    the loop runs once per argument, not once per value.
    """
    data = np.full(count, "", dtype=object)
    for vector in vectors:
        valid = vector.validity
        data[valid] = data[valid] + vector.data[valid]
    return Vector(VARCHAR, data, np.ones(count, dtype=np.bool_))


_contains_ufunc = np.frompyfunc(lambda haystack, needle: needle in haystack, 2, 1)
_starts_with_ufunc = np.frompyfunc(str.startswith, 2, 1)


def _contains_execute(vectors, count):
    validity = _propagate_validity(vectors)
    data = np.zeros(count, dtype=np.bool_)
    data[validity] = _contains_ufunc(
        vectors[0].data[validity], vectors[1].data[validity]).astype(np.bool_)
    return Vector(BOOLEAN, data, validity)


def _starts_with_execute(vectors, count):
    validity = _propagate_validity(vectors)
    data = np.zeros(count, dtype=np.bool_)
    data[validity] = _starts_with_ufunc(
        vectors[0].data[validity], vectors[1].data[validity]).astype(np.bool_)
    return Vector(BOOLEAN, data, validity)


# -- conditional functions ------------------------------------------------------

def _coalesce_bind(arg_types):
    if not arg_types:
        raise BinderError("coalesce() expects at least one argument")
    unified = SQLNULL
    for arg in arg_types:
        result = common_type(unified, arg)
        if result is None:
            raise BinderError(
                f"coalesce() arguments have incompatible types {unified} and {arg}"
            )
        unified = result
    if unified.id is LogicalTypeId.SQLNULL:
        unified = INTEGER
    return unified, [unified] * len(arg_types)


def _coalesce_execute(vectors, count):
    result = vectors[0].copy()
    for vector in vectors[1:]:
        missing = ~result.validity
        if not missing.any():
            break
        take = missing & vector.validity
        result.data[take] = vector.data[take]
        result.validity[take] = True
    return result


def _nullif_bind(arg_types):
    _require_args("nullif", arg_types, 2)
    unified = common_type(arg_types[0], arg_types[1])
    if unified is None:
        raise BinderError("nullif() arguments have incompatible types")
    return unified, [unified, unified]


def _nullif_execute(vectors, count):
    result = vectors[0].copy()
    both_valid = vectors[0].validity & vectors[1].validity
    equal = np.zeros(count, dtype=np.bool_)
    # "==" is elementwise on object (string) arrays too, so one masked
    # comparison covers every type.
    equal[both_valid] = vectors[0].data[both_valid] == vectors[1].data[both_valid]
    result.validity[equal] = False
    return result


def _greatest_least_bind(name):
    def bind(arg_types):
        if len(arg_types) < 2:
            raise BinderError(f"{name}() expects at least two arguments")
        unified = arg_types[0]
        for arg in arg_types[1:]:
            result = common_type(unified, arg)
            if result is None:
                raise BinderError(f"{name}() arguments have incompatible types")
            unified = result
        return unified, [unified] * len(arg_types)
    return bind


def _greatest_least_execute(pick):
    def execute(vectors, count):
        validity = _propagate_validity(vectors)
        if vectors[0].dtype.id is LogicalTypeId.VARCHAR:
            # NULL slots of an object vector hold None, which str comparison
            # rejects; blank them out (they are masked by validity anyway)
            # so the stacked reduction below works for strings too.
            columns = [np.where(vector.validity, vector.data, "")
                       for vector in vectors]
        else:
            columns = [vector.data for vector in vectors]
        data = pick(np.stack(columns), axis=0)
        return Vector(vectors[0].dtype, data, validity)
    return execute


# -- temporal functions -----------------------------------------------------------

def _bind_date_part(name):
    def bind(arg_types):
        _require_args(name, arg_types, 1)
        arg = arg_types[0]
        if arg.id is LogicalTypeId.VARCHAR or arg.id is LogicalTypeId.SQLNULL:
            arg = DATE
        if not arg.is_temporal():
            raise BinderError(f"{name}() requires a DATE or TIMESTAMP, got {arg}")
        return INTEGER, [arg]
    return bind


def _date_part_execute(part: str):
    def execute(vectors, count):
        source = vectors[0]
        validity = source.validity.copy()
        if source.dtype.id is LogicalTypeId.TIMESTAMP:
            days = np.floor_divide(source.data, 86_400_000_000).astype(np.int64)
        else:
            days = source.data.astype(np.int64, copy=False)
        # Civil-date decomposition (Howard Hinnant's algorithm), vectorized.
        z = days + 719_468
        era = np.floor_divide(z, 146_097)
        doe = z - era * 146_097
        yoe = np.floor_divide(doe - np.floor_divide(doe, 1460)
                              + np.floor_divide(doe, 36_524)
                              - np.floor_divide(doe, 146_096), 365)
        year = yoe + era * 400
        doy = doe - (365 * yoe + np.floor_divide(yoe, 4) - np.floor_divide(yoe, 100))
        mp = np.floor_divide(5 * doy + 2, 153)
        day = doy - np.floor_divide(153 * mp + 2, 5) + 1
        month = np.where(mp < 10, mp + 3, mp - 9)
        year = np.where(month <= 2, year + 1, year)
        values = {"year": year, "month": month, "day": day}[part]
        return Vector(INTEGER, values.astype(np.int32), validity)
    return execute


# -- registry ----------------------------------------------------------------------

SCALAR_FUNCTIONS = {}


def _register(name: str, bind: Callable, execute: Callable,
              null_contract: str = NULL_PROPAGATE) -> None:
    SCALAR_FUNCTIONS[name] = ScalarFunction(name, bind, execute,
                                            null_contract)


_register("abs", _bind_numeric_unary("abs"), _numeric_unary_kernel(np.abs))
_register("sign", _bind_numeric_unary("sign", INTEGER),
          _numeric_unary_kernel(lambda data: np.sign(data), INTEGER))
_register("floor", _bind_double_unary("floor"), _numeric_unary_kernel(np.floor))
_register("ceil", _bind_double_unary("ceil"), _numeric_unary_kernel(np.ceil))
_register("ceiling", _bind_double_unary("ceiling"), _numeric_unary_kernel(np.ceil))
_register("sqrt", _bind_double_unary("sqrt"), _numeric_unary_kernel(np.sqrt))
_register("ln", _bind_double_unary("ln"), _numeric_unary_kernel(np.log))
_register("log", _bind_double_unary("log"), _numeric_unary_kernel(np.log10))
_register("log2", _bind_double_unary("log2"), _numeric_unary_kernel(np.log2))
_register("exp", _bind_double_unary("exp"), _numeric_unary_kernel(np.exp))
_register("round", _round_bind, _round_execute)


def _pow_bind(arg_types):
    _require_args("pow", arg_types, 2)
    return DOUBLE, [DOUBLE, DOUBLE]


def _pow_execute(vectors, count):
    validity = _propagate_validity(vectors)
    with np.errstate(all="ignore"):
        data = np.power(vectors[0].data, vectors[1].data)
    validity &= np.isfinite(np.where(validity, data, 0.0))
    return Vector(DOUBLE, np.where(validity, data, 0.0), validity)


_register("pow", _pow_bind, _pow_execute)
_register("power", _pow_bind, _pow_execute)

_register("length", _bind_string_unary("length", INTEGER),
          _string_map_kernel(len, INTEGER))
_register("lower", _bind_string_unary("lower"), _string_map_kernel(str.lower))
_register("upper", _bind_string_unary("upper"), _string_map_kernel(str.upper))
_register("trim", _bind_string_unary("trim"), _string_map_kernel(str.strip))
_register("ltrim", _bind_string_unary("ltrim"), _string_map_kernel(str.lstrip))
_register("rtrim", _bind_string_unary("rtrim"), _string_map_kernel(str.rstrip))
_register("reverse", _bind_string_unary("reverse"),
          _string_map_kernel(lambda value: value[::-1]))
_register("substr", _substr_bind, _substr_execute)
_register("substring", _substr_bind, _substr_execute)


def _replace_bind(arg_types):
    _require_args("replace", arg_types, 3)
    return VARCHAR, [VARCHAR, VARCHAR, VARCHAR]


_register("replace", _replace_bind, _replace_execute)
_register("concat", _concat_bind, _concat_execute, NULL_CUSTOM)


def _two_string_bind(name):
    def bind(arg_types):
        _require_args(name, arg_types, 2)
        return BOOLEAN, [VARCHAR, VARCHAR]
    return bind


_register("contains", _two_string_bind("contains"), _contains_execute)
_register("starts_with", _two_string_bind("starts_with"), _starts_with_execute)

_register("coalesce", _coalesce_bind, _coalesce_execute, NULL_CUSTOM)
_register("ifnull", _coalesce_bind, _coalesce_execute, NULL_CUSTOM)
_register("nullif", _nullif_bind, _nullif_execute, NULL_CUSTOM)
_register("greatest", _greatest_least_bind("greatest"),
          _greatest_least_execute(np.max))
_register("least", _greatest_least_bind("least"), _greatest_least_execute(np.min))

_register("year", _bind_date_part("year"), _date_part_execute("year"))
_register("month", _bind_date_part("month"), _date_part_execute("month"))
_register("day", _bind_date_part("day"), _date_part_execute("day"))


def lookup_scalar_function(name: str) -> Optional[ScalarFunction]:
    return SCALAR_FUNCTIONS.get(name.lower())
