"""Parameter normalization and cache keying, shared by every client path.

``Cursor.execute``, ``Connection.execute``, ``executemany``, and
``PreparedStatement`` all accept the same two paramstyles -- qmark
(``?`` bound from a sequence) and named (``:name`` bound from a mapping)
-- and all funnel through :func:`normalize_parameters` so the binder and
the caches see one canonical shape.  :func:`parameter_batches` splits an
``executemany``'s sets into runs of same-typed sets that one plan serves,
and :func:`batch_runs` decides what each run of that plan receives -- whole
parameter *columns* for a plain ``INSERT ... VALUES``, one set at a time
otherwise.

The two fingerprint functions are what keep parameters from defeating the
caches: the *type* fingerprint keys the plan cache (one plan per SQL text
and parameter-type signature, reused across values), while the *value*
fingerprint keys the result cache (a result is only valid for exact
values).  Types are fingerprinted with the same
:func:`~repro.types.infer_type_of_value` the binder uses, so an ``int``
that infers to a wider type binds its own plan instead of overflowing a
cached cast.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import (
    Any,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import InvalidInputError
from ..sql import ast
from ..types import (
    BIGINT,
    INTEGER,
    SQLNULL,
    LogicalType,
    Vector,
    infer_type_of_value,
)
from ..types.logical import NATIVE_TYPES

__all__ = ["normalize_parameters", "type_fingerprint", "value_fingerprint",
           "parameter_batches", "same_values", "batch_runs"]

Parameters = Union[Tuple[Any, ...], dict, None]


def normalize_parameters(parameters: Any) -> Parameters:
    """Canonicalize user-supplied parameters to a tuple, a dict, or None."""
    if parameters is None or type(parameters) is tuple:
        return parameters
    if isinstance(parameters, Mapping):
        out = {}
        for key in parameters:
            if not isinstance(key, str):
                raise InvalidInputError(
                    "Named parameters must be keyed by strings, got "
                    f"{key!r}")
            out[key] = parameters[key]
        return out
    if isinstance(parameters, (str, bytes)):
        raise InvalidInputError(
            "Parameters must be a sequence or a mapping, not a string")
    try:
        return tuple(parameters)
    except TypeError:
        raise InvalidInputError(
            f"Parameters must be a sequence or a mapping, got "
            f"{type(parameters).__name__}") from None


def parameter_batches(parameter_sets: Sequence[Parameters],
                      ) -> Iterator[Tuple[Parameters, "_Run"]]:
    """One ``(sample, run)`` per run of sets one plan serves (see
    :func:`_type_runs`).  ``sample`` holds each marker's first non-NULL
    value in the run, so binding it types every marker as the whole run
    does, and its type fingerprint keys the run's plan."""
    for run in _type_runs(parameter_sets) if parameter_sets else ():
        keys, _, columns, _ = run
        sample = [next((value for value in column if value is not None),
                       None) for column in columns]
        yield _shaped(keys, sample), run


def same_values(first: Parameters, second: Parameters) -> bool:
    """True when two parameter sets of one run hold the very same value
    objects -- a set and its run's ``sample`` do when the set has no NULL."""
    if isinstance(first, dict):
        return isinstance(second, dict) and first.keys() == second.keys() \
            and all(first[key] is second[key] for key in first)
    return isinstance(first, tuple) and isinstance(second, tuple) \
        and len(first) == len(second) \
        and all(one is other for one, other in zip(first, second))


def batch_runs(statement: ast.Statement, run: "_Run",
               ) -> List[Tuple[Parameters, Optional[int]]]:
    """What each execution of a run's one plan receives: ``(parameters,
    rows)``.  ``INSERT ... VALUES (<one row>)`` without a subquery (which
    must see earlier sets' rows) runs once over one
    :class:`~repro.types.Vector` per marker, ``rows`` long, and appends one
    chunk; everything else runs once per set (``rows`` None)."""
    keys, types, columns, sets = run
    if not (isinstance(statement, ast.InsertStatement)
            and statement.values is not None and len(statement.values) == 1
            and not _has_subquery(statement.values)):
        return [(parameters, None) for parameters in sets]
    return [(_shaped(keys, [Vector.from_values(column, dtype or SQLNULL)
                            for column, dtype in zip(columns, types)]),
             len(sets))]


def _shaped(keys: Optional[Tuple[str, ...]], values: List[Any]) -> Parameters:
    """``values`` in the paramstyle of ``keys`` (None: qmark)."""
    return tuple(values) if keys is None else dict(zip(keys, values))


def _has_subquery(node: Any) -> bool:
    """True when an expression tree (or a list of them) holds a statement."""
    if isinstance(node, (list, tuple)):
        return any(map(_has_subquery, node))
    if isinstance(node, ast.Expression):
        return any(_has_subquery(getattr(node, name))
                   for name in type(node).__slots__)
    return isinstance(node, ast.Statement)


_Run = Tuple[Optional[Tuple[str, ...]], List[Optional[LogicalType]],
             List[Tuple[Any, ...]], Sequence[Parameters]]


def _type_runs(sets: Sequence[Parameters]) -> Iterator[_Run]:
    """Split ``sets`` into maximal runs of consecutive sets one binding can
    serve, each as ``(keys or None for qmark, per-position types, the run's
    values transposed into columns, its sets)``.

    Sets agree when they have the same shape (length, or keys in order) and
    each position infers to the same type.  NULL agrees with anything (its
    type is None until a value fills it in); INTEGER and BIGINT do not
    agree, nor int and float -- widening would change what an expression
    over the parameter computes relative to running the set alone.
    """
    # The common case -- one binding serves them all -- is decided per
    # column, with no Python-level work per value.
    whole = _transpose(sets)
    if whole is not None:
        column_types = [_column_type(column) for column in whole[1]]
        if _MIXED not in column_types:
            yield whole[0], column_types, whole[1], sets
            return
    run: List[Parameters] = []
    keys: Optional[Tuple[str, ...]] = None
    types: List[Optional[LogicalType]] = []
    for parameters in sets:
        named = isinstance(parameters, dict)
        values = parameters.values() if named else parameters
        shape = tuple(parameters) if named else None
        found = [None if value is None else infer_type_of_value(value)
                 for value in values]
        if run and shape == keys and len(found) == len(types) and all(
                old is None or new is None or old == new
                for old, new in zip(types, found)):
            types = [old or new for old, new in zip(types, found)]
        else:
            if run:
                yield keys, types, _transpose(run)[1], run
            run, keys, types = [], shape, found
        run.append(parameters)
    yield keys, types, _transpose(run)[1], run


def _transpose(sets: Sequence[Parameters]) -> Optional[
        Tuple[Optional[Tuple[str, ...]], List[Tuple[Any, ...]]]]:
    """``(keys or None, one tuple of values per position)`` of same-shaped
    sets; None when their shapes differ."""
    if isinstance(sets[0], dict):
        keys = tuple(sets[0])
        if any(not isinstance(parameters, dict) or tuple(parameters) != keys
               for parameters in sets):
            return None
        return keys, list(zip(*(parameters.values() for parameters in sets)))
    if set(map(type, sets)) != {tuple} or len(set(map(len, sets))) != 1:
        return None
    return None, list(zip(*sets))


_MIXED = object()


def _column_type(column: Tuple[Any, ...]) -> Any:
    """The one type every non-NULL value of ``column`` infers to (None when
    all are NULL), or ``_MIXED`` when they differ or only
    :func:`infer_type_of_value` can tell."""
    kinds = set(map(type, column))
    kinds.discard(type(None))
    if len(kinds) != 1:
        return _MIXED if kinds else None
    kind = kinds.pop()
    if kind is not int:
        return NATIVE_TYPES.get(kind, _MIXED)
    try:
        values = np.asarray([value for value in column if value is not None],
                            dtype=np.int64)
    except OverflowError:  # beyond BIGINT: the per-value path names it
        return _MIXED
    low, high = INTEGER.integer_range()
    small = (values >= low) & (values <= high)
    return INTEGER if small.all() else _MIXED if small.any() else BIGINT


def type_fingerprint(parameters: Parameters) -> Optional[Tuple]:
    """Hashable signature of the parameter *types* (plan-cache key part).

    None means "unfingerprintable" (a value the engine cannot type) --
    callers skip the cache and let the ordinary bind path raise.
    """
    try:
        if parameters is None:
            return ()
        if isinstance(parameters, dict):
            return ("map",) + tuple(sorted(
                (key, infer_type_of_value(value).id.name)
                for key, value in parameters.items()))
        return ("seq",) + tuple(infer_type_of_value(value).id.name
                                for value in parameters)
    except Exception:  # quacklint: disable=QLE001 -- untypeable value means "skip the cache"; the bind path raises the real error
        return None


def value_fingerprint(parameters: Parameters) -> Optional[Tuple]:
    """Hashable signature of the parameter *values* (result-cache key part)."""
    try:
        if parameters is None:
            return ()
        if isinstance(parameters, dict):
            fingerprint: Tuple = ("map",) + tuple(sorted(
                (key, _value_key(value)) for key, value in parameters.items()))
        else:
            fingerprint = ("seq",) + tuple(_value_key(value)
                                           for value in parameters)
        hash(fingerprint)
        return fingerprint
    except TypeError:
        return None


def _value_key(value: Any) -> Tuple[str, Any]:
    # Type-tag each value so 1, 1.0, and True key distinct entries.
    return (type(value).__name__, value)
