"""Parameter normalization and cache keying, shared by every client path.

``Cursor.execute``, ``Connection.execute``, ``executemany``, and
``PreparedStatement`` all accept the same two paramstyles -- qmark
(``?`` bound from a sequence) and named (``:name`` bound from a mapping)
-- and all funnel through :func:`normalize_parameters` so the binder and
the caches see one canonical shape; :func:`execute_each` is the loop every
``executemany`` shares.

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

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..errors import InvalidInputError
from ..types import infer_type_of_value

if TYPE_CHECKING:
    from .result import QueryResult

__all__ = ["normalize_parameters", "type_fingerprint", "value_fingerprint",
           "execute_each"]

Parameters = Union[Tuple[Any, ...], dict, None]


def normalize_parameters(parameters: Any) -> Parameters:
    """Canonicalize user-supplied parameters to a tuple, a dict, or None."""
    if parameters is None:
        return None
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


def execute_each(execute: Callable[[Any], "QueryResult"],
                 parameter_sets: Iterable[Any]) -> "QueryResult":
    """The one ``executemany`` loop: run ``execute`` once per parameter set,
    closing every result but the last, which is returned."""
    result: Optional["QueryResult"] = None
    for parameters in parameter_sets:
        if result is not None:
            result.close()
        result = execute(parameters)
    if result is None:
        raise InvalidInputError("executemany() with no parameter sets")
    return result


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
