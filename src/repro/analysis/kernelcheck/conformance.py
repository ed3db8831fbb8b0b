"""Runtime conformance harness: does each kernel honour its declared contract?

The inventory is the live registries: every scalar function in
``SCALAR_FUNCTIONS`` (each declares its NULL contract where it is
registered), every aggregate in ``AGGREGATE_NAMES`` (all skip NULLs), and
every operator ``ExpressionExecutor`` evaluates (:data:`OPERATORS`; the
ones with their own NULL semantics are :data:`CUSTOM_NULL_OPERATORS`).
The harness fuzzes each kernel with NULL-heavy, empty, and extreme vectors:

* garbage independence -- two runs differing only in the poison planted at
  masked-out lanes must agree on every valid output lane (a kernel that
  computes on masked garbage and leaks it through ``np.where`` fails here);
* NULL propagation -- for ``propagate`` kernels, a NULL in any argument
  lane must yield NULL in that output lane (extra NULLs are allowed);
* input immutability -- kernels never write into their argument arrays;
* dtype conformance -- the produced array dtype is convertible to the
  declared LogicalType;
* shape -- empty vectors round-trip without crashing, lengths match; and
* representation independence -- a kernel that accepts VARCHAR is run again
  on dictionary-coded twins of its inputs (what storage hands out) and must
  produce the same output as on the flat object arrays.

Aggregates are additionally checked for skip-NULL semantics: the result
over the full input must equal the result over the input with NULL rows
physically removed.
"""

# quacklint: disable-file=QLE001 -- the harness fuzzes kernels with hostile
# inputs; a raised exception IS the finding (reported as a ConformanceIssue),
# so broad handlers here convert failures into results by design.

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...functions.aggregate import AGGREGATE_NAMES
from ...functions.scalar import NULL_CUSTOM, NULL_PROPAGATE, SCALAR_FUNCTIONS
from ..rules.kernels import dtype_convertible

__all__ = ["ConformanceIssue", "KernelContract", "OPERATORS",
           "CUSTOM_NULL_OPERATORS", "NULL_SKIP", "kernel_contracts",
           "run_conformance"]

#: Aggregate NULL contract: NULL input rows never contribute to a group.
NULL_SKIP = "skip-nulls"

#: Every operator ``ExpressionExecutor`` evaluates (``BoundOperator`` ops
#: plus the IS [NOT] NULL, IN, LIKE and CASE expression nodes).
OPERATORS = ("=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%",
             "not", "negate", "concat", "and", "or", "is_null",
             "is_not_null", "in_list", "like", "case")

#: Operators that define their own NULL semantics: three-valued AND/OR,
#: IS [NOT] NULL, IN with a NULL item, and CASE.  Every other operator
#: propagates NULLs.
CUSTOM_NULL_OPERATORS = frozenset({"and", "or", "case", "in_list",
                                   "is_null", "is_not_null"})


@dataclass(frozen=True)
class KernelContract:
    """One kernel and the NULL contract it declares."""

    #: ``scalar`` | ``aggregate`` | ``operator``.
    kind: str
    name: str
    #: NULL_PROPAGATE, NULL_CUSTOM or NULL_SKIP.
    null_contract: str

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.name}"


def kernel_contracts() -> List[KernelContract]:
    """The declared contract of every registered kernel."""
    contracts = [KernelContract("scalar", name, function.null_contract)
                 for name, function in sorted(SCALAR_FUNCTIONS.items())]
    contracts += [KernelContract("aggregate", name, NULL_SKIP)
                  for name in sorted(AGGREGATE_NAMES)]
    contracts += [KernelContract("operator", name,
                                 NULL_CUSTOM if name in CUSTOM_NULL_OPERATORS
                                 else NULL_PROPAGATE)
                  for name in OPERATORS]
    return contracts


@dataclass
class ConformanceIssue:
    """One contract violation observed at runtime."""

    kernel: str
    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kernel} [{self.check}]: {self.detail}"


_SIZES = (0, 1, 17, 64)

#: Valid-lane sample values per LogicalType name (cycled to length).
_VALUES: Dict[str, List[object]] = {
    "BOOLEAN": [True, False, True, True, False],
    "TINYINT": [0, 1, -3, 7, 5],
    "SMALLINT": [0, 2, -9, 31, 8],
    "INTEGER": [0, 1, -2, 3, 100, -7, 2],
    "BIGINT": [0, 5, -11, 1_000_000, 3, -2],
    "FLOAT": [0.0, 1.5, -2.25, 100.0, 0.125],
    "DOUBLE": [0.0, 1.5, -2.25, 1e10, -0.5, 3.75, 42.0],
    "VARCHAR": ["", "a", "Hello", "foo%bar", "quack", "Zebra"],
    "DATE": [0, 1, 365, 20_000, -400, 7_305],
    "TIMESTAMP": [0, 86_400_000_000, 123_456_789, 5_000_000],
}

#: Two distinct poison families planted at masked-out lanes.
_POISON: Dict[str, Tuple[object, object]] = {
    "BOOLEAN": (True, False),
    "TINYINT": (111, -99),
    "SMALLINT": (31_000, -31_000),
    "INTEGER": (999_983, -123_457),
    "BIGINT": (88_888_888, -77_777_777),
    "FLOAT": (3.0e38, -1.5e38),
    "DOUBLE": (1.0e308, -6.66e307),
    "VARCHAR": ("GARBAGE-A", "GARBAGE-B"),
    "DATE": (2_000_003, -2_000_003),
    "TIMESTAMP": (9_000_000_000_000, -9_000_000_000_000),
}

_VALIDITY_PATTERNS = ("all-valid", "all-null", "alternating", "head-null")


def _validity(pattern: str, size: int, seed: int) -> np.ndarray:
    if pattern == "all-valid":
        return np.ones(size, dtype=np.bool_)
    if pattern == "all-null":
        return np.zeros(size, dtype=np.bool_)
    mask = np.ones(size, dtype=np.bool_)
    if pattern == "alternating":
        mask[seed % 2::2] = False
    else:  # head-null
        mask[: min(size, 3 + seed % 3)] = False
    return mask


def _make_vector(logical: object, size: int, validity: np.ndarray,
                 poison_index: int, seed: int) -> object:
    from ...types import Vector

    name = str(logical)
    values = _VALUES.get(name, _VALUES["INTEGER"])
    poison = _POISON.get(name, _POISON["INTEGER"])[poison_index]
    dtype = logical.numpy_dtype  # type: ignore[attr-defined]
    if name == "VARCHAR":
        data = np.empty(size, dtype=object)
    else:
        data = np.zeros(size, dtype=dtype)
    for row in range(size):
        if validity[row]:
            data[row] = values[(row + seed) % len(values)]
        else:
            data[row] = poison
    return Vector(logical, data, validity.copy())


def _coded_twins(vectors: Sequence[object]) -> Optional[List[object]]:
    """The same inputs with every VARCHAR vector dictionary-coded (poison
    lanes keep their own codes), or None when no input is VARCHAR."""
    from ...types import StringDictionary, Vector

    if not any(str(vector.dtype) == "VARCHAR"  # type: ignore[attr-defined]
               for vector in vectors):
        return None
    twins: List[object] = []
    for vector in vectors:
        if str(vector.dtype) != "VARCHAR":  # type: ignore[attr-defined]
            twins.append(vector)
            continue
        dictionary = StringDictionary()
        twins.append(Vector.from_codes(
            dictionary.encode(vector.data),  # type: ignore[attr-defined]
            dictionary, vector.validity.copy()))  # type: ignore[attr-defined]
    return twins


def _check_coded(key: str, case: str, flat_result: object,
                 rerun: Callable[[List[object]], object],
                 vectors: Sequence[object],
                 issues: List[ConformanceIssue]) -> None:
    """Representation independence of one fuzz case."""
    twins = _coded_twins(vectors)
    if twins is None:
        return
    try:
        coded_result = rerun(twins)
    except Exception as error:
        issues.append(ConformanceIssue(
            key, "dictionary-equivalence",
            f"{case}: crashed on dictionary-coded input: {error!r}"))
        return
    if not _valid_lanes_equal(flat_result, coded_result):
        issues.append(ConformanceIssue(
            key, "dictionary-equivalence",
            f"{case}: output on dictionary-coded input differs from the "
            "output on the flat twin"))


def _snapshot(vectors: Sequence[object]) -> List[Tuple[np.ndarray, np.ndarray]]:
    return [(vector.data.copy(), vector.validity.copy())  # type: ignore[attr-defined]
            for vector in vectors]


def _inputs_mutated(vectors: Sequence[object],
                    snapshots: List[Tuple[np.ndarray, np.ndarray]]) -> bool:
    for vector, (data, validity) in zip(vectors, snapshots):
        if not np.array_equal(vector.validity, validity):  # type: ignore[attr-defined]
            return True
        before = np.asarray(data)
        after = np.asarray(vector.data)  # type: ignore[attr-defined]
        if before.dtype == object or after.dtype == object:
            if list(after) != list(before):
                return True
        elif not np.array_equal(after, before):
            return True
    return False


def _valid_lanes_equal(first: object, second: object) -> bool:
    if not np.array_equal(first.validity, second.validity):  # type: ignore[attr-defined]
        return False
    valid = np.asarray(first.validity)  # type: ignore[attr-defined]
    left = np.asarray(first.data)[valid]  # type: ignore[attr-defined]
    right = np.asarray(second.data)[valid]  # type: ignore[attr-defined]
    if left.dtype == object or right.dtype == object:
        return list(left) == list(right)
    if left.dtype.kind == "f":
        return bool(np.allclose(left, right, equal_nan=True))
    return bool(np.array_equal(left, right))


def _probe_arg_types(bind: Callable) -> List[List[object]]:
    """Concrete coerced argument-type lists the bind function accepts."""
    from ...types import BOOLEAN, DATE, DOUBLE, INTEGER, VARCHAR

    accepted: List[List[object]] = []
    for arity in range(0, 5):
        for base in (DOUBLE, VARCHAR, INTEGER, DATE, BOOLEAN):
            try:
                _, coerced = bind([base] * arity)
            except Exception:
                continue
            if list(coerced) not in accepted:
                accepted.append(list(coerced))
            break
    return accepted


# -- scalar kernels ----------------------------------------------------------

def _check_scalar(contract: KernelContract,
                  issues: List[ConformanceIssue]) -> None:
    function = SCALAR_FUNCTIONS.get(contract.name)
    if function is None:
        issues.append(ConformanceIssue(contract.key, "registry",
                                       "contract names no registered kernel"))
        return
    signatures = _probe_arg_types(function.bind)
    if not signatures:
        issues.append(ConformanceIssue(contract.key, "bind",
                                       "no probe signature binds"))
        return
    for arg_types in signatures:
        try:
            return_type, coerced = function.bind(list(arg_types))
        except Exception as error:
            issues.append(ConformanceIssue(contract.key, "bind", repr(error)))
            continue
        arg_types = list(coerced)
        for size in _SIZES:
            for pattern in _VALIDITY_PATTERNS:
                _fuzz_scalar_case(contract, function, return_type, arg_types,
                                  size, pattern, issues)


def _fuzz_scalar_case(contract: KernelContract, function: object,
                      return_type: object, arg_types: List[object], size: int,
                      pattern: str, issues: List[ConformanceIssue]) -> None:
    validities = [_validity(pattern, size, seed)
                  for seed in range(len(arg_types))]
    runs = []
    for poison_index in (0, 1):
        vectors = [_make_vector(arg_type, size, validity, poison_index, seed)
                   for seed, (arg_type, validity)
                   in enumerate(zip(arg_types, validities))]
        snapshots = _snapshot(vectors)
        try:
            result = function.execute(vectors, size)  # type: ignore[attr-defined]
        except Exception as error:
            issues.append(ConformanceIssue(
                contract.key, "crash",
                f"size={size} validity={pattern} poison={poison_index}: "
                f"{error!r}"))
            return
        if _inputs_mutated(vectors, snapshots):
            issues.append(ConformanceIssue(
                contract.key, "input-immutability",
                f"size={size} validity={pattern}: kernel wrote into its "
                "argument arrays"))
            return
        runs.append(result)
    _check_coded(contract.key, f"size={size} validity={pattern}", runs[1],
                 lambda twins: function.execute(twins, size),  # type: ignore[attr-defined]
                 vectors, issues)

    first, second = runs
    if len(first) != size:
        issues.append(ConformanceIssue(
            contract.key, "shape",
            f"size={size}: result length {len(first)}"))
        return
    produced = np.asarray(first.data).dtype.name
    if dtype_convertible(produced, str(return_type)) is False:
        issues.append(ConformanceIssue(
            contract.key, "dtype",
            f"produced {produced}, declared {return_type}"))
        return
    if not _valid_lanes_equal(first, second):
        issues.append(ConformanceIssue(
            contract.key, "garbage-independence",
            f"size={size} validity={pattern}: output depends on values at "
            "masked-out (NULL) input lanes"))
        return
    if contract.null_contract == NULL_PROPAGATE and size:
        any_null = np.zeros(size, dtype=np.bool_)
        for validity in validities:
            any_null |= ~validity
        leaked = any_null & np.asarray(first.validity)
        if leaked.any():
            issues.append(ConformanceIssue(
                contract.key, "null-propagation",
                f"size={size} validity={pattern}: NULL input lanes "
                f"{np.flatnonzero(leaked)[:5].tolist()} produced valid "
                "output"))


# -- aggregate kernels -------------------------------------------------------

def _check_aggregate(contract: KernelContract,
                     issues: List[ConformanceIssue]) -> None:
    from ...functions.aggregate import bind_aggregate, compute_aggregate
    from ...types import DOUBLE, VARCHAR

    bases = [DOUBLE] if contract.name not in ("min", "max", "first", "count") \
        else [DOUBLE, VARCHAR]
    for base in bases:
        star = False
        try:
            return_type, coerced = bind_aggregate(contract.name, [base], False)
        except Exception:
            try:
                return_type, coerced = bind_aggregate(contract.name, [], True)
                star = True
            except Exception as error:
                issues.append(ConformanceIssue(contract.key, "bind",
                                               repr(error)))
                continue
        arg_type = coerced[0] if coerced else base
        for size in (0, 1, 31):
            for pattern in _VALIDITY_PATTERNS:
                _fuzz_aggregate_case(contract, star, arg_type, return_type,
                                     size, pattern, compute_aggregate,
                                     issues)


def _fuzz_aggregate_case(contract: KernelContract, star: bool,
                         arg_type: object, return_type: object, size: int, pattern: str,
                         compute: Callable,
                         issues: List[ConformanceIssue]) -> None:
    group_count = max(1, min(4, size))
    group_ids = (np.arange(size, dtype=np.int64) % group_count
                 if size else np.zeros(0, dtype=np.int64))
    validity = _validity(pattern, size, 0)
    results = []
    for poison_index in (0, 1):
        argument = None if star else _make_vector(arg_type, size, validity,
                                                  poison_index, 0)
        try:
            result = compute(contract.name, False, argument, group_ids,
                             group_count, return_type)
        except Exception as error:
            issues.append(ConformanceIssue(
                contract.key, "crash",
                f"size={size} validity={pattern}: {error!r}"))
            return
        results.append(result)
    if argument is not None:
        _check_coded(contract.key, f"size={size} validity={pattern}",
                     results[1],
                     lambda twins: compute(contract.name, False, twins[0],
                                           group_ids, group_count,
                                           return_type),
                     [argument], issues)
    if not _valid_lanes_equal(results[0], results[1]):
        issues.append(ConformanceIssue(
            contract.key, "garbage-independence",
            f"size={size} validity={pattern}: group results depend on "
            "masked-out input rows"))
        return
    if star or contract.null_contract != NULL_SKIP:
        return
    # Skip-NULL equivalence: physically removing NULL rows must not change
    # any group's result.
    keep = np.flatnonzero(validity)
    argument = _make_vector(arg_type, size, validity, 0, 0)
    from ...types import Vector
    reduced = Vector(argument.dtype,  # type: ignore[attr-defined]
                     np.asarray(argument.data)[keep],  # type: ignore[attr-defined]
                     np.ones(len(keep), dtype=np.bool_))
    try:
        expected = compute(contract.name, False, reduced, group_ids[keep],
                           group_count, return_type)
    except Exception as error:
        issues.append(ConformanceIssue(
            contract.key, "skip-nulls",
            f"size={size} validity={pattern}: NULL-free rerun crashed "
            f"{error!r}"))
        return
    if not _valid_lanes_equal(results[0], expected):
        issues.append(ConformanceIssue(
            contract.key, "skip-nulls",
            f"size={size} validity={pattern}: result differs from the "
            "NULL-rows-removed rerun"))


# -- builtin operators -------------------------------------------------------

def _operator_expressions(
        contract: KernelContract) -> List[Tuple[object, List[object]]]:
    """Every probe shape of one op: the generic one over column refs, plus
    -- for the predicates evaluated over a dictionary's entries -- VARCHAR
    columns against constants (both operand orders, a NULL list item)."""
    from ...planner.expressions import (
        BoundColumnRef,
        BoundConstant,
        BoundInList,
        BoundIsNull,
        BoundLike,
        BoundOperator,
    )
    from ...types import BOOLEAN, VARCHAR

    shapes = []
    generic = _operator_expression(contract)
    if generic is not None:
        shapes.append(generic)
    name = contract.name
    column = BoundColumnRef(0, VARCHAR)

    def constant(value: Optional[str]) -> object:
        return BoundConstant(value, VARCHAR)

    if name in ("=", "<>", "<", "<=", ">", ">="):
        shapes += [
            (BoundOperator(name, [column, constant("Hello")], BOOLEAN),
             [VARCHAR]),
            (BoundOperator(name, [constant("a"), column], BOOLEAN), [VARCHAR]),
            (BoundOperator(name, [column, BoundColumnRef(1, VARCHAR)],
                           BOOLEAN), [VARCHAR, VARCHAR]),
        ]
    elif name == "in_list":
        shapes += [
            (BoundInList(column, [constant("a"), constant("quack")], False),
             [VARCHAR]),
            (BoundInList(column, [constant("Zebra"), constant(None)], True),
             [VARCHAR]),
        ]
    elif name == "like":
        shapes += [
            (BoundLike(column, constant("%o%"), False, False), [VARCHAR]),
            (BoundLike(column, constant("h_llo"), True, True), [VARCHAR]),
        ]
    elif name in ("is_null", "is_not_null"):
        shapes.append((BoundIsNull(column, name == "is_not_null"), [VARCHAR]))
    return shapes


def _operator_expression(
        contract: KernelContract) -> Optional[Tuple[object, List[object]]]:
    """(BoundExpression over column refs, argument LogicalTypes) for one op."""
    from ...planner.expressions import (
        BoundCase,
        BoundColumnRef,
        BoundInList,
        BoundIsNull,
        BoundLike,
        BoundOperator,
    )
    from ...types import BOOLEAN, DOUBLE, VARCHAR

    name = contract.name
    if name in ("=", "<>", "<", "<=", ">", ">="):
        args = [DOUBLE, DOUBLE]
        return BoundOperator(name, [BoundColumnRef(0, DOUBLE),
                                    BoundColumnRef(1, DOUBLE)], BOOLEAN), args
    if name in ("+", "-", "*", "/", "%"):
        args = [DOUBLE, DOUBLE]
        return BoundOperator(name, [BoundColumnRef(0, DOUBLE),
                                    BoundColumnRef(1, DOUBLE)], DOUBLE), args
    if name in ("and", "or"):
        args = [BOOLEAN, BOOLEAN]
        return BoundOperator(name, [BoundColumnRef(0, BOOLEAN),
                                    BoundColumnRef(1, BOOLEAN)], BOOLEAN), args
    if name == "not":
        return BoundOperator("not", [BoundColumnRef(0, BOOLEAN)],
                             BOOLEAN), [BOOLEAN]
    if name == "negate":
        return BoundOperator("negate", [BoundColumnRef(0, DOUBLE)],
                             DOUBLE), [DOUBLE]
    if name == "concat":
        return BoundOperator("concat", [BoundColumnRef(0, VARCHAR),
                                        BoundColumnRef(1, VARCHAR)],
                             VARCHAR), [VARCHAR, VARCHAR]
    if name in ("is_null", "is_not_null"):
        return BoundIsNull(BoundColumnRef(0, DOUBLE),
                           name == "is_not_null"), [DOUBLE]
    if name == "in_list":
        return BoundInList(BoundColumnRef(0, DOUBLE),
                           [BoundColumnRef(1, DOUBLE)], False), [DOUBLE, DOUBLE]
    if name == "like":
        return BoundLike(BoundColumnRef(0, VARCHAR), BoundColumnRef(1, VARCHAR),
                         False, False), [VARCHAR, VARCHAR]
    if name == "case":
        return BoundCase([(BoundColumnRef(0, BOOLEAN),
                           BoundColumnRef(1, DOUBLE))],
                         BoundColumnRef(2, DOUBLE), DOUBLE), \
            [BOOLEAN, DOUBLE, DOUBLE]
    return None


def _check_operator(contract: KernelContract,
                    issues: List[ConformanceIssue]) -> None:
    from ...execution.expression_executor import ExpressionExecutor

    shapes = _operator_expressions(contract)
    if not shapes:
        issues.append(ConformanceIssue(contract.key, "registry",
                                       "no probe expression for operator"))
    executor = ExpressionExecutor()
    for expression, arg_types in shapes:
        _fuzz_operator_shape(contract, executor, expression, arg_types, issues)


def _fuzz_operator_shape(contract: KernelContract, executor: object,
                         expression: object, arg_types: List[object],
                         issues: List[ConformanceIssue]) -> None:
    from ...types.chunk import DataChunk

    for size in _SIZES:
        if size == 0:
            continue  # DataChunk carries no empty-chunk constructor contract
        for pattern in _VALIDITY_PATTERNS:
            validities = [_validity(pattern, size, seed)
                          for seed in range(len(arg_types))]
            runs = []
            crashed = False
            for poison_index in (0, 1):
                columns = [
                    _make_vector(arg_type, size, validity, poison_index, seed)
                    for seed, (arg_type, validity)
                    in enumerate(zip(arg_types, validities))]
                chunk = DataChunk(columns)
                snapshots = _snapshot(columns)
                try:
                    result = executor.execute(expression, chunk)  # type: ignore[attr-defined]
                except Exception as error:
                    issues.append(ConformanceIssue(
                        contract.key, "crash",
                        f"size={size} validity={pattern}: {error!r}"))
                    crashed = True
                    break
                if _inputs_mutated(columns, snapshots):
                    issues.append(ConformanceIssue(
                        contract.key, "input-immutability",
                        f"size={size} validity={pattern}: operator wrote "
                        "into its input chunk"))
                    crashed = True
                    break
                runs.append(result)
            if crashed:
                return
            _check_coded(
                contract.key, f"size={size} validity={pattern}", runs[1],
                lambda twins: executor.execute(  # type: ignore[attr-defined]
                    expression, DataChunk(twins)),
                columns, issues)
            if not _valid_lanes_equal(runs[0], runs[1]):
                issues.append(ConformanceIssue(
                    contract.key, "garbage-independence",
                    f"size={size} validity={pattern}: output depends on "
                    "masked-out input lanes"))
                return
            if contract.null_contract == NULL_PROPAGATE:
                any_null = np.zeros(size, dtype=np.bool_)
                for validity in validities:
                    any_null |= ~validity
                if (any_null & np.asarray(runs[0].validity)).any():
                    issues.append(ConformanceIssue(
                        contract.key, "null-propagation",
                        f"size={size} validity={pattern}: NULL input lanes "
                        "produced valid output"))
                    return


# -- entry point -------------------------------------------------------------

def run_conformance(contracts: Optional[Sequence[KernelContract]] = None
                    ) -> List[ConformanceIssue]:
    """Fuzz every kernel against its declared contract; empty list = clean."""
    issues: List[ConformanceIssue] = []
    for contract in kernel_contracts() if contracts is None else contracts:
        if contract.kind == "scalar":
            _check_scalar(contract, issues)
        elif contract.kind == "aggregate":
            _check_aggregate(contract, issues)
        elif contract.kind == "operator":
            _check_operator(contract, issues)
    return issues
