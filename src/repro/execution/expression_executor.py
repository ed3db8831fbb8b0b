"""Vectorized expression evaluation over DataChunks.

The interpreter of the "Vector Volcano" model: each node of a bound
expression tree is evaluated once per 2048-value chunk, so the per-value
interpretation overhead that makes tuple-at-a-time engines slow (paper §2,
§6) is amortized away.  All kernels are NumPy operations; only VARCHAR
comparisons and LIKE fall back to per-value Python over the valid subset --
and when the column is dictionary-coded and the other operands are
constants, that subset is the dictionary's entries, not the rows.

NULL semantics follow SQL's three-valued logic throughout.
"""

from __future__ import annotations

import re
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..errors import InternalError, InvalidInputError
from ..planner.expressions import (
    BoundAggregate,
    BoundCase,
    BoundCast,
    BoundColumnRef,
    BoundConstant,
    BoundExpression,
    BoundFunction,
    BoundInList,
    BoundIsNull,
    BoundLike,
    BoundOperator,
    BoundParameterRef,
)
from ..planner.subquery import (
    BoundExistsSubquery,
    BoundInSubquery,
    BoundScalarSubquery,
)
from ..types import (
    BOOLEAN,
    DOUBLE,
    LogicalTypeId,
    SQLNULL,
    Vector,
    cast_scalar,
    cast_vector,
)
from ..types.chunk import DataChunk

__all__ = ["ExpressionExecutor", "evaluate_standalone"]

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


def _is_constant(expression: BoundExpression) -> bool:
    """True for a literal or parameter (possibly cast): one value per query,
    so it can be evaluated against a chunk of any size."""
    while isinstance(expression, BoundCast):
        expression = expression.child
    return isinstance(expression, (BoundConstant, BoundParameterRef))


class ExpressionExecutor:
    """Evaluates bound expressions; one instance per query execution."""

    def __init__(self, context=None) -> None:
        #: Execution context (for subquery evaluation); optional so that
        #: constant folding can run without a live query.
        self.context = context
        self._like_cache = {}

    # -- entry point -------------------------------------------------------
    def execute(self, expression: BoundExpression, chunk: DataChunk) -> Vector:
        count = chunk.size
        if isinstance(expression, BoundConstant):
            return Vector.constant(expression.value, count, expression.return_type)
        if isinstance(expression, BoundColumnRef):
            return chunk.columns[expression.position]
        if isinstance(expression, BoundParameterRef):
            value = self._parameter_value(expression)
            if isinstance(value, Vector):
                # executemany's parameter column: one value per VALUES row
                # (VALUES reads no stored, coded column, so the once-per-
                # dictionary-entry shortcut never meets it).  Each reference
                # owns its copy, as it would own its Vector.constant.
                return value.copy()
            return Vector.constant(value, count, expression.return_type)
        if isinstance(expression, BoundCast):
            return cast_vector(self.execute(expression.child, chunk),
                               expression.return_type)
        if isinstance(expression, BoundOperator):
            return self._execute_operator(expression, chunk)
        if isinstance(expression, BoundIsNull):
            child = self.execute(expression.child, chunk)
            data = child.validity.copy() if expression.negated else ~child.validity
            return Vector(BOOLEAN, data, np.ones(count, dtype=np.bool_))
        if isinstance(expression, BoundInList):
            return self._execute_in_list(expression, chunk)
        if isinstance(expression, BoundLike):
            return self._execute_like(expression, chunk)
        if isinstance(expression, BoundCase):
            return self._execute_case(expression, chunk)
        if isinstance(expression, BoundFunction):
            vectors = [self.execute(arg, chunk) for arg in expression.args]
            return expression.function(vectors, count)
        if isinstance(expression, BoundScalarSubquery):
            value = self._scalar_subquery_value(expression)
            return Vector.constant(value, count, expression.return_type)
        if isinstance(expression, BoundInSubquery):
            return self._execute_in_subquery(expression, chunk)
        if isinstance(expression, BoundExistsSubquery):
            exists = self._subquery_has_rows(expression.plan)
            result = exists != expression.negated
            return Vector.constant(result, count, BOOLEAN)
        if isinstance(expression, BoundAggregate):
            raise InternalError("Aggregate reached the expression executor; "
                                "it should have been rewritten by the binder")
        raise InternalError(f"Cannot execute expression {type(expression).__name__}")

    def _parameter_value(self, expression: BoundParameterRef) -> Any:
        """Current value of a late-bound parameter slot, cast to plan type."""
        context = self.context
        parameters = context.parameters if context is not None else None
        key = expression.key
        try:
            value = parameters[key]  # sequence (int key) or mapping (str key)
        except (KeyError, IndexError, TypeError):
            raise InternalError(
                f"No value bound for parameter {key!r} in this execution")
        if isinstance(value, Vector):
            return cast_vector(value, expression.return_type)
        return cast_scalar(value, expression.return_type)

    def execute_filter(self, predicate: BoundExpression,
                       chunk: DataChunk) -> np.ndarray:
        """Evaluate a predicate to a selection mask (NULL counts as False)."""
        result = self.execute(predicate, chunk)
        return result.data.astype(np.bool_, copy=False) & result.validity

    # -- operators ------------------------------------------------------------
    def _execute_operator(self, expression: BoundOperator,
                          chunk: DataChunk) -> Vector:
        op = expression.op
        if op in ("and", "or"):
            return self._execute_conjunction(expression, chunk)
        if op in _COMPARISONS \
                and expression.args[0].return_type.id is LogicalTypeId.VARCHAR:
            left, right = expression.args
            if _is_constant(right):
                return self._column_with_constants(
                    self.execute(left, chunk), [right], chunk,
                    lambda column, constant:
                    self._execute_comparison(op, column, constant))
            if _is_constant(left):
                return self._column_with_constants(
                    self.execute(right, chunk), [left], chunk,
                    lambda column, constant:
                    self._execute_comparison(op, constant, column))
        vectors = [self.execute(arg, chunk) for arg in expression.args]
        if op == "not":
            source = vectors[0]
            return Vector(BOOLEAN, ~source.data.astype(np.bool_, copy=False),
                          source.validity.copy())
        if op == "negate":
            source = vectors[0]
            return Vector(source.dtype, -source.data, source.validity.copy())
        if op in _COMPARISONS:
            return self._execute_comparison(op, vectors[0], vectors[1])
        if op == "concat":
            left, right = vectors
            validity = left.validity & right.validity
            data = np.empty(len(left), dtype=object)
            # Object-dtype "+" concatenates the whole masked vector in one
            # NumPy call instead of one Python-level call per value.
            data[validity] = left.data[validity] + right.data[validity]
            return Vector(expression.return_type, data, validity)
        if op in ("+", "-", "*", "/", "%"):
            return self._execute_arithmetic(op, vectors[0], vectors[1],
                                            expression.return_type)
        raise InternalError(f"Unknown operator {op!r}")

    def _execute_conjunction(self, expression: BoundOperator,
                             chunk: DataChunk) -> Vector:
        left = self.execute(expression.args[0], chunk)
        right = self.execute(expression.args[1], chunk)
        left_data = left.data.astype(np.bool_, copy=False)
        right_data = right.data.astype(np.bool_, copy=False)
        if expression.op == "and":
            # FALSE dominates NULL: the result is valid if both sides are
            # valid, or either side is a known FALSE.
            validity = ((left.validity & right.validity)
                        | (left.validity & ~left_data)
                        | (right.validity & ~right_data))
            data = (left_data | ~left.validity) & (right_data | ~right.validity)
            data &= validity
        else:
            # TRUE dominates NULL.
            validity = ((left.validity & right.validity)
                        | (left.validity & left_data)
                        | (right.validity & right_data))
            data = (left_data & left.validity) | (right_data & right.validity)
        return Vector(BOOLEAN, data, validity)

    def _column_with_constants(self, column: Vector,
                               constants: Sequence[BoundExpression],
                               chunk: DataChunk,
                               kernel: Callable[..., Vector]) -> Vector:
        """``kernel(column, *constant vectors)`` for a row-wise predicate.

        For a dictionary-coded column the kernel runs once per dictionary
        *entry* and the verdicts are gathered through the codes: ``s = 'x'``
        over 16k rows of a five-string column is five comparisons.  A
        dictionary with more entries than the chunk has rows would cost
        more than the rows themselves, so that case (and every flat
        vector) takes the kernel directly.
        """
        codes = column.codes
        size = column.dictionary.size if codes is not None else 0
        if codes is None or size > len(codes):
            return kernel(column, *[self.execute(constant, chunk)
                                    for constant in constants])
        # The dictionary itself as a vector: entry i has code i, 0 is NULL.
        identity = np.arange(size, dtype=codes.dtype)
        heap = DataChunk([Vector.from_codes(identity, column.dictionary,
                                            identity != 0)])
        verdict = kernel(heap.columns[0], *[self.execute(constant, heap)
                                            for constant in constants])
        validity = verdict.validity[codes] & column.validity
        return Vector(BOOLEAN, verdict.data[codes] & validity, validity)

    def _execute_comparison(self, op: str, left: Vector, right: Vector) -> Vector:
        count = len(left)
        validity = left.validity & right.validity
        if left.dtype.id is LogicalTypeId.VARCHAR:
            data = np.zeros(count, dtype=np.bool_)
            compare = {
                "=": lambda a, b: a == b,
                "<>": lambda a, b: a != b,
                "<": lambda a, b: a < b,
                "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b,
                ">=": lambda a, b: a >= b,
            }[op]
            # NumPy comparisons work elementwise on object (string) arrays,
            # so the masked comparison runs as one bulk call.
            data[validity] = compare(left.data[validity], right.data[validity])
            return Vector(BOOLEAN, data, validity)
        with np.errstate(invalid="ignore"):
            if op == "=":
                data = left.data == right.data
            elif op == "<>":
                data = left.data != right.data
            elif op == "<":
                data = left.data < right.data
            elif op == "<=":
                data = left.data <= right.data
            elif op == ">":
                data = left.data > right.data
            else:
                data = left.data >= right.data
        return Vector(BOOLEAN, np.asarray(data, dtype=np.bool_) & validity, validity)

    def _execute_arithmetic(self, op: str, left: Vector, right: Vector,
                            return_type) -> Vector:
        validity = left.validity & right.validity
        target_dtype = return_type.numpy_dtype
        left_data = left.data.astype(target_dtype, copy=False)
        right_data = right.data.astype(target_dtype, copy=False)
        with np.errstate(all="ignore"):
            if op == "+":
                data = left_data + right_data
            elif op == "-":
                data = left_data - right_data
            elif op == "*":
                data = left_data * right_data
            elif op == "/":
                # SQL: division by zero yields NULL rather than an error or inf.
                zero = right_data == 0
                data = np.divide(left_data, np.where(zero, 1, right_data))
                validity = validity & ~zero
            else:  # modulo
                zero = right_data == 0
                data = np.mod(left_data, np.where(zero, 1, right_data))
                validity = validity & ~zero
        data = np.asarray(data, dtype=target_dtype)
        if not validity.all():
            data = data.copy()
            data[~validity] = 0
        return Vector(return_type, data, validity)

    # -- IN / LIKE / CASE ---------------------------------------------------------
    def _in_semantics(self, child: Vector, matched: np.ndarray,
                      any_null_item: bool, negated: bool) -> Vector:
        """SQL IN three-valued logic given a raw match mask."""
        # TRUE where matched; NULL where not matched but child is NULL or the
        # list contains a NULL; FALSE otherwise.
        validity = child.validity.copy()
        if any_null_item:
            validity &= matched  # unmatched becomes NULL
        data = matched & child.validity
        if negated:
            data = ~data & validity
        else:
            data = data & validity
        return Vector(BOOLEAN, data, validity)

    def _execute_in_list(self, expression: BoundInList, chunk: DataChunk) -> Vector:
        child = self.execute(expression.child, chunk)
        if all(_is_constant(item) for item in expression.items):
            return self._column_with_constants(
                child, expression.items, chunk,
                lambda column, *items:
                self._in_list(column, items, expression.negated))
        return self._in_list(child, [self.execute(item, chunk)
                                     for item in expression.items],
                             expression.negated)

    def _in_list(self, child: Vector, items: Sequence[Vector],
                 negated: bool) -> Vector:
        count = len(child)
        matched = np.zeros(count, dtype=np.bool_)
        any_null_item = False
        for item in items:
            if not item.validity.all():
                any_null_item = True
            equal = self._execute_comparison("=", child, item)
            matched |= equal.data & equal.validity
        return self._in_semantics(child, matched, any_null_item, negated)

    def _like_regex(self, pattern: str, case_insensitive: bool,
                    escape: Optional[str] = None):
        from ..functions.scalar import like_to_regex

        key = (pattern, case_insensitive, escape)
        regex = self._like_cache.get(key)
        if regex is None:
            flags = re.DOTALL | (re.IGNORECASE if case_insensitive else 0)
            regex = re.compile(like_to_regex(pattern, escape), flags)
            self._like_cache[key] = regex
        return regex

    def _execute_like(self, expression: BoundLike, chunk: DataChunk) -> Vector:
        child = self.execute(expression.child, chunk)
        operands = [expression.pattern] if expression.escape is None \
            else [expression.pattern, expression.escape]
        if all(_is_constant(operand) for operand in operands):
            return self._column_with_constants(
                child, operands, chunk,
                lambda column, pattern, escape=None:
                self._like(expression, column, pattern, escape))
        return self._like(expression, child,
                          *[self.execute(operand, chunk)
                            for operand in operands])

    def _like(self, expression: BoundLike, child: Vector, pattern: Vector,
              escape: Optional[Vector] = None) -> Vector:
        count = len(child)
        validity = child.validity & pattern.validity
        if escape is not None:
            validity = validity & escape.validity
        data = np.zeros(count, dtype=np.bool_)
        # Per-row regex matching has no NumPy bulk primitive; the compiled-
        # pattern cache amortizes the dominant cost (compilation).
        for index in np.flatnonzero(validity):  # quacklint: disable=QLV001
            regex = self._like_regex(
                pattern.data[index], expression.case_insensitive,
                escape.data[index] if escape is not None else None)
            data[index] = regex.match(child.data[index]) is not None
        if expression.negated:
            data = ~data & validity
        return Vector(BOOLEAN, data, validity)

    def _execute_case(self, expression: BoundCase, chunk: DataChunk) -> Vector:
        count = chunk.size
        result = self.execute(expression.else_result, chunk).copy()
        decided = np.zeros(count, dtype=np.bool_)
        for condition, branch in expression.whens:
            condition_vector = self.execute(condition, chunk)
            take = (condition_vector.data.astype(np.bool_, copy=False)
                    & condition_vector.validity & ~decided)
            if take.any():
                branch_vector = self.execute(branch, chunk)
                result.data[take] = branch_vector.data[take]
                result.validity[take] = branch_vector.validity[take]
            decided |= take
        return result

    # -- subqueries -----------------------------------------------------------------
    def _require_context(self):
        if self.context is None:
            raise InternalError("Subquery evaluation requires an execution context")
        return self.context

    def _scalar_subquery_value(self, expression: BoundScalarSubquery) -> Any:
        context = self._require_context()
        rows = context.materialize_subquery(expression.plan)
        if rows.size == 0:
            return None
        if rows.size > 1:
            raise InvalidInputError(
                f"Scalar subquery returned {rows.size} rows (expected at most 1)"
            )
        return rows.columns[0].get_value(0)

    def _subquery_has_rows(self, plan) -> bool:
        context = self._require_context()
        return context.materialize_subquery(plan).size > 0

    def _execute_in_subquery(self, expression: BoundInSubquery,
                             chunk: DataChunk) -> Vector:
        context = self._require_context()
        child = self.execute(expression.child, chunk)
        materialized = context.materialize_subquery(expression.plan)
        column = materialized.columns[0] if materialized.columns else None
        if column is None or len(column) == 0:
            matched = np.zeros(len(child), dtype=np.bool_)
            return self._in_semantics(child, matched, False, expression.negated)
        any_null = not column.all_valid()
        valid_values = column.data[column.validity]
        if child.dtype.id is LogicalTypeId.VARCHAR:
            value_set = set(valid_values.tolist())
            matched = np.zeros(len(child), dtype=np.bool_)
            # Hash-set probes beat np.isin's sort-based path for strings;
            # there is no NumPy bulk primitive over a Python set.
            for index in np.flatnonzero(child.validity):  # quacklint: disable=QLV001
                matched[index] = child.data[index] in value_set
        else:
            matched = np.isin(child.data, valid_values)
            matched &= child.validity
        return self._in_semantics(child, matched, any_null, expression.negated)


def evaluate_standalone(expression: BoundExpression) -> Any:
    """Evaluate a column-free expression to a single Python value."""
    executor = ExpressionExecutor()
    dummy = DataChunk([Vector.from_values([True])])
    result = executor.execute(expression, dummy)
    return result.get_value(0)
