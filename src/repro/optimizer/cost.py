"""Cost model: selectivity and cardinality estimation over real statistics.

Consumes the per-column summaries maintained in
:mod:`repro.optimizer.statistics` (min/max, null count, NDV) to estimate

* the **selectivity** of pushed scan filters (equality via ``1/NDV`` with
  an out-of-range cutoff, ranges via interval fractions, IS NULL via the
  null fraction),
* the **cardinality** of every logical operator, bottom-up
  (:func:`annotate` stamps ``estimated_rows`` on each node, which EXPLAIN
  ANALYZE later pairs with the actual row counts), and
* **join output sizes** via the classic ``|L|·|R| / max(ndv_l, ndv_r)``
  rule, which drives the greedy join-order search in
  :mod:`repro.optimizer.rules`.

Estimates are advisory: a wrong estimate can only produce a slower plan,
never a wrong answer.  When statistics are missing (fresh table, stats
disabled for ablation) every path falls back to the textbook default
selectivities, which reproduce the old heuristic behavior.

The module also owns :class:`DecisionRecorder`, which collects the
decisions the optimizer takes for one statement; they end up on that
statement's record and are surfaced in-band through the
``repro_optimizer()`` system table function (paper §4/§5: the application
is the only DBA an embedded database has).
"""

from __future__ import annotations

import datetime
import threading
from typing import Any, Callable, List, Optional, Tuple

from ..planner.expressions import (
    BoundColumnRef,
    BoundConstant,
    BoundExpression,
    BoundInList,
    BoundIsNull,
    BoundLike,
    BoundOperator,
)
from ..planner.logical import (
    LogicalAggregate,
    LogicalCSVScan,
    LogicalDistinct,
    LogicalEmpty,
    LogicalFilter,
    LogicalGet,
    LogicalIntrospectionScan,
    LogicalJoin,
    LogicalLimit,
    LogicalOperator,
    LogicalOrder,
    LogicalProjection,
    LogicalSetOp,
    LogicalValues,
)
from ..storage.table_data import ROW_ID_COLUMN
from ..types.logical import date_to_days, timestamp_to_micros
from .statistics import ColumnStatistics

__all__ = [
    "DEFAULT_EQUALITY_SELECTIVITY",
    "DEFAULT_RANGE_SELECTIVITY",
    "DEFAULT_SELECTIVITY",
    "DecisionRecorder",
    "annotate",
    "column_ndv",
    "estimated_rows",
    "predicate_selectivity",
    "scan_base_rows",
    "set_statistics_enabled",
    "statistics_enabled",
]

#: Textbook fallbacks used whenever no statistic answers the question.
DEFAULT_EQUALITY_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_SELECTIVITY = 0.25
DEFAULT_NULL_FRACTION = 0.02

#: Sources whose cardinality the engine cannot know up front.
_CSV_DEFAULT_ROWS = 10_000.0
_INTROSPECTION_DEFAULT_ROWS = 256.0

#: A resolver maps an output position of a scan to its column statistics
#: (or None when unknown).
StatsResolver = Callable[[int], Optional[ColumnStatistics]]

_statistics_lock = threading.Lock()
_statistics_enabled = True


def set_statistics_enabled(enabled: bool) -> bool:
    """Globally enable/disable statistics consumption (ablation switch).

    Returns the previous setting.  With statistics off, every estimate
    falls back to the default selectivities and the join-order search
    keeps the syntactic order -- the pre-PR-6 heuristic behavior.
    """
    global _statistics_enabled
    with _statistics_lock:
        previous = _statistics_enabled
        _statistics_enabled = enabled
        return previous


def statistics_enabled() -> bool:
    return _statistics_enabled


# ---------------------------------------------------------------------------
# statistics resolution
# ---------------------------------------------------------------------------

def _get_stats(get: LogicalGet, position: int) -> Optional[ColumnStatistics]:
    """Statistics of a scan output column, or None when unusable."""
    if not _statistics_enabled:
        return None
    data = getattr(get.table_entry, "data", None)
    if data is None:
        return None
    try:
        column_id = get.column_ids[position]
        if column_id == ROW_ID_COLUMN:
            return None
        stats = data.columns[column_id].folded_stats()
    except (AttributeError, IndexError):
        return None
    if stats.row_count <= 0:
        return None
    return stats


def scan_base_rows(get: LogicalGet) -> float:
    """Unfiltered row count of a scan (includes not-yet-compacted rows)."""
    data = getattr(get.table_entry, "data", None)
    if data is None:
        return 0.0
    return float(data.row_count)


def _comparable_constant(value: Any) -> Optional[float]:
    """A constant in the storage comparison domain, or None when the
    value does not participate in numeric range estimation (mirrors the
    zonemap extraction in :mod:`repro.execution.scan`)."""
    if value is None or isinstance(value, (str, bool)):
        return None
    if isinstance(value, datetime.datetime):
        return float(timestamp_to_micros(value))
    if isinstance(value, datetime.date):
        return float(date_to_days(value))
    if isinstance(value, (int, float)):
        return float(value)
    return None


def _numeric_bound(value: Any) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _clamp(fraction: float) -> float:
    return min(1.0, max(0.0, fraction))


def _null_fraction(stats: Optional[ColumnStatistics]) -> float:
    if stats is None or stats.row_count <= 0:
        return DEFAULT_NULL_FRACTION
    return _clamp(stats.null_count / stats.row_count)


def _comparison_selectivity(op: str, stats: Optional[ColumnStatistics],
                            constant: Optional[float]) -> float:
    """Selectivity of ``column <op> constant`` given the column summary."""
    not_null = 1.0 - _null_fraction(stats)
    if stats is None or constant is None:
        base = DEFAULT_EQUALITY_SELECTIVITY if op in ("=", "!=", "<>") \
            else DEFAULT_RANGE_SELECTIVITY
        if op in ("!=", "<>"):
            base = 1.0 - base
        return _clamp(base * not_null)
    low = _numeric_bound(stats.min_value)
    high = _numeric_bound(stats.max_value)
    if op in ("=", "!=", "<>"):
        if low is not None and high is not None \
                and not low <= constant <= high:
            equality = 0.0
        else:
            equality = 1.0 / max(stats.ndv, 1.0)
        if op == "=":
            return _clamp(equality * not_null)
        return _clamp((1.0 - equality) * not_null)
    if low is None or high is None:
        return _clamp(DEFAULT_RANGE_SELECTIVITY * not_null)
    if high <= low:
        # Single-valued column: the range predicate either takes it or not.
        matches = (op in ("<", "<=") and (low < constant
                                          or (op == "<=" and low == constant))) \
            or (op in (">", ">=") and (high > constant
                                       or (op == ">=" and high == constant)))
        return _clamp((1.0 if matches else 0.0) * not_null)
    if op in ("<", "<="):
        fraction = (constant - low) / (high - low)
    else:
        fraction = (high - constant) / (high - low)
    return _clamp(_clamp(fraction) * not_null)


def predicate_selectivity(predicate: BoundExpression,
                          resolver: StatsResolver) -> float:
    """Estimated fraction of rows satisfying ``predicate``.

    ``resolver`` maps column positions (of the schema the predicate is
    bound against) to statistics; pass ``lambda position: None`` for
    pure-default estimation above non-scan operators.
    """
    if isinstance(predicate, BoundConstant):
        if predicate.value is True:
            return 1.0
        if predicate.value in (False, None):
            return 0.0
        return DEFAULT_SELECTIVITY
    if isinstance(predicate, BoundOperator):
        op = predicate.op
        if op == "and":
            result = 1.0
            for arg in predicate.args:
                result *= predicate_selectivity(arg, resolver)
            return result
        if op == "or":
            miss = 1.0
            for arg in predicate.args:
                miss *= 1.0 - predicate_selectivity(arg, resolver)
            return _clamp(1.0 - miss)
        if op == "not" and len(predicate.args) == 1:
            return _clamp(1.0 - predicate_selectivity(predicate.args[0],
                                                      resolver))
        if op in ("=", "!=", "<>", "<", "<=", ">", ">=") \
                and len(predicate.args) == 2:
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                       "=": "=", "!=": "!=", "<>": "<>"}
            left, right = predicate.args
            if isinstance(left, BoundColumnRef) \
                    and isinstance(right, BoundConstant):
                column, constant = left, right
            elif isinstance(right, BoundColumnRef) \
                    and isinstance(left, BoundConstant):
                column, constant = right, left
                op = flipped[op]
            else:
                return DEFAULT_EQUALITY_SELECTIVITY if op == "=" \
                    else DEFAULT_SELECTIVITY
            stats = resolver(column.position)
            if op in ("=", "!=", "<>") and isinstance(constant.value, str):
                # Equality against strings: 1/NDV still applies even though
                # range fractions do not.
                equality = 1.0 / max(stats.ndv, 1.0) if stats is not None \
                    else DEFAULT_EQUALITY_SELECTIVITY
                if op != "=":
                    equality = 1.0 - equality
                return _clamp(equality * (1.0 - _null_fraction(stats)))
            return _comparison_selectivity(
                op, stats, _comparable_constant(constant.value))
        return DEFAULT_SELECTIVITY
    if isinstance(predicate, BoundIsNull):
        stats = resolver(predicate.child.position) \
            if isinstance(predicate.child, BoundColumnRef) else None
        fraction = _null_fraction(stats)
        return _clamp(1.0 - fraction if predicate.negated else fraction)
    if isinstance(predicate, BoundInList):
        if predicate.negated:
            return _clamp(1.0 - DEFAULT_SELECTIVITY)
        stats = resolver(predicate.child.position) \
            if isinstance(predicate.child, BoundColumnRef) else None
        per_item = 1.0 / max(stats.ndv, 1.0) if stats is not None \
            else DEFAULT_EQUALITY_SELECTIVITY
        return _clamp(len(predicate.items) * per_item)
    if isinstance(predicate, BoundLike):
        return _clamp(1.0 - DEFAULT_SELECTIVITY) if predicate.negated \
            else DEFAULT_SELECTIVITY
    return DEFAULT_SELECTIVITY


# ---------------------------------------------------------------------------
# per-operator cardinality
# ---------------------------------------------------------------------------

def _no_stats(position: int) -> Optional[ColumnStatistics]:
    return None


def column_ndv(plan: LogicalOperator, position: int) -> Optional[float]:
    """NDV of an output column, chased through pass-through operators down
    to the base scan that produces it (None when it cannot be traced)."""
    if isinstance(plan, LogicalGet):
        stats = _get_stats(plan, position)
        if stats is None:
            return None
        ndv = max(stats.ndv, 1.0)
        rows = estimated_rows(plan)
        if rows is not None:
            ndv = min(ndv, max(rows, 1.0))
        return ndv
    if isinstance(plan, LogicalProjection):
        expression = plan.expressions[position]
        if isinstance(expression, BoundColumnRef):
            return column_ndv(plan.children[0], expression.position)
        return None
    if isinstance(plan, (LogicalFilter, LogicalOrder, LogicalLimit,
                         LogicalDistinct)):
        return column_ndv(plan.children[0], position)
    if isinstance(plan, LogicalJoin):
        left_width = len(plan.children[0].schema)
        if position < left_width:
            return column_ndv(plan.children[0], position)
        return column_ndv(plan.children[1], position - left_width)
    return None


def _expression_ndv(plan: LogicalOperator,
                    expression: BoundExpression) -> Optional[float]:
    if isinstance(expression, BoundColumnRef):
        return column_ndv(plan, expression.position)
    return None


def estimated_rows(plan: LogicalOperator) -> Optional[float]:
    return getattr(plan, "estimated_rows", None)


def _child_rows(plan: LogicalOperator, index: int = 0) -> float:
    child = plan.children[index]
    rows = estimated_rows(child)
    if rows is None:
        rows = annotate(child)
    return rows


def join_output_estimate(left: LogicalOperator, right: LogicalOperator,
                         join_type: str,
                         condition_sides: List[Tuple[Optional[BoundExpression],
                                                     Optional[BoundExpression]]],
                         has_residual: bool = False) -> float:
    """Classic equi-join estimate: |L|·|R| / prod(max(ndv_l, ndv_r)).

    ``condition_sides`` pairs each condition's side expressions (bound to
    the respective child); pass ``None`` for a side whose NDV cannot be
    traced.  Also used by the join-order search on hypothetical pairings.
    """
    left_rows = estimated_rows(left)
    right_rows = estimated_rows(right)
    left_rows = left_rows if left_rows is not None else 1000.0
    right_rows = right_rows if right_rows is not None else 1000.0
    output = left_rows * right_rows
    for left_side, right_side in condition_sides:
        ndv_left = _expression_ndv(left, left_side) \
            if left_side is not None else None
        ndv_right = _expression_ndv(right, right_side) \
            if right_side is not None else None
        if ndv_left is None:
            ndv_left = max(left_rows, 1.0)
        if ndv_right is None:
            ndv_right = max(right_rows, 1.0)
        output /= max(ndv_left, ndv_right, 1.0)
    if has_residual:
        output *= DEFAULT_SELECTIVITY
    if join_type in ("inner", "cross"):
        return output
    if join_type == "left":
        return max(output, left_rows)
    if join_type == "right":
        return max(output, right_rows)
    if join_type == "full":
        return max(output, left_rows + right_rows)
    if join_type == "semi":
        return min(left_rows, max(output, 0.0))
    if join_type == "anti":
        return max(left_rows - output, 0.0)
    return output


def _estimate(plan: LogicalOperator) -> float:
    if isinstance(plan, LogicalGet):
        rows = scan_base_rows(plan)

        def resolver(position: int) -> Optional[ColumnStatistics]:
            return _get_stats(plan, position)

        for predicate in plan.pushed_filters:
            rows *= predicate_selectivity(predicate, resolver)
        hint = getattr(plan, "limit_hint", None)
        if hint is not None:
            rows = min(rows, float(hint))
        return rows
    if isinstance(plan, LogicalEmpty):
        return 0.0
    if isinstance(plan, LogicalValues):
        return float(len(plan.rows))
    if isinstance(plan, LogicalCSVScan):
        return _CSV_DEFAULT_ROWS
    if isinstance(plan, LogicalIntrospectionScan):
        return _INTROSPECTION_DEFAULT_ROWS
    if isinstance(plan, LogicalFilter):
        return _child_rows(plan) * predicate_selectivity(plan.predicate,
                                                         _no_stats)
    if isinstance(plan, (LogicalProjection, LogicalOrder)):
        return _child_rows(plan)
    if isinstance(plan, LogicalLimit):
        child_rows = max(_child_rows(plan) - plan.offset, 0.0)
        if plan.limit is None:
            return child_rows
        return min(child_rows, float(plan.limit))
    if isinstance(plan, LogicalDistinct):
        child_rows = _child_rows(plan)
        ndvs = [column_ndv(plan.children[0], position)
                for position in range(len(plan.schema))]
        if all(ndv is not None for ndv in ndvs):
            product = 1.0
            for ndv in ndvs:
                product *= ndv  # type: ignore[operator]
            return max(1.0, min(child_rows, product))
        return max(1.0, min(child_rows, child_rows ** 0.9))
    if isinstance(plan, LogicalAggregate):
        child_rows = _child_rows(plan)
        if not plan.groups:
            return 1.0
        product = 1.0
        for group in plan.groups:
            ndv = _expression_ndv(plan.children[0], group)
            if ndv is None:
                return max(1.0, min(child_rows, child_rows ** 0.75))
            product *= ndv
        return max(1.0, min(child_rows, product))
    if isinstance(plan, LogicalJoin):
        sides: List[Tuple[Optional[BoundExpression],
                          Optional[BoundExpression]]] = [
            (condition.left, condition.right)
            for condition in plan.conditions
        ]
        return join_output_estimate(plan.children[0], plan.children[1],
                                    plan.join_type, sides,
                                    plan.residual is not None)
    if isinstance(plan, LogicalSetOp):
        left_rows = _child_rows(plan, 0)
        right_rows = _child_rows(plan, 1)
        if plan.op == "union":
            total = left_rows + right_rows
            return total if plan.all else max(1.0, total * 0.7)
        if plan.op == "intersect":
            return min(left_rows, right_rows)
        return left_rows  # except
    if plan.children:
        return _child_rows(plan)
    return 1.0


def _column_stale(plan: LogicalOperator, position: int) -> bool:
    """Whether an output column's statistics are marked stale, chased
    through pass-through operators like :func:`column_ndv`."""
    if isinstance(plan, LogicalGet):
        stats = _get_stats(plan, position)
        return stats is not None and stats.stale
    if isinstance(plan, LogicalProjection):
        expression = plan.expressions[position]
        if isinstance(expression, BoundColumnRef):
            return _column_stale(plan.children[0], expression.position)
        return False
    if isinstance(plan, (LogicalFilter, LogicalOrder, LogicalLimit,
                         LogicalDistinct)):
        return _column_stale(plan.children[0], position)
    if isinstance(plan, LogicalJoin):
        left_width = len(plan.children[0].schema)
        if position < left_width:
            return _column_stale(plan.children[0], position)
        return _column_stale(plan.children[1], position - left_width)
    return False


def _expression_stale(plan: LogicalOperator,
                      expression: BoundExpression) -> bool:
    return any(_column_stale(plan, position)
               for position in expression.referenced_columns())


def _estimate_stale(plan: LogicalOperator) -> bool:
    """Whether this node's *own* estimate consulted stale statistics
    (child staleness propagates separately in :func:`annotate`)."""
    if isinstance(plan, LogicalGet):
        return any(_expression_stale(plan, predicate)
                   for predicate in plan.pushed_filters)
    if isinstance(plan, LogicalJoin):
        return any(
            _expression_stale(plan.children[0], condition.left)
            or _expression_stale(plan.children[1], condition.right)
            for condition in plan.conditions)
    if isinstance(plan, LogicalAggregate):
        return any(_expression_stale(plan.children[0], group)
                   for group in plan.groups)
    if isinstance(plan, LogicalDistinct):
        return any(_column_stale(plan.children[0], position)
                   for position in range(len(plan.schema)))
    return False


def annotate(plan: LogicalOperator) -> float:
    """Stamp ``estimated_rows`` on every node, bottom-up; returns the root
    estimate.  Estimates land on logical nodes first and are copied onto
    the physical operators during lowering, where EXPLAIN ANALYZE pairs
    them with actual row counts.  Nodes whose estimate consulted stale
    column statistics (or sit above one that did) also get
    ``estimate_stale`` so EXPLAIN can flag them."""
    for child in plan.children:
        annotate(child)
    rows = _estimate(plan)
    plan.estimated_rows = rows  # type: ignore[attr-defined]
    plan.estimate_stale = _estimate_stale(plan) \
        or any(child.estimate_stale for child in plan.children)
    return rows


# ---------------------------------------------------------------------------
# optimizer decisions
# ---------------------------------------------------------------------------

class DecisionRecorder:
    """Collects decisions while one statement is being optimized.

    Single-threaded (one statement, one optimizer invocation); the entries
    are ``(phase, decision, detail, estimated_rows)`` tuples.
    """

    def __init__(self) -> None:
        self.entries: List[Tuple[str, str, str, Optional[float]]] = []

    def record(self, phase: str, decision: str, detail: str = "",
               estimated_rows: Optional[float] = None) -> None:
        self.entries.append((phase, decision, detail, estimated_rows))
