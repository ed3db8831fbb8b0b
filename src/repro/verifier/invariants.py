"""quackplan invariants: pure structural checks over plan trees.

Every function here is side-effect free: it walks a logical (or physical)
operator tree and returns a list of :class:`PlanViolation`\\ s.  The
orchestration -- when to run which check, how to report, whether to raise --
lives in :mod:`repro.verifier.verifier`.

The invariants encode what every optimizer rewrite must preserve:

``column_binding``
    Every :class:`~repro.planner.expressions.BoundColumnRef` inside an
    operator's expressions resolves to a position inside its child's output
    schema, with a matching type.  (Subquery plans hang off expression
    attributes, not ``children``, so walking expression children never
    crosses into a subquery's separate coordinate space.)
``schema_shape`` / ``schema_types``
    An operator's declared output schema is structurally consistent with
    its inputs (projection width == expression count, join width == left +
    right, aggregate width == groups + aggregates, ...).
``output_map``
    A physical join's output map names positions inside ``left ++ right``,
    one per declared output column, each typed as its source column.
``schema_preserved``
    A whole rewrite pass leaves the *root* schema -- names, order, types --
    untouched: parents bound against the old output must never notice.
``limit_bounds`` / ``limit_hint`` / ``limit_monotonic``
    LIMIT/OFFSET values stay non-negative, every scan ``limit_hint`` is
    dominated by an actual Limit directly above the scan, and no pass
    increases the number of rows the plan may emit.
``ordering``
    Sort/Top-N operators carry at least one sort key and every key is
    bound; Top-N windows are non-negative.
``cardinality``
    After :func:`repro.optimizer.cost.annotate`, every node carries a
    finite, non-negative ``estimated_rows``, monotone through filters and
    limits.
``lowering_schema``
    The physical root produced by the planner matches the logical root's
    arity, types, and column names.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Tuple

from ..planner.expressions import BoundColumnRef, BoundExpression
from ..planner.logical import (
    ColumnSchema,
    LogicalAggregate,
    LogicalDistinct,
    LogicalEmpty,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalLimit,
    LogicalOperator,
    LogicalOrder,
    LogicalProjection,
    LogicalSetOp,
    LogicalValues,
)
from ..planner.window import LogicalWindow

__all__ = [
    "PlanViolation",
    "SchemaSignature",
    "check_cardinality",
    "check_logical",
    "check_lowering",
    "check_schema_preserved",
    "iter_nodes",
    "output_bound",
    "schema_signature",
]

#: Relative slack for estimate-monotonicity comparisons (floats accumulate
#: rounding across selectivity products).
_EST_EPSILON = 1e-6


class PlanViolation:
    """One invariant violation found in one operator."""

    __slots__ = ("invariant", "operator", "message")

    def __init__(self, invariant: str, operator: str, message: str) -> None:
        self.invariant = invariant
        self.operator = operator
        self.message = message

    def __repr__(self) -> str:
        return f"PlanViolation({self.invariant} @ {self.operator}: {self.message})"


#: ``[(column name, rendered type), ...]`` -- the order-sensitive identity
#: of an operator's output schema.
SchemaSignature = List[Tuple[str, str]]


def schema_signature(plan: LogicalOperator) -> SchemaSignature:
    return [(column.name, str(column.dtype)) for column in plan.schema]


def iter_nodes(plan) -> Iterator:
    """All operators of a tree (logical or physical), pre-order."""
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def _iter_edges(plan: LogicalOperator
                ) -> Iterator[Tuple[Optional[LogicalOperator],
                                    LogicalOperator]]:
    """All (parent, child) pairs, the root paired with ``None``."""
    stack: List[Tuple[Optional[LogicalOperator], LogicalOperator]] = \
        [(None, plan)]
    while stack:
        parent, node = stack.pop()
        yield parent, node
        for child in node.children:
            stack.append((node, child))


def _label(node) -> str:
    explain = getattr(node, "_explain_line", None)
    if explain is not None:
        return explain()
    return type(node).__name__


# ---------------------------------------------------------------------------
# column-binding integrity
# ---------------------------------------------------------------------------

def _check_bound(expression: BoundExpression, schema: List[ColumnSchema],
                 operator: str, context: str,
                 out: List[PlanViolation]) -> None:
    """Check every column ref of one expression against an input schema."""
    stack: List[BoundExpression] = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, BoundColumnRef):
            if not 0 <= node.position < len(schema):
                out.append(PlanViolation(
                    "column_binding", operator,
                    f"{context}: dangling column ref #{node.position} "
                    f"(input width is {len(schema)})"))
            elif node.return_type != schema[node.position].dtype:
                out.append(PlanViolation(
                    "column_binding", operator,
                    f"{context}: column ref #{node.position} typed "
                    f"{node.return_type} but the input column "
                    f"{schema[node.position].name!r} is "
                    f"{schema[node.position].dtype}"))
        stack.extend(node.children)


def _check_widths(node: LogicalOperator, operator: str,
                  out: List[PlanViolation]) -> None:
    """Pass-through operators must not change the column count."""
    child = node.children[0]
    if len(node.schema) != len(child.schema):
        out.append(PlanViolation(
            "schema_shape", operator,
            f"declares {len(node.schema)} output columns but its child "
            f"produces {len(child.schema)}"))


def _check_node_bindings(node: LogicalOperator, operator: str,
                         out: List[PlanViolation]) -> None:
    if isinstance(node, LogicalGet):
        if len(node.column_ids) != len(node.schema) + len(node.filter_schema):
            out.append(PlanViolation(
                "schema_shape", operator,
                f"scans {len(node.column_ids)} physical columns but "
                f"declares {len(node.schema)} output and "
                f"{len(node.filter_schema)} filter-only columns"))
        for index, predicate in enumerate(node.pushed_filters):
            _check_bound(predicate, node.schema + node.filter_schema,
                         operator, f"pushed filter #{index}", out)
        return
    if isinstance(node, LogicalFilter):
        _check_widths(node, operator, out)
        _check_bound(node.predicate, node.children[0].schema, operator,
                     "predicate", out)
        return
    if isinstance(node, LogicalProjection):
        if len(node.expressions) != len(node.schema):
            out.append(PlanViolation(
                "schema_shape", operator,
                f"projects {len(node.expressions)} expressions but declares "
                f"{len(node.schema)} output columns"))
        child_schema = node.children[0].schema
        for index, expression in enumerate(node.expressions):
            _check_bound(expression, child_schema, operator,
                         f"expression #{index}", out)
            if index < len(node.schema) \
                    and node.schema[index].dtype != expression.return_type:
                out.append(PlanViolation(
                    "schema_types", operator,
                    f"output column #{index} "
                    f"({node.schema[index].name!r}) declared "
                    f"{node.schema[index].dtype} but its expression "
                    f"returns {expression.return_type}"))
        return
    if isinstance(node, LogicalAggregate):
        expected = len(node.groups) + len(node.aggregates)
        if len(node.schema) != expected:
            out.append(PlanViolation(
                "schema_shape", operator,
                f"declares {len(node.schema)} output columns but has "
                f"{len(node.groups)} groups + {len(node.aggregates)} "
                f"aggregates"))
        child_schema = node.children[0].schema
        for index, group in enumerate(node.groups):
            _check_bound(group, child_schema, operator, f"group #{index}",
                         out)
        for index, aggregate in enumerate(node.aggregates):
            _check_bound(aggregate, child_schema, operator,
                         f"aggregate #{index}", out)
        return
    if isinstance(node, LogicalJoin):
        left, right = node.children
        if len(node.schema) != len(left.schema) + len(right.schema):
            out.append(PlanViolation(
                "schema_shape", operator,
                f"declares {len(node.schema)} output columns but its "
                f"children produce {len(left.schema)} + "
                f"{len(right.schema)}"))
        for index, condition in enumerate(node.conditions):
            _check_bound(condition.left, left.schema, operator,
                         f"condition #{index} left side", out)
            _check_bound(condition.right, right.schema, operator,
                         f"condition #{index} right side", out)
        if node.residual is not None:
            _check_bound(node.residual,
                         list(left.schema) + list(right.schema),
                         operator, "residual", out)
        return
    if isinstance(node, LogicalOrder):
        _check_widths(node, operator, out)
        for index, item in enumerate(node.items):
            _check_bound(item.expression, node.children[0].schema, operator,
                         f"sort key #{index}", out)
        if not node.items:
            out.append(PlanViolation(
                "ordering", operator, "ORDER BY carries no sort keys"))
        return
    if isinstance(node, LogicalLimit):
        _check_widths(node, operator, out)
        if node.limit is not None and node.limit < 0:
            out.append(PlanViolation(
                "limit_bounds", operator, f"negative limit {node.limit}"))
        if node.offset < 0:
            out.append(PlanViolation(
                "limit_bounds", operator, f"negative offset {node.offset}"))
        return
    if isinstance(node, LogicalDistinct):
        _check_widths(node, operator, out)
        return
    if isinstance(node, LogicalWindow):
        child = node.children[0]
        if len(node.schema) != len(child.schema) + len(node.windows):
            out.append(PlanViolation(
                "schema_shape", operator,
                f"declares {len(node.schema)} output columns but its child "
                f"produces {len(child.schema)} + {len(node.windows)} "
                f"windows"))
        for index, window in enumerate(node.windows):
            _check_bound(window, child.schema, operator,
                         f"window #{index}", out)
        return
    if isinstance(node, LogicalSetOp):
        for side, child in zip(("left", "right"), node.children):
            if len(child.schema) != len(node.schema):
                out.append(PlanViolation(
                    "schema_shape", operator,
                    f"{side} input produces {len(child.schema)} columns "
                    f"but the set operation declares {len(node.schema)}"))
        return
    if isinstance(node, LogicalValues):
        for index, row in enumerate(node.rows):
            if len(row) != len(node.schema):
                out.append(PlanViolation(
                    "schema_shape", operator,
                    f"row #{index} has {len(row)} values but the schema "
                    f"declares {len(node.schema)} columns"))
                break
        return
    # Leaf sources (CSV scan, introspection scan, EMPTY) and any future
    # operator: nothing positional to check beyond what the walk covers.


def _check_limit_hints(plan: LogicalOperator,
                       out: List[PlanViolation]) -> None:
    """Every scan ``limit_hint`` must be dominated by an actual Limit.

    A hint lets the scan stop fetching after N rows -- sound only when the
    node directly above is a LIMIT needing at most that many rows.  Any
    rewrite that moves the Limit away (or inflates the hint) silently
    truncates results.
    """
    for parent, node in _iter_edges(plan):
        if not isinstance(node, LogicalGet) or node.limit_hint is None:
            continue
        operator = _label(node)
        if not isinstance(parent, LogicalLimit):
            out.append(PlanViolation(
                "limit_hint", operator,
                f"limit_hint={node.limit_hint} on a scan whose parent is "
                f"{_label(parent) if parent is not None else 'the root'}, "
                f"not a LIMIT -- the scan may stop early and drop rows"))
        elif parent.limit is None:
            out.append(PlanViolation(
                "limit_hint", operator,
                f"limit_hint={node.limit_hint} under an unbounded LIMIT "
                f"(offset-only) -- the scan may stop early and drop rows"))
        elif parent.limit + parent.offset > node.limit_hint:
            out.append(PlanViolation(
                "limit_hint", operator,
                f"limit_hint={node.limit_hint} is smaller than the "
                f"dominating LIMIT's window "
                f"{parent.limit} + offset {parent.offset}"))


def check_logical(plan: LogicalOperator) -> List[PlanViolation]:
    """Binding + structural + limit-hint checks over a whole logical tree."""
    out: List[PlanViolation] = []
    for node in iter_nodes(plan):
        _check_node_bindings(node, _label(node), out)
    _check_limit_hints(plan, out)
    return out


# ---------------------------------------------------------------------------
# schema preservation across a pass
# ---------------------------------------------------------------------------

def check_schema_preserved(before: SchemaSignature,
                           plan: LogicalOperator) -> List[PlanViolation]:
    """The rewrite must keep the root's column list, order, and types."""
    after = schema_signature(plan)
    operator = _label(plan)
    if len(after) != len(before):
        return [PlanViolation(
            "schema_preserved", operator,
            f"pass changed the root width from {len(before)} to "
            f"{len(after)} columns (before: {before}, after: {after})")]
    out: List[PlanViolation] = []
    for index, (old, new) in enumerate(zip(before, after)):
        if old != new:
            out.append(PlanViolation(
                "schema_preserved", operator,
                f"root column #{index} changed from {old[0]!r} {old[1]} "
                f"to {new[0]!r} {new[1]}"))
    return out


# ---------------------------------------------------------------------------
# output bound (limit monotonicity across a pass)
# ---------------------------------------------------------------------------

def output_bound(plan: LogicalOperator) -> Optional[float]:
    """A conservative upper bound on the rows the plan can emit, or None.

    Derived purely from LIMIT structure (not estimates), so comparing the
    bound before and after a pass is an exact soundness statement: a pass
    that *raises* the bound may emit rows the original plan never could.
    """
    if isinstance(plan, LogicalLimit):
        bounds = [output_bound(plan.children[0])]
        if plan.limit is not None:
            bounds.append(float(plan.limit))
        known = [bound for bound in bounds if bound is not None]
        return min(known) if known else None
    if isinstance(plan, (LogicalFilter, LogicalProjection, LogicalOrder,
                         LogicalDistinct, LogicalWindow)):
        return output_bound(plan.children[0])
    if isinstance(plan, LogicalAggregate):
        return None if plan.groups else 1.0
    if isinstance(plan, LogicalEmpty):
        return 0.0
    if isinstance(plan, LogicalValues):
        return float(len(plan.rows))
    return None


# ---------------------------------------------------------------------------
# cardinality sanity (after cost.annotate)
# ---------------------------------------------------------------------------

def _estimate_invalid(estimate: float) -> bool:
    return math.isnan(estimate) or math.isinf(estimate) or estimate < 0


def check_cardinality(plan: LogicalOperator) -> List[PlanViolation]:
    """Estimates exist, are finite and non-negative, and shrink where the
    operator can only drop rows (filters, limits)."""
    out: List[PlanViolation] = []
    for node in iter_nodes(plan):
        operator = _label(node)
        estimate = node.estimated_rows
        if estimate is None:
            out.append(PlanViolation(
                "cardinality", operator,
                "no estimated_rows after annotation"))
            continue
        if _estimate_invalid(estimate):
            out.append(PlanViolation(
                "cardinality", operator,
                f"invalid estimate {estimate!r} (must be finite and >= 0)"))
            continue
        child_estimate = node.children[0].estimated_rows \
            if isinstance(node, (LogicalFilter, LogicalLimit)) else None
        if child_estimate is None or _estimate_invalid(child_estimate):
            continue
        ceiling = child_estimate
        if isinstance(node, LogicalLimit) and node.limit is not None:
            ceiling = min(ceiling, float(node.limit))
        if estimate > ceiling * (1.0 + _EST_EPSILON) + _EST_EPSILON:
            out.append(PlanViolation(
                "cardinality", operator,
                f"estimate {estimate:g} exceeds its input's "
                f"{child_estimate:g}"
                + (f" (limit {node.limit})"
                   if isinstance(node, LogicalLimit)
                   and node.limit is not None else "")
                + " -- this operator can only drop rows"))
    return out


# ---------------------------------------------------------------------------
# physical plans (logical -> physical translation)
# ---------------------------------------------------------------------------

def _check_bound_types(expression: BoundExpression, types: List,
                       operator: str, context: str,
                       out: List[PlanViolation]) -> None:
    """Physical twin of :func:`_check_bound`: inputs are type lists."""
    stack: List[BoundExpression] = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, BoundColumnRef):
            if not 0 <= node.position < len(types):
                out.append(PlanViolation(
                    "column_binding", operator,
                    f"{context}: dangling column ref #{node.position} "
                    f"(input width is {len(types)})"))
            elif node.return_type != types[node.position]:
                out.append(PlanViolation(
                    "column_binding", operator,
                    f"{context}: column ref #{node.position} typed "
                    f"{node.return_type} but the input column is "
                    f"{types[node.position]}"))
        stack.extend(node.children)


def _check_physical_node(node, operator: str,
                         out: List[PlanViolation]) -> None:
    # Imported lazily: repro.execution imports the optimizer (which imports
    # this package), so a module-level import would cycle.
    from ..execution.basic import (
        PhysicalFilter,
        PhysicalLimit,
        PhysicalProjection,
    )
    from ..execution.joins import (
        PhysicalHashJoin,
        PhysicalMergeJoin,
        PhysicalNestedLoopJoin,
    )
    from ..execution.sort import PhysicalOrder, PhysicalTopN

    estimate = node.estimated_rows
    if estimate is not None and _estimate_invalid(estimate):
        out.append(PlanViolation(
            "cardinality", operator,
            f"invalid estimate {estimate!r} (must be finite and >= 0)"))
    if isinstance(node, PhysicalFilter):
        _check_bound_types(node.predicate, node.children[0].types, operator,
                           "predicate", out)
        return
    if isinstance(node, PhysicalProjection):
        if len(node.expressions) != len(node.types):
            out.append(PlanViolation(
                "schema_shape", operator,
                f"projects {len(node.expressions)} expressions but "
                f"declares {len(node.types)} output columns"))
        for index, expression in enumerate(node.expressions):
            _check_bound_types(expression, node.children[0].types, operator,
                               f"expression #{index}", out)
        return
    if isinstance(node, (PhysicalHashJoin, PhysicalMergeJoin,
                         PhysicalNestedLoopJoin)):
        left, right = node.children
        inputs = list(left.types) + list(right.types)
        if len(node.types) != len(node.output_map):
            out.append(PlanViolation(
                "output_map", operator,
                f"declares {len(node.types)} output columns but maps "
                f"{len(node.output_map)}"))
        for index, (position, declared) in enumerate(
                zip(node.output_map, node.types)):
            if not 0 <= position < len(inputs):
                out.append(PlanViolation(
                    "output_map", operator,
                    f"output #{index} maps to #{position} (its children "
                    f"produce {len(left.types)} + {len(right.types)})"))
            elif declared != inputs[position]:
                out.append(PlanViolation(
                    "output_map", operator,
                    f"output #{index} declared {declared} but maps to "
                    f"#{position}, a {inputs[position]} column"))
        for index, condition in enumerate(node.conditions):
            _check_bound_types(condition.left, left.types, operator,
                               f"condition #{index} left side", out)
            _check_bound_types(condition.right, right.types, operator,
                               f"condition #{index} right side", out)
        if node.residual is not None:
            _check_bound_types(node.residual, inputs, operator, "residual",
                               out)
        return
    if isinstance(node, PhysicalOrder):
        if not node.items:
            out.append(PlanViolation(
                "ordering", operator, "sort carries no sort keys"))
        for index, item in enumerate(node.items):
            _check_bound_types(item.expression, node.children[0].types,
                               operator, f"sort key #{index}", out)
        return
    if isinstance(node, PhysicalTopN):
        if not node.items:
            out.append(PlanViolation(
                "ordering", operator,
                "Top-N carries no sort keys (ordering property lost in "
                "LIMIT+ORDER BY fusion)"))
        for index, item in enumerate(node.items):
            _check_bound_types(item.expression, node.children[0].types,
                               operator, f"sort key #{index}", out)
        if node.limit < 0 or node.offset < 0:
            out.append(PlanViolation(
                "limit_bounds", operator,
                f"negative Top-N window limit={node.limit} "
                f"offset={node.offset}"))
        return
    if isinstance(node, PhysicalLimit):
        if (node.limit is not None and node.limit < 0) or node.offset < 0:
            out.append(PlanViolation(
                "limit_bounds", operator,
                f"negative limit/offset {node.limit}/{node.offset}"))
        return


def check_lowering(logical: LogicalOperator,
                   physical) -> List[PlanViolation]:
    """Root schema agreement plus per-node physical binding checks."""
    out: List[PlanViolation] = []
    operator = _label(physical)
    logical_types = logical.types
    if len(physical.types) != len(logical_types):
        out.append(PlanViolation(
            "lowering_schema", operator,
            f"physical root produces {len(physical.types)} columns but the "
            f"logical root declares {len(logical_types)}"))
    else:
        for index, (phys, logi) in enumerate(zip(physical.types,
                                                 logical_types)):
            if phys != logi:
                out.append(PlanViolation(
                    "lowering_schema", operator,
                    f"root column #{index} lowered as {phys} but the "
                    f"logical plan declares {logi}"))
    for node in iter_nodes(physical):
        _check_physical_node(node, _label(node), out)
    return out
