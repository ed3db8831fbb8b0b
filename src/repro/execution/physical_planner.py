"""Lowers optimized logical plans onto physical Vector Volcano operators.

The one genuinely physical decision made here is the join implementation:
equi-joins default to the RAM-hungry hash join, but when the reactive
controller reports memory pressure (or the build estimate exceeds the
limit), eligible joins lower to the out-of-core merge join instead --
the paper's §6 hash-vs-merge trade-off, decided per query at plan time.
"""

from __future__ import annotations

import copy
from functools import partial

from ..errors import InternalError
from ..planner.expressions import BoundColumnRef
from ..planner.window import LogicalWindow
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
from ..verifier import active_verifier
from .aggregate import (
    PhysicalDistinct,
    PhysicalHashAggregate,
    PhysicalSetOp,
    aggregate_supports_partial,
)
from .basic import PhysicalFilter, PhysicalLimit, PhysicalProjection
from .joins import PhysicalHashJoin, PhysicalMergeJoin, PhysicalNestedLoopJoin
from .parallel import expressions_parallel_safe, plan_worker_count
from .physical import ExecutionContext, PhysicalOperator
from .scan import (
    PhysicalCSVScan,
    PhysicalEmptyResult,
    PhysicalIntrospectionScan,
    PhysicalTableScan,
    PhysicalValues,
)
from .sort import PhysicalOrder, PhysicalTopN

__all__ = ["create_physical_plan"]

#: Per-row byte estimate used for the join build-size heuristic.
_ESTIMATED_ROW_BYTES = 16


def _estimate_build_bytes(plan: LogicalOperator) -> int:
    """Cardinality-based estimate of a join build side's footprint.

    Prefers the optimizer's statistics-driven ``estimated_rows`` annotation;
    the structural fallbacks below cover unannotated plans (tests, direct
    lowering)."""
    estimated = getattr(plan, "estimated_rows", None)
    if estimated is not None:
        return int(estimated) * len(plan.schema) * _ESTIMATED_ROW_BYTES
    if isinstance(plan, LogicalGet):
        rows = plan.table_entry.data.row_count
        return rows * len(plan.schema) * _ESTIMATED_ROW_BYTES
    if isinstance(plan, (LogicalFilter,)):
        return _estimate_build_bytes(plan.children[0]) // 3
    if isinstance(plan, LogicalLimit) and plan.limit is not None:
        return plan.limit * len(plan.schema) * _ESTIMATED_ROW_BYTES
    if plan.children:
        return max(_estimate_build_bytes(child) for child in plan.children)
    return 0


def _merge_join_eligible(op: LogicalJoin) -> bool:
    return len(op.conditions) == 1 and op.join_type in ("inner", "left")


# -- morsel-driven lowering ---------------------------------------------------

def _restricted(node: PhysicalOperator, row_range) -> PhysicalOperator:
    """Scan pipeline ``node`` over the physical rows [start, end) only:
    copies of its operators, which keep per-execution state in their
    ``execute`` frames, without the whole-table cardinality estimates."""
    clone = copy.copy(node)
    clone.estimated_rows = None
    if isinstance(node, PhysicalTableScan):
        clone.row_range = row_range
    else:
        clone.children = [_restricted(node.children[0], row_range)]
    return clone


def _morsel_inputs(plan: LogicalAggregate, child: PhysicalOperator,
                   morsel_rows: int, context: ExecutionContext) -> dict:
    """The :class:`PhysicalHashAggregate` arguments that fold ``child``,
    ``plan``'s lowered input, morsel by morsel (``morsel_rows`` each) --
    ``fragments(row_range)`` is ``child`` restricted to one morsel -- or
    ``{}``.

    Eligibility: ``child`` is a filter/projection chain over a table scan
    of more than one morsel, every aggregate decomposes into partial states
    (no DISTINCT), and no expression anywhere in the pipeline contains a
    subquery (the subquery materialization cache is coordinator-only
    state).  The worker count decides nothing but how many workers run the
    morsels (at most one per morsel); one worker folds the same ones.
    """
    expressions = list(plan.groups)
    for aggregate in plan.aggregates:
        if not aggregate_supports_partial(aggregate):
            return {}
        expressions.extend(aggregate.args)
    node = child
    while isinstance(node, (PhysicalFilter, PhysicalProjection)):
        expressions.extend([node.predicate]
                           if isinstance(node, PhysicalFilter)
                           else node.expressions)
        node = node.children[0]
    if not isinstance(node, PhysicalTableScan):
        return {}
    morsels = -(-node.table_entry.data.row_count // morsel_rows)
    if morsels <= 1 or not expressions_parallel_safe(expressions
                                                      + node.filters):
        return {}
    return {"fragments": partial(_restricted, child),
            "table_data": node.table_entry.data,
            "worker_count": min(plan_worker_count(context), morsels)}


def create_physical_plan(plan: LogicalOperator,
                         context: ExecutionContext) -> PhysicalOperator:
    """Lower a logical operator tree, carrying the optimizer's cardinality
    estimates onto the physical operators (for EXPLAIN ANALYZE spans).

    Recursive: ``_lower`` calls back in here per child.  Only the outermost
    call is a *root* lowering -- that is the one quackplan verifies (when
    ``config.verify_plans`` is on), including subquery plans lowered
    mid-execution by ``materialize_subquery``, which re-enter at depth 0.
    """
    root = not context.lowering_active
    context.lowering_active = True
    try:
        physical = _lower(plan, context)
    finally:
        if root:
            context.lowering_active = False
    if physical.estimated_rows is None:
        physical.estimated_rows = plan.estimated_rows
    if plan.estimate_stale and not physical.estimate_stale:
        physical.estimate_stale = True
    if root:
        verifier = active_verifier(context.database)
        if verifier is not None:
            verifier.check_lowering(plan, physical, context.record)
    return physical


def _lower(plan: LogicalOperator,
           context: ExecutionContext) -> PhysicalOperator:
    """Recursively lower a logical operator tree."""
    if isinstance(plan, LogicalGet):
        return PhysicalTableScan(context, plan.table_entry, plan.column_ids,
                                 plan.types, plan.names, plan.pushed_filters,
                                 limit_hint=plan.limit_hint)
    if isinstance(plan, LogicalCSVScan):
        return PhysicalCSVScan(context, plan.path, plan.options, plan.types,
                               plan.names)
    if isinstance(plan, LogicalIntrospectionScan):
        return PhysicalIntrospectionScan(context, plan.function, plan.types,
                                         plan.names)
    if isinstance(plan, LogicalValues):
        return PhysicalValues(context, plan.rows, plan.types, plan.names)
    if isinstance(plan, LogicalEmpty):
        return PhysicalEmptyResult(context, [], plan.types, plan.names)
    if isinstance(plan, LogicalFilter):
        child = create_physical_plan(plan.children[0], context)
        return PhysicalFilter(context, child, plan.predicate)
    if isinstance(plan, LogicalProjection):
        child = create_physical_plan(plan.children[0], context)
        join = plan.children[0]
        if (isinstance(join, LogicalJoin) and plan.expressions
                and all(isinstance(e, BoundColumnRef) for e in plan.expressions)):
            # Column picks over a join become its output map: the join
            # gathers only the columns read above it.
            child.project([e.position for e in plan.expressions], plan.names)
            return child
        return PhysicalProjection(context, child, plan.expressions,
                                  plan.names)
    if isinstance(plan, LogicalAggregate):
        child = create_physical_plan(plan.children[0], context)
        morsel_rows = context.morsel_rows
        return PhysicalHashAggregate(
            context, child, plan.groups, plan.aggregates, plan.types,
            plan.names, morsel_rows,
            **_morsel_inputs(plan, child, morsel_rows, context))
    if isinstance(plan, LogicalDistinct):
        child = create_physical_plan(plan.children[0], context)
        return PhysicalDistinct(context, child)
    if isinstance(plan, LogicalWindow):
        from .window import PhysicalWindow

        child = create_physical_plan(plan.children[0], context)
        return PhysicalWindow(context, child, plan.windows, plan.types,
                              plan.names)
    if isinstance(plan, LogicalOrder):
        child = create_physical_plan(plan.children[0], context)
        return PhysicalOrder(context, child, plan.items)
    if isinstance(plan, LogicalLimit):
        # Fuse ORDER BY + LIMIT into Top-N: only limit+offset rows stay resident.
        child_logical = plan.children[0]
        if isinstance(child_logical, LogicalOrder) and plan.limit is not None:
            grandchild = create_physical_plan(child_logical.children[0], context)
            return PhysicalTopN(context, grandchild, child_logical.items,
                                plan.limit, plan.offset)
        child = create_physical_plan(plan.children[0], context)
        return PhysicalLimit(context, child, plan.limit, plan.offset)
    if isinstance(plan, LogicalSetOp):
        left = create_physical_plan(plan.children[0], context)
        right = create_physical_plan(plan.children[1], context)
        return PhysicalSetOp(context, left, right, plan.op, plan.all,
                             plan.types, plan.names)
    if isinstance(plan, LogicalJoin):
        left = create_physical_plan(plan.children[0], context)
        right = create_physical_plan(plan.children[1], context)
        if plan.join_type == "cross" or not plan.conditions:
            return PhysicalNestedLoopJoin(context, left, right,
                                          "inner" if plan.join_type == "cross"
                                          else plan.join_type,
                                          [], plan.residual)
        algorithm = "hash"
        if _merge_join_eligible(plan):
            estimate = _estimate_build_bytes(plan.children[1])
            # The hard memory limit overrides everything: a build side that
            # cannot fit must take the out-of-core path (paper §4: the user
            # sets hard limits; the engine must respect them).
            if estimate > context.memory_limit:
                algorithm = "merge"
            elif context.controller is not None:
                algorithm = context.controller.choose_join_algorithm(estimate)
        if algorithm == "merge" and _merge_join_eligible(plan):
            context.bump_stat("merge_joins", 1)
            return PhysicalMergeJoin(context, left, right, plan.join_type,
                                     plan.conditions, plan.residual)
        context.bump_stat("hash_joins", 1)
        return PhysicalHashJoin(context, left, right, plan.join_type,
                                plan.conditions, plan.residual)
    raise InternalError(f"Cannot lower logical operator {type(plan).__name__}")
