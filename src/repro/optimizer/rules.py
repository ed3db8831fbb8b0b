"""Logical plan optimizer.

Five rewrite passes, run in order:

1. **Constant folding** -- column-free expression subtrees are evaluated at
   plan time; trivially-true filters disappear, trivially-false ones
   collapse the subtree to an empty source.
2. **Filter pushdown** -- WHERE conjuncts migrate toward the scans: through
   projections (by substitution), through inner joins (splitting per side,
   turning cross products into equi-joins), through ORDER BY and DISTINCT,
   and finally *into* :class:`~repro.planner.logical.LogicalGet`, where they
   are evaluated right after each chunk is fetched.
3. **Join reordering** -- maximal inner/cross-join regions are flattened
   into relations + predicates and rebuilt greedily from statistics
   (:mod:`repro.optimizer.cost`): start from the smallest estimated
   relation, repeatedly attach the connected relation with the smallest
   estimated output, cross products last.  Each step also picks the hash
   build side (the right child) as the smaller input.  A final projection
   restores the original column order, so parents never notice.
4. **Limit pushdown** -- LIMIT commutes past projections (exposing ORDER BY
   for Top-N fusion), stacked limits merge, and a ``limit_hint`` lands on
   the scan so it can stop fetching chunks once enough rows passed its
   filters.
5. **Column pruning** -- only the columns an operator's ancestors actually
   reference are scanned.  This matters doubly here: the paper's workloads
   "typically only target a subset of the columns of a large table" (§2),
   and our column store fetches each column independently.

After the passes, every node is annotated with ``estimated_rows`` and the
decisions taken (join order, build sides, pushdowns, scan selectivities)
are appended to the statement's
:class:`~repro.observability.accounting.StatementRecord`, which the
``repro_optimizer()`` system table reads.

When the database runs with ``verify_plans`` (quackplan,
:mod:`repro.verifier`), every pass executes inside a verification session:
the plan is checked for binding integrity, root-schema preservation, limit
soundness, and -- after annotation -- cardinality sanity, with violations
naming the offending pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import BinderError, Error, InternalError
from ..planner.expressions import (
    BoundColumnRef,
    BoundConstant,
    BoundExpression,
    BoundOperator,
)
from ..planner.logical import (
    ColumnSchema,
    JoinCondition,
    LogicalAggregate,
    LogicalCSVScan,
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
    reads_system_table,
)
from ..types import BOOLEAN
from ..verifier import active_verifier
from . import cost
from .cost import DecisionRecorder

__all__ = ["optimize"]


def _run_pass(session, name, fn, plan):
    """Run one rewrite pass, verified when a quackplan session is open."""
    if session is None:
        return fn(plan)
    return session.run_pass(name, fn, plan)


def optimize(plan: LogicalOperator, database=None,
             record=None) -> LogicalOperator:
    """Apply all rewrite passes to a bound logical plan.

    ``database`` (optional), when ``config.verify_plans`` is on, supplies
    the quackplan verifier that checks the plan after every pass.
    ``record`` (optional) is the running statement's
    :class:`~repro.observability.accounting.StatementRecord`: the
    decisions -- and the plan checks -- are appended to it, unless the
    plan reads a system table.
    """
    if record is not None and reads_system_table(plan):
        record = None
    recorder = DecisionRecorder()
    verifier = active_verifier(database)
    session = verifier.begin(plan, record) if verifier is not None else None
    plan = _run_pass(session, "constant_folding", _fold_operator, plan)
    plan = _run_pass(session, "filter_pushdown",
                     lambda p: _push_filters(p, []), plan)
    plan = _run_pass(session, "join_reordering",
                     lambda p: _reorder_joins(p, recorder), plan)
    plan = _run_pass(session, "limit_pushdown",
                     lambda p: _push_limits(p, recorder), plan)
    plan = _run_pass(session, "column_pruning",
                     lambda p: _prune_columns(
                         p, set(range(len(p.schema))))[0], plan)
    cost.annotate(plan)
    if session is not None:
        session.check_annotated(plan)
    _record_scans(plan, recorder)
    if record is not None:
        record.decisions = (record.decisions or []) + recorder.entries
    return plan


def _record_scans(plan: LogicalOperator, recorder: DecisionRecorder) -> None:
    """Log per-scan pushdown state and estimated selectivity."""
    stack = [plan]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if not isinstance(node, LogicalGet):
            continue
        base = cost.scan_base_rows(node)
        est = cost.estimated_rows(node)
        selectivity = (est / base) if (est is not None and base > 0) else 1.0
        hint = getattr(node, "limit_hint", None)
        detail = (f"filters={len(node.pushed_filters)} "
                  f"selectivity={selectivity:.4f} rows={int(base)}")
        if hint is not None:
            detail += f" limit_hint={hint}"
        recorder.record("scan", f"scan {node.table_entry.name}", detail, est)


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------

def _fold_expression(expression: BoundExpression) -> BoundExpression:
    children = [_fold_expression(child) for child in expression.children]
    if children:
        expression = expression.replace_children(children)
    if isinstance(expression, BoundConstant) or not expression.is_foldable():
        return expression
    try:
        from ..execution.expression_executor import evaluate_standalone

        value = evaluate_standalone(expression)
        return BoundConstant(value, expression.return_type)
    except Error:
        # Expressions that error at fold time (bad cast of a constant, ...)
        # are left in place so the error surfaces at execution, per row.
        return expression


def _fold_operator(plan: LogicalOperator) -> LogicalOperator:
    plan.children = [_fold_operator(child) for child in plan.children]
    if isinstance(plan, LogicalFilter):
        plan.predicate = _fold_expression(plan.predicate)
        if isinstance(plan.predicate, BoundConstant):
            if plan.predicate.value is True:
                return plan.children[0]
            return LogicalEmpty([], list(plan.schema))
    elif isinstance(plan, LogicalProjection):
        plan.expressions = [_fold_expression(expression)
                            for expression in plan.expressions]
    elif isinstance(plan, LogicalAggregate):
        plan.groups = [_fold_expression(group) for group in plan.groups]
        plan.aggregates = [
            aggregate.replace_children(
                [_fold_expression(arg) for arg in aggregate.args])
            if aggregate.args else aggregate
            for aggregate in plan.aggregates
        ]
    elif isinstance(plan, LogicalOrder):
        for item in plan.items:
            item.expression = _fold_expression(item.expression)
    elif isinstance(plan, LogicalJoin):
        if plan.residual is not None:
            plan.residual = _fold_expression(plan.residual)
        plan.conditions = [
            JoinCondition(_fold_expression(condition.left),
                          _fold_expression(condition.right))
            for condition in plan.conditions
        ]
    elif isinstance(plan, LogicalValues):
        plan.rows = [[_fold_expression(value) for value in row]
                     for row in plan.rows]
    return plan


# ---------------------------------------------------------------------------
# filter pushdown
# ---------------------------------------------------------------------------

def _flatten_and(expression: BoundExpression) -> List[BoundExpression]:
    if isinstance(expression, BoundOperator) and expression.op == "and":
        out: List[BoundExpression] = []
        for arg in expression.args:
            out.extend(_flatten_and(arg))
        return out
    return [expression]


def _combine_and(conjuncts: Sequence[BoundExpression]) -> BoundExpression:
    result = conjuncts[0]
    for part in conjuncts[1:]:
        result = BoundOperator("and", [result, part], BOOLEAN)
    return result


def _remap_expression(expression: BoundExpression,
                      mapping: Dict[int, int]) -> BoundExpression:
    if isinstance(expression, BoundColumnRef):
        return BoundColumnRef(mapping[expression.position],
                              expression.return_type, expression.name)
    children = [_remap_expression(child, mapping)
                for child in expression.children]
    if not children:
        return expression
    return expression.replace_children(children)


def _substitute(expression: BoundExpression,
                replacements: List[BoundExpression]) -> BoundExpression:
    """Replace column refs with the given expressions (projection inlining)."""
    if isinstance(expression, BoundColumnRef):
        return replacements[expression.position]
    children = [_substitute(child, replacements) for child in expression.children]
    if not children:
        return expression
    return expression.replace_children(children)


def _rebase(expression: BoundExpression, delta: int) -> BoundExpression:
    if isinstance(expression, BoundColumnRef):
        return BoundColumnRef(expression.position + delta,
                              expression.return_type, expression.name)
    children = [_rebase(child, delta) for child in expression.children]
    if not children:
        return expression
    return expression.replace_children(children)


def _wrap_filter(plan: LogicalOperator,
                 conjuncts: List[BoundExpression]) -> LogicalOperator:
    if not conjuncts:
        return plan
    return LogicalFilter(plan, _combine_and(conjuncts))


def _push_filters(plan: LogicalOperator,
                  conjuncts: List[BoundExpression]) -> LogicalOperator:
    """Push a list of conjuncts (bound to ``plan``'s output) downward."""
    if isinstance(plan, LogicalFilter):
        merged = conjuncts + _flatten_and(plan.predicate)
        return _push_filters(plan.children[0], merged)

    if isinstance(plan, LogicalProjection):
        inlined = [_substitute(conjunct, plan.expressions)
                   for conjunct in conjuncts]
        child = _push_filters(plan.children[0], inlined)
        return LogicalProjection(child, plan.expressions, plan.names)

    if isinstance(plan, LogicalGet):
        # Scans accumulate their own pushed filters; the schema is untouched.
        plan.pushed_filters.extend(conjuncts)  # quacklint: disable=QLP003 -- scan-owned list, schema unchanged
        return plan

    if isinstance(plan, LogicalJoin):
        left_width = len(plan.children[0].schema)
        total_width = len(plan.schema)
        left_parts: List[BoundExpression] = []
        right_parts: List[BoundExpression] = []
        keep: List[BoundExpression] = []
        new_conditions = list(plan.conditions)
        join_type = plan.join_type
        for conjunct in conjuncts:
            refs = conjunct.referenced_columns()
            left_only = all(position < left_width for position in refs)
            right_only = all(position >= left_width for position in refs)
            if left_only and join_type in ("inner", "cross", "left"):
                left_parts.append(conjunct)
            elif right_only and join_type in ("inner", "cross"):
                right_parts.append(_rebase(conjunct, -left_width))
            elif join_type in ("inner", "cross") and isinstance(conjunct, BoundOperator) \
                    and conjunct.op == "=" and len(conjunct.args) == 2:
                # An equality spanning both sides becomes a join condition,
                # turning a cross product into a proper equi-join.
                first, second = conjunct.args
                first_refs = first.referenced_columns()
                second_refs = second.referenced_columns()
                if first_refs and second_refs \
                        and max(first_refs) < left_width <= min(second_refs):
                    new_conditions.append(JoinCondition(
                        first, _rebase(second, -left_width)))
                    join_type = "inner"
                elif first_refs and second_refs \
                        and max(second_refs) < left_width <= min(first_refs):
                    new_conditions.append(JoinCondition(
                        second, _rebase(first, -left_width)))
                    join_type = "inner"
                else:
                    keep.append(conjunct)
            else:
                keep.append(conjunct)
        if join_type == "cross" and new_conditions:
            join_type = "inner"
        left = _push_filters(plan.children[0], left_parts)
        right = _push_filters(plan.children[1], right_parts)
        new_join = LogicalJoin(left, right, join_type, new_conditions,
                               plan.residual)
        return _wrap_filter(new_join, keep)

    if isinstance(plan, LogicalAggregate):
        group_width = len(plan.groups)
        pushable: List[BoundExpression] = []
        keep = []
        for conjunct in conjuncts:
            refs = conjunct.referenced_columns()
            if refs and all(position < group_width for position in refs):
                pushable.append(_substitute(
                    conjunct,
                    list(plan.groups) + [None] * len(plan.aggregates)))  # type: ignore[list-item]
            else:
                keep.append(conjunct)
        child = _push_filters(plan.children[0], pushable)
        # Re-derive the schema from the (unchanged) groups and aggregates
        # rather than borrowing the old node's: quackplan's QLP002 treats a
        # borrowed ``.schema`` as a stale-binding hazard.
        schema = [ColumnSchema(column.name, expression.return_type)
                  for column, expression in zip(
                      plan.schema, list(plan.groups) + list(plan.aggregates))]
        new_aggregate = LogicalAggregate(child, plan.groups, plan.aggregates,
                                         schema)
        return _wrap_filter(new_aggregate, keep)

    if isinstance(plan, (LogicalOrder, LogicalDistinct)):
        child = _push_filters(plan.children[0], conjuncts)
        if isinstance(plan, LogicalOrder):
            return LogicalOrder(child, plan.items)
        return LogicalDistinct(child)

    # LIMIT, set operations, VALUES, CSV scans: filters stay above.
    plan.children = [_push_filters(child, []) for child in plan.children]
    return _wrap_filter(plan, conjuncts)


# ---------------------------------------------------------------------------
# column pruning
# ---------------------------------------------------------------------------

def _expression_refs(expressions) -> Set[int]:
    out: Set[int] = set()
    for expression in expressions:
        out |= expression.referenced_columns()
    return out


def _prune_columns(plan: LogicalOperator,
                   required: Set[int]) -> Tuple[LogicalOperator, Dict[int, int]]:
    """Drop unused output columns; returns the plan and old->new positions."""
    if isinstance(plan, LogicalGet):
        # The scan emits what the parent reads -- at least one column, a
        # filter column if it reads nothing -- and scans the columns only
        # its pushed filters read after them, without emitting them.
        schema = plan.schema + plan.filter_schema
        filter_refs = _expression_refs(plan.pushed_filters)
        keep = sorted(required) or [min(filter_refs, default=0)]
        filter_only = sorted(filter_refs.difference(keep))
        scanned = keep + filter_only
        mapping = {old: new for new, old in enumerate(scanned)}
        plan.column_ids = [plan.column_ids[old] for old in scanned]  # quacklint: disable=QLP001 -- leaf rebind: ids and schemas are narrowed together
        plan.schema = [schema[old] for old in keep]  # quacklint: disable=QLP001 -- narrowed in lockstep with column_ids above
        plan.filter_schema = [schema[old] for old in filter_only]  # quacklint: disable=QLP001 -- narrowed in lockstep with column_ids above
        plan.pushed_filters = [_remap_expression(predicate, mapping)
                               for predicate in plan.pushed_filters]
        return plan, {old: mapping[old] for old in keep}

    if isinstance(plan, LogicalProjection):
        keep = sorted(required) if required else [0]
        child_required = _expression_refs(plan.expressions[old] for old in keep)
        child, child_mapping = _prune_columns(plan.children[0], child_required)
        expressions = [_remap_expression(plan.expressions[old], child_mapping)
                       for old in keep]
        names = [plan.schema[old].name for old in keep]
        mapping = {old: new for new, old in enumerate(keep)}
        return LogicalProjection(child, expressions, names), mapping

    if isinstance(plan, LogicalFilter):
        child_required = set(required) | plan.predicate.referenced_columns()
        child, mapping = _prune_columns(plan.children[0], child_required)
        predicate = _remap_expression(plan.predicate, mapping)
        return LogicalFilter(child, predicate), mapping

    if isinstance(plan, LogicalJoin):
        left_width = len(plan.children[0].schema)
        combined = set(required)
        if plan.residual is not None:
            combined |= plan.residual.referenced_columns()
        left_required = {position for position in combined if position < left_width}
        right_required = {position - left_width for position in combined
                          if position >= left_width}
        for condition in plan.conditions:
            left_required |= condition.left.referenced_columns()
            right_required |= condition.right.referenced_columns()
        left, left_mapping = _prune_columns(plan.children[0], left_required)
        right, right_mapping = _prune_columns(plan.children[1], right_required)
        new_left_width = len(left.schema)
        conditions = [
            JoinCondition(_remap_expression(condition.left, left_mapping),
                          _remap_expression(condition.right, right_mapping))
            for condition in plan.conditions
        ]
        combined_mapping = dict(left_mapping)
        for old, new in right_mapping.items():
            combined_mapping[old + left_width] = new + new_left_width
        residual = _remap_expression(plan.residual, combined_mapping) \
            if plan.residual is not None else None
        return LogicalJoin(left, right, plan.join_type, conditions, residual), \
            combined_mapping

    if isinstance(plan, LogicalAggregate):
        group_width = len(plan.groups)
        keep_aggregates = sorted(position - group_width for position in required
                                 if position >= group_width)
        aggregates = [plan.aggregates[index] for index in keep_aggregates]
        child_required = _expression_refs(plan.groups)
        child_required |= _expression_refs(
            arg for aggregate in aggregates for arg in aggregate.args)
        child, child_mapping = _prune_columns(plan.children[0], child_required)
        groups = [_remap_expression(group, child_mapping) for group in plan.groups]
        aggregates = [
            aggregate.replace_children([
                _remap_expression(arg, child_mapping) for arg in aggregate.args])
            if aggregate.args else aggregate
            for aggregate in aggregates
        ]
        schema = plan.schema[:group_width] + [
            plan.schema[group_width + index] for index in keep_aggregates
        ]
        mapping = {position: position for position in range(group_width)}
        for new_index, old_index in enumerate(keep_aggregates):
            mapping[group_width + old_index] = group_width + new_index
        return LogicalAggregate(child, groups, aggregates, schema), mapping

    if isinstance(plan, LogicalOrder):
        child_required = set(required) | _expression_refs(
            item.expression for item in plan.items)
        child, mapping = _prune_columns(plan.children[0], child_required)
        for item in plan.items:
            item.expression = _remap_expression(item.expression, mapping)
        return LogicalOrder(child, plan.items), mapping

    if isinstance(plan, LogicalLimit):
        child, mapping = _prune_columns(plan.children[0], required)
        return LogicalLimit(child, plan.limit, plan.offset), mapping

    if isinstance(plan, LogicalValues):
        keep = sorted(required) if required else list(range(len(plan.schema)))
        plan.rows = [[row[old] for old in keep] for row in plan.rows]
        plan.schema = [plan.schema[old] for old in keep]  # quacklint: disable=QLP001 -- leaf rebind: rows and schema are narrowed together
        mapping = {old: new for new, old in enumerate(keep)}
        return plan, mapping

    # DISTINCT, set operations, CSV scans, EMPTY: all columns are semantic.
    full = set(range(len(plan.schema)))
    identity = {position: position for position in full}
    new_children = []
    for child in plan.children:
        pruned, child_mapping = _prune_columns(
            child, set(range(len(child.schema))))
        if any(child_mapping[position] != position for position in child_mapping):
            raise InternalError("Full-requirement pruning changed a child schema")
        new_children.append(pruned)
    plan.children = new_children
    return plan, identity


# ---------------------------------------------------------------------------
# join reordering
# ---------------------------------------------------------------------------

class _FlatRelation:
    """One leaf of a flattened inner/cross-join region."""

    __slots__ = ("node", "offset", "width", "rows")

    def __init__(self, node: LogicalOperator, offset: int) -> None:
        self.node = node
        self.offset = offset
        self.width = len(node.schema)
        self.rows = 0.0


class _FlatPredicate:
    """One predicate of a region, with column refs in *global* coordinates
    (positions into the concatenated schema of all relations).

    Equi predicates keep their two sides separate (``left``/``right``) so
    they can be re-attached as join conditions of whichever join step first
    covers both sides; everything else is a ``general`` expression that
    becomes a join residual (or an initial filter)."""

    __slots__ = ("left", "right", "left_rels", "right_rels", "expr", "rels",
                 "left_ndv", "right_ndv", "used")

    def __init__(self, left: Optional[BoundExpression] = None,
                 right: Optional[BoundExpression] = None,
                 expr: Optional[BoundExpression] = None) -> None:
        self.left = left
        self.right = right
        self.expr = expr
        self.left_rels: Set[int] = set()
        self.right_rels: Set[int] = set()
        self.rels: Set[int] = set()
        self.left_ndv: Optional[float] = None
        self.right_ndv: Optional[float] = None
        self.used = False

    @property
    def is_equi(self) -> bool:
        return self.expr is None

    def as_expr(self) -> BoundExpression:
        """The predicate as one boolean expression (global coordinates)."""
        if self.expr is not None:
            return self.expr
        assert self.left is not None and self.right is not None
        return BoundOperator("=", [self.left, self.right], BOOLEAN)


def _flatten_join_region(plan: LogicalOperator,
                         offset: int,
                         relations: List[_FlatRelation],
                         predicates: List[_FlatPredicate]) -> None:
    """Collect the leaves and predicates of a maximal inner/cross region.

    Children are concatenated left-to-right, so a node's subtree occupies a
    contiguous global position range starting at ``offset``; rebasing its
    expressions by ``offset`` yields global coordinates."""
    if isinstance(plan, LogicalJoin) and plan.join_type in ("inner", "cross"):
        left, right = plan.children
        left_width = len(left.schema)
        _flatten_join_region(left, offset, relations, predicates)
        _flatten_join_region(right, offset + left_width, relations, predicates)
        for condition in plan.conditions:
            predicates.append(_FlatPredicate(
                left=_rebase(condition.left, offset),
                right=_rebase(condition.right, offset + left_width)))
        if plan.residual is not None:
            for conjunct in _flatten_and(plan.residual):
                predicates.append(
                    _FlatPredicate(expr=_rebase(conjunct, offset)))
    else:
        relations.append(_FlatRelation(plan, offset))


def _owning_relations(refs: Set[int],
                      relations: List[_FlatRelation]) -> Set[int]:
    out: Set[int] = set()
    for position in refs:
        for index, relation in enumerate(relations):
            if relation.offset <= position < relation.offset + relation.width:
                out.add(index)
                break
    return out


def _side_ndv(expression: Optional[BoundExpression], rels: Set[int],
              relations: List[_FlatRelation]) -> Optional[float]:
    """NDV of one equi side, when it is a bare column of one relation."""
    if expression is None or len(rels) != 1 \
            or not isinstance(expression, BoundColumnRef):
        return None
    relation = relations[next(iter(rels))]
    return cost.column_ndv(relation.node,
                           expression.position - relation.offset)


def _pair_estimate(acc_rows: float, cand_rows: float,
                   applicable: List[Tuple[Optional[float], Optional[float]]]
                   ) -> float:
    """Estimated output of joining the accumulated plan with a candidate.

    ``applicable`` lists (acc-side NDV, candidate-side NDV) per usable equi
    predicate; unknown NDVs default to the respective input size."""
    output = acc_rows * cand_rows
    for acc_ndv, cand_ndv in applicable:
        if acc_ndv is None:
            acc_ndv = max(acc_rows, 1.0)
        if cand_ndv is None:
            cand_ndv = max(cand_rows, 1.0)
        output /= max(acc_ndv, cand_ndv, 1.0)
    return output


def _applicable_equi(predicates: List[_FlatPredicate], placed: Set[int],
                     candidate: int
                     ) -> List[Tuple[_FlatPredicate, bool]]:
    """Equi predicates joinable when ``candidate`` is attached to ``placed``.

    The bool marks whether the predicate's *left* side is the accumulated
    (placed) side."""
    out: List[Tuple[_FlatPredicate, bool]] = []
    for predicate in predicates:
        if predicate.used or not predicate.is_equi:
            continue
        if not predicate.rels or not predicate.rels <= placed | {candidate}:
            continue
        if predicate.left_rels <= placed and predicate.right_rels \
                and predicate.right_rels <= {candidate}:
            out.append((predicate, True))
        elif predicate.right_rels <= placed and predicate.left_rels \
                and predicate.left_rels <= {candidate}:
            out.append((predicate, False))
    return out


def _relation_label(node: LogicalOperator) -> str:
    if isinstance(node, LogicalGet):
        return node.table_entry.name
    return type(node).__name__.replace("Logical", "").lower()


def _reorder_joins(plan: LogicalOperator,
                   recorder: DecisionRecorder) -> LogicalOperator:
    """Greedy selectivity-ordered join reordering (pass 3)."""
    if not (isinstance(plan, LogicalJoin)
            and plan.join_type in ("inner", "cross")
            and cost.statistics_enabled()):
        plan.children = [_reorder_joins(child, recorder)
                         for child in plan.children]
        return plan

    relations: List[_FlatRelation] = []
    predicates: List[_FlatPredicate] = []
    _flatten_join_region(plan, 0, relations, predicates)
    for relation in relations:
        relation.node = _reorder_joins(relation.node, recorder)
        relation.rows = cost.annotate(relation.node)
    for predicate in predicates:
        if predicate.is_equi:
            assert predicate.left is not None and predicate.right is not None
            predicate.left_rels = _owning_relations(
                predicate.left.referenced_columns(), relations)
            predicate.right_rels = _owning_relations(
                predicate.right.referenced_columns(), relations)
            predicate.rels = predicate.left_rels | predicate.right_rels
            predicate.left_ndv = _side_ndv(predicate.left,
                                           predicate.left_rels, relations)
            predicate.right_ndv = _side_ndv(predicate.right,
                                            predicate.right_rels, relations)
        else:
            assert predicate.expr is not None
            predicate.rels = _owning_relations(
                predicate.expr.referenced_columns(), relations)

    count = len(relations)
    # Greedy order: smallest relation first, then repeatedly the connected
    # relation minimizing the estimated intermediate; cross products last.
    start = min(range(count), key=lambda index: (relations[index].rows, index))
    order = [start]
    placed = {start}
    acc_rows = relations[start].rows
    step_rows = [acc_rows]
    while len(placed) < count:
        best_index: Optional[int] = None
        best_est = 0.0
        best_connected = False
        for candidate in range(count):
            if candidate in placed:
                continue
            applicable = _applicable_equi(predicates, placed, candidate)
            connected = bool(applicable)
            ndv_pairs = [
                (p.left_ndv, p.right_ndv) if acc_is_left
                else (p.right_ndv, p.left_ndv)
                for p, acc_is_left in applicable
            ]
            est = _pair_estimate(acc_rows, relations[candidate].rows,
                                 ndv_pairs)
            better = best_index is None \
                or (connected and not best_connected) \
                or (connected == best_connected and est < best_est)
            if better:
                best_index, best_est, best_connected = candidate, est, connected
        assert best_index is not None
        order.append(best_index)
        placed.add(best_index)
        acc_rows = best_est
        step_rows.append(best_est)

    rebuilt = _rebuild_join_region(relations, predicates, order, step_rows)
    recorder.record(
        "join_order",
        " ".join(_relation_label(relations[index].node) for index in order),
        f"relations={count} est_rows={int(round(acc_rows))}",
        acc_rows)
    return rebuilt


def _rebuild_join_region(relations: List[_FlatRelation],
                         predicates: List[_FlatPredicate],
                         order: List[int],
                         step_rows: List[float]) -> LogicalOperator:
    """Reassemble a flattened region in ``order``, per-step choosing the
    smaller input as the hash build side (the right child), and restoring
    the original column order with a final projection."""
    original_schema: List[ColumnSchema] = [None] * sum(  # type: ignore[list-item]
        relation.width for relation in relations)
    for relation in relations:
        for index in range(relation.width):
            original_schema[relation.offset + index] = \
                relation.node.schema[index]

    start = relations[order[0]]
    acc: LogicalOperator = start.node
    mapping = {start.offset + index: index for index in range(start.width)}
    placed = {order[0]}
    acc_rows = step_rows[0]

    # Predicates already fully covered by the first relation (single-table
    # residuals, constant predicates) become a plain filter on top of it.
    initial = [predicate for predicate in predicates
               if not predicate.used and predicate.rels <= placed]
    if initial:
        parts = []
        for predicate in initial:
            predicate.used = True
            parts.append(_remap_expression(predicate.as_expr(), mapping))
        acc = _wrap_filter(acc, parts)

    for step, rel_index in enumerate(order[1:], start=1):
        relation = relations[rel_index]
        local = {relation.offset + index: index
                 for index in range(relation.width)}
        conditions: List[Tuple[BoundExpression, BoundExpression]] = []
        residual_parts: List[BoundExpression] = []
        for predicate in predicates:
            if predicate.used \
                    or not predicate.rels <= placed | {rel_index}:
                continue
            predicate.used = True
            if predicate.is_equi:
                if predicate.left_rels <= placed and predicate.right_rels \
                        and predicate.right_rels <= {rel_index}:
                    conditions.append((predicate.left, predicate.right))
                    continue
                if predicate.right_rels <= placed and predicate.left_rels \
                        and predicate.left_rels <= {rel_index}:
                    conditions.append((predicate.right, predicate.left))
                    continue
            residual_parts.append(predicate.as_expr())
        rel_rows = relation.rows
        if rel_rows <= acc_rows:
            # New relation is the smaller input: keep it on the right (the
            # hash build side), the original left-deep orientation.
            left_node: LogicalOperator = acc
            right_node: LogicalOperator = relation.node
            new_mapping = dict(mapping)
            base = len(acc.schema)
            for index in range(relation.width):
                new_mapping[relation.offset + index] = base + index
            join_conditions = [
                JoinCondition(_remap_expression(acc_side, mapping),
                              _remap_expression(rel_side, local))
                for acc_side, rel_side in conditions
            ]
        else:
            # Accumulated intermediate is smaller: build on IT and stream
            # the new (larger) relation as the probe side.
            left_node, right_node = relation.node, acc
            new_mapping = {position: target + relation.width
                           for position, target in mapping.items()}
            for index in range(relation.width):
                new_mapping[relation.offset + index] = index
            join_conditions = [
                JoinCondition(_remap_expression(rel_side, local),
                              _remap_expression(acc_side, mapping))
                for acc_side, rel_side in conditions
            ]
        residual = None
        if residual_parts:
            residual = _combine_and([
                _remap_expression(part, new_mapping)
                for part in residual_parts
            ])
        join_type = "inner" if join_conditions else "cross"
        acc = LogicalJoin(left_node, right_node, join_type, join_conditions,
                          residual)
        mapping = new_mapping
        placed.add(rel_index)
        acc_rows = step_rows[step]

    total = len(original_schema)
    if any(mapping[position] != position for position in range(total)):
        expressions = [
            BoundColumnRef(mapping[position],
                           original_schema[position].dtype,
                           original_schema[position].name)
            for position in range(total)
        ]
        acc = LogicalProjection(
            acc, expressions,
            [column.name for column in original_schema])
    return acc


# ---------------------------------------------------------------------------
# limit pushdown
# ---------------------------------------------------------------------------

def _push_limits(plan: LogicalOperator,
                 recorder: DecisionRecorder) -> LogicalOperator:
    """Move LIMIT toward the sources (pass 4).

    * stacked limits merge;
    * LIMIT commutes past row-wise projections (which exposes
      ``LIMIT(ORDER BY)`` pairs for the physical Top-N fusion);
    * a LIMIT directly above a scan leaves a ``limit_hint`` on the scan so
      it stops fetching once enough rows have passed its filters (the
      LIMIT node stays for offset handling and exactness).
    """
    if isinstance(plan, LogicalLimit):
        child = plan.children[0]
        if isinstance(child, LogicalLimit):
            # Offsets add; the outer window must fit inside the inner one.
            offset = child.offset + plan.offset
            if child.limit is None:
                limit = plan.limit
            else:
                available = max(child.limit - plan.offset, 0)
                limit = available if plan.limit is None \
                    else min(plan.limit, available)
            merged = LogicalLimit(child.children[0], limit, offset)
            recorder.record("limit", "merge stacked limits",
                            f"limit={limit} offset={offset}")
            return _push_limits(merged, recorder)
        if isinstance(child, LogicalProjection):
            inner = _push_limits(
                LogicalLimit(child.children[0], plan.limit, plan.offset),
                recorder)
            recorder.record("limit", "push past projection",
                            f"limit={plan.limit} offset={plan.offset}")
            return LogicalProjection(inner, child.expressions, child.names)
        if isinstance(child, LogicalOrder) and plan.limit is not None:
            child.children = [_push_limits(grandchild, recorder)
                              for grandchild in child.children]
            recorder.record("limit", "top-n fusion",
                            f"limit={plan.limit} offset={plan.offset}")
            return plan
        if isinstance(child, LogicalGet) and plan.limit is not None:
            child.limit_hint = plan.limit + plan.offset
            recorder.record(
                "limit", f"scan limit hint {child.table_entry.name}",
                f"hint={child.limit_hint}")
            return plan
    plan.children = [_push_limits(child, recorder)
                     for child in plan.children]
    return plan
