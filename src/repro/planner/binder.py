"""The binder: resolves names, types, and functions; builds logical plans.

Takes parser AST + catalog snapshot (via the binding transaction) and
produces :mod:`~repro.planner.bound_statements`.  All name resolution, type
checking, implicit casting, aggregate extraction, view expansion, CTE
resolution, and star expansion happens here, so the execution layer only
ever sees fully typed positional plans.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..catalog.catalog import Catalog
from ..catalog.entry import ColumnDefinition, TableEntry, ViewEntry
from ..errors import BinderError, CatalogError, ConversionError, InternalError
from ..functions.aggregate import AGGREGATE_NAMES, bind_aggregate
from ..functions.scalar import lookup_scalar_function
from ..sql import ast
from ..storage.table_data import ROW_ID_COLUMN
from ..types import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    INTEGER,
    LogicalType,
    LogicalTypeId,
    SQLNULL,
    VARCHAR,
    Vector,
    cast_scalar,
    common_type,
    infer_type_of_value,
    type_from_string,
)
from . import bound_statements as bound
from .expressions import (
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
    contains_aggregate,
)
from .logical import (
    BoundOrderByItem,
    ColumnSchema,
    JoinCondition,
    LogicalAggregate,
    LogicalCSVScan,
    LogicalDistinct,
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
from .subquery import BoundExistsSubquery, BoundInSubquery, BoundScalarSubquery
from .window import (
    BoundWindowExpr,
    LogicalWindow,
    bind_window_function,
    collect_windows,
    contains_window,
)

__all__ = ["Binder", "BindContext", "TableBinding"]


class TableBinding:
    """One FROM-clause entry visible during name resolution."""

    __slots__ = ("alias", "names", "types", "offset")

    def __init__(self, alias: str, names: List[str], types: List[LogicalType],
                 offset: int) -> None:
        self.alias = alias
        self.names = names
        self.types = types
        self.offset = offset


class BindContext:
    """The flat namespace of the current FROM clause."""

    def __init__(self) -> None:
        self.bindings: List[TableBinding] = []

    @property
    def total_columns(self) -> int:
        return sum(len(binding.names) for binding in self.bindings)

    def add(self, alias: str, names: List[str], types: List[LogicalType]) -> TableBinding:
        lowered = alias.lower()
        for binding in self.bindings:
            if binding.alias.lower() == lowered:
                raise BinderError(f"Duplicate table alias {alias!r} in FROM clause")
        binding = TableBinding(alias, names, types, self.total_columns)
        self.bindings.append(binding)
        return binding

    def try_resolve(self, table: Optional[str],
                    column: str) -> Optional[Tuple[int, LogicalType, str]]:
        """Resolve a (possibly qualified) column, or None when not in scope.

        Ambiguity is still an error: a reference that matches two bindings
        must not silently fall through to an enclosing scope.
        """
        column_lower = column.lower()
        matches = []
        for binding in self.bindings:
            if table is not None and binding.alias.lower() != table.lower():
                continue
            for index, name in enumerate(binding.names):
                if name.lower() == column_lower:
                    matches.append((binding.offset + index, binding.types[index], name))
        if not matches:
            return None
        if len(matches) > 1:
            raise BinderError(f"Column reference {column!r} is ambiguous")
        return matches[0]

    def resolve(self, table: Optional[str], column: str) -> Tuple[int, LogicalType, str]:
        """Resolve a (possibly qualified) column to (position, type, name)."""
        match = self.try_resolve(table, column)
        if match is None:
            raise BinderError(self.not_found_message(table, column))
        return match

    @staticmethod
    def not_found_message(table: Optional[str], column: str) -> str:
        full_name = f"{table}.{column}" if table else column
        return f"Column {full_name!r} not found in FROM clause"

    def columns_of(self, table: Optional[str]) -> List[Tuple[int, LogicalType, str]]:
        """All columns (for star expansion), optionally of one alias."""
        out = []
        found = False
        for binding in self.bindings:
            if table is not None and binding.alias.lower() != table.lower():
                continue
            found = True
            for index, name in enumerate(binding.names):
                out.append((binding.offset + index, binding.types[index], name))
        if table is not None and not found:
            raise BinderError(f"Table alias {table!r} not found in FROM clause")
        return out


def _fold_constant(expression: BoundExpression) -> BoundExpression:
    """Evaluate a column-free expression down to a constant."""
    if isinstance(expression, BoundConstant) or not expression.is_foldable():
        return expression
    from ..execution.expression_executor import evaluate_standalone

    value = evaluate_standalone(expression)
    return BoundConstant(value, expression.return_type)


class Binder:
    """Binds one statement.  Create a fresh Binder per statement."""

    def __init__(self, catalog: Catalog, transaction, parameters: Optional[Sequence] = None,
                 cte_scope: Optional[Dict[str, ast.Statement]] = None,
                 parameterize: bool = False) -> None:
        self.catalog = catalog
        self.transaction = transaction
        #: Either a sequence (qmark style) or a mapping (named style).
        self.parameters = parameters if parameters is not None else ()
        #: With ``parameterize=True`` parameter markers bind to
        #: :class:`BoundParameterRef` slots (values supplied per execution
        #: through the ExecutionContext) instead of being baked in as
        #: constants -- this is what makes the bound plan cacheable.
        self.parameterize = parameterize
        #: Set (on the statement's top-level binder) once a parameter's
        #: *value* was baked into the bound plan.  Such a plan answers only
        #: this execution's values, so the connection does not cache it.
        self.value_dependent = False
        self._root: "Binder" = self
        self.cte_scope: Dict[str, ast.Statement] = dict(cte_scope or {})
        #: FROM-clause scopes of enclosing queries, innermost first.  Only
        #: consulted to *diagnose* correlated references -- this engine does
        #: not execute correlated subqueries, but a reference that resolves
        #: in an enclosing scope should say so instead of claiming the
        #: column does not exist.
        self.outer_contexts: List[BindContext] = []

    def _child_binder(self) -> "Binder":
        child = Binder(self.catalog, self.transaction, self.parameters,
                       self.cte_scope, parameterize=self.parameterize)
        child.outer_contexts = list(self.outer_contexts)
        child._root = self._root
        return child

    # ------------------------------------------------------------------ statements
    def bind_statement(self, statement: ast.Statement) -> bound.BoundStatement:
        if isinstance(statement, (ast.SelectStatement, ast.SetOpStatement)):
            return bound.BoundSelect(self.bind_query(statement))
        if isinstance(statement, ast.InsertStatement):
            return self.bind_insert(statement)
        if isinstance(statement, ast.UpdateStatement):
            return self.bind_update(statement)
        if isinstance(statement, ast.DeleteStatement):
            return self.bind_delete(statement)
        if isinstance(statement, ast.CreateTableStatement):
            return self.bind_create_table(statement)
        if isinstance(statement, ast.CreateViewStatement):
            return bound.BoundCreateView(statement.name, statement.sql,
                                         statement.select, statement.or_replace)
        if isinstance(statement, ast.DropStatement):
            return bound.BoundDrop(statement.kind, statement.name, statement.if_exists)
        if isinstance(statement, ast.TransactionStatement):
            return bound.BoundTransaction(statement.action)
        if isinstance(statement, ast.CheckpointStatement):
            return bound.BoundCheckpoint()
        if isinstance(statement, ast.PragmaStatement):
            return bound.BoundPragma(statement.name, statement.value)
        if isinstance(statement, ast.CopyStatement):
            return self.bind_copy(statement)
        if isinstance(statement, ast.ExplainStatement):
            return bound.BoundExplain(self.bind_statement(statement.statement),
                                      getattr(statement, "analyze", False))
        raise BinderError(f"Cannot bind statement of type {type(statement).__name__}")

    # ------------------------------------------------------------------ queries
    def bind_query(self, statement: ast.Statement) -> LogicalOperator:
        """Bind a query expression (SELECT or set operation) into a plan."""
        if isinstance(statement, ast.SetOpStatement):
            return self._bind_set_op(statement)
        if isinstance(statement, ast.SelectStatement):
            return self._bind_select(statement)
        raise BinderError(f"{type(statement).__name__} is not a query")

    def _bind_set_op(self, statement: ast.SetOpStatement) -> LogicalOperator:
        binder = self._child_binder()
        for name, cte in statement.ctes:
            binder.cte_scope[name.lower()] = cte
        left = binder.bind_query(statement.left)
        right = binder.bind_query(statement.right)
        if len(left.schema) != len(right.schema):
            raise BinderError(
                f"Set operation column counts differ: {len(left.schema)} vs "
                f"{len(right.schema)}"
            )
        # Unify column types side by side.
        target_types = []
        for left_column, right_column in zip(left.schema, right.schema):
            unified = common_type(left_column.dtype, right_column.dtype)
            if unified is None:
                raise BinderError(
                    f"Set operation types {left_column.dtype} and "
                    f"{right_column.dtype} are incompatible"
                )
            target_types.append(unified)
        left = _cast_plan_to(left, target_types)
        right = _cast_plan_to(right, target_types)
        schema = [ColumnSchema(column.name, dtype)
                  for column, dtype in zip(left.schema, target_types)]
        plan: LogicalOperator = LogicalSetOp(left, right, statement.op,
                                             statement.all, schema)
        if statement.order_by:
            context_names = plan.names
            items = []
            for item in statement.order_by:
                expression = self._bind_order_key_by_output(
                    item.expression, context_names, plan.types)
                items.append(BoundOrderByItem(expression, item.ascending,
                                              item.nulls_first))
            plan = LogicalOrder(plan, items)
        plan = self._apply_limit(plan, statement.limit, statement.offset)
        return plan

    def _bind_where(self, where: ast.Expression,
                    context: BindContext) -> BoundExpression:
        """A WHERE predicate: boolean, without aggregates or windows."""
        predicate = self.bind_expression(where, context)
        if contains_aggregate(predicate):
            raise BinderError("Aggregates are not allowed in WHERE "
                              "(use HAVING)")
        if contains_window(predicate):
            raise BinderError("Window functions are not allowed in WHERE")
        return _fold_constant(_ensure_boolean(predicate, "WHERE"))

    def _bind_order_key_by_output(self, expression: ast.Expression,
                                  names: List[str],
                                  types: List[LogicalType]) -> BoundExpression:
        """Bind an ORDER BY key that may only reference output columns."""
        if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
            position = expression.value - 1
            if not 0 <= position < len(names):
                raise BinderError(f"ORDER BY position {expression.value} out of range")
            return BoundColumnRef(position, types[position], names[position])
        if isinstance(expression, ast.ColumnRef) and expression.table_name is None:
            lowered = expression.column_name.lower()
            for position, name in enumerate(names):
                if name.lower() == lowered:
                    return BoundColumnRef(position, types[position], name)
        raise BinderError("ORDER BY over a set operation must reference an "
                          "output column name or position")

    def _bind_select(self, statement: ast.SelectStatement) -> LogicalOperator:
        binder = self._child_binder()
        for name, cte in statement.ctes:
            binder.cte_scope[name.lower()] = cte
        return binder._bind_select_body(statement)

    def _bind_select_body(self, statement: ast.SelectStatement) -> LogicalOperator:
        context = BindContext()
        if statement.from_clause is not None:
            plan = self.bind_table_ref(statement.from_clause, context)
        else:
            plan = None  # SELECT without FROM: one conceptual row

        if statement.where is not None:
            predicate = self._bind_where(statement.where, context)
            if plan is None:
                raise BinderError("WHERE without FROM is not supported")
            plan = LogicalFilter(plan, predicate)

        # Expand stars and bind the select list.
        select_items: List[Tuple[BoundExpression, str]] = []
        for expression, alias in statement.select_list:
            if isinstance(expression, ast.Star):
                for position, dtype, name in context.columns_of(expression.table):
                    select_items.append((BoundColumnRef(position, dtype, name), name))
                continue
            bound_expression = self.bind_expression(expression, context,
                                                    allow_aggregates=True)
            name = alias or _expression_name(expression)
            select_items.append((bound_expression, name))
        if not select_items:
            raise BinderError("SELECT list is empty")

        # GROUP BY keys.
        group_expressions: List[BoundExpression] = []
        for group in statement.group_by:
            bound_group = self._bind_group_key(group, context, select_items)
            if contains_aggregate(bound_group):
                raise BinderError("Aggregates are not allowed in GROUP BY")
            if contains_window(bound_group):
                raise BinderError("Window functions are not allowed in "
                                  "GROUP BY")
            if not any(bound_group.same_as(existing) for existing in group_expressions):
                group_expressions.append(bound_group)

        having = None
        if statement.having is not None:
            having = self.bind_expression(statement.having, context,
                                          allow_aggregates=True)
            having = _ensure_boolean(having, "HAVING")

        # Collect aggregates from select list + having.
        aggregates: List[BoundAggregate] = []
        for expression, _ in select_items:
            _collect_aggregates(expression, aggregates)
        if having is not None:
            _collect_aggregates(having, aggregates)

        needs_aggregate = bool(group_expressions or aggregates)
        if statement.having is not None and not needs_aggregate:
            raise BinderError("HAVING requires GROUP BY or aggregates")

        if needs_aggregate:
            if plan is None:
                raise BinderError("Aggregates require a FROM clause")
            agg_schema = []
            for index, group in enumerate(group_expressions):
                agg_schema.append(ColumnSchema(f"__group_{index}", group.return_type))
            for index, aggregate in enumerate(aggregates):
                agg_schema.append(ColumnSchema(f"__agg_{index}", aggregate.return_type))
            plan = LogicalAggregate(plan, group_expressions, aggregates, agg_schema)
            # Rewrite select/having expressions against the aggregate output.
            select_items = [
                (_rewrite_post_aggregate(expression, group_expressions, aggregates),
                 name)
                for expression, name in select_items
            ]
            if having is not None:
                having = _rewrite_post_aggregate(having, group_expressions, aggregates)
                if contains_window(having):
                    raise BinderError("Window functions are not allowed in "
                                      "HAVING")
                plan = LogicalFilter(plan, having)

        # Window functions: computed over the (possibly aggregated) input,
        # appended as extra columns; select expressions are rewritten to
        # reference them.
        windows: List[BoundWindowExpr] = []
        for expression, _ in select_items:
            collect_windows(expression, windows)
        if windows:
            if plan is None:
                raise BinderError("Window functions require a FROM clause")
            base_width = len(plan.schema)
            plan = LogicalWindow(plan, windows)
            select_items = [
                (_rewrite_windows(expression, windows, base_width), name)
                for expression, name in select_items
            ]

        # Projection.
        if plan is None:
            # SELECT without FROM: a single constant row.
            for expression, _ in select_items:
                if expression.referenced_columns():
                    raise BinderError("Column references require a FROM clause")
            schema = [ColumnSchema(name, expression.return_type)
                      for expression, name in select_items]
            plan = LogicalValues([[expression for expression, _ in select_items]],
                                 schema)
        else:
            plan = LogicalProjection(plan,
                                     [expression for expression, _ in select_items],
                                     [name for _, name in select_items])

        if statement.distinct:
            plan = LogicalDistinct(plan)

        # ORDER BY: aliases / positions / arbitrary expressions (hidden cols).
        if statement.order_by:
            plan = self._bind_order_by(statement, plan, context,
                                       group_expressions if needs_aggregate else None,
                                       aggregates if needs_aggregate else None,
                                       select_items)
        plan = self._apply_limit(plan, statement.limit, statement.offset)
        return plan

    def _bind_group_key(self, expression: ast.Expression, context: BindContext,
                        select_items: List[Tuple[BoundExpression, str]]) -> BoundExpression:
        """GROUP BY key: a position, a select alias, or an expression."""
        if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
            position = expression.value - 1
            if not 0 <= position < len(select_items):
                raise BinderError(f"GROUP BY position {expression.value} out of range")
            return select_items[position][0]
        if isinstance(expression, ast.ColumnRef) and expression.table_name is None:
            lowered = expression.column_name.lower()
            for bound_expression, name in select_items:
                if name.lower() == lowered and not contains_aggregate(bound_expression):
                    try:
                        # Prefer a real column over the alias when both match.
                        return self.bind_expression(expression, context)
                    except BinderError:
                        return bound_expression
        return self.bind_expression(expression, context)

    def _bind_order_by(self, statement: ast.SelectStatement, plan: LogicalOperator,
                       context: BindContext,
                       group_expressions: Optional[List[BoundExpression]],
                       aggregates: Optional[List[BoundAggregate]],
                       select_items: List[Tuple[BoundExpression, str]]) -> LogicalOperator:
        output_names = [name for _, name in select_items]
        output_types = [expression.return_type for expression, _ in select_items]
        items: List[BoundOrderByItem] = []
        hidden: List[BoundExpression] = []

        for item in statement.order_by:
            expression = item.expression
            key: Optional[BoundExpression] = None
            # ORDER BY <position>
            if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
                position = expression.value - 1
                if not 0 <= position < len(output_names):
                    raise BinderError(f"ORDER BY position {expression.value} out of range")
                key = BoundColumnRef(position, output_types[position],
                                     output_names[position])
            # ORDER BY <alias>
            if key is None and isinstance(expression, ast.ColumnRef) \
                    and expression.table_name is None:
                lowered = expression.column_name.lower()
                for position, name in enumerate(output_names):
                    if name.lower() == lowered:
                        key = BoundColumnRef(position, output_types[position], name)
                        break
            # Arbitrary expression: bind against the projection input and
            # smuggle it through as a hidden projection column.
            if key is None:
                bound_expression = self.bind_expression(expression, context,
                                                        allow_aggregates=True)
                if group_expressions is not None:
                    bound_expression = _rewrite_post_aggregate(
                        bound_expression, group_expressions, aggregates or [])
                elif contains_aggregate(bound_expression):
                    raise BinderError("ORDER BY aggregate requires GROUP BY "
                                      "or an aggregated select list")
                if contains_window(bound_expression):
                    raise BinderError(
                        "A window function in ORDER BY must also appear in "
                        "the select list"
                    )
                # Reuse an identical select expression if present.
                for position, (select_expression, name) in enumerate(select_items):
                    if bound_expression.same_as(select_expression):
                        key = BoundColumnRef(position, output_types[position], name)
                        break
                if key is None:
                    if statement.distinct:
                        raise BinderError(
                            "ORDER BY expressions must appear in the select "
                            "list when SELECT DISTINCT is used"
                        )
                    hidden.append(bound_expression)
                    key = BoundColumnRef(len(output_names) + len(hidden) - 1,
                                         bound_expression.return_type, "__order")
            items.append(BoundOrderByItem(key, item.ascending, item.nulls_first))

        if hidden:
            # Rebuild: extend the projection with hidden columns, sort, strip.
            projection = plan
            if not isinstance(projection, LogicalProjection):
                raise InternalError("Hidden ORDER BY columns require a projection")
            child = projection.children[0]
            extended = LogicalProjection(
                child, list(projection.expressions) + hidden,
                list(projection.names) + [f"__order_{i}" for i in range(len(hidden))],
            )
            ordered = LogicalOrder(extended, items)
            visible = list(range(len(projection.names)))
            strip = LogicalProjection(
                ordered,
                [BoundColumnRef(position, extended.types[position],
                                extended.names[position]) for position in visible],
                list(projection.names),
            )
            return strip
        return LogicalOrder(plan, items)

    def _apply_limit(self, plan: LogicalOperator, limit_expression,
                     offset_expression) -> LogicalOperator:
        if limit_expression is None and offset_expression is None:
            return plan
        limit = self._fold_to_int(limit_expression, "LIMIT") \
            if limit_expression is not None else None
        offset = self._fold_to_int(offset_expression, "OFFSET") \
            if offset_expression is not None else 0
        if limit is not None and limit < 0:
            raise BinderError("LIMIT must be non-negative")
        if offset < 0:
            raise BinderError("OFFSET must be non-negative")
        return LogicalLimit(plan, limit, offset)

    def _fold_to_int(self, expression: ast.Expression, clause: str) -> int:
        # LIMIT/OFFSET are compile-time integers of the plan, so a parameter
        # here is read now rather than bound to a per-execution slot.
        parameterize, self.parameterize = self.parameterize, False
        try:
            bound_expression = self.bind_expression(expression, BindContext())
        finally:
            self.parameterize = parameterize
        folded = _fold_constant(bound_expression)
        if not isinstance(folded, BoundConstant) or isinstance(folded.value, float) \
                or not isinstance(folded.value, int):
            raise BinderError(f"{clause} must be a constant integer")
        return folded.value

    # ------------------------------------------------------------------ FROM clause
    def bind_table_ref(self, ref: ast.TableRef, context: BindContext) -> LogicalOperator:
        if isinstance(ref, ast.BaseTableRef):
            return self._bind_base_table(ref, context)
        if isinstance(ref, ast.SubqueryRef):
            return self._bind_subquery_ref(ref, context)
        if isinstance(ref, ast.JoinRef):
            return self._bind_join(ref, context)
        if isinstance(ref, ast.TableFunctionRef):
            return self._bind_table_function(ref, context)
        raise BinderError(f"Unsupported FROM clause element {type(ref).__name__}")

    def _bind_base_table(self, ref: ast.BaseTableRef, context: BindContext) -> LogicalOperator:
        lowered = ref.name.lower()
        # CTEs shadow catalog entries.
        if lowered in self.cte_scope:
            subquery = self.cte_scope[lowered]
            child = self._child_binder()
            # A CTE must not resolve itself (no recursive CTEs).
            del child.cte_scope[lowered]
            plan = child.bind_query(subquery)
            alias = ref.alias or ref.name
            context.add(alias, plan.names, plan.types)
            return plan
        entry = self.catalog.get_entry(ref.name, self.transaction)
        if entry is None:
            raise CatalogError(f"Table {ref.name!r} does not exist")
        if isinstance(entry, ViewEntry):
            if entry.query is None:
                from ..sql import parse_one

                entry.query = parse_one(entry.sql)
            child = self._child_binder()
            plan = child.bind_query(entry.query)
            alias = ref.alias or ref.name
            context.add(alias, plan.names, plan.types)
            return plan
        if not isinstance(entry, TableEntry):
            raise CatalogError(f"{ref.name!r} is not a table or view")
        schema = [ColumnSchema(column.name, column.dtype) for column in entry.columns]
        plan = LogicalGet(entry, list(range(len(entry.columns))), schema)
        alias = ref.alias or ref.name
        context.add(alias, plan.names, plan.types)
        return plan

    def _bind_subquery_ref(self, ref: ast.SubqueryRef, context: BindContext) -> LogicalOperator:
        child = self._child_binder()
        plan = child.bind_query(ref.subquery)
        names = plan.names
        if ref.column_aliases:
            if len(ref.column_aliases) != len(names):
                raise BinderError(
                    f"Subquery alias declares {len(ref.column_aliases)} columns, "
                    f"subquery produces {len(names)}"
                )
            names = list(ref.column_aliases)
            plan = LogicalProjection(
                plan,
                [BoundColumnRef(position, dtype, name)
                 for position, (dtype, name) in enumerate(zip(plan.types, names))],
                names,
            )
        alias = ref.alias or f"__subquery_{id(ref) & 0xFFFF}"
        context.add(alias, names, plan.types)
        return plan

    def _bind_join(self, ref: ast.JoinRef, context: BindContext) -> LogicalOperator:
        left = self.bind_table_ref(ref.left, context)
        left_width = context.total_columns
        right = self.bind_table_ref(ref.right, context)

        if ref.join_type == "cross":
            return LogicalJoin(left, right, "cross", [])

        conditions: List[JoinCondition] = []
        residual: Optional[BoundExpression] = None
        if ref.using_columns:
            for column in ref.using_columns:
                left_position, left_type, _ = _resolve_in_range(
                    context, column, 0, left_width)
                right_position, right_type, _ = _resolve_in_range(
                    context, column, left_width, context.total_columns)
                unified = common_type(left_type, right_type)
                if unified is None:
                    raise BinderError(
                        f"USING column {column!r} has incompatible types"
                    )
                left_key: BoundExpression = BoundColumnRef(left_position, left_type, column)
                right_key: BoundExpression = BoundColumnRef(
                    right_position - left_width, right_type, column)
                if left_type != unified:
                    left_key = BoundCast(left_key, unified)
                if right_type != unified:
                    right_key = BoundCast(right_key, unified)
                conditions.append(JoinCondition(left_key, right_key))
        elif ref.condition is not None:
            predicate = self.bind_expression(ref.condition, context)
            predicate = _ensure_boolean(predicate, "JOIN ON")
            conditions, residual = _split_join_condition(predicate, left_width)
        if not conditions and residual is None:
            raise BinderError("JOIN requires a condition")
        return LogicalJoin(left, right, ref.join_type, conditions, residual)

    def _bind_table_function(self, ref: ast.TableFunctionRef,
                             context: BindContext) -> LogicalOperator:
        from ..introspection import lookup as lookup_system_function

        system = lookup_system_function(ref.name)
        if system is not None:
            if ref.args:
                raise BinderError(
                    f"{system.name}() is a system table function and "
                    f"takes no arguments")
            schema = [ColumnSchema(name, dtype)
                      for name, dtype in system.columns]
            plan = LogicalIntrospectionScan(system, schema)
            alias = ref.alias or system.name
            context.add(alias, plan.names, plan.types)
            return plan
        if ref.name not in ("read_csv", "read_csv_auto", "scan_csv"):
            raise BinderError(f"Unknown table function {ref.name!r}")
        if not ref.args or not isinstance(ref.args[0], ast.Literal) \
                or not isinstance(ref.args[0].value, str):
            raise BinderError(f"{ref.name}() requires a file path literal")
        path = ref.args[0].value
        from ..etl.csv_reader import sniff_csv

        sniffed = sniff_csv(path)
        if not sniffed.types:
            raise BinderError(
                f"CSV file {path!r} is empty: cannot infer a schema for "
                f"{ref.name}()")
        schema = [ColumnSchema(name, dtype)
                  for name, dtype in zip(sniffed.names, sniffed.types)]
        plan = LogicalCSVScan(path, sniffed.options(), schema)
        alias = ref.alias or "csv"
        context.add(alias, plan.names, plan.types)
        return plan

    # ------------------------------------------------------------------ expressions
    def _parameter_value(self, expression: ast.Parameter) -> Tuple[Any, Any]:
        """Resolve a parameter marker to ``(value, key)``.

        Positional markers index a sequence; named markers look up a
        mapping.  The parser already rejects mixing the styles in one SQL
        string, so only the supplied-parameters *shape* can mismatch here.
        """
        if expression.name is not None:
            if not isinstance(self.parameters, Mapping):
                raise BinderError(
                    f"Named parameter :{expression.name} requires parameters "
                    f"passed as a mapping")
            if expression.name not in self.parameters:
                raise BinderError(
                    f"Missing value for named parameter :{expression.name}")
            return self.parameters[expression.name], expression.name
        if isinstance(self.parameters, Mapping):
            raise BinderError(
                "Positional parameter '?' requires parameters passed as a "
                "sequence")
        if expression.index >= len(self.parameters):
            raise BinderError(
                f"Query expects at least {expression.index + 1} parameter(s), "
                f"got {len(self.parameters)}"
            )
        return self.parameters[expression.index], expression.index

    def bind_expression(self, expression: ast.Expression, context: BindContext,
                        allow_aggregates: bool = False) -> BoundExpression:
        if isinstance(expression, ast.Literal):
            return BoundConstant(expression.value, infer_type_of_value(expression.value))
        if isinstance(expression, ast.Parameter):
            value, key = self._parameter_value(expression)
            # executemany binds a whole parameter column per marker.
            dtype = value.dtype if isinstance(value, Vector) \
                else infer_type_of_value(value)
            if self.parameterize:
                return BoundParameterRef(key, dtype)
            self._root.value_dependent = True
            return BoundConstant(value, dtype)
        if isinstance(expression, ast.ColumnRef):
            match = context.try_resolve(expression.table_name,
                                        expression.column_name)
            if match is None:
                # Distinguish "no such column" from a correlated reference:
                # if the name resolves in an enclosing query's scope, the
                # query is well-formed SQL this engine does not support yet.
                for outer in self.outer_contexts:
                    if outer.try_resolve(expression.table_name,
                                         expression.column_name) is not None:
                        raise BinderError(
                            "correlated subqueries are not supported")
                raise BinderError(BindContext.not_found_message(
                    expression.table_name, expression.column_name))
            position, dtype, name = match
            return BoundColumnRef(position, dtype, name)
        if isinstance(expression, ast.Star):
            raise BinderError("* is only allowed in the select list and COUNT(*)")
        if isinstance(expression, ast.UnaryOp):
            return self._bind_unary(expression, context, allow_aggregates)
        if isinstance(expression, ast.BinaryOp):
            return self._bind_binary(expression, context, allow_aggregates)
        if isinstance(expression, ast.IsNull):
            child = self.bind_expression(expression.operand, context, allow_aggregates)
            return BoundIsNull(child, expression.negated)
        if isinstance(expression, ast.InList):
            return self._bind_in_list(expression, context, allow_aggregates)
        if isinstance(expression, ast.Between):
            # x BETWEEN lo AND hi  ==>  x >= lo AND x <= hi
            lower = ast.BinaryOp(">=", expression.operand, expression.low,
                                 expression.position)
            upper = ast.BinaryOp("<=", expression.operand, expression.high,
                                 expression.position)
            rewritten: ast.Expression = ast.BinaryOp("and", lower, upper,
                                                     expression.position)
            if expression.negated:
                rewritten = ast.UnaryOp("not", rewritten, expression.position)
            return self.bind_expression(rewritten, context, allow_aggregates)
        if isinstance(expression, ast.Case):
            return self._bind_case(expression, context, allow_aggregates)
        if isinstance(expression, ast.CastExpr):
            child = self.bind_expression(expression.operand, context, allow_aggregates)
            target = type_from_string(expression.type_name)
            if child.return_type == target:
                return child
            return BoundCast(child, target)
        if isinstance(expression, ast.LikeExpr):
            child = self.bind_expression(expression.operand, context, allow_aggregates)
            pattern = self.bind_expression(expression.pattern, context, allow_aggregates)
            child = _implicit_cast(child, VARCHAR, "LIKE operand")
            pattern = _implicit_cast(pattern, VARCHAR, "LIKE pattern")
            escape = None
            if expression.escape is not None:
                escape = self.bind_expression(expression.escape, context,
                                              allow_aggregates)
                escape = _implicit_cast(escape, VARCHAR, "LIKE ESCAPE")
            return BoundLike(child, pattern, expression.negated,
                             expression.case_insensitive, escape)
        if isinstance(expression, ast.FunctionCall):
            return self._bind_function(expression, context, allow_aggregates)
        if isinstance(expression, ast.WindowExpr):
            return self._bind_window(expression, context, allow_aggregates)
        if isinstance(expression, ast.ScalarSubquery):
            plan = self._bind_subquery_plan(expression.subquery, context)
            if len(plan.schema) != 1:
                raise BinderError("Scalar subquery must return exactly one column")
            return BoundScalarSubquery(plan, plan.types[0])
        if isinstance(expression, ast.InSubquery):
            child = self.bind_expression(expression.operand, context, allow_aggregates)
            plan = self._bind_subquery_plan(expression.subquery, context)
            if len(plan.schema) != 1:
                raise BinderError("IN subquery must return exactly one column")
            unified = common_type(child.return_type, plan.types[0])
            if unified is None:
                raise BinderError(
                    f"IN subquery types {child.return_type} and {plan.types[0]} "
                    "are incompatible"
                )
            child = _implicit_cast(child, unified, "IN operand")
            plan = _cast_plan_to(plan, [unified])
            return BoundInSubquery(child, plan, expression.negated)
        if isinstance(expression, ast.ExistsExpr):
            plan = self._bind_subquery_plan(expression.subquery, context)
            return BoundExistsSubquery(plan, expression.negated)
        raise BinderError(f"Cannot bind expression {type(expression).__name__}")

    def _bind_subquery_plan(self, subquery: ast.Statement,
                            outer_context: Optional[BindContext] = None
                            ) -> LogicalOperator:
        child = self._child_binder()
        if outer_context is not None:
            child.outer_contexts = [outer_context] + child.outer_contexts
        return child.bind_query(subquery)

    def _bind_unary(self, expression: ast.UnaryOp, context: BindContext,
                    allow_aggregates: bool) -> BoundExpression:
        child = self.bind_expression(expression.operand, context, allow_aggregates)
        if expression.op == "not":
            child = _implicit_cast(child, BOOLEAN, "NOT operand")
            return BoundOperator("not", [child], BOOLEAN)
        if expression.op == "-":
            child_type = child.return_type
            if child_type.id is LogicalTypeId.SQLNULL:
                child = BoundCast(child, INTEGER)
                child_type = INTEGER
            if not child_type.is_numeric():
                raise BinderError(f"Unary minus requires a numeric operand, "
                                  f"got {child_type}")
            return BoundOperator("negate", [child], child_type)
        raise BinderError(f"Unknown unary operator {expression.op!r}")

    def _bind_binary(self, expression: ast.BinaryOp, context: BindContext,
                     allow_aggregates: bool) -> BoundExpression:
        left = self.bind_expression(expression.left, context, allow_aggregates)
        right = self.bind_expression(expression.right, context, allow_aggregates)
        op = expression.op
        if op in ("and", "or"):
            left = _implicit_cast(left, BOOLEAN, f"{op.upper()} operand")
            right = _implicit_cast(right, BOOLEAN, f"{op.upper()} operand")
            return BoundOperator(op, [left, right], BOOLEAN)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            unified = common_type(left.return_type, right.return_type)
            if unified is None:
                raise BinderError(
                    f"Cannot compare {left.return_type} with {right.return_type}"
                )
            left = _implicit_cast(left, unified, "comparison")
            right = _implicit_cast(right, unified, "comparison")
            return BoundOperator(op, [left, right], BOOLEAN)
        if op == "concat":
            left = _implicit_cast(left, VARCHAR, "|| operand")
            right = _implicit_cast(right, VARCHAR, "|| operand")
            return BoundOperator("concat", [left, right], VARCHAR)
        if op in ("+", "-", "*", "/", "%"):
            left_type, right_type = left.return_type, right.return_type
            if left_type.id is LogicalTypeId.SQLNULL:
                left_type = right_type if right_type.is_numeric() else DOUBLE
                left = BoundCast(left, left_type)
            if right_type.id is LogicalTypeId.SQLNULL:
                right_type = left_type if left_type.is_numeric() else DOUBLE
                right = BoundCast(right, right_type)
            if not left_type.is_numeric() or not right_type.is_numeric():
                raise BinderError(
                    f"Operator {op!r} requires numeric operands, got "
                    f"{left_type} and {right_type}"
                )
            if op == "/":
                result = DOUBLE
            else:
                result = common_type(left_type, right_type)
                # Integer arithmetic promotes to avoid silent overflow.
                if result is not None and result.is_integer():
                    result = BIGINT
            if result is None:
                raise BinderError(f"No common type for {left_type} {op} {right_type}")
            left = _implicit_cast(left, result, "arithmetic")
            right = _implicit_cast(right, result, "arithmetic")
            return BoundOperator(op, [left, right], result)
        raise BinderError(f"Unknown binary operator {op!r}")

    def _bind_in_list(self, expression: ast.InList, context: BindContext,
                      allow_aggregates: bool) -> BoundExpression:
        child = self.bind_expression(expression.operand, context, allow_aggregates)
        items = [self.bind_expression(item, context, allow_aggregates)
                 for item in expression.items]
        unified = child.return_type
        for item in items:
            merged = common_type(unified, item.return_type)
            if merged is None:
                raise BinderError(
                    f"IN list value of type {item.return_type} is incompatible "
                    f"with operand type {unified}"
                )
            unified = merged
        child = _implicit_cast(child, unified, "IN operand")
        items = [_implicit_cast(item, unified, "IN list") for item in items]
        return BoundInList(child, items, expression.negated)

    def _bind_case(self, expression: ast.Case, context: BindContext,
                   allow_aggregates: bool) -> BoundExpression:
        whens: List[Tuple[BoundExpression, BoundExpression]] = []
        if expression.operand is not None:
            # Simple CASE desugars to searched CASE with equality conditions.
            operand = expression.operand
            for condition, result in expression.whens:
                equals = ast.BinaryOp("=", operand, condition, expression.position)
                whens.append((
                    _ensure_boolean(
                        self.bind_expression(equals, context, allow_aggregates),
                        "CASE WHEN"),
                    self.bind_expression(result, context, allow_aggregates),
                ))
        else:
            for condition, result in expression.whens:
                whens.append((
                    _ensure_boolean(
                        self.bind_expression(condition, context, allow_aggregates),
                        "CASE WHEN"),
                    self.bind_expression(result, context, allow_aggregates),
                ))
        else_result = self.bind_expression(expression.else_result, context,
                                           allow_aggregates) \
            if expression.else_result is not None else BoundConstant(None, SQLNULL)
        result_type = else_result.return_type
        for _, result in whens:
            unified = common_type(result_type, result.return_type)
            if unified is None:
                raise BinderError(
                    f"CASE branches have incompatible types {result_type} and "
                    f"{result.return_type}"
                )
            result_type = unified
        if result_type.id is LogicalTypeId.SQLNULL:
            result_type = INTEGER
        whens = [(condition, _implicit_cast(result, result_type, "CASE branch"))
                 for condition, result in whens]
        else_result = _implicit_cast(else_result, result_type, "CASE ELSE")
        return BoundCase(whens, else_result, result_type)

    def _bind_function(self, expression: ast.FunctionCall, context: BindContext,
                       allow_aggregates: bool) -> BoundExpression:
        name = expression.name
        star_argument = len(expression.args) == 1 and isinstance(expression.args[0],
                                                                 ast.Star)
        if name in AGGREGATE_NAMES:
            if not allow_aggregates:
                raise BinderError(f"Aggregate {name}() is not allowed here")
            if star_argument:
                return BoundAggregate(name, [], expression.distinct,
                                      bind_aggregate(name, [], True)[0])
            args = [self.bind_expression(arg, context, allow_aggregates=False)
                    for arg in expression.args]
            for arg in args:
                if contains_aggregate(arg):
                    raise BinderError("Aggregates cannot be nested")
            return_type, coerced = bind_aggregate(name, [arg.return_type for arg in args],
                                                  False)
            args = [_implicit_cast(arg, target, f"{name}()")
                    for arg, target in zip(args, coerced)]
            return BoundAggregate(name, args, expression.distinct, return_type)
        if expression.distinct:
            raise BinderError("DISTINCT is only valid inside aggregate functions")
        function = lookup_scalar_function(name)
        if function is None:
            raise BinderError(f"Unknown function {name!r}")
        if star_argument:
            raise BinderError(f"{name}(*) is not defined")
        args = [self.bind_expression(arg, context, allow_aggregates)
                for arg in expression.args]
        return_type, coerced = function.bind([arg.return_type for arg in args])
        args = [_implicit_cast(arg, target, f"{name}()")
                for arg, target in zip(args, coerced)]
        return BoundFunction(name, args, return_type, function.execute)

    def _bind_window(self, expression: ast.WindowExpr, context: BindContext,
                     allow_aggregates: bool) -> BoundWindowExpr:
        if not allow_aggregates:
            raise BinderError(
                f"Window function {expression.name}() is not allowed here"
            )
        star_argument = len(expression.args) == 1 and \
            isinstance(expression.args[0], ast.Star)
        if star_argument and expression.name != "count":
            raise BinderError(f"{expression.name}(*) is not defined")
        args = [] if star_argument else [
            self.bind_expression(arg, context, allow_aggregates)
            for arg in expression.args
        ]
        partitions = [self.bind_expression(key, context, allow_aggregates)
                      for key in expression.partition_by]
        order_items = []
        for item in expression.order_by:
            key = self.bind_expression(item.expression, context,
                                       allow_aggregates)
            order_items.append(BoundOrderByItem(key, item.ascending,
                                                item.nulls_first))
        for child in list(args) + partitions + \
                [item.expression for item in order_items]:
            if contains_window(child):
                raise BinderError("Window functions cannot be nested")
        return_type = bind_window_function(
            expression.name, [arg.return_type for arg in args], star_argument)
        return BoundWindowExpr(expression.name, args, partitions, order_items,
                               return_type)

    # ------------------------------------------------------------------ DML
    def bind_insert(self, statement: ast.InsertStatement) -> bound.BoundInsert:
        table = self.catalog.get_table(statement.table, self.transaction)
        if statement.columns is not None:
            target_indices = [table.column_index(name) for name in statement.columns]
            if len(set(target_indices)) != len(target_indices):
                raise BinderError("Duplicate column in INSERT column list")
        else:
            target_indices = list(range(len(table.columns)))

        if statement.values is not None:
            rows = []
            for row in statement.values:
                if len(row) != len(target_indices):
                    raise BinderError(
                        f"INSERT row has {len(row)} values, expected "
                        f"{len(target_indices)}"
                    )
                rows.append([self.bind_expression(value, BindContext())
                             for value in row])
            schema = [ColumnSchema(table.columns[index].name,
                                   table.columns[index].dtype)
                      for index in target_indices]
            # Cast each value to its target column type.
            cast_rows = []
            for row in rows:
                cast_rows.append([
                    _implicit_cast(value, table.columns[index].dtype,
                                   f"INSERT into {table.columns[index].name}",
                                   allow_varchar_coercion=True)
                    for value, index in zip(row, target_indices)
                ])
            source: LogicalOperator = LogicalValues(cast_rows, schema)
        else:
            source = self._bind_subquery_plan(statement.select)
            if len(source.schema) != len(target_indices):
                raise BinderError(
                    f"INSERT source has {len(source.schema)} columns, expected "
                    f"{len(target_indices)}"
                )
            source = _cast_plan_to(
                source, [table.columns[index].dtype for index in target_indices])

        source = _expand_insert_source(source, table, target_indices)
        return bound.BoundInsert(table, source)

    def bind_update(self, statement: ast.UpdateStatement) -> bound.BoundUpdate:
        table = self.catalog.get_table(statement.table, self.transaction)
        context = BindContext()
        context.add(statement.table, table.column_names, table.column_types)
        column_indices = []
        expressions = []
        for column_name, value in statement.assignments:
            index = table.column_index(column_name)
            if index in column_indices:
                raise BinderError(f"Column {column_name!r} assigned twice in UPDATE")
            bound_value = self.bind_expression(value, context)
            if contains_aggregate(bound_value):
                raise BinderError("Aggregates are not allowed in UPDATE SET")
            bound_value = _implicit_cast(bound_value, table.columns[index].dtype,
                                         f"UPDATE of {column_name}",
                                         allow_varchar_coercion=True)
            column_indices.append(index)
            expressions.append(bound_value)
        source = self._dml_source(table, statement.where, context,
                                  column_indices, expressions)
        return bound.BoundUpdate(table, column_indices, source)

    def bind_delete(self, statement: ast.DeleteStatement) -> bound.BoundDelete:
        table = self.catalog.get_table(statement.table, self.transaction)
        context = BindContext()
        context.add(statement.table, table.column_names, table.column_types)
        return bound.BoundDelete(
            table, self._dml_source(table, statement.where, context, [], []))

    def _dml_source(self, table: TableEntry, where: Optional[ast.Expression],
                    context: BindContext, column_indices: List[int],
                    expressions: List[BoundExpression]) -> LogicalOperator:
        """UPDATE's and DELETE's source plan: the row id and the new value
        of each column in ``column_indices`` (``expressions``) of the rows
        WHERE keeps, over a scan that also reads the row ids.

        The row id is the scan's last column and is not in ``context``, so
        no SQL text can name it.
        """
        row_id = BoundColumnRef(len(table.columns), BIGINT, "rowid")
        schema = [ColumnSchema(column.name, column.dtype)
                  for column in table.columns]
        plan: LogicalOperator = LogicalGet(
            table, list(range(len(table.columns))) + [ROW_ID_COLUMN],
            schema + [ColumnSchema(row_id.name, BIGINT)])
        if where is not None:
            plan = LogicalFilter(plan, self._bind_where(where, context))
        return LogicalProjection(
            plan, [row_id] + expressions,
            [row_id.name] + [table.columns[index].name
                             for index in column_indices])

    # ------------------------------------------------------------------ DDL / COPY
    def bind_create_table(self, statement: ast.CreateTableStatement) -> bound.BoundCreateTable:
        if statement.as_select is not None:
            source = self._bind_subquery_plan(statement.as_select)
            columns = [ColumnDefinition(column.name, column.dtype)
                       for column in source.schema]
            return bound.BoundCreateTable(statement.name, columns,
                                          statement.if_not_exists, source)
        columns = []
        for spec in statement.columns:
            dtype = type_from_string(spec.type_name)
            default = None
            if spec.default is not None:
                folded = _fold_constant(self.bind_expression(spec.default,
                                                             BindContext()))
                if not isinstance(folded, BoundConstant):
                    raise BinderError(
                        f"DEFAULT of column {spec.name!r} must be constant"
                    )
                default = cast_scalar(folded.value, dtype)
            columns.append(ColumnDefinition(spec.name, dtype, spec.nullable, default))
        return bound.BoundCreateTable(statement.name, columns,
                                      statement.if_not_exists, None)

    def bind_copy(self, statement: ast.CopyStatement) -> bound.BoundStatement:
        if statement.direction == "from":
            if statement.table is None:
                raise BinderError("COPY FROM requires a target table")
            table = self.catalog.get_table(statement.table, self.transaction)
            return bound.BoundCopyFrom(table, statement.path, statement.options)
        if statement.select is not None:
            source = self._bind_subquery_plan(statement.select)
        else:
            table = self.catalog.get_table(statement.table, self.transaction)
            schema = [ColumnSchema(column.name, column.dtype)
                      for column in table.columns]
            source = LogicalGet(table, list(range(len(table.columns))), schema)
        return bound.BoundCopyTo(source, statement.path, statement.options)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _expression_name(expression: ast.Expression) -> str:
    if isinstance(expression, ast.ColumnRef):
        return expression.column_name
    if isinstance(expression, ast.FunctionCall):
        return expression.name
    if isinstance(expression, ast.CastExpr):
        return _expression_name(expression.operand)
    if isinstance(expression, ast.Literal):
        return str(expression.value)
    return type(expression).__name__.lower()


def _ensure_boolean(expression: BoundExpression, clause: str) -> BoundExpression:
    if expression.return_type == BOOLEAN:
        return expression
    if expression.return_type.id is LogicalTypeId.SQLNULL:
        return BoundCast(expression, BOOLEAN)
    raise BinderError(f"{clause} must be a boolean expression, "
                      f"got {expression.return_type}")


def _implicit_cast(expression: BoundExpression, target: LogicalType, clause: str,
                   allow_varchar_coercion: bool = False) -> BoundExpression:
    source = expression.return_type
    if source == target:
        return expression
    allowed = common_type(source, target) == target
    if not allowed and allow_varchar_coercion:
        # Assignments (INSERT/UPDATE) additionally allow parsing strings and
        # narrowing numerics, erroring at run time on bad values.
        allowed = True
    if not allowed and source.is_numeric() and target.is_numeric():
        # Comparisons may narrow (the kernel sees the unified type anyway).
        allowed = True
    if not allowed:
        raise BinderError(f"{clause}: cannot implicitly cast {source} to {target}")
    return BoundCast(expression, target)


def _cast_plan_to(plan: LogicalOperator, target_types: List[LogicalType]) -> LogicalOperator:
    """Wrap ``plan`` in a projection casting columns to ``target_types``."""
    if plan.types == list(target_types):
        return plan
    expressions: List[BoundExpression] = []
    for position, (current, target) in enumerate(zip(plan.types, target_types)):
        column: BoundExpression = BoundColumnRef(position, current,
                                                 plan.names[position])
        if current != target:
            column = BoundCast(column, target)
        expressions.append(column)
    return LogicalProjection(plan, expressions, plan.names)


def _resolve_in_range(context: BindContext, column: str, start: int,
                      end: int) -> Tuple[int, LogicalType, str]:
    """Resolve an unqualified column restricted to a position range (USING)."""
    matches = []
    for binding in context.bindings:
        for index, name in enumerate(binding.names):
            position = binding.offset + index
            if start <= position < end and name.lower() == column.lower():
                matches.append((position, binding.types[index], name))
    if not matches:
        raise BinderError(f"USING column {column!r} not found")
    if len(matches) > 1:
        raise BinderError(f"USING column {column!r} is ambiguous")
    return matches[0]


def _split_join_condition(predicate: BoundExpression, left_width: int):
    """Split a JOIN ON predicate into equi-conditions and a residual.

    An equi-condition is ``left_expr = right_expr`` where one side only
    references the left child's columns and the other only the right's.
    The right side is rebased to the right child's local positions.
    """
    conjuncts = _flatten_and(predicate)
    conditions: List[JoinCondition] = []
    residual_parts: List[BoundExpression] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, BoundOperator) and conjunct.op == "=" \
                and len(conjunct.args) == 2:
            left_arg, right_arg = conjunct.args
            left_refs = left_arg.referenced_columns()
            right_refs = right_arg.referenced_columns()
            if left_refs and right_refs:
                if max(left_refs) < left_width <= min(right_refs):
                    conditions.append(JoinCondition(
                        left_arg, _rebase_columns(right_arg, -left_width)))
                    continue
                if max(right_refs) < left_width <= min(left_refs):
                    conditions.append(JoinCondition(
                        right_arg, _rebase_columns(left_arg, -left_width)))
                    continue
        residual_parts.append(conjunct)
    residual = None
    if residual_parts:
        residual = residual_parts[0]
        for part in residual_parts[1:]:
            residual = BoundOperator("and", [residual, part], BOOLEAN)
    return conditions, residual


def _flatten_and(expression: BoundExpression) -> List[BoundExpression]:
    if isinstance(expression, BoundOperator) and expression.op == "and":
        out = []
        for arg in expression.args:
            out.extend(_flatten_and(arg))
        return out
    return [expression]


def _rebase_columns(expression: BoundExpression, delta: int) -> BoundExpression:
    if isinstance(expression, BoundColumnRef):
        return BoundColumnRef(expression.position + delta, expression.return_type,
                              expression.name)
    children = [_rebase_columns(child, delta) for child in expression.children]
    if not children:
        return expression
    return expression.replace_children(children)


def _collect_aggregates(expression: BoundExpression,
                        collected: List[BoundAggregate]) -> None:
    if isinstance(expression, BoundAggregate):
        if not any(expression.same_as(existing) for existing in collected):
            collected.append(expression)
        return
    for child in expression.children:
        _collect_aggregates(child, collected)


def _rewrite_post_aggregate(expression: BoundExpression,
                            groups: List[BoundExpression],
                            aggregates: List[BoundAggregate]) -> BoundExpression:
    """Rebind an expression against the aggregate operator's output."""
    for index, group in enumerate(groups):
        if expression.same_as(group):
            return BoundColumnRef(index, group.return_type, f"__group_{index}")
    if isinstance(expression, BoundAggregate):
        for index, aggregate in enumerate(aggregates):
            if expression.same_as(aggregate):
                return BoundColumnRef(len(groups) + index, aggregate.return_type,
                                      f"__agg_{index}")
        raise InternalError("Aggregate was not collected before rewriting")
    if isinstance(expression, BoundColumnRef):
        raise BinderError(
            f"Column {expression.name!r} must appear in GROUP BY or be used "
            "inside an aggregate function"
        )
    children = [_rewrite_post_aggregate(child, groups, aggregates)
                for child in expression.children]
    if not children:
        return expression
    return expression.replace_children(children)


def _rewrite_windows(expression: BoundExpression,
                     windows: List[BoundWindowExpr],
                     base_width: int) -> BoundExpression:
    """Replace window nodes with references to the LogicalWindow's output."""
    if isinstance(expression, BoundWindowExpr):
        for index, window in enumerate(windows):
            if expression.same_as(window):
                return BoundColumnRef(base_width + index, window.return_type,
                                      f"__window_{index}")
        raise InternalError("Window expression was not collected")
    children = [_rewrite_windows(child, windows, base_width)
                for child in expression.children]
    if not children:
        return expression
    return expression.replace_children(children)


def _expand_insert_source(source: LogicalOperator, table: TableEntry,
                          target_indices: List[int]) -> LogicalOperator:
    """Reorder/pad an INSERT source so it covers every table column.

    Missing columns get their DEFAULT (or NULL); the result's column order
    matches the table exactly.
    """
    if target_indices == list(range(len(table.columns))):
        return source
    position_of = {table_index: source_position
                   for source_position, table_index in enumerate(target_indices)}
    expressions: List[BoundExpression] = []
    names: List[str] = []
    for table_index, column in enumerate(table.columns):
        if table_index in position_of:
            source_position = position_of[table_index]
            expressions.append(BoundColumnRef(source_position,
                                              source.types[source_position],
                                              column.name))
        else:
            default_type = column.dtype if column.default is not None else column.dtype
            expressions.append(BoundConstant(column.default, default_type))
        names.append(column.name)
    return LogicalProjection(source, expressions, names)
