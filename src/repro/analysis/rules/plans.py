"""QLP -- plan-discipline rules for optimizer and planner rewrites.

quackplan (:mod:`repro.verifier`) catches broken plans at *runtime*; these
rules catch the coding patterns that produce them, at lint time, in the two
places that construct plans: ``repro/optimizer/`` and the physical planner.

* **QLP001** -- assigning to another node's ``.schema`` / ``.column_ids``
  (or a scan's ``.filter_schema``) mutates a plan node in place.  Ancestors
  that already captured the old schema (widths, column positions, cost
  estimates) now disagree with the child; the verifier sees this as a
  binding violation only when the query actually runs.  Rebuild the node
  instead -- or, at a leaf where paired fields are rebound in lockstep,
  suppress with a justification.
* **QLP002** -- constructing a ``Logical*``/``Physical*`` operator while
  passing some *other* node's ``.schema`` through verbatim.  A borrowed
  schema silently goes stale when the rewrite changes the expressions it
  was derived from; re-derive it from the expressions' return types.
  Advisory (warning severity): borrowing is occasionally correct, e.g.
  when the expressions are provably unchanged.
* **QLP003** -- growing a plan node's expression list in place
  (``node.pushed_filters.append(...)`` etc.) without re-deriving the
  node's schema.  In-place growth is invisible to parents holding a
  reference and skips every schema re-derivation.

``QLP000`` is reserved: the engine uses it for files that fail to parse
(:data:`repro.analysis.core.PARSE_ERROR_RULE`), so this family starts at
QLP001.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..core import AnalysisConfig, FileContext, Rule, Violation

__all__ = ["PlanDisciplineRule"]

#: Node fields whose in-place reassignment rebinds the plan under parents.
_SCHEMA_FIELDS = ("schema", "column_ids", "filter_schema")

#: List-growing methods that mutate a node's expression lists in place.
_GROW_METHODS = ("append", "extend", "insert")

#: Expression-list attributes of plan operators.
_PLAN_LIST_FIELDS = ("pushed_filters", "conditions", "expressions",
                     "groups", "aggregates", "items", "rows")


def _receiver_is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _is_operator_constructor(func: ast.AST) -> Optional[str]:
    """Name of the plan-operator class being constructed, if any."""
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name is not None and (name.startswith("Logical")
                             or name.startswith("Physical")):
        return name
    return None


class PlanDisciplineRule(Rule):
    name = "plans"
    description = ("plan rewrites must rebuild operator nodes and re-derive "
                   "schemas, not mutate them in place")
    ids = {
        "QLP001": "plan node schema/column_ids reassigned in place; "
                  "ancestors holding the node now disagree with it",
        "QLP002": "operator constructed with another node's .schema passed "
                  "through verbatim; re-derive it from the expressions",
        "QLP003": "plan node expression list grown in place without "
                  "re-deriving the node's schema",
    }
    #: QLP002 is advisory: borrowing a schema is correct when the
    #: expressions deriving it are provably unchanged.
    warning_ids = ("QLP002",)
    default_scope = ("repro/optimizer/",
                     "repro/execution/physical_planner.py")

    def check(self, ctx: FileContext,
              config: AnalysisConfig) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                yield from self._check_schema_assign(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_borrowed_schema(ctx, node)
                yield from self._check_list_growth(ctx, node)

    # -- QLP001: in-place schema rebinds --------------------------------------
    def _check_schema_assign(self, ctx: FileContext,
                             node: ast.AST) -> Iterator[Violation]:
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr not in _SCHEMA_FIELDS:
                continue
            if _receiver_is_self(target.value):
                # A node initializing/adjusting its own fields (e.g. in
                # __init__) is construction, not cross-node mutation.
                continue
            yield Violation(
                "QLP001", ctx.path, target.lineno, target.col_offset,
                f"assignment to .{target.attr} mutates a plan node in "
                f"place; parents that captured the old schema now "
                f"disagree with the child -- rebuild the operator instead",
            )

    # -- QLP002: borrowed schemas ---------------------------------------------
    def _check_borrowed_schema(self, ctx: FileContext,
                               node: ast.Call) -> Iterator[Violation]:
        constructed = _is_operator_constructor(node.func)
        if constructed is None:
            return
        arguments = list(node.args) + [kw.value for kw in node.keywords]
        for argument in arguments:
            if isinstance(argument, ast.Attribute) \
                    and argument.attr == "schema" \
                    and not _receiver_is_self(argument.value):
                yield Violation(
                    "QLP002", ctx.path, argument.lineno, argument.col_offset,
                    f"{constructed}(...) borrows another node's .schema "
                    f"verbatim; if the rewrite can change the expressions "
                    f"it was derived from, re-derive the schema from their "
                    f"return types",
                )

    # -- QLP003: in-place list growth -----------------------------------------
    def _check_list_growth(self, ctx: FileContext,
                           node: ast.Call) -> Iterator[Violation]:
        func = node.func
        if not isinstance(func, ast.Attribute) \
                or func.attr not in _GROW_METHODS:
            return
        receiver = func.value
        if not isinstance(receiver, ast.Attribute) \
                or receiver.attr not in _PLAN_LIST_FIELDS:
            return
        if _receiver_is_self(receiver.value):
            return
        yield Violation(
            "QLP003", ctx.path, node.lineno, node.col_offset,
            f".{receiver.attr}.{func.attr}(...) grows a plan node's "
            f"expression list in place without re-deriving its schema; "
            f"rebuild the node with the combined list instead",
        )
