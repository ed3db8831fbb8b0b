"""QLV -- vectorization rules: no element-at-a-time loops in kernels.

The paper's core argument is that a vectorized engine amortizes
interpretation overhead over whole vectors; a Python ``for`` loop over
``Vector``/``DataChunk`` element data reintroduces exactly the per-value
overhead the engine exists to avoid.  Kernels under ``functions/`` and
``execution/`` must express their work as NumPy array operations, the
hand-over code under ``types/`` and ``client/`` must build rows per column
(``to_pylist``/``to_rows``), not by calling ``get_value``/``row`` per index,
and the CSV reader and writer under ``etl/`` convert text per column too.

Legitimate exceptions exist -- VARCHAR kernels operate on object-dtype
arrays where no NumPy bulk primitive applies -- and are suppressed inline
with a justification (``# quacklint: disable=QLV001 -- why``).  The
deliberately scalar ``baselines/tuple_engine.py`` is excluded by scope:
it exists to *measure* the overhead this rule forbids.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Sequence, Set

from ..core import AnalysisConfig, FileContext, Rule, Violation

__all__ = ["VectorizationRule"]

#: Attributes that expose per-element engine data.
_ELEMENT_ATTRS = frozenset({"data", "validity"})
#: Methods that convert one value / one row per call.
_PER_INDEX_METHODS = frozenset({"get_value", "row"})


def _target_names(target: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _bare_names(node: ast.AST) -> Set[str]:
    """Names used directly in an index expression.

    Attribute bases are excluded on purpose: ``data[vector.validity]`` is a
    bulk masked operation even though ``vector`` is the loop variable, while
    ``data[index]`` is the element-at-a-time pattern this rule exists for.
    """
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return set()
    names: Set[str] = set()
    for child in ast.iter_child_nodes(node):
        names |= _bare_names(child)
    return names


def _element_attribute(node: ast.AST) -> Optional[str]:
    """Describe ``<expr>.data`` / ``<expr>.validity``, or None."""
    if isinstance(node, ast.Attribute) and node.attr in _ELEMENT_ATTRS:
        base = node.value
        if isinstance(base, ast.Name):
            return f"{base.id}.{node.attr}"
        return f"<expr>.{node.attr}"
    return None


def _iter_targets_element_data(iter_expr: ast.AST) -> Optional[str]:
    """Element-data expression iterated over directly (incl. zip/enumerate)."""
    described = _element_attribute(iter_expr)
    if described is not None:
        return described
    if isinstance(iter_expr, ast.Call) and isinstance(iter_expr.func, ast.Name) \
            and iter_expr.func.id in ("zip", "enumerate", "reversed"):
        for arg in iter_expr.args:
            described = _element_attribute(arg)
            if described is not None:
                return described
    return None


class VectorizationRule(Rule):
    name = "vectorization"
    description = ("kernels must use NumPy bulk operations, not "
                   "element-at-a-time loops over vector data")
    ids = {
        "QLV001": "loop body indexes vector element data with the loop "
                  "variable",
        "QLV002": "loop iterates directly over vector element data",
        "QLV003": "loop calls get_value()/row() once per index",
    }
    default_scope = ("repro/functions/", "repro/execution/", "repro/types/",
                     "repro/client/", "repro/etl/")

    def check(self, ctx: FileContext,
              config: AnalysisConfig) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_loop(ctx, node, node.target, node.iter,
                                            node.body)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                loop_vars: Set[str] = set()
                for generator in node.generators:
                    loop_vars |= _target_names(generator.target)
                    described = _iter_targets_element_data(generator.iter)
                    if described is not None:
                        yield Violation(
                            "QLV002", ctx.path, node.lineno, node.col_offset,
                            f"comprehension iterates over {described} "
                            f"element-by-element; use a NumPy bulk operation",
                        )
                yield from self._check_per_index_calls(
                    ctx, node, loop_vars, ast.iter_child_nodes(node))

    def _check_loop(self, ctx: FileContext, loop: ast.AST, target: ast.AST,
                    iter_expr: ast.AST,
                    body: Sequence[ast.stmt]) -> Iterator[Violation]:
        described = _iter_targets_element_data(iter_expr)
        if described is not None:
            yield Violation(
                "QLV002", ctx.path, loop.lineno, loop.col_offset,
                f"for-loop iterates over {described} element-by-element; "
                f"use a NumPy bulk operation",
            )
            return
        loop_vars = _target_names(target)
        if not loop_vars:
            return
        yield from self._check_per_index_calls(ctx, loop, loop_vars, body)
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Subscript):
                    continue
                described = _element_attribute(node.value)
                if described is None:
                    continue
                if loop_vars & _bare_names(node.slice):
                    yield Violation(
                        "QLV001", ctx.path, loop.lineno, loop.col_offset,
                        f"for-loop indexes {described}[...] with its loop "
                        f"variable (element-at-a-time kernel); vectorize "
                        f"with NumPy bulk operations or suppress with a "
                        f"justification",
                    )
                    return  # one finding per loop is enough

    def _check_per_index_calls(self, ctx: FileContext, loop: ast.AST,
                               loop_vars: Set[str],
                               body: Iterable[ast.AST]) -> Iterator[Violation]:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _PER_INDEX_METHODS \
                        and any(loop_vars & _bare_names(arg)
                                for arg in node.args):
                    yield Violation(
                        "QLV003", ctx.path, loop.lineno, loop.col_offset,
                        f"loop calls .{node.func.attr}() once per index "
                        f"(one Python call per value); convert per column "
                        f"with to_pylist()/to_rows() or suppress with a "
                        f"justification",
                    )
                    return  # one finding per loop is enough
