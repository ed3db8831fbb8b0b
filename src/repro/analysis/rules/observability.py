"""QLO -- observability-discipline rules for the quacktrace layer.

Two ways instrumentation itself becomes a bug:

* **a span that never closes** never reaches the tracer's span ring -- the
  trace silently loses an operator (or leaks the span on the tracer's
  thread-local stack, corrupting parent links for every later query on that
  thread).  Manual ``start_span()``/``start_query()`` calls must be paired
  with ``end_span()``/``finish_query()``; the context-manager form
  (``with tracer.span(...)``) is always safe.
* **an introspection provider that yields while holding an engine lock**
  (QLO003) turns a snapshot into a live cursor: the lock is held until the
  consumer finishes pulling -- across arbitrary query execution -- which
  both blocks the engine and deadlocks against the declared lock hierarchy
  the moment the query touches the same subsystem.  Snapshot providers in
  ``repro/introspection/`` must copy-then-release: extract plain data under
  the lock, release it, then return (or yield from) the copy.

Pairing for QLO001 is checked at *class* scope: a span started in one
method and closed in another (``Connection._run_statement`` starts the
query span, ``_observe_statement`` closes it) is a legitimate ownership
pattern, but a class that starts spans and never closes any is not.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from ..core import AnalysisConfig, FileContext, Rule, Violation

__all__ = ["ObservabilityRule"]

_START_CALLS = ("start_span", "start_query")
_END_CALLS = ("end_span", "finish_query")
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _called_attr(node: ast.AST) -> Optional[str]:
    """Attribute name of a method call (``x.start_span(...)`` -> that name)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _calls_any(scope: ast.AST, names: Tuple[str, ...]) -> bool:
    return any(_called_attr(node) in names for node in ast.walk(scope))


def _is_lock_expr(node: ast.AST) -> bool:
    """Does this with-item context expression look like an engine lock?

    Matches ``self._lock``, ``manager._lock``, a bare ``lock`` name, and
    lock-returning calls (``self._lock()``) -- any terminal identifier
    containing "lock".
    """
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return "lock" in node.attr.lower()
    if isinstance(node, ast.Name):
        return "lock" in node.id.lower()
    return False


class ObservabilityRule(Rule):
    name = "observability"
    description = ("manual spans must be closed and snapshots must not hold "
                   "engine locks")
    ids = {
        "QLO001": "span started with start_span()/start_query() but never "
                  "closed in the enclosing class or function",
        "QLO003": "introspection snapshot provider yields while holding an "
                  "engine lock (must copy-then-release)",
    }
    default_scope = ("repro/",)

    def check(self, ctx: FileContext,
              config: AnalysisConfig) -> Iterator[Violation]:
        yield from self._check_span_pairing(ctx)
        yield from self._check_snapshot_locks(ctx)

    # -- QLO001: span lifecycle ------------------------------------------------
    def _check_span_pairing(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.pkg_path.startswith("repro/observability/"):
            # The tracer itself constructs and hands over spans; pairing is
            # its callers' contract.
            return
        for scope, scope_name in self._pairing_scopes(ctx.tree):
            starts = []
            for node in ast.walk(scope):
                attr = _called_attr(node)
                if attr in _START_CALLS:
                    starts.append(node)
            if not starts:
                continue
            if _calls_any(scope, _END_CALLS):
                continue
            for call in starts:
                yield Violation(
                    "QLO001", ctx.path, call.lineno, call.col_offset,
                    f"span opened here is never closed in {scope_name}; "
                    f"call end_span()/finish_query(), or use the "
                    f"'with tracer.span(...)' context manager form",
                )

    @staticmethod
    def _pairing_scopes(tree: ast.Module):
        """Yield (scope node, human name): classes, then module-level defs.

        Methods are checked through their class so start/close pairs split
        across methods (enter/exit, execute/finish) are not false positives.
        """
        class_members: Set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield node, f"class {node.name}"
                for member in ast.walk(node):
                    if isinstance(member, _FUNCTION_NODES):
                        class_members.add(id(member))
        for node in ast.walk(tree):
            if isinstance(node, _FUNCTION_NODES) \
                    and id(node) not in class_members:
                yield node, f"function {node.name}()"

    # -- QLO003: yield under an engine lock -----------------------------------
    def _check_snapshot_locks(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.pkg_path.startswith("repro/introspection/"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(_is_lock_expr(item.context_expr)
                       for item in node.items):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Yield, ast.YieldFrom)):
                    yield Violation(
                        "QLO003", ctx.path, inner.lineno, inner.col_offset,
                        "yield inside a 'with <lock>:' block holds the "
                        "engine lock until the consumer resumes the "
                        "generator; copy the snapshot under the lock, "
                        "release it, then yield from the copy",
                    )
