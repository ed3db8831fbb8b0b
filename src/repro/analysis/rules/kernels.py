"""QLK -- kernel contract rules: dtype, NULL, copy, and purity discipline.

Every function that constructs a :class:`Vector` is a *kernel*: it sits on
the per-chunk hot path.  These rules check its contracts at lint time, one
file at a time; the conformance harness (``repro.analysis.kernelcheck``)
checks every registered kernel against its declared NULL contract at test
time:

* QLK001 -- the kernel visibly produces a NumPy dtype that cannot convert
  losslessly to the LogicalType it returns (``Vector(DOUBLE,
  x.astype(np.int32), ...)`` truncates silently on the way back out);
* QLK002 -- the kernel reads ``.data`` but never consults ``.validity`` and
  does not document its own NULL contract: it computes on masked-out
  garbage and can leak it;
* QLK003 -- ``<expr>.data.astype(...)`` without ``copy=False`` copies an
  input array even when it already conforms (warning: advisory, the copy
  is sometimes wanted);
* QLK004 -- the kernel mutates module-global state (``global``, a store
  through a module-level name, or a mutating method call such as
  ``.append`` on one), which breaks purity under morsel workers.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core import AnalysisConfig, FileContext, Rule, Violation

__all__ = ["KernelContractRule", "dtype_convertible"]

#: Bind-time type names a ``Vector(<TYPE>, ...)`` first argument can carry.
_LOGICAL_NAMES = frozenset({
    "BOOLEAN", "TINYINT", "SMALLINT", "INTEGER", "BIGINT", "FLOAT", "DOUBLE",
    "VARCHAR", "DATE", "TIMESTAMP",
})

_NUMPY_DTYPE_NAMES = frozenset({
    "bool_", "bool", "int8", "int16", "int32", "int64",
    "float32", "float64", "object_", "object",
})

#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard",
})

#: dtype kind produced by each logical type name (mirrors
#: ``LogicalType.numpy_dtype.kind``).
_LOGICAL_KIND = {
    "BOOLEAN": "b",
    "TINYINT": "i",
    "SMALLINT": "i",
    "INTEGER": "i",
    "BIGINT": "i",
    "FLOAT": "f",
    "DOUBLE": "f",
    "VARCHAR": "O",
    "DATE": "i",
    "TIMESTAMP": "i",
    "NULL": "b",
}

#: numpy dtype name -> kind character.
_NUMPY_KIND = {
    "bool": "b",
    "int8": "i",
    "int16": "i",
    "int32": "i",
    "int64": "i",
    "float32": "f",
    "float64": "f",
    "object": "O",
}


def dtype_convertible(inferred_dtype: str, declared_type: str) -> Optional[bool]:
    """Is a kernel-produced NumPy dtype convertible to the declared type?

    Returns None when either side is unknown/argument-dependent (nothing to
    check).  Conversion must be lossless in *kind*: int -> float and
    bool -> numeric widen fine, float -> int silently truncates (error),
    and object (VARCHAR) never mixes with numerics.
    """
    produced = _NUMPY_KIND.get(inferred_dtype)
    declared = _LOGICAL_KIND.get(declared_type)
    if produced is None or declared is None:
        return None
    if produced == declared:
        return True
    if produced == "O" or declared == "O":
        return False
    if declared == "f":
        return True  # any numeric widens to float
    if declared == "i":
        return produced == "b"  # bool widens; float would truncate
    if declared == "b":
        return False  # numeric -> BOOLEAN needs an explicit comparison
    return False


def _is_vector_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Vector")


def _constructs_vector(funcdef: ast.FunctionDef) -> bool:
    for node in ast.walk(funcdef):
        if _is_vector_call(node):
            return True
    return False


def _dtype_from_node(node: ast.AST) -> Optional[str]:
    """A visible NumPy dtype name in an expression, if syntactically clear."""
    if isinstance(node, ast.Attribute) and node.attr in _NUMPY_DTYPE_NAMES:
        return node.attr.rstrip("_") if node.attr != "bool_" else "bool"
    if isinstance(node, ast.Name) and node.id in ("object", "bool", "float",
                                                  "int"):
        return {"object": "object", "bool": "bool", "float": "float64",
                "int": "int64"}[node.id]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value in _NUMPY_DTYPE_NAMES:
        return node.value
    return None


def _expr_dtype(node: ast.expr) -> Optional[str]:
    """Dtype evidence of a data expression: astype / allocation calls."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype" \
                and node.args:
            return _dtype_from_node(node.args[0])
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("zeros", "empty", "full", "ones"):
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    return _dtype_from_node(keyword.value)
    return None


def _attr_root_name(node: ast.AST) -> Optional[str]:
    """The base Name of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _contains_data_attr(node: ast.AST) -> bool:
    """Is the expression rooted at a ``<expr>.data`` attribute access?"""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "data"


class KernelContractRule(Rule):
    name = "kernels"
    description = ("kernel contract discipline: declared dtype, NULL "
                   "handling, avoidable copies, and purity")
    ids = {
        "QLK001": "kernel returns a dtype not convertible to its declared "
                  "LogicalType",
        "QLK002": "kernel reads vector .data without honouring .validity or "
                  "declaring its own NULL contract",
        "QLK003": "avoidable copy: .data.astype(...) without copy=False on "
                  "an input array",
        "QLK004": "kernel mutates module-global state",
    }
    warning_ids = ("QLK003",)
    default_scope = ("repro/functions/",
                     "repro/execution/expression_executor.py")

    def check(self, ctx: FileContext,
              config: AnalysisConfig) -> Iterator[Violation]:
        module_names = self._module_level_names(ctx.tree)
        for funcdef in self._kernel_functions(ctx.tree):
            yield from self._check_dtype(ctx, funcdef)
            yield from self._check_null_contract(ctx, funcdef)
            yield from self._check_copies(ctx, funcdef)
            yield from self._check_purity(ctx, funcdef, module_names)

    # -- discovery ---------------------------------------------------------
    def _kernel_functions(self, tree: ast.Module) -> List[ast.FunctionDef]:
        found: List[ast.FunctionDef] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and _constructs_vector(node):
                # Nested factories: the inner ``execute`` constructs the
                # vector; keep the innermost function only.
                inner = [child for child in ast.walk(node)
                         if isinstance(child, ast.FunctionDef)
                         and child is not node and _constructs_vector(child)]
                if not inner:
                    found.append(node)
        return found

    def _module_level_names(self, tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                names.add(node.target.id)
        return names

    # -- QLK001 ------------------------------------------------------------
    def _check_dtype(self, ctx: FileContext,
                     funcdef: ast.FunctionDef) -> Iterator[Violation]:
        # Linear scan: remember the last visible dtype evidence per local.
        local_dtypes: Dict[str, str] = {}
        for node in ast.walk(funcdef):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                evidence = _expr_dtype(node.value)
                if evidence is not None:
                    local_dtypes[node.targets[0].id] = evidence
        for node in ast.walk(funcdef):
            if not _is_vector_call(node):
                continue
            call = node
            if len(call.args) < 2 or not isinstance(call.args[0], ast.Name):
                continue
            declared = call.args[0].id
            if declared not in _LOGICAL_NAMES:
                continue
            data = call.args[1]
            produced = _expr_dtype(data)
            if produced is None and isinstance(data, ast.Name):
                produced = local_dtypes.get(data.id)
            if produced is None:
                continue
            if dtype_convertible(produced, declared) is False:
                yield Violation(
                    "QLK001", ctx.path, call.lineno, call.col_offset,
                    f"kernel {funcdef.name}() returns {produced} data in a "
                    f"{declared} vector; the dtype cannot convert losslessly "
                    f"to the declared LogicalType",
                )

    # -- QLK002 ------------------------------------------------------------
    def _check_null_contract(self, ctx: FileContext,
                             funcdef: ast.FunctionDef) -> Iterator[Violation]:
        docstring = ast.get_docstring(funcdef) or ""
        if "NULL" in docstring.upper():
            return  # the kernel declares its own NULL contract
        reads_data = False
        reads_validity = False
        calls_propagate = False
        for node in ast.walk(funcdef):
            if isinstance(node, ast.Attribute):
                if node.attr == "data":
                    reads_data = True
                elif node.attr == "validity":
                    reads_validity = True
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "_propagate_validity":
                calls_propagate = True
        if reads_data and not (reads_validity or calls_propagate):
            yield Violation(
                "QLK002", ctx.path, funcdef.lineno, funcdef.col_offset,
                f"kernel {funcdef.name}() reads vector .data but never "
                f"consults .validity and does not document a NULL contract; "
                f"it computes on masked-out garbage",
            )

    # -- QLK003 ------------------------------------------------------------
    def _check_copies(self, ctx: FileContext,
                      funcdef: ast.FunctionDef) -> Iterator[Violation]:
        for node in ast.walk(funcdef):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"):
                continue
            if not _contains_data_attr(node.func.value):
                continue
            has_copy_false = any(
                keyword.arg == "copy"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
                for keyword in node.keywords)
            if not has_copy_false:
                yield Violation(
                    "QLK003", ctx.path, node.lineno, node.col_offset,
                    f"kernel {funcdef.name}() calls .data.astype(...) "
                    f"without copy=False; an already-conforming input is "
                    f"copied on every chunk",
                )

    # -- QLK004 ------------------------------------------------------------
    def _check_purity(self, ctx: FileContext, funcdef: ast.FunctionDef,
                      module_names: Set[str]) -> Iterator[Violation]:
        for node in ast.walk(funcdef):
            if isinstance(node, ast.Global):
                yield Violation(
                    "QLK004", ctx.path, node.lineno, node.col_offset,
                    f"kernel {funcdef.name}() declares global "
                    f"{', '.join(node.names)}; kernels must be pure to run "
                    f"under morsel workers",
                )
                continue
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATING_METHODS:
                targets = [node.func]
            for target in targets:
                if not isinstance(target, (ast.Subscript, ast.Attribute)):
                    continue
                root = _attr_root_name(target)
                if root is not None and root in module_names \
                        and root not in self._local_names(funcdef):
                    yield Violation(
                        "QLK004", ctx.path, node.lineno, node.col_offset,
                        f"kernel {funcdef.name}() writes through "
                        f"module-level name {root!r}; kernels must be pure "
                        f"to run under morsel workers",
                    )

    def _local_names(self, funcdef: ast.FunctionDef) -> Set[str]:
        names = {arg.arg for arg in funcdef.args.args}
        names |= {arg.arg for arg in funcdef.args.kwonlyargs}
        if funcdef.args.vararg is not None:
            names.add(funcdef.args.vararg.arg)
        if funcdef.args.kwarg is not None:
            names.add(funcdef.args.kwarg.arg)
        for node in ast.walk(funcdef):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) \
                    and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.For) \
                    and isinstance(node.target, ast.Name):
                names.add(node.target.id)
        return names
