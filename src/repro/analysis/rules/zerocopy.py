"""QLZ -- zero-copy rules: protect the client transfer path.

Result transfer is the paper's §5/§6 centerpiece: chunks cross the
client/engine boundary "without requiring copying".  The modules on that
path (``client/result.py``, ``client/appender.py``, ``types/vector.py``,
``storage/table_data.py``) must not sneak a copy or a per-value Python
conversion back in:

* ``np.copy(x)`` and ``x.copy()`` duplicate the buffer -- wrap or view instead;
* ``x.tolist()`` materializes one Python object per value, which is the
  per-value transfer overhead the bulk API exists to avoid;
* ``np.array(x)`` copies by default -- use ``np.asarray`` or pass
  ``copy=False`` explicitly.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import AnalysisConfig, FileContext, Rule, Violation

__all__ = ["ZeroCopyRule"]

_NUMPY_ALIASES = frozenset({"np", "numpy"})


def _is_numpy_call(call: ast.Call, func_name: str) -> bool:
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr == func_name
            and isinstance(func.value, ast.Name)
            and func.value.id in _NUMPY_ALIASES)


class ZeroCopyRule(Rule):
    name = "zero-copy"
    description = ("the client transfer path must not introduce copies or "
                   "per-value conversion")
    ids = {
        "QLZ001": "np.copy() / x.copy() in the transfer path",
        "QLZ002": ".tolist() per-value materialization in the transfer path",
        "QLZ003": "np.array() without copy=False in the transfer path",
    }
    default_scope = (
        "repro/client/result.py",
        "repro/client/appender.py",
        "repro/types/vector.py",
        "repro/storage/table_data.py",
    )

    def check(self, ctx: FileContext,
              config: AnalysisConfig) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_numpy_call(node, "copy") or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "copy" and not node.args):
                yield Violation(
                    "QLZ001", ctx.path, node.lineno, node.col_offset,
                    "copy() duplicates the buffer on the zero-copy "
                    "transfer path; hand over the engine's own array "
                    "(np.asarray / Vector.from_numpy) or a view",
                )
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "tolist" and not node.args:
                yield Violation(
                    "QLZ002", ctx.path, node.lineno, node.col_offset,
                    ".tolist() converts one Python object per value; keep "
                    "data in NumPy form across the client boundary",
                )
            elif _is_numpy_call(node, "array"):
                copy_kw = next((kw for kw in node.keywords
                                if kw.arg == "copy"), None)
                copies = copy_kw is None or not (
                    isinstance(copy_kw.value, ast.Constant)
                    and copy_kw.value.value is False)
                if copies:
                    yield Violation(
                        "QLZ003", ctx.path, node.lineno, node.col_offset,
                        "np.array() copies by default; use np.asarray() or "
                        "np.array(..., copy=False) on the transfer path",
                    )
