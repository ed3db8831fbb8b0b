"""The runtime conformance harness: fuzzing kernels against their contracts.

Two directions: the live registry must come back clean (every kernel
honours its declared NULL contract under NULL-heavy, empty, and extreme
vectors), and deliberately broken kernels -- NULL leaks, input mutation,
dtype lies -- must be caught.  The second half is the harness's own test:
a fuzzer that passes everything proves nothing.
"""

import ast
import inspect
import os
import subprocess
import sys

import numpy as np

from repro.analysis.kernelcheck import (
    KernelContract,
    kernel_contracts,
    run_conformance,
)
from repro.analysis.kernelcheck.conformance import (
    CUSTOM_NULL_OPERATORS,
    NULL_SKIP,
    OPERATORS,
    _operator_expressions,
)
from repro.execution import expression_executor
from repro.functions.aggregate import AGGREGATE_NAMES
from repro.functions.scalar import (
    NULL_CUSTOM,
    NULL_PROPAGATE,
    SCALAR_FUNCTIONS,
    ScalarFunction,
    _bind_double_unary,
)
from repro.types import DOUBLE, Vector

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestLiveRegistryConforms:
    def test_every_kernel_honours_its_contract(self):
        with np.errstate(all="ignore"):
            issues = run_conformance()
        assert issues == [], "\n".join(str(issue) for issue in issues)


# -- the inventory -----------------------------------------------------------

#: Expression nodes ``ExpressionExecutor.execute`` evaluates as operators,
#: by the operator names the harness gives them.
_OPERATOR_NODES = {
    "BoundIsNull": {"is_null", "is_not_null"},
    "BoundInList": {"in_list"},
    "BoundLike": {"like"},
    "BoundCase": {"case"},
}
#: Nodes that are not operator kernels: leaves, casts, scalar functions
#: (their own registry), ``BoundOperator`` (its ops are read from the
#: source), subqueries, and aggregates (rewritten before execution).
_OTHER_NODES = {
    "BoundConstant", "BoundColumnRef", "BoundParameterRef", "BoundCast",
    "BoundOperator", "BoundFunction", "BoundScalarSubquery",
    "BoundInSubquery", "BoundExistsSubquery", "BoundAggregate",
}


def _names_op(node):
    return (isinstance(node, ast.Name) and node.id == "op") or \
        (isinstance(node, ast.Attribute) and node.attr == "op")


def _dispatched_operators():
    """Operator names ``ExpressionExecutor`` dispatches on, read from its
    source: every string an ``op`` is compared with, plus the expression
    nodes ``execute`` branches on."""
    tree = ast.parse(inspect.getsource(expression_executor))
    tuples = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and isinstance(node.value, ast.Tuple)}
    names = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Compare) and _names_op(node.left)):
            continue
        for comparator in node.comparators:
            if isinstance(comparator, ast.Constant):
                names.add(comparator.value)
            elif isinstance(comparator, ast.Tuple):
                names.update(ast.literal_eval(comparator))
            elif isinstance(comparator, ast.Name):
                names.update(tuples[comparator.id])
    execute = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "execute")
    for node in ast.walk(execute):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" \
                and isinstance(node.args[0], ast.Name) \
                and node.args[0].id == "expression":
            classes = node.args[1]
            for name in ([classes] if isinstance(classes, ast.Name)
                         else classes.elts):
                assert name.id in _OPERATOR_NODES \
                    or name.id in _OTHER_NODES, \
                    f"unclassified expression node {name.id}"
                names.update(_OPERATOR_NODES.get(name.id, ()))
    return names


class TestInventory:
    def test_operator_inventory_matches_executor_dispatch(self):
        assert set(OPERATORS) == _dispatched_operators()

    def test_every_operator_has_a_probe_expression(self):
        for contract in kernel_contracts():
            if contract.kind == "operator":
                assert _operator_expressions(contract), contract.key

    def test_inventory_is_the_live_registries(self):
        contracts = kernel_contracts()
        assert {c.name for c in contracts if c.kind == "scalar"} == \
            set(SCALAR_FUNCTIONS)
        assert {c.name for c in contracts if c.kind == "aggregate"} == \
            set(AGGREGATE_NAMES)
        assert [c.name for c in contracts if c.kind == "operator"] == \
            list(OPERATORS)

    def test_declared_custom_contracts(self):
        # Everything else propagates NULLs (scalars, operators) or skips
        # them (aggregates).
        custom = {c.key for c in kernel_contracts()
                  if c.null_contract == NULL_CUSTOM}
        assert custom == {
            "scalar:coalesce", "scalar:ifnull", "scalar:nullif",
            "scalar:concat", "operator:and", "operator:or", "operator:case",
            "operator:in_list", "operator:is_null", "operator:is_not_null"}
        assert CUSTOM_NULL_OPERATORS <= set(OPERATORS)

    def test_aggregates_skip_nulls(self):
        for contract in kernel_contracts():
            if contract.kind == "aggregate":
                assert contract.null_contract == NULL_SKIP, contract.key


class TestEngineLayering:
    def test_query_execution_never_imports_the_analysis_package(self):
        # A projection over a filter that is not pushed into the scan (an
        # introspection scan takes no filters) is the plan shape the
        # physical planner once annotated from the analysis package.
        script = (
            "import sys, repro\n"
            "con = repro.connect()\n"
            "sql = (\"SELECT upper(name) FROM repro_settings() \"\n"
            "       \"WHERE value <> 'x'\")\n"
            "assert con.execute(sql).fetchall()\n"
            "plan = [row[0] for row in con.execute('EXPLAIN ' + sql)"
            ".fetchall()]\n"
            "physical = plan[plan.index('-- physical plan --') + 1:]\n"
            "assert physical[0].startswith('PROJECT [upper] ('), plan\n"
            "assert physical[1].strip().startswith('FILTER'), plan\n"
            "loaded = sorted(name for name in sys.modules\n"
            "                if name.startswith('repro.analysis'))\n"
            "print(loaded)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip() == "[]"


# -- seeded violations -------------------------------------------------------

class _SeededKernel:
    """Context manager registering a deliberately broken scalar kernel."""

    def __init__(self, name, execute):
        self.name = name
        self.execute = execute

    def __enter__(self):
        SCALAR_FUNCTIONS[self.name] = ScalarFunction(
            self.name, _bind_double_unary(self.name), self.execute)
        return self

    def __exit__(self, *exc_info):
        SCALAR_FUNCTIONS.pop(self.name, None)
        return False


def _issues_for(contract):
    with np.errstate(all="ignore"):
        return run_conformance([contract])


class TestSeededViolationsAreCaught:
    def _contract(self, name, null_contract=NULL_PROPAGATE):
        return KernelContract("scalar", name, null_contract)

    def test_null_leak_is_caught(self):
        # Ignores validity entirely: NULL input lanes come out valid.
        # (Deterministic data, so only the NULL contract is broken.)
        def leaky(vectors, count):
            data = np.zeros(count, dtype=np.float64)
            valid = vectors[0].validity
            data[valid] = np.abs(vectors[0].data[valid])
            return Vector(DOUBLE, data, np.ones(count, dtype=np.bool_))

        with _SeededKernel("seeded_null_leak", leaky):
            issues = _issues_for(self._contract("seeded_null_leak"))
            custom = _issues_for(
                self._contract("seeded_null_leak", NULL_CUSTOM))
        assert any(issue.check == "null-propagation" for issue in issues), \
            [str(issue) for issue in issues]
        # Declared custom, the same kernel owns its NULL semantics.
        assert custom == []

    def test_wrong_declaration_is_caught(self):
        # coalesce does not propagate NULLs; declaring that it does fails.
        issues = _issues_for(self._contract("coalesce"))
        assert any(issue.check == "null-propagation" for issue in issues)

    def test_garbage_leak_is_caught(self):
        # Result at *valid* lanes depends on poison planted at masked lanes.
        def summing(vectors, count):
            source = vectors[0]
            total = source.data.sum() if count else 0.0
            return Vector(DOUBLE, np.full(count, total, dtype=np.float64),
                          source.validity.copy())

        with _SeededKernel("seeded_garbage_leak", summing):
            issues = _issues_for(self._contract("seeded_garbage_leak"))
        assert any(issue.check == "garbage-independence"
                   for issue in issues), [str(issue) for issue in issues]

    def test_input_mutation_is_caught(self):
        def mutating(vectors, count):
            source = vectors[0]
            np.negative(source.data, out=source.data)
            return Vector(DOUBLE, source.data.copy(),
                          source.validity.copy())

        with _SeededKernel("seeded_mutator", mutating):
            issues = _issues_for(self._contract("seeded_mutator"))
        assert any(issue.check == "input-immutability"
                   for issue in issues), [str(issue) for issue in issues]

    def test_dtype_lie_is_caught(self):
        # Declares DOUBLE but hands back an object array.
        def lying(vectors, count):
            data = np.empty(count, dtype=object)
            data[:] = list(vectors[0].data)
            return Vector(DOUBLE, data, vectors[0].validity.copy())

        with _SeededKernel("seeded_dtype_lie", lying):
            issues = _issues_for(self._contract("seeded_dtype_lie"))
        assert any(issue.check == "dtype" for issue in issues), \
            [str(issue) for issue in issues]

    def test_crash_on_empty_input_is_caught(self):
        def brittle(vectors, count):
            source = vectors[0]
            peak = float(source.data.max())  # raises on empty vectors
            return Vector(DOUBLE, np.full(count, peak, dtype=np.float64),
                          source.validity.copy())

        with _SeededKernel("seeded_brittle", brittle):
            issues = _issues_for(self._contract("seeded_brittle"))
        assert any(issue.check == "crash" for issue in issues), \
            [str(issue) for issue in issues]

    def test_unregistered_kernel_is_caught(self):
        issues = _issues_for(self._contract("seeded_ghost"))
        assert any(issue.check == "registry" for issue in issues)

    def test_unknown_operator_is_caught(self):
        issues = _issues_for(KernelContract("operator", "seeded_op",
                                            NULL_PROPAGATE))
        assert any(issue.check == "registry" for issue in issues)
