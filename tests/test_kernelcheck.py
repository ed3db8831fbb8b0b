"""quackkernel: static kernel-contract analysis and the capability manifest.

Every registered kernel carries verified, committed facts -- dtype, NULL
contract, copy behaviour, purity -- and the engine consumes them (the
planner's fusable marking, the ``--check-manifest`` drift gate).  These
tests pin the analyzer's inferences on known kernels, prove the drift gate
trips on a stale manifest, and exercise the fusion consumer end to end.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.analysis.kernelcheck import (
    MANIFEST_PATH,
    KernelFact,
    analyze_registry,
    check_manifest,
    cross_check_declarations,
    dtype_convertible,
    expression_chain_fusable,
    generate_manifest,
    kernel_fusable,
    load_manifest,
    manifest_entries,
    write_manifest,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def con():
    connection = repro.connect()
    yield connection
    connection.close()


@pytest.fixture(scope="module")
def facts():
    """One analyzer run shared by the whole module (it probes every bind)."""
    return {fact.key: fact for fact in analyze_registry()}


# -- fact model --------------------------------------------------------------

class TestDtypeConvertible:
    def test_same_kind(self):
        assert dtype_convertible("float64", "DOUBLE") is True
        assert dtype_convertible("int32", "INTEGER") is True
        assert dtype_convertible("object", "VARCHAR") is True

    def test_widening_int_to_float(self):
        assert dtype_convertible("int64", "DOUBLE") is True

    def test_lossy_float_to_int(self):
        assert dtype_convertible("float64", "INTEGER") is False

    def test_object_never_mixes(self):
        assert dtype_convertible("object", "DOUBLE") is False
        assert dtype_convertible("float64", "VARCHAR") is False

    def test_unknowns_are_indeterminate(self):
        assert dtype_convertible("unknown", "DOUBLE") is None
        assert dtype_convertible("float64", "argument") is None

    def test_fact_round_trips_through_dict(self, facts):
        fact = facts["scalar:round"]
        assert KernelFact.from_dict(fact.as_dict()) == fact


# -- the analyzer ------------------------------------------------------------

class TestAnalyzerCoverage:
    def test_every_scalar_function_has_a_fact(self, facts):
        from repro.functions.scalar import SCALAR_FUNCTIONS
        for name in SCALAR_FUNCTIONS:
            assert f"scalar:{name}" in facts

    def test_every_aggregate_has_a_fact(self, facts):
        for name in ("count", "sum", "avg", "min", "max", "first",
                     "stddev", "stddev_samp", "variance", "var_samp"):
            assert f"aggregate:{name}" in facts

    def test_operator_coverage(self, facts):
        for name in ("=", "<", "+", "*", "and", "or", "not", "negate",
                     "is_null", "in_list", "like", "case"):
            assert f"operator:{name}" in facts

    def test_facts_are_sorted_and_unique(self, facts):
        keys = list(facts)
        assert keys == sorted(keys)


class TestAnalyzerInferences:
    def test_round_propagates_nulls_as_float64(self, facts):
        fact = facts["scalar:round"]
        assert fact.null_contract == "propagate"
        assert fact.inferred_dtype == "float64"
        assert fact.declared_type == "DOUBLE"

    def test_nullif_has_custom_null_semantics(self, facts):
        # nullif(1, NULL) is 1 -- a NULL in the *second* argument must NOT
        # propagate, and the analyzer sees the validity rewrite.
        assert facts["scalar:nullif"].null_contract == "custom"

    def test_coalesce_family_is_custom(self, facts):
        for name in ("coalesce", "ifnull"):
            assert facts[f"scalar:{name}"].null_contract == "custom"

    def test_substr_is_per_row(self, facts):
        fact = facts["scalar:substr"]
        assert not fact.vectorized
        assert not fact.fusable

    def test_abs_return_type_tracks_argument(self, facts):
        assert facts["scalar:abs"].declared_type == "argument"

    def test_aggregates_skip_nulls_and_never_fuse(self, facts):
        aggregates = [fact for fact in facts.values()
                      if fact.kind == "aggregate"]
        assert aggregates
        for fact in aggregates:
            assert fact.null_contract == "skip-nulls"
            assert not fact.fusable

    def test_comparisons_propagate(self, facts):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            assert facts[f"operator:{op}"].null_contract == "propagate"

    def test_three_valued_logic_is_custom(self, facts):
        # AND/OR implement SQL three-valued logic: NULL AND FALSE is FALSE.
        for op in ("and", "or", "is_null", "is_not_null"):
            assert facts[f"operator:{op}"].null_contract == "custom"

    def test_every_kernel_is_pure(self, facts):
        for fact in facts.values():
            assert fact.pure, fact.key

    def test_committed_fusable_implies_vectorized_pure_thread_safe(self):
        for fact in manifest_entries():
            if fact.fusable:
                assert fact.vectorized and fact.pure and fact.thread_safe, \
                    fact.key

    def test_committed_no_unchecked_kernels(self):
        unchecked = [fact.key for fact in manifest_entries()
                     if fact.null_contract == "unchecked"]
        assert unchecked == []

    def test_no_unchecked_null_contracts_in_tree(self, facts):
        unchecked = [fact.key for fact in facts.values()
                     if fact.null_contract == "unchecked"]
        assert unchecked == []


# -- the committed manifest and its drift gate -------------------------------

class TestManifest:
    def test_committed_manifest_is_current(self):
        assert check_manifest() == []

    def test_manifest_covers_the_registry(self, facts):
        entries = {fact.key for fact in manifest_entries()}
        assert entries == set(facts)

    def test_declarations_cross_check_clean(self, facts):
        assert cross_check_declarations(list(facts.values())) == []

    def test_cross_check_flags_lossy_declaration(self, facts):
        bad = replace(facts["scalar:round"], inferred_dtype="float64",
                      declared_type="INTEGER")
        problems = cross_check_declarations([bad])
        assert len(problems) == 1
        assert "scalar:round" in problems[0]

    def test_missing_manifest_is_reported(self, tmp_path):
        problems = check_manifest(tmp_path / "missing.json")
        assert problems and "manifest missing" in problems[0]

    def test_stale_fact_is_reported(self, tmp_path):
        document = generate_manifest()
        for entry in document["kernels"]:
            if entry["name"] == "round":
                entry["null_contract"] = "unchecked"
        stale = tmp_path / "kernel_manifest.json"
        stale.write_text(json.dumps(document))
        problems = check_manifest(stale)
        assert any("scalar:round" in problem
                   and "null_contract" in problem for problem in problems)

    def test_source_drift_is_reported(self, tmp_path):
        document = generate_manifest()
        document["sources"]["repro.functions.scalar"] = "0" * 64
        stale = tmp_path / "kernel_manifest.json"
        stale.write_text(json.dumps(document))
        problems = check_manifest(stale)
        assert any("repro.functions.scalar" in problem
                   for problem in problems)

    def test_version_mismatch_is_reported(self, tmp_path):
        document = generate_manifest()
        document["version"] = 0
        stale = tmp_path / "kernel_manifest.json"
        stale.write_text(json.dumps(document))
        assert any("version" in problem for problem in check_manifest(stale))

    def test_removed_kernel_is_reported(self, tmp_path):
        document = generate_manifest()
        document["kernels"] = [entry for entry in document["kernels"]
                               if entry["name"] != "round"]
        stale = tmp_path / "kernel_manifest.json"
        stale.write_text(json.dumps(document))
        assert any("scalar:round" in problem and "missing" in problem
                   for problem in check_manifest(stale))

    def test_write_manifest_is_deterministic(self, tmp_path):
        target = tmp_path / "kernel_manifest.json"
        write_manifest(target)
        assert target.read_text() == MANIFEST_PATH.read_text()
        assert check_manifest(target) == []

    def test_manifest_is_sorted_for_stable_diffs(self):
        document = load_manifest()
        keys = [(entry["kind"], entry["name"])
                for entry in document["kernels"]]
        assert keys == sorted(keys)


# -- CLI ---------------------------------------------------------------------

class TestManifestCLI:
    def run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)

    def test_check_manifest_passes_on_committed_tree(self):
        proc = self.run_cli("--check-manifest")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "manifest up to date" in proc.stdout

    def test_write_manifest_reports_count_and_is_idempotent(self):
        before = MANIFEST_PATH.read_text()
        proc = self.run_cli("--write-manifest")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert f"wrote {len(manifest_entries())} kernel facts" in proc.stdout
        assert MANIFEST_PATH.read_text() == before


# -- fusion: the planner-facing consumer -------------------------------------

class TestFusion:
    def test_vectorized_pure_kernels_are_fusable(self):
        assert kernel_fusable("abs")
        assert kernel_fusable("upper")
        assert kernel_fusable("+", "operator")
        assert kernel_fusable("and", "operator")

    def test_per_row_kernels_are_not(self):
        assert not kernel_fusable("substr")
        assert not kernel_fusable("like", "operator")

    def test_unknown_kernel_is_not_fusable(self):
        assert not kernel_fusable("frobnicate")

    def test_aggregates_are_never_fusable(self):
        assert not kernel_fusable("sum", "aggregate")

    def test_chain_walks_bound_trees(self):
        from repro.planner.expressions import (
            BoundColumnRef,
            BoundConstant,
            BoundFunction,
            BoundOperator,
        )
        from repro.functions.scalar import SCALAR_FUNCTIONS
        from repro.types import DOUBLE, VARCHAR

        column = BoundColumnRef(0, DOUBLE, name="x")
        good = BoundOperator("+", [
            BoundFunction("abs", [column], DOUBLE, SCALAR_FUNCTIONS["abs"]),
            BoundConstant(1.0, DOUBLE)], DOUBLE)
        assert expression_chain_fusable([good])

        text = BoundColumnRef(1, VARCHAR, name="s")
        bad = BoundFunction("substr",
                            [text, BoundConstant(1, DOUBLE),
                             BoundConstant(2, DOUBLE)],
                            VARCHAR, SCALAR_FUNCTIONS["substr"])
        assert not expression_chain_fusable([good, bad])

    def test_empty_chain_is_not_fusable(self):
        assert not expression_chain_fusable([])

    def test_explain_marks_fusable_projection(self, con):
        # The filter over an introspection scan cannot be pushed into the
        # scan, so the filter->project chain survives to the lowering.
        plan = "\n".join(row[0] for row in con.execute(
            "EXPLAIN SELECT upper(name) FROM repro_settings() "
            "WHERE value <> 'x'").fetchall())
        assert "PROJECT [upper] [fusable]" in plan

    def test_explain_omits_marker_for_per_row_kernels(self, con):
        plan = "\n".join(row[0] for row in con.execute(
            "EXPLAIN SELECT substr(name, 1, 2) FROM repro_settings() "
            "WHERE value <> 'x'").fetchall())
        assert "[fusable]" not in plan
