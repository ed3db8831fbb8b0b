"""quacklint: the engine-aware static analyzer.

Each rule family is exercised against inline good/bad fixtures analyzed
under *virtual paths* (the path decides which scopes apply), the
suppression machinery is tested on its own, and -- the payoff -- the live
source tree is asserted clean, so the suite fails the moment a change
regresses one of the paper's pillars without a justified suppression.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import (
    ALL_RULES,
    AnalysisConfig,
    ThreadSafetyRegistry,
    all_rule_ids,
    analyze_paths,
    analyze_source,
    package_path,
)
from repro.analysis.rules.kernels import dtype_convertible

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_TREE = os.path.join(REPO_ROOT, "src", "repro")


def check(source, path):
    """Analyze a dedented fixture under a virtual package path."""
    return analyze_source(textwrap.dedent(source), path)


def rule_ids(violations):
    return [violation.rule for violation in violations]


# -- engine plumbing ---------------------------------------------------------

class TestEngine:
    def test_package_path_normalization(self):
        assert package_path("src/repro/types/vector.py") == \
            "repro/types/vector.py"
        assert package_path("/abs/checkout/src/repro/a.py") == "repro/a.py"
        assert package_path("repro/functions/fixture.py") == \
            "repro/functions/fixture.py"

    def test_parse_error_is_reported_not_raised(self):
        violations = check("def broken(:\n", "repro/storage/x.py")
        assert rule_ids(violations) == ["QLP000"]

    def test_rule_ids_are_unique_across_families(self):
        ids = all_rule_ids()
        assert len(ids) == len(set(ids))
        assert {"QLC001", "QLV001", "QLZ001", "QLE001", "QLR001"} <= set(ids)

    def test_violation_render_format(self):
        violations = check("try:\n    pass\nexcept Exception:\n    pass\n",
                           "repro/storage/x.py")
        assert len(violations) == 1
        rendered = violations[0].render()
        assert rendered.startswith("repro/storage/x.py:3:")
        assert "QLE001" in rendered

    def test_excluded_paths_are_skipped(self):
        # The tuple-at-a-time baseline exists to be slow; it may loop.
        source = """
        def scan(vector):
            for value in vector.data:
                yield value
        """
        assert check(source, "repro/baselines/tuple_engine.py") == []
        assert rule_ids(check(source, "repro/functions/f.py")) == ["QLV002"]

    def test_disabled_rules_config(self):
        config = AnalysisConfig(disabled_rules=("QLE",))
        source = textwrap.dedent(
            "try:\n    pass\nexcept Exception:\n    pass\n")
        assert analyze_source(source, "repro/storage/x.py", config) == []


# -- suppression comments ----------------------------------------------------

class TestSuppression:
    BAD_EXCEPT = "except Exception:"

    def test_same_line_disable(self):
        source = """
        try:
            pass
        except Exception:  # quacklint: disable=QLE001 -- probing only
            pass
        """
        assert check(source, "repro/storage/x.py") == []

    def test_disable_on_other_line_does_not_apply(self):
        source = """
        # quacklint: disable=QLE001
        try:
            pass
        except Exception:
            pass
        """
        assert rule_ids(check(source, "repro/storage/x.py")) == ["QLE001"]

    def test_family_prefix_matches(self):
        source = """
        try:
            pass
        except Exception:  # quacklint: disable=QLE
            pass
        """
        assert check(source, "repro/storage/x.py") == []

    def test_bare_disable_suppresses_everything_on_the_line(self):
        source = """
        try:
            pass
        except Exception:  # quacklint: disable
            pass
        """
        assert check(source, "repro/storage/x.py") == []

    def test_disable_file(self):
        source = """
        # quacklint: disable-file=QLE001
        try:
            pass
        except Exception:
            pass
        """
        assert check(source, "repro/storage/x.py") == []

    def test_unrelated_rule_still_fires(self):
        source = """
        try:
            pass
        except Exception:  # quacklint: disable=QLR001
            pass
        """
        assert rule_ids(check(source, "repro/storage/x.py")) == ["QLE001"]


# -- QLC: concurrency --------------------------------------------------------

class TestConcurrencyRule:
    PATH = "repro/execution/physical.py"  # registered: ExecutionContext

    def test_unlocked_write_to_shared_state_flagged(self):
        source = """
        class ExecutionContext:
            def record(self, rows):
                self.total_rows += rows
        """
        assert rule_ids(check(source, self.PATH)) == ["QLC001"]

    def test_write_under_registered_lock_is_clean(self):
        source = """
        class ExecutionContext:
            def record(self, rows):
                with self._stats_lock:
                    self.total_rows += rows
        """
        assert check(source, self.PATH) == []

    def test_mutator_call_without_lock_flagged(self):
        source = """
        class ExecutionContext:
            def record(self, item):
                self.items.append(item)
        """
        assert rule_ids(check(source, self.PATH)) == ["QLC001"]

    def test_init_is_exempt(self):
        source = """
        class ExecutionContext:
            def __init__(self):
                self.total_rows = 0
        """
        assert check(source, self.PATH) == []

    def test_locked_suffix_method_is_exempt(self):
        source = """
        class ExecutionContext:
            def _bump_locked(self):
                self.total_rows += 1
        """
        assert check(source, self.PATH) == []

    def test_registered_benign_attribute_is_exempt(self):
        # ExecutionContext.interrupted is a documented benign race
        # (cooperative cancellation flag).
        source = """
        class ExecutionContext:
            def interrupt(self):
                self.interrupted = True
        """
        assert check(source, self.PATH) == []

    def test_nested_function_does_not_inherit_lock(self):
        source = """
        class ExecutionContext:
            def record(self):
                with self._stats_lock:
                    def callback():
                        self.total_rows += 1
                    return callback
        """
        assert rule_ids(check(source, self.PATH)) == ["QLC001"]

    def test_unregistered_class_is_not_checked(self):
        source = """
        class ScratchPad:
            def record(self, rows):
                self.total_rows += rows
        """
        assert check(source, self.PATH) == []

    def test_global_statement_in_worker_reachable_module(self):
        source = """
        COUNTER = 0

        def bump():
            global COUNTER
            COUNTER += 1
        """
        assert rule_ids(check(source, "repro/functions/f.py")) == ["QLC002"]
        # Outside worker-reachable code, module-level mutable state is the
        # planner's own business.
        assert check(source, "repro/planner/binder.py") == []

    def test_registry_defaults(self):
        registry = ThreadSafetyRegistry()
        spec = registry.spec_for("repro/execution/physical.py",
                                 "ExecutionContext")
        assert spec is not None and spec.lock_attr == "_stats_lock"
        assert registry.is_worker_reachable("repro/functions/scalar.py")
        assert not registry.is_worker_reachable("repro/sql/parser.py")

    def test_registry_lock_hierarchy(self):
        registry = ThreadSafetyRegistry()
        assert registry.lock_level("connection") == 0
        assert registry.lock_level("statement_log") == \
            len(registry.lock_hierarchy) - 1
        assert registry.lock_level("operator_stats") == \
            len(registry.lock_hierarchy) - 2
        assert registry.lock_level("not_a_lock") is None
        # self.<attr> resolves through the per-class table...
        assert registry.resolve_lock_attr(
            "repro/catalog/catalog.py", "Catalog", "_lock", True) == "catalog"
        # ...other receivers only through the unambiguous global names.
        assert registry.resolve_lock_attr(
            "repro/client/connection.py", "Connection",
            "_checkpoint_lock", False) == "database.checkpoint"
        assert registry.resolve_lock_attr(
            "repro/sql/parser.py", None, "_lock", False) is None

    # -- QLC003 + interprocedural propagation -------------------------------

    def test_locked_method_called_without_lock_flagged(self):
        source = """
        class ExecutionContext:
            def _bump_locked(self):
                self.total_rows += 1

            def record(self):
                self._bump_locked()
        """
        assert rule_ids(check(source, self.PATH)) == ["QLC003"]

    def test_locked_method_called_under_lock_is_clean(self):
        source = """
        class ExecutionContext:
            def _bump_locked(self):
                self.total_rows += 1

            def record(self):
                with self._stats_lock:
                    self._bump_locked()
        """
        assert check(source, self.PATH) == []

    def test_private_helper_called_only_under_lock_is_clean(self):
        # Interprocedural: every call site of _bump holds the lock, so its
        # unguarded writes are fine even without the _locked suffix.
        source = """
        class ExecutionContext:
            def _bump(self):
                self.total_rows += 1

            def record(self):
                with self._stats_lock:
                    self._bump()
        """
        assert check(source, self.PATH) == []

    def test_two_hop_helper_chain_is_clean(self):
        source = """
        class ExecutionContext:
            def _bump(self):
                self.total_rows += 1

            def _relay(self):
                self._bump()

            def record(self):
                with self._stats_lock:
                    self._relay()
        """
        assert check(source, self.PATH) == []

    def test_helper_with_one_unlocked_call_site_still_flagged(self):
        source = """
        class ExecutionContext:
            def _bump(self):
                self.total_rows += 1

            def record(self):
                with self._stats_lock:
                    self._bump()

            def sneaky(self):
                self._bump()
        """
        assert rule_ids(check(source, self.PATH)) == ["QLC001"]

    def test_public_helper_never_propagates(self):
        # Only private methods inherit "effectively held": a public method
        # is API surface and may be called from anywhere.
        source = """
        class ExecutionContext:
            def bump(self):
                self.total_rows += 1

            def record(self):
                with self._stats_lock:
                    self.bump()
        """
        assert rule_ids(check(source, self.PATH)) == ["QLC001"]

    def test_call_site_in_nested_def_does_not_credit_helper(self):
        # The closure may run after the with-block exits, so its call site
        # must not count as lock-held for propagation.
        source = """
        class ExecutionContext:
            def _bump(self):
                self.total_rows += 1

            def record(self):
                with self._stats_lock:
                    def later():
                        self._bump()
                    return later
        """
        assert rule_ids(check(source, self.PATH)) == ["QLC001"]


# -- QLL: lock order ---------------------------------------------------------

class TestLockOrderRule:
    PATH = "repro/storage/table_data.py"  # TableData.lock -> "table_data"

    def test_direct_inversion_flagged(self):
        source = """
        class TableData:
            def bad(self):
                with self.lock:
                    with self.database._checkpoint_lock:
                        pass
        """
        assert rule_ids(check(source, self.PATH)) == ["QLL001"]

    def test_declared_order_is_clean(self):
        source = """
        class Database:
            def checkpoint(self):
                with self._checkpoint_lock:
                    with self.table.lock:
                        pass
        """
        assert check(source, "repro/database.py") == []

    def test_multi_item_with_inversion_flagged(self):
        source = """
        class TableData:
            def bad(self):
                with self.lock, self.database._checkpoint_lock:
                    pass
        """
        assert rule_ids(check(source, self.PATH)) == ["QLL001"]

    def test_same_name_reentrancy_is_clean(self):
        source = """
        class TableData:
            def outer(self):
                with self.lock:
                    with self.lock:
                        pass
        """
        assert check(source, self.PATH) == []

    def test_one_hop_call_inversion_flagged(self):
        source = """
        class TableData:
            def _grab_checkpoint(self):
                with self.database._checkpoint_lock:
                    pass

            def bad(self):
                with self.lock:
                    self._grab_checkpoint()
        """
        assert rule_ids(check(source, self.PATH)) == ["QLL002"]

    def test_two_hop_call_inversion_flagged(self):
        source = """
        class TableData:
            def _grab_checkpoint(self):
                with self.database._checkpoint_lock:
                    pass

            def _relay(self):
                self._grab_checkpoint()

            def bad(self):
                with self.lock:
                    self._relay()
        """
        assert rule_ids(check(source, self.PATH)) == ["QLL002"]

    def test_call_acquiring_inner_lock_is_clean(self):
        source = """
        class Database:
            def _grab_table(self):
                with self.table.lock:
                    pass

            def checkpoint(self):
                with self._checkpoint_lock:
                    self._grab_table()
        """
        assert check(source, "repro/database.py") == []

    def test_unresolvable_lock_is_ignored(self):
        source = """
        class TableData:
            def fine(self):
                with self.some_mutex:
                    with self.database._checkpoint_lock:
                        pass
        """
        assert check(source, self.PATH) == []

    def test_nested_def_resets_held_stack(self):
        source = """
        class TableData:
            def fine(self):
                with self.lock:
                    def later(self):
                        with self.database._checkpoint_lock:
                            pass
                    return later
        """
        assert check(source, self.PATH) == []


# -- QLV: vectorization ------------------------------------------------------

class TestVectorizationRule:
    PATH = "repro/functions/fixture.py"

    def test_element_loop_over_vector_data_flagged(self):
        source = """
        def kernel(vector, out, count):
            for index in range(count):
                out[index] = vector.data[index] * 2
        """
        assert rule_ids(check(source, self.PATH)) == ["QLV001"]

    def test_direct_iteration_over_data_flagged(self):
        source = """
        def kernel(vector):
            total = 0
            for value in vector.data:
                total += value
            return total
        """
        assert rule_ids(check(source, self.PATH)) == ["QLV002"]

    def test_iteration_over_validity_flagged(self):
        source = """
        def kernel(vector):
            for index, valid in enumerate(vector.validity):
                pass
        """
        assert rule_ids(check(source, self.PATH)) == ["QLV002"]

    def test_masked_bulk_operation_is_clean(self):
        source = """
        def kernel(left, right, out):
            mask = left.validity & right.validity
            out[mask] = left.data[mask] + right.data[mask]
        """
        assert check(source, self.PATH) == []

    def test_loop_over_argument_vectors_is_clean(self):
        # Looping once per *argument* (not per value) is the vectorized
        # idiom for n-ary kernels like concat().
        source = """
        def kernel(vectors, out):
            for vector in vectors:
                valid = vector.validity
                out[valid] = out[valid] + vector.data[valid]
        """
        assert check(source, self.PATH) == []

    def test_out_of_scope_module_not_checked(self):
        source = """
        def helper(vector):
            for value in vector.data:
                yield value
        """
        assert check(source, "repro/sql/parser.py") == []

    def test_one_violation_per_loop(self):
        source = """
        def kernel(vector, out, count):
            for index in range(count):
                out[index] = vector.data[index] + vector.data[index]
        """
        assert rule_ids(check(source, self.PATH)) == ["QLV001"]

    def test_per_index_get_value_or_row_flagged(self):
        # The hand-over modules are in scope: rows are built per column.
        source = """
        def to_pylist(vector):
            return [vector.get_value(index) for index in range(len(vector))]

        def rows(chunk):
            out = []
            for index in range(chunk.size):
                out.append(chunk.row(index))
            return out
        """
        assert rule_ids(check(source, "repro/types/fixture.py")) \
            == ["QLV003", "QLV003"]
        assert rule_ids(check(source, "repro/client/fixture.py")) \
            == ["QLV003", "QLV003"]

    def test_per_row_csv_loop_flagged(self):
        # The CSV reader/writer are in scope: text is converted per column.
        source = """
        def write_rows(chunk, writer):
            for row_index in range(chunk.size):
                writer.writerow([column.data[row_index]
                                 for column in chunk.columns])
        """
        assert rule_ids(check(source, "repro/etl/fixture.py")) == ["QLV001"]

    def test_single_value_access_and_suppressed_baseline_are_clean(self):
        source = """
        def column_value(chunk, index, row):
            return chunk.columns[index].get_value(row)

        def first_values(vectors):
            return [vector.get_value(0) for vector in vectors]

        def serialize(chunk, out):
            for row in range(chunk.size):  # quacklint: disable=QLV003 -- the wire baseline is per value on purpose
                for column in chunk.columns:
                    out.append(column.get_value(row))
        """
        assert check(source, "repro/client/fixture.py") == []


# -- QLZ: zero-copy ----------------------------------------------------------

class TestZeroCopyRule:
    PATH = "repro/client/result.py"

    def test_np_copy_flagged(self):
        source = """
        import numpy as np

        def export(vector):
            return np.copy(vector.data)
        """
        assert rule_ids(check(source, self.PATH)) == ["QLZ001"]

    def test_method_copy_flagged(self):
        source = """
        def export(vector):
            return vector.data.copy()
        """
        assert rule_ids(check(source, self.PATH)) == ["QLZ001"]
        assert rule_ids(check(source, "repro/storage/table_data.py")) \
            == ["QLZ001"]

    def test_tolist_flagged(self):
        source = """
        def export(vector):
            return vector.data.tolist()
        """
        assert rule_ids(check(source, self.PATH)) == ["QLZ002"]

    def test_np_array_without_copy_false_flagged(self):
        source = """
        import numpy as np

        def wrap(values):
            return np.array(values)
        """
        assert rule_ids(check(source, self.PATH)) == ["QLZ003"]

    def test_np_array_with_copy_false_is_clean(self):
        source = """
        import numpy as np

        def wrap(values):
            return np.array(values, copy=False)
        """
        assert check(source, self.PATH) == []

    def test_asarray_is_clean(self):
        source = """
        import numpy as np

        def wrap(values):
            return np.asarray(values)
        """
        assert check(source, self.PATH) == []

    def test_rule_only_applies_to_transfer_path(self):
        # np.array copies are fine outside the client/vector hand-over path
        # (e.g. building test data or plans).
        source = """
        import numpy as np

        def build():
            return np.array([1, 2, 3])
        """
        assert check(source, "repro/storage/checkpoint.py") == []


# -- QLE: exception discipline -----------------------------------------------

class TestExceptionRule:
    def test_swallowing_broad_except_flagged(self):
        source = """
        def load():
            try:
                risky()
            except Exception:
                return None
        """
        assert rule_ids(check(source, "repro/storage/x.py")) == ["QLE001"]

    def test_broad_except_that_reraises_is_clean(self):
        source = """
        def load():
            try:
                risky()
            except Exception as exc:
                raise StorageError(f"load failed: {exc}") from exc
        """
        assert check(source, "repro/storage/x.py") == []

    def test_bare_except_always_flagged(self):
        source = """
        def load():
            try:
                risky()
            except:
                raise
        """
        assert rule_ids(check(source, "repro/storage/x.py")) == ["QLE002"]

    def test_tuple_with_broad_member_flagged(self):
        source = """
        def load():
            try:
                risky()
            except (ValueError, Exception):
                return None
        """
        assert rule_ids(check(source, "repro/storage/x.py")) == ["QLE001"]

    def test_narrow_except_is_clean(self):
        source = """
        def load():
            try:
                risky()
            except ValueError:
                return None
        """
        assert check(source, "repro/storage/x.py") == []

    def test_raise_inside_nested_def_does_not_count(self):
        source = """
        def load():
            try:
                risky()
            except Exception:
                def fail():
                    raise ValueError("later")
                return fail
        """
        assert rule_ids(check(source, "repro/storage/x.py")) == ["QLE001"]


# -- QLR: resource discipline ------------------------------------------------

class TestResourceRule:
    PATH = "repro/storage/fixture.py"

    def test_unmanaged_open_flagged(self):
        source = """
        def read(path):
            handle = open(path)
            return handle.read()
        """
        assert rule_ids(check(source, self.PATH)) == ["QLR001"]

    def test_with_open_is_clean(self):
        source = """
        def read(path):
            with open(path) as handle:
                return handle.read()
        """
        assert check(source, self.PATH) == []

    def test_managed_attribute_is_clean(self):
        source = """
        class BlockFile:
            def __init__(self, path):
                self._file = open(path, "r+b")

            def close(self):
                self._file.close()
        """
        assert check(source, self.PATH) == []

    def test_conditional_managed_attribute_is_clean(self):
        source = """
        class Log:
            def __init__(self, path):
                self._file = open(path, "ab") if path else None

            def close(self):
                if self._file is not None:
                    self._file.close()
        """
        assert check(source, self.PATH) == []

    def test_unmanaged_attribute_on_closeless_class_flagged(self):
        source = """
        class Leaky:
            def __init__(self, path):
                self._file = open(path)
        """
        assert rule_ids(check(source, self.PATH)) == ["QLR001"]

    def test_try_finally_close_is_clean(self):
        source = """
        def read(path):
            handle = open(path)
            try:
                return handle.read()
            finally:
                handle.close()
        """
        assert check(source, self.PATH) == []

    def test_bare_acquire_flagged(self):
        source = """
        def locked_work(lock):
            lock.acquire()
            work()
            lock.release()
        """
        assert rule_ids(check(source, self.PATH)) == ["QLR002"]

    def test_acquire_with_finally_release_is_clean(self):
        source = """
        def locked_work(lock):
            lock.acquire()
            try:
                work()
            finally:
                lock.release()
        """
        assert check(source, self.PATH) == []

    def test_rule_scoped_to_storage(self):
        source = """
        def read(path):
            handle = open(path)
            return handle.read()
        """
        assert check(source, "repro/sql/reader.py") == []


class TestObservabilityRule:
    PATH = "repro/execution/fixture.py"

    def test_unclosed_span_flagged(self):
        source = """
        def profile(tracer, op):
            span = tracer.start_span(op.name, kind="operator")
            return op.execute()
        """
        assert rule_ids(check(source, self.PATH)) == ["QLO001"]

    def test_span_closed_in_same_function_is_clean(self):
        source = """
        def profile(tracer, op):
            span = tracer.start_span(op.name, kind="operator")
            try:
                return list(op.execute())
            finally:
                tracer.end_span(span)
        """
        assert check(source, self.PATH) == []

    def test_query_span_closed_across_methods_is_clean(self):
        source = """
        class Runner:
            def start(self, tracer, sql):
                self._span = tracer.start_query(sql)

            def finish(self, tracer, wall, cpu):
                tracer.finish_query(self._span, wall, cpu)
        """
        assert check(source, self.PATH) == []

    def test_query_span_never_closed_by_class_flagged(self):
        source = """
        class Runner:
            def start(self, tracer, sql):
                self._span = tracer.start_query(sql)
        """
        assert rule_ids(check(source, self.PATH)) == ["QLO001"]

    def test_context_manager_span_is_clean(self):
        source = """
        def commit(tracer, data):
            with tracer.span("wal.commit_group", kind="wal"):
                write(data)
        """
        assert check(source, self.PATH) == []

    INTROSPECTION_PATH = "repro/introspection/fixture.py"

    def test_yield_under_lock_in_provider_flagged(self):
        source = """
        def locks_rows(database, transaction):
            with database._lock:
                for name, stats in database.locks.items():
                    yield (name, stats.acquisitions)
        """
        assert rule_ids(check(source, self.INTROSPECTION_PATH)) == ["QLO003"]

    def test_yield_from_under_lock_flagged(self):
        source = """
        def traces_rows(sink):
            with sink._span_lock:
                yield from sink.spans
        """
        assert rule_ids(check(source, self.INTROSPECTION_PATH)) == ["QLO003"]

    def test_copy_then_release_provider_is_clean(self):
        source = """
        def locks_rows(database, transaction):
            with database._lock:
                snapshot = list(database.locks.items())
            for name, stats in snapshot:
                yield (name, stats.acquisitions)
        """
        assert check(source, self.INTROSPECTION_PATH) == []

    def test_non_lock_with_block_yield_is_clean(self):
        source = """
        def dump_rows(path):
            with open(path) as handle:
                yield from handle
        """
        assert check(source, self.INTROSPECTION_PATH) == []

    def test_yield_under_lock_outside_introspection_not_flagged(self):
        # QLO003 enforces the snapshot discipline of introspection
        # providers; generators elsewhere are out of scope (QLC rules
        # govern their locking).
        source = """
        def rows(self):
            with self._lock:
                yield from self._rows
        """
        assert check(source, self.PATH) == []


class TestPlanDiscipline:
    PATH = "repro/optimizer/fixture.py"

    def test_cross_node_schema_assign_flagged(self):
        source = """
        def rewrite(plan, child):
            plan.schema = child.schema
            return plan
        """
        assert rule_ids(check(source, self.PATH)) == ["QLP001"]

    def test_column_ids_assign_flagged(self):
        source = """
        def prune(plan, keep):
            plan.column_ids = [plan.column_ids[old] for old in keep]
            return plan
        """
        assert rule_ids(check(source, self.PATH)) == ["QLP001"]

    def test_filter_schema_assign_flagged(self):
        source = """
        def narrow(plan, child):
            plan.filter_schema = child.schema[:1]
            return plan
        """
        assert rule_ids(check(source, self.PATH)) == ["QLP001"]

    def test_self_schema_assign_is_construction(self):
        source = """
        class LogicalThing:
            def __init__(self, schema):
                self.schema = schema
                self.column_ids = list(range(len(schema)))
        """
        assert check(source, self.PATH) == []

    def test_borrowed_schema_is_warning(self):
        source = """
        def rebuild(plan, child):
            return LogicalAggregate(child, plan.groups, plan.aggregates,
                                    plan.schema)
        """
        violations = check(source, self.PATH)
        assert rule_ids(violations) == ["QLP002"]
        assert violations[0].severity == "warning"
        assert "[warning]" in violations[0].render()

    def test_rederived_schema_is_clean(self):
        source = """
        def rebuild(plan, child, derive):
            schema = derive(plan.groups, plan.aggregates)
            return LogicalAggregate(child, plan.groups, plan.aggregates,
                                    schema)
        """
        assert check(source, self.PATH) == []

    def test_own_schema_passthrough_is_clean(self):
        source = """
        class Planner:
            def lower(self, child):
                return PhysicalFilter(child, self.schema)
        """
        assert check(source, self.PATH) == []

    def test_list_growth_flagged(self):
        source = """
        def push(plan, conjuncts):
            plan.pushed_filters.extend(conjuncts)
            return plan
        """
        assert rule_ids(check(source, self.PATH)) == ["QLP003"]

    def test_local_list_growth_is_clean(self):
        source = """
        def collect(plans):
            conjuncts = []
            for plan in plans:
                conjuncts.append(plan)
            return conjuncts
        """
        assert check(source, self.PATH) == []

    def test_physical_planner_in_scope(self):
        source = """
        def lower(plan, child):
            plan.schema = child.schema
        """
        path = "repro/execution/physical_planner.py"
        assert rule_ids(check(source, path)) == ["QLP001"]

    def test_executor_modules_out_of_scope(self):
        # Executors legitimately adjust their own state; QLP governs the
        # plan-constructing layers only.
        source = """
        def lower(plan, child):
            plan.schema = child.schema
        """
        assert check(source, "repro/execution/basic.py") == []

    def test_suppression_with_justification(self):
        source = """
        def prune(plan, keep):
            plan.schema = [plan.schema[old] for old in keep]  # quacklint: disable=QLP001 -- leaf rebind
            return plan
        """
        assert check(source, self.PATH) == []


# -- the live tree and the CLI -----------------------------------------------

class TestLiveTree:
    def test_source_tree_is_clean(self):
        """THE gate: the shipped engine passes its own analyzer."""
        violations = analyze_paths([SRC_TREE])
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_every_rule_has_fixture_coverage(self):
        # Guards against a rule family being added without tests: every
        # registered family must appear in this module's fixture classes.
        assert {rule.name for rule in ALL_RULES} == {
            "concurrency", "lockorder", "vectorization", "zero-copy",
            "exception-discipline", "resource-discipline", "observability",
            "plans", "kernels",
        }


class TestCommandLine:
    def run_cli(self, *args, cwd=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, env=env, cwd=cwd or REPO_ROOT)

    def test_clean_tree_exits_zero(self):
        proc = self.run_cli(SRC_TREE)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 violations" in proc.stdout

    def test_seeded_violation_exits_nonzero(self, tmp_path):
        bad = tmp_path / "repro" / "storage" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(textwrap.dedent("""
            def load():
                try:
                    handle = open("x")
                except Exception:
                    return None
        """))
        proc = self.run_cli(str(bad), cwd=str(tmp_path))
        assert proc.returncode == 1
        assert "QLE001" in proc.stdout
        assert "QLR001" in proc.stdout

    def test_disable_flag(self, tmp_path):
        bad = tmp_path / "repro" / "storage" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "try:\n    pass\nexcept Exception:\n    pass\n")
        proc = self.run_cli("--disable", "QLE001", str(bad), cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ("QLC001", "QLC003", "QLL001", "QLL002", "QLV001",
                        "QLZ001", "QLE001", "QLR001", "QLO001", "QLO003"):
            assert rule_id in proc.stdout

    BAD_FIXTURE = ("def load():\n"
                   "    try:\n"
                   "        pass\n"
                   "    except Exception:\n"
                   "        return None\n")

    def seed_bad_file(self, tmp_path):
        bad = tmp_path / "repro" / "storage" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(self.BAD_FIXTURE)
        return bad

    def test_format_json_structure(self, tmp_path):
        import json as json_module

        bad = self.seed_bad_file(tmp_path)
        proc = self.run_cli("--format", "json", str(bad), cwd=str(tmp_path))
        assert proc.returncode == 1
        report = json_module.loads(proc.stdout)
        assert report["violation_count"] == 1
        assert report["files_scanned"] == 1
        assert report["files_flagged"] == 1
        (violation,) = report["violations"]
        assert violation["rule"] == "QLE001"
        assert violation["line"] == 4

    def test_json_flag_is_alias_for_format_json(self, tmp_path):
        import json as json_module

        bad = self.seed_bad_file(tmp_path)
        proc = self.run_cli("--json", str(bad), cwd=str(tmp_path))
        assert proc.returncode == 1
        report = json_module.loads(proc.stdout)
        assert report["violation_count"] == 1

    def test_format_json_clean_tree(self):
        import json as json_module

        proc = self.run_cli("--format", "json", SRC_TREE)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json_module.loads(proc.stdout)
        assert report["violations"] == []
        assert report["files_scanned"] > 0

    def test_format_github_annotations(self, tmp_path):
        bad = self.seed_bad_file(tmp_path)
        proc = self.run_cli("--format", "github", str(bad),
                            cwd=str(tmp_path))
        assert proc.returncode == 1
        (line,) = proc.stdout.splitlines()
        assert line.startswith("::error file=")
        assert "line=4," in line
        assert "title=QLE001::" in line

    def test_format_github_clean_is_silent(self):
        proc = self.run_cli("--format", "github", SRC_TREE)
        assert proc.returncode == 0
        assert proc.stdout.strip() == ""

    WARNING_FIXTURE = ("def rebuild(plan, child):\n"
                       "    return LogicalAggregate(child, plan.groups,\n"
                       "                            plan.aggregates,\n"
                       "                            plan.schema)\n")

    def seed_warning_file(self, tmp_path):
        bad = tmp_path / "repro" / "optimizer" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(self.WARNING_FIXTURE)
        return bad

    def test_fail_on_default_fails_on_warnings(self, tmp_path):
        bad = self.seed_warning_file(tmp_path)
        proc = self.run_cli(str(bad), cwd=str(tmp_path))
        assert proc.returncode == 1
        assert "QLP002" in proc.stdout
        assert "[warning]" in proc.stdout
        assert "(0 errors, 1 warnings)" in proc.stdout

    def test_fail_on_error_passes_warnings(self, tmp_path):
        bad = self.seed_warning_file(tmp_path)
        proc = self.run_cli("--fail-on", "error", str(bad), cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # The warning is still reported, it just does not gate the run.
        assert "QLP002" in proc.stdout

    def test_fail_on_error_still_fails_on_errors(self, tmp_path):
        bad = self.seed_bad_file(tmp_path)
        proc = self.run_cli("--fail-on", "error", str(bad), cwd=str(tmp_path))
        assert proc.returncode == 1

    def test_json_severity_counts(self, tmp_path):
        import json as json_module

        self.seed_bad_file(tmp_path)
        self.seed_warning_file(tmp_path)
        proc = self.run_cli("--format", "json", "repro", cwd=str(tmp_path))
        assert proc.returncode == 1
        report = json_module.loads(proc.stdout)
        assert report["error_count"] == 1  # QLE001
        assert report["warning_count"] == 1
        severities = {v["rule"]: v["severity"] for v in report["violations"]}
        assert severities["QLP002"] == "warning"
        assert severities["QLE001"] == "error"

    def test_github_warning_annotation(self, tmp_path):
        bad = self.seed_warning_file(tmp_path)
        proc = self.run_cli("--format", "github", str(bad), cwd=str(tmp_path))
        assert proc.returncode == 1
        (line,) = proc.stdout.splitlines()
        assert line.startswith("::warning file=")
        assert "title=QLP002::" in line

    def test_github_mixed_severities_in_one_run(self, tmp_path):
        # Regression strength for the --format github severity fix: a run
        # with both an error- and a warning-severity violation must emit
        # one ::error and one ::warning annotation, not two ::error lines.
        self.seed_bad_file(tmp_path)
        self.seed_warning_file(tmp_path)
        proc = self.run_cli("--format", "github", "repro", cwd=str(tmp_path))
        assert proc.returncode == 1
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        assert sum(1 for line in lines if line.startswith("::error ")) == 1
        assert sum(1 for line in lines if line.startswith("::warning ")) == 1


# -- QLK: kernel contracts ---------------------------------------------------

class TestKernelContractRules:
    GOOD_KERNEL = """
    import numpy as np
    from repro.types import DOUBLE, Vector

    def _good_execute(vectors, count):
        source = vectors[0]
        data = np.sqrt(np.abs(source.data))
        return Vector(DOUBLE, data, source.validity.copy())
    """

    def test_good_kernel_is_clean(self):
        assert check(self.GOOD_KERNEL, "repro/functions/fixture.py") == []

    def test_qlk001_lossy_dtype(self):
        source = """
        import numpy as np
        from repro.types import INTEGER, Vector

        def _bad_execute(vectors, count):
            data = np.zeros(count, dtype=np.float64)
            data[:] = vectors[0].data[:count]
            validity = vectors[0].validity.copy()
            return Vector(INTEGER, data, validity)
        """
        violations = check(source, "repro/functions/fixture.py")
        assert rule_ids(violations) == ["QLK001"]
        assert violations[0].severity == "error"

    def test_qlk001_sees_inline_astype(self):
        source = """
        import numpy as np
        from repro.types import BOOLEAN, Vector

        def _bad_execute(vectors, count):
            source = vectors[0]
            return Vector(BOOLEAN, source.data.astype(np.float64, copy=False),
                          source.validity.copy())
        """
        assert rule_ids(check(source, "repro/functions/fixture.py")) == \
            ["QLK001"]

    def test_qlk002_data_without_validity(self):
        source = """
        import numpy as np
        from repro.types import DOUBLE, Vector

        def _leaky_execute(vectors, count):
            data = np.sqrt(vectors[0].data)
            return Vector(DOUBLE, data)
        """
        violations = check(source, "repro/functions/fixture.py")
        assert rule_ids(violations) == ["QLK002"]

    def test_qlk002_docstring_contract_is_accepted(self):
        source = '''
        import numpy as np
        from repro.types import DOUBLE, Vector

        def _documented_execute(vectors, count):
            """Every output lane is valid; NULL inputs are treated as 0."""
            data = np.sqrt(vectors[0].data)
            return Vector(DOUBLE, data)
        '''
        assert check(source, "repro/functions/fixture.py") == []

    def test_qlk003_avoidable_copy_is_a_warning(self):
        source = """
        import numpy as np
        from repro.types import BOOLEAN, Vector

        def _copy_execute(vectors, count):
            source = vectors[0]
            data = source.data.astype(np.bool_)
            return Vector(BOOLEAN, data, source.validity.copy())
        """
        violations = check(source, "repro/functions/fixture.py")
        # The lossless-dtype rule stays quiet (bool -> BOOLEAN); only the
        # copy advisory fires, downgraded to warning severity.
        assert rule_ids(violations) == ["QLK003"]
        assert violations[0].severity == "warning"

    def test_qlk003_copy_false_is_clean(self):
        source = """
        import numpy as np
        from repro.types import BOOLEAN, Vector

        def _view_execute(vectors, count):
            source = vectors[0]
            data = source.data.astype(np.bool_, copy=False)
            return Vector(BOOLEAN, data, source.validity.copy())
        """
        assert check(source, "repro/functions/fixture.py") == []

    def test_qlk004_module_global_mutation(self):
        source = """
        import numpy as np
        from repro.types import DOUBLE, Vector

        _CACHE = {}

        def _stateful_execute(vectors, count):
            source = vectors[0]
            _CACHE[count] = source.data
            return Vector(DOUBLE, source.data.copy(), source.validity.copy())
        """
        violations = check(source, "repro/functions/fixture.py")
        assert rule_ids(violations) == ["QLK004"]

    def test_qlk004_global_statement(self):
        source = """
        import numpy as np
        from repro.types import DOUBLE, Vector

        _CALLS = 0

        def _counting_execute(vectors, count):
            global _CALLS
            _CALLS += 1
            source = vectors[0]
            return Vector(DOUBLE, source.data.copy(), source.validity.copy())
        """
        violations = check(source, "repro/functions/fixture.py")
        assert "QLK004" in rule_ids(violations)

    def test_qlk004_mutating_method_call(self):
        source = """
        import numpy as np
        from repro.types import DOUBLE, Vector

        _CALLS = []

        def _logging_execute(vectors, count):
            source = vectors[0]
            _CALLS.append(count)
            return Vector(DOUBLE, source.data.copy(), source.validity.copy())
        """
        violations = check(source, "repro/functions/fixture.py")
        assert rule_ids(violations) == ["QLK004"]

    def test_qlk004_ignores_local_containers_and_numpy(self):
        source = """
        import numpy as np
        from repro.types import DOUBLE, Vector

        def _local_execute(vectors, count):
            source = vectors[0]
            seen = []
            seen.append(count)
            data = np.add(source.data, 1.0)
            return Vector(DOUBLE, data, source.validity.copy())
        """
        assert check(source, "repro/functions/fixture.py") == []

    def test_non_kernel_functions_are_ignored(self):
        # No Vector construction => not a kernel => no QLK scrutiny.
        source = """
        def helper(values):
            return [value.data for value in values]
        """
        assert check(source, "repro/functions/fixture.py") == []

    def test_rule_scoped_to_kernel_modules(self):
        source = """
        import numpy as np
        from repro.types import DOUBLE, Vector

        _CACHE = {}

        def _stateful_execute(vectors, count):
            _CACHE[0] = vectors
            return Vector(DOUBLE, np.zeros(0), np.zeros(0, dtype=bool))
        """
        assert check(source, "repro/storage/fixture.py") == []


class TestDtypeConvertible:
    """QLK001's verdict on a produced NumPy dtype against a declared type."""

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
