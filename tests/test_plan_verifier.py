"""quackplan: the static plan verifier and optimizer-rewrite checker.

Three layers of coverage:

* **seeded corruptions** -- each deliberately broken rewrite (dangling
  column ref, inflated limit, dropped projection column, undominated scan
  hint) must be caught with the offending pass named, and each broken join
  output map (a position out of range, a position of the wrong type) at
  lowering;
* **the clean sweep** -- a battery of representative queries runs with
  verification on (the whole suite does, via conftest) and every recorded
  check is ``ok``;
* **plumbing** -- the ``repro_plan_checks()`` system table, the
  off-by-default behavior, PRAGMA toggling, the stale-estimate EXPLAIN
  marker, and checks staying with the statement that produced them --
  across plan-cache hits, streamed results and concurrent connections.
"""

import threading

import pytest

import repro
from repro.errors import PlanVerificationError
from repro.execution.joins import _JoinBase
from repro.optimizer import rules
from repro.planner.expressions import BoundColumnRef
from repro.planner.logical import (
    LogicalGet,
    LogicalLimit,
    LogicalProjection,
)
from repro.types import INTEGER
from repro.verifier import active_verifier
from repro.verifier.invariants import check_logical, output_bound


@pytest.fixture(autouse=True)
def _verification_on(monkeypatch):
    """These tests exercise the verifier; force it on regardless of the
    ambient environment (conftest only sets a default, which an explicit
    REPRO_VERIFY_PLANS=0 would override)."""
    monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")


def _find(plan, kind):
    """First node of the given type in the tree, or None."""
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            return node
        stack.extend(node.children)
    return None


@pytest.fixture
def corrupt(monkeypatch):
    """Patch one optimizer pass to corrupt its output after the real work."""

    def patch(pass_name, corruption):
        original = getattr(rules, pass_name)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            plan = result[0] if isinstance(result, tuple) else result
            corruption(plan)
            return result

        monkeypatch.setattr(rules, pass_name, wrapped)

    return patch


# -- seeded corruptions -------------------------------------------------------

class TestSeededCorruptions:
    def test_dangling_column_ref_names_filter_pushdown(self, populated,
                                                       corrupt):
        def dangle(plan):
            get = _find(plan, LogicalGet)
            if get is not None:
                get.pushed_filters.append(BoundColumnRef(99, INTEGER, "ghost"))

        corrupt("_push_filters", dangle)
        with pytest.raises(PlanVerificationError) as info:
            populated.execute("SELECT i FROM sample WHERE i > 1").fetchall()
        message = str(info.value)
        assert "filter_pushdown" in message
        assert "column_binding" in message
        assert "dangling column ref #99" in message

    def test_inflated_limit_names_limit_pushdown(self, populated, corrupt):
        def inflate(plan):
            limit = _find(plan, LogicalLimit)
            if limit is None or limit.limit is None:
                return
            limit.limit *= 10
            # Keep the planted scan hint consistent so the *only* violation
            # is the raised output bound, not a stale limit_hint.
            get = _find(plan, LogicalGet)
            if get is not None and get.limit_hint is not None:
                get.limit_hint = limit.limit + limit.offset

        corrupt("_push_limits", inflate)
        with pytest.raises(PlanVerificationError) as info:
            populated.execute("SELECT i FROM sample LIMIT 3").fetchall()
        message = str(info.value)
        assert "limit_pushdown" in message
        assert "limit_monotonic" in message

    def test_dropped_projection_column_names_column_pruning(self, populated,
                                                            corrupt):
        def drop_column(plan):
            if isinstance(plan, LogicalProjection) and len(plan.schema) > 1:
                plan.expressions.pop()
                plan.schema.pop()

        corrupt("_prune_columns", drop_column)
        with pytest.raises(PlanVerificationError) as info:
            populated.execute("SELECT i, s FROM sample").fetchall()
        message = str(info.value)
        assert "column_pruning" in message
        assert "schema_preserved" in message

    def test_undominated_limit_hint_names_limit_pushdown(self, populated,
                                                         corrupt):
        def plant_hint(plan):
            get = _find(plan, LogicalGet)
            if get is not None:
                get.limit_hint = 1

        corrupt("_push_limits", plant_hint)
        # No LIMIT in the query, so no Limit node dominates the hint.
        with pytest.raises(PlanVerificationError) as info:
            populated.execute("SELECT i FROM sample").fetchall()
        message = str(info.value)
        assert "limit_pushdown" in message
        assert "limit_hint" in message

    @pytest.mark.parametrize("corruption, expected", [
        ("out_of_range", "maps to #99"),
        ("wrong_type", "declared INTEGER but maps to"),
    ])
    def test_corrupt_join_output_map_is_caught(self, populated, monkeypatch,
                                              corruption, expected):
        original = _JoinBase.project

        def project(join, positions, names):
            original(join, positions, names)
            inputs = list(join.left.types) + list(join.right.types)
            if corruption == "out_of_range":
                join.output_map[-1] = 99
            else:
                join.output_map[0] = next(
                    position for position, dtype in enumerate(inputs)
                    if dtype != join.types[0])

        monkeypatch.setattr(_JoinBase, "project", project)
        with pytest.raises(PlanVerificationError) as info:
            populated.execute(
                "SELECT a.i, b.s FROM sample a JOIN sample b "
                "ON a.i = b.i ORDER BY 1").fetchall()
        message = str(info.value)
        assert "lowering" in message
        assert "output_map" in message
        assert expected in message

    def test_violation_carries_before_and_after_plans(self, populated,
                                                      corrupt):
        def dangle(plan):
            get = _find(plan, LogicalGet)
            if get is not None:
                get.pushed_filters.append(BoundColumnRef(42, INTEGER, "ghost"))

        corrupt("_push_filters", dangle)
        with pytest.raises(PlanVerificationError) as info:
            populated.execute("SELECT i FROM sample WHERE i > 1").fetchall()
        message = str(info.value)
        assert "-- plan before filter_pushdown --" in message
        assert "-- plan after filter_pushdown --" in message

    def test_violating_statement_records_its_checks(self, populated,
                                                    corrupt):
        def inflate(plan):
            limit = _find(plan, LogicalLimit)
            if limit is None or limit.limit is None:
                return
            limit.limit *= 10
            get = _find(plan, LogicalGet)
            if get is not None and get.limit_hint is not None:
                get.limit_hint = limit.limit + limit.offset

        corrupt("_push_limits", inflate)
        with pytest.raises(PlanVerificationError):
            populated.execute("SELECT i FROM sample LIMIT 3").fetchall()
        # The failed statement's own record names the pass; the reading
        # statement has no LIMIT, so the corruption leaves it alone.
        rows = populated.execute(
            "SELECT stage, invariant, status, detail FROM repro_plan_checks() "
            "ORDER BY seq").fetchall()
        bad = [row for row in rows if row[2] == "violation"]
        assert bad, [row[0] for row in rows]
        assert bad[0][:2] == ("limit_pushdown", "limit_monotonic")
        assert "before:" in bad[0][3] and "after:" in bad[0][3]
        assert all(row[2] == "ok" for row in rows[:rows.index(bad[0])])


# -- pure invariant checks ----------------------------------------------------

@pytest.fixture
def plan_for(populated):
    """Bind + optimize a SELECT against the populated connection's catalog."""
    from repro.planner import Binder
    from repro.sql import parse_one

    database = populated.database

    def build(sql):
        transaction = database.transaction_manager.begin()
        try:
            binder = Binder(database.catalog, transaction)
            bound = binder.bind_statement(parse_one(sql))
            return rules.optimize(bound.plan)
        finally:
            database.transaction_manager.rollback(transaction)

    return build


class TestInvariantPrimitives:
    def test_output_bound_tracks_limits(self, plan_for):
        plan = plan_for("SELECT i FROM sample LIMIT 3")
        assert output_bound(plan) == 3.0

    def test_check_logical_clean_on_bound_plan(self, plan_for):
        plan = plan_for("SELECT s, sum(i) FROM sample GROUP BY s ORDER BY s")
        assert check_logical(plan) == []


# -- the system table ---------------------------------------------------------

class TestPlanChecksTable:
    STAGES = ("binder", "constant_folding", "filter_pushdown",
              "join_reordering", "limit_pushdown", "column_pruning",
              "annotate", "lowering")

    def test_all_stages_recorded_ok(self, populated):
        populated.execute(
            "SELECT s, count(*) FROM sample WHERE i > 1 "
            "GROUP BY s ORDER BY s LIMIT 2").fetchall()
        rows = populated.execute(
            "SELECT stage, invariant, status FROM repro_plan_checks() "
            "ORDER BY seq").fetchall()
        assert [row[0] for row in rows] == list(self.STAGES)
        assert all(row[2] == "ok" for row in rows)

    def test_reading_the_table_does_not_reset_it(self, populated):
        populated.execute("SELECT i FROM sample").fetchall()
        first = populated.execute(
            "SELECT statement FROM repro_plan_checks()").fetchall()
        second = populated.execute(
            "SELECT statement FROM repro_plan_checks()").fetchall()
        assert first and first == second

    def test_subquery_lowering_appends_to_same_statement(self, populated):
        populated.execute(
            "SELECT i FROM sample WHERE i > (SELECT min(i) FROM sample)"
        ).fetchall()
        rows = populated.execute(
            "SELECT statement, stage FROM repro_plan_checks()").fetchall()
        statements = {row[0] for row in rows}
        assert len(statements) == 1
        # Root lowering plus the subquery's mid-execution lowering.
        assert sum(1 for row in rows if row[1] == "lowering") == 2

    def test_plan_cache_hit_reports_only_its_own_lowering(self, populated):
        select = "SELECT i FROM sample WHERE i > 1"
        populated.execute(select).fetchall()
        populated.execute("INSERT INTO sample VALUES (9, 'nine', 9.0)")
        populated.execute(select).fetchall()  # a plan-cache hit
        rows = populated.execute(
            "SELECT stage, status FROM repro_plan_checks()").fetchall()
        assert rows == [("lowering", "ok")]

    def test_streamed_subquery_lowering_stays_with_its_statement(
            self, populated):
        other = populated.duplicate()
        try:
            result = populated.execute(
                "SELECT i FROM sample WHERE i > (SELECT min(i) FROM sample)",
                stream=True)
            other.execute("SELECT s FROM sample").fetchall()
            # The first fetch lowers the subquery; the statement stays open.
            assert result.fetchone() is not None
            rows = other.execute(
                "SELECT stage FROM repro_plan_checks() ORDER BY seq"
            ).fetchall()
            assert [row[0] for row in rows] == list(self.STAGES)
            result.fetchall()
            rows = other.execute(
                "SELECT stage FROM repro_plan_checks() ORDER BY seq"
            ).fetchall()
            assert [row[0] for row in rows] == list(self.STAGES) \
                + ["lowering"]
        finally:
            other.close()


# -- enablement ---------------------------------------------------------------

class TestEnablement:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
        with repro.connect() as con:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("INSERT INTO t VALUES (1)")
            con.execute("SELECT * FROM t").fetchall()
            assert not con.database.config.verify_plans
            assert active_verifier(con.database) is None
            assert con.execute(
                "SELECT * FROM repro_plan_checks()").fetchall() == []

    def test_pragma_toggles_at_runtime(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY_PLANS", raising=False)
        with repro.connect() as con:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("PRAGMA verify_plans = 1")
            con.execute("SELECT * FROM t").fetchall()
            rows = con.execute(
                "SELECT DISTINCT status FROM repro_plan_checks()").fetchall()
            assert rows == [("ok",)]
            con.execute("PRAGMA verify_plans = 0")
            assert active_verifier(con.database) is None

    def test_active_verifier_on_none_database(self):
        assert active_verifier(None) is None


# -- the clean sweep ----------------------------------------------------------

SWEEP_QUERIES = [
    "SELECT 1",
    "SELECT * FROM sample",
    "SELECT i + 1, upper(s) FROM sample",
    "SELECT * FROM sample WHERE i > 2 AND d IS NOT NULL",
    "SELECT * FROM sample WHERE s = 'alpha' OR i = 4",
    "SELECT DISTINCT s FROM sample",
    "SELECT s, count(*), sum(i), avg(d) FROM sample GROUP BY s",
    "SELECT count(*) FROM sample",
    "SELECT * FROM sample ORDER BY i DESC",
    "SELECT * FROM sample ORDER BY d NULLS FIRST LIMIT 2",
    "SELECT i FROM sample ORDER BY i LIMIT 2 OFFSET 1",
    "SELECT i FROM sample LIMIT 3",
    "SELECT a.i, b.s FROM sample a JOIN sample b ON a.i = b.i",
    "SELECT a.i FROM sample a JOIN sample b ON a.i = b.i WHERE b.d > 1",
    "SELECT a.i, b.i FROM sample a, sample b WHERE a.i = b.i + 1",
    "SELECT a.i FROM sample a LEFT JOIN sample b ON a.i = b.i + 3",
    "SELECT i FROM sample UNION SELECT i + 10 FROM sample",
    "SELECT i FROM sample INTERSECT SELECT i FROM sample WHERE i > 2",
    "SELECT i FROM sample EXCEPT SELECT i FROM sample WHERE i < 3",
    "SELECT i FROM sample WHERE i > (SELECT avg(i) FROM sample)",
    "SELECT i FROM sample WHERE i IN (SELECT i FROM sample WHERE i > 2)",
    "SELECT s, sum(i) FROM sample WHERE d IS NOT NULL GROUP BY s "
    "HAVING sum(i) > 1 ORDER BY s LIMIT 5",
    "SELECT i, row_number() OVER (ORDER BY i) FROM sample",
    "SELECT i, sum(i) OVER (PARTITION BY s ORDER BY i) FROM sample",
    "SELECT CASE WHEN i > 2 THEN 'hi' ELSE 'lo' END FROM sample",
    "SELECT * FROM (SELECT i AS x FROM sample WHERE i > 1) t WHERE x < 5",
]


class TestCleanSweep:
    @pytest.mark.parametrize("query", SWEEP_QUERIES)
    def test_query_verifies_clean(self, populated, query):
        # conftest exports REPRO_VERIFY_PLANS=1: a violation would raise.
        populated.execute(query).fetchall()
        statuses = populated.execute(
            "SELECT status FROM repro_plan_checks()").fetchall()
        assert statuses, "verification did not run"
        assert all(status == ("ok",) for status in statuses)


# -- stale estimates in EXPLAIN ----------------------------------------------

class TestStaleEstimates:
    def test_update_marks_explain_stale(self, populated):
        populated.execute("UPDATE sample SET i = i + 1 WHERE i = 1")
        (line,) = [
            row[0] for row in
            populated.execute(
                "EXPLAIN SELECT * FROM sample WHERE i > 2").fetchall()
            if "GET sample" in row[0]
        ][:1]
        assert ", stale)" in line

    def test_fresh_stats_not_marked(self, populated):
        plan_text = "\n".join(
            row[0] for row in populated.execute(
                "EXPLAIN SELECT * FROM sample WHERE i > 2").fetchall())
        assert "stale" not in plan_text
        assert "(est=" in plan_text

    def test_checkpoint_clears_stale_marker(self, db_path):
        with repro.connect(db_path) as con:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
            con.execute("UPDATE t SET a = a + 1 WHERE a < 3")
            stale_text = "\n".join(
                row[0] for row in con.execute(
                    "EXPLAIN SELECT * FROM t WHERE a > 2").fetchall())
            assert ", stale)" in stale_text
        # Checkpoint-on-close recomputes statistics.
        with repro.connect(db_path) as con:
            fresh_text = "\n".join(
                row[0] for row in con.execute(
                    "EXPLAIN SELECT * FROM t WHERE a > 2").fetchall())
            assert "stale" not in fresh_text


# -- thread safety ------------------------------------------------------------

class TestThreadSafety:
    def test_concurrent_connections_share_the_verifier(self, populated):
        database = populated.database
        # Every execution must re-optimize (and so re-verify): the plan and
        # result caches would legitimately skip the work being counted here.
        database.config.plan_cache_entries = 0
        database.config.result_cache_entries = 0
        errors = []

        def worker():
            con = database.connect()
            try:
                for _ in range(10):
                    con.execute(
                        "SELECT s, count(*) FROM sample GROUP BY s"
                    ).fetchall()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)
            finally:
                con.close()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        records = [record for record in database.statement_log.records()
                   if record.sql.startswith("SELECT s, count(*)")]
        assert len(records) == 4 * 10
        # Every statement carries its own 8 stages, all ok.
        for record in records:
            assert [check[2] for check in record.plan_checks] == ["ok"] * 8
