"""Optimizer tests: folding, filter pushdown, join reordering, limit
pushdown, column pruning (plan shapes), and decision introspection."""

import pytest

import repro
from repro.optimizer import cost, optimize
from repro.planner import (
    Binder,
    LogicalAggregate,
    LogicalEmpty,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalProjection,
)
from repro.planner.logical import LogicalLimit
from repro.planner.expressions import BoundConstant
from repro.sql import parse_one


@pytest.fixture
def plan_for(populated):
    """Bind + optimize a SELECT against the populated connection's catalog."""
    database = populated.database

    def build(sql):
        transaction = database.transaction_manager.begin()
        try:
            binder = Binder(database.catalog, transaction)
            bound = binder.bind_statement(parse_one(sql))
            return optimize(bound.plan)
        finally:
            database.transaction_manager.rollback(transaction)

    return build


def find_ops(plan, kind):
    found = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, kind):
            found.append(node)
        stack.extend(node.children)
    return found


class TestConstantFolding:
    def test_arithmetic_folds(self, plan_for):
        plan = plan_for("SELECT 1 + 2 * 3 FROM sample")
        projection = find_ops(plan, LogicalProjection)[0]
        assert isinstance(projection.expressions[0], BoundConstant)
        assert projection.expressions[0].value == 7

    def test_true_filter_removed(self, plan_for):
        plan = plan_for("SELECT i FROM sample WHERE 1 = 1")
        assert not find_ops(plan, LogicalFilter)
        get = find_ops(plan, LogicalGet)[0]
        assert not get.pushed_filters

    def test_false_filter_becomes_empty(self, plan_for):
        plan = plan_for("SELECT i FROM sample WHERE 1 = 2")
        assert find_ops(plan, LogicalEmpty)

    def test_folding_keeps_erroring_expressions(self, plan_for):
        # CAST('x' AS INTEGER) fails: folding must not raise at plan time.
        plan = plan_for("SELECT i FROM sample WHERE i < 5 OR "
                        "CAST('x' AS VARCHAR) = 'x'")
        assert plan is not None

    def test_results_unchanged_by_folding(self, populated):
        rows = populated.execute(
            "SELECT i + (2 * 3) FROM sample WHERE i < 1 + 2 ORDER BY 1"
        ).fetchall()
        assert rows == [(7,), (8,)]


class TestFilterPushdown:
    def test_where_reaches_scan(self, plan_for):
        plan = plan_for("SELECT i FROM sample WHERE d > 1")
        get = find_ops(plan, LogicalGet)[0]
        assert len(get.pushed_filters) == 1
        assert not find_ops(plan, LogicalFilter)

    def test_conjuncts_split(self, plan_for):
        plan = plan_for("SELECT i FROM sample WHERE d > 1 AND i < 5 AND "
                        "s = 'alpha'")
        get = find_ops(plan, LogicalGet)[0]
        assert len(get.pushed_filters) == 3

    def test_pushdown_through_projection(self, plan_for):
        plan = plan_for(
            "SELECT x FROM (SELECT i * 2 AS x FROM sample) sub WHERE x > 4")
        get = find_ops(plan, LogicalGet)[0]
        assert len(get.pushed_filters) == 1  # substituted i*2 > 4

    def test_pushdown_splits_join_sides(self, populated, plan_for):
        populated.execute("CREATE TABLE other (i INTEGER, z DOUBLE)")
        plan = plan_for(
            "SELECT sample.i FROM sample JOIN other ON sample.i = other.i "
            "WHERE sample.d > 1 AND other.z < 5")
        gets = find_ops(plan, LogicalGet)
        assert all(len(get.pushed_filters) == 1 for get in gets)

    def test_cross_join_where_becomes_join_condition(self, populated, plan_for):
        populated.execute("CREATE TABLE other (i INTEGER)")
        plan = plan_for(
            "SELECT sample.i FROM sample, other WHERE sample.i = other.i")
        join = find_ops(plan, LogicalJoin)[0]
        assert join.join_type == "inner"
        assert len(join.conditions) == 1

    def test_left_join_right_filter_not_pushed(self, populated):
        populated.execute("CREATE TABLE other (i INTEGER, z INTEGER)")
        populated.execute("INSERT INTO other VALUES (1, 10)")
        # Filtering on the right side of a LEFT JOIN must apply after
        # null-extension, not before.
        rows = populated.execute(
            "SELECT sample.i, other.z FROM sample LEFT JOIN other "
            "ON sample.i = other.i WHERE other.z IS NULL ORDER BY 1").fetchall()
        assert rows == [(2, None), (3, None), (4, None), (5, None)]

    def test_group_key_filter_pushed_below_aggregate(self, plan_for):
        plan = plan_for(
            "SELECT s, count(*) FROM sample GROUP BY s HAVING s = 'alpha'")
        # The HAVING on a pure group key becomes a scan filter.
        get = find_ops(plan, LogicalGet)[0]
        aggregate = find_ops(plan, LogicalAggregate)[0]
        assert len(get.pushed_filters) == 1

    def test_having_on_aggregate_stays_above(self, plan_for):
        plan = plan_for(
            "SELECT s, count(*) FROM sample GROUP BY s HAVING count(*) > 1")
        filters = find_ops(plan, LogicalFilter)
        assert len(filters) == 1
        assert isinstance(filters[0].children[0], LogicalAggregate)

    def test_results_match_without_optimizer_effects(self, populated):
        # Semantic sanity: pushdown must not change results.
        rows = populated.execute(
            "SELECT s FROM (SELECT * FROM sample) t WHERE i BETWEEN 2 AND 4 "
            "AND s IS NOT NULL ORDER BY i").fetchall()
        assert rows == [("beta",), ("alpha",)]


class TestColumnPruning:
    def test_scan_narrowed_to_used_columns(self, plan_for):
        plan = plan_for("SELECT i FROM sample")
        get = find_ops(plan, LogicalGet)[0]
        assert get.names == ["i"]
        assert get.column_ids == [0]

    def test_filter_columns_kept(self, populated, plan_for):
        # ``d`` is read by the pushed filter only: scanned, not emitted.
        sql = "SELECT i FROM sample WHERE d > 1"
        get = find_ops(plan_for(sql), LogicalGet)[0]
        assert get.names == ["i"]
        assert [c.name for c in get.filter_schema] == ["d"]
        assert sorted(populated.execute(sql).fetchall()) == [(1,), (2,), (4,)]

    def test_aggregate_prunes_input(self, plan_for):
        plan = plan_for("SELECT sum(i) FROM sample")
        get = find_ops(plan, LogicalGet)[0]
        assert get.names == ["i"]

    def test_join_children_pruned(self, populated, plan_for):
        populated.execute(
            "CREATE TABLE wide (i INTEGER, a INTEGER, b INTEGER, c INTEGER)")
        plan = plan_for(
            "SELECT sample.s, wide.a FROM sample JOIN wide ON sample.i = wide.i")
        gets = {get.table_entry.name: get for get in find_ops(plan, LogicalGet)}
        assert set(gets["sample"].names) == {"i", "s"}
        assert set(gets["wide"].names) == {"i", "a"}

    def test_count_star_scans_one_column(self, plan_for):
        plan = plan_for("SELECT count(*) FROM sample")
        get = find_ops(plan, LogicalGet)[0]
        assert len(get.column_ids) == 1

    def test_order_by_hidden_column_pruned_after_sort(self, populated):
        rows = populated.execute(
            "SELECT s FROM sample ORDER BY d NULLS LAST LIMIT 1").fetchall()
        assert rows == [("gamma",)]

    def test_pruning_preserves_correctness_wide_table(self, con):
        con.execute("CREATE TABLE w (a INTEGER, b INTEGER, c INTEGER, "
                    "d INTEGER, e INTEGER)")
        con.execute("INSERT INTO w VALUES (1, 2, 3, 4, 5), (10, 20, 30, 40, 50)")
        assert con.execute("SELECT c FROM w WHERE e > 10").fetchall() == [(30,)]
        assert con.execute("SELECT e, a FROM w ORDER BY b DESC").fetchall() == \
            [(50, 10), (5, 1)]


@pytest.fixture
def star(con):
    """A small star schema: one fact table, two dimensions of very
    different sizes, so the statistics-driven join order is unambiguous."""
    con.execute("CREATE TABLE facts (k INTEGER, dim_a INTEGER, "
                "dim_b INTEGER, v INTEGER)")
    con.execute("CREATE TABLE dim_small (id INTEGER, label VARCHAR)")
    con.execute("CREATE TABLE dim_large (id INTEGER, payload INTEGER)")
    import numpy as np

    with con.appender("facts") as appender:
        arange = np.arange(4000, dtype=np.int32)
        appender.append_numpy({"k": arange, "dim_a": arange % 20,
                               "dim_b": arange % 500, "v": arange})
    con.executemany("INSERT INTO dim_small VALUES (?, ?)",
                    [(i, f"label-{i}") for i in range(20)])
    con.executemany("INSERT INTO dim_large VALUES (?, ?)",
                    [(i, i * 10) for i in range(500)])
    return con


def _join_shape(plan):
    """(left, right) table/operator labels of every join, top-down."""
    shapes = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, LogicalJoin):
            labels = []
            for child in node.children:
                inner = child
                while not isinstance(inner, LogicalGet) and inner.children:
                    inner = inner.children[0] if len(inner.children) == 1 \
                        else inner
                    if isinstance(inner, LogicalJoin):
                        break
                labels.append(inner.table_entry.name
                              if isinstance(inner, LogicalGet) else "join")
            shapes.append(tuple(labels))
        stack.extend(node.children)
    return shapes


class TestJoinReorder:
    SQL = ("SELECT facts.v, dim_small.label FROM facts, dim_large, dim_small "
           "WHERE facts.dim_b = dim_large.id AND facts.dim_a = dim_small.id")

    def test_smallest_relation_starts_the_order(self, star):
        star.execute(self.SQL).fetchall()
        decisions = {row[2]: row for row in star.execute(
            "SELECT * FROM repro_optimizer()").fetchall()}
        order = decisions["join_order"][3]
        assert order.split()[0] == "dim_small"

    def test_large_probe_side_streams(self, star, plan_for):
        plan = plan_for(self.SQL)
        joins = find_ops(plan, LogicalJoin)
        assert len(joins) == 2
        # The big fact table must never be a hash build side (right child).
        for join in joins:
            right = join.children[1]
            while not isinstance(right, LogicalGet):
                right = right.children[0]
            assert right.table_entry.name != "facts"

    def test_results_unchanged_by_reordering(self, star):
        expected = sorted(star.execute(
            "SELECT facts.v, dim_small.label FROM facts "
            "JOIN dim_small ON facts.dim_a = dim_small.id "
            "JOIN dim_large ON facts.dim_b = dim_large.id "
            "WHERE facts.v < 50").fetchall())
        got = sorted(star.execute(
            "SELECT facts.v, dim_small.label FROM dim_large, facts, dim_small "
            "WHERE facts.dim_b = dim_large.id AND facts.dim_a = dim_small.id "
            "AND facts.v < 50").fetchall())
        assert got == expected
        assert len(got) == 50

    def test_column_order_restored_after_reorder(self, star):
        rows = star.execute(
            "SELECT dim_large.payload, facts.k, dim_small.label "
            "FROM dim_large, facts, dim_small "
            "WHERE facts.dim_b = dim_large.id AND facts.dim_a = dim_small.id "
            "AND facts.k = 7").fetchall()
        assert rows == [(70, 7, "label-7")]

    def test_residual_predicates_survive(self, star):
        rows = star.execute(
            "SELECT count(*) FROM facts, dim_large "
            "WHERE facts.dim_b = dim_large.id "
            "AND facts.v + dim_large.payload > 100000").fetchall()
        expected = star.execute(
            "SELECT count(*) FROM facts JOIN dim_large "
            "ON facts.dim_b = dim_large.id "
            "WHERE facts.v + dim_large.payload > 100000").fetchall()
        assert rows == expected

    def test_cross_product_without_conditions(self, star):
        rows = star.execute(
            "SELECT count(*) FROM dim_small, dim_large").fetchall()
        assert rows == [(20 * 500,)]

    def test_outer_joins_not_flattened(self, star):
        rows = star.execute(
            "SELECT count(*) FROM dim_small LEFT JOIN facts "
            "ON dim_small.id = facts.dim_a").fetchall()
        assert rows == [(4000,)]

    def test_disabled_statistics_keep_syntactic_order(self, star, plan_for):
        previous = cost.set_statistics_enabled(False)
        try:
            plan = plan_for(self.SQL)
            joins = find_ops(plan, LogicalJoin)
            rights = []
            for join in joins:
                right = join.children[1]
                while not isinstance(right, LogicalGet):
                    right = right.children[0]
                rights.append(right.table_entry.name)
            # Syntactic left-deep order: the last-listed table stays the
            # build side of the top join.
            assert rights == ["dim_small", "dim_large"]
        finally:
            cost.set_statistics_enabled(previous)

    def test_four_way_chain(self, star):
        star.execute("CREATE TABLE bridge (b_id INTEGER, s_id INTEGER)")
        star.executemany("INSERT INTO bridge VALUES (?, ?)",
                         [(i, i % 20) for i in range(500)])
        rows = star.execute(
            "SELECT count(*) FROM facts, dim_large, bridge, dim_small "
            "WHERE facts.dim_b = dim_large.id AND dim_large.id = bridge.b_id "
            "AND bridge.s_id = dim_small.id").fetchall()
        assert rows == [(4000,)]


class TestLimitPushdown:
    def test_scan_gets_limit_hint(self, plan_for):
        plan = plan_for("SELECT i FROM sample LIMIT 2")
        get = find_ops(plan, LogicalGet)[0]
        assert get.limit_hint == 2

    def test_offset_included_in_hint(self, plan_for):
        plan = plan_for("SELECT i FROM sample LIMIT 2 OFFSET 3")
        get = find_ops(plan, LogicalGet)[0]
        assert get.limit_hint == 5

    def test_stacked_limits_merge(self, plan_for):
        plan = plan_for(
            "SELECT * FROM (SELECT i FROM sample LIMIT 4) t LIMIT 2")
        limits = find_ops(plan, LogicalLimit)
        assert len(limits) == 1
        assert limits[0].limit == 2

    def test_stacked_limit_windows_clip(self, populated):
        rows = populated.execute(
            "SELECT * FROM (SELECT i FROM sample ORDER BY i LIMIT 3) t "
            "LIMIT 5").fetchall()
        assert rows == [(1,), (2,), (3,)]

    def test_offset_stacking_correct(self, populated):
        rows = populated.execute(
            "SELECT * FROM (SELECT i FROM sample ORDER BY i LIMIT 4 OFFSET 1)"
            " t LIMIT 2 OFFSET 1").fetchall()
        assert rows == [(3,), (4,)]

    def test_limit_exact_with_hint(self, con):
        con.execute("CREATE TABLE big (a INTEGER)")
        con.executemany("INSERT INTO big VALUES (?)",
                        [(i,) for i in range(100)])
        rows = con.execute("SELECT a FROM big WHERE a >= 10 LIMIT 7").fetchall()
        assert len(rows) == 7
        assert all(a >= 10 for (a,) in rows)

    def test_topn_fusion_still_happens(self, populated):
        rows = populated.execute("EXPLAIN ANALYZE SELECT i FROM sample "
                                 "ORDER BY i DESC LIMIT 2").fetchall()
        text = "\n".join(row[0] for row in rows)
        assert "TOP_N" in text
        result = populated.execute(
            "SELECT i FROM sample ORDER BY i DESC LIMIT 2").fetchall()
        assert result == [(5,), (4,)]


class TestOptimizerIntrospection:
    def test_estimates_in_explain(self, star):
        rows = star.execute(
            "EXPLAIN SELECT count(*) FROM facts WHERE v < 100").fetchall()
        text = "\n".join(row[0] for row in rows)
        assert "(est=" in text

    def test_explain_analyze_pairs_est_with_actual(self, star):
        rows = star.execute(
            "EXPLAIN ANALYZE SELECT facts.v, dim_small.label "
            "FROM facts, dim_large, dim_small "
            "WHERE facts.dim_b = dim_large.id "
            "AND facts.dim_a = dim_small.id").fetchall()
        text = "\n".join(row[0] for row in rows)
        assert "est_rows=" in text
        assert "rows_out=" in text

    def test_optimizer_log_reports_join_order_and_scans(self, star):
        star.execute(
            "SELECT count(*) FROM facts, dim_small "
            "WHERE facts.dim_a = dim_small.id AND facts.v < 100").fetchall()
        rows = star.execute("SELECT phase, decision, detail "
                            "FROM repro_optimizer()").fetchall()
        phases = {row[0] for row in rows}
        assert "join_order" in phases
        assert "scan" in phases
        scan_details = [row[2] for row in rows if row[0] == "scan"]
        assert any("selectivity=" in detail for detail in scan_details)

    def test_reading_log_does_not_clobber_it(self, star):
        star.execute("SELECT count(*) FROM facts WHERE v = 1").fetchall()
        first = star.execute("SELECT * FROM repro_optimizer()").fetchall()
        second = star.execute("SELECT * FROM repro_optimizer()").fetchall()
        assert first == second
        assert first  # the SELECT on facts was recorded

    def test_limit_decisions_recorded(self, star):
        star.execute("SELECT v FROM facts LIMIT 5").fetchall()
        rows = star.execute("SELECT decision FROM repro_optimizer() "
                            "WHERE phase = 'limit'").fetchall()
        assert any("limit hint" in row[0] for row in rows)
