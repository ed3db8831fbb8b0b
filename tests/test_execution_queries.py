"""End-to-end SELECT tests through the full SQL pipeline."""

import datetime

import numpy as np
import pytest

import repro
from repro.errors import BinderError, CatalogError, InvalidInputError


class TestProjectionAndFilter:
    def test_select_star(self, populated):
        rows = populated.execute("SELECT * FROM sample ORDER BY i").fetchall()
        assert rows[0] == (1, "alpha", 1.5)
        assert len(rows) == 5

    def test_column_subset_and_expressions(self, populated):
        rows = populated.execute(
            "SELECT i * 10, s FROM sample WHERE i <= 2 ORDER BY i").fetchall()
        assert rows == [(10, "alpha"), (20, "beta")]

    def test_where_excludes_nulls(self, populated):
        rows = populated.execute(
            "SELECT i FROM sample WHERE d > 0 ORDER BY i").fetchall()
        assert rows == [(1,), (2,), (4,), (5,)]  # i=3 has NULL d

    def test_where_is_null(self, populated):
        assert populated.execute(
            "SELECT i FROM sample WHERE d IS NULL").fetchall() == [(3,)]

    def test_between_and_in(self, populated):
        rows = populated.execute(
            "SELECT i FROM sample WHERE i BETWEEN 2 AND 4 AND i IN (2, 4, 9) "
            "ORDER BY i").fetchall()
        assert rows == [(2,), (4,)]

    def test_like(self, populated):
        rows = populated.execute(
            "SELECT DISTINCT s FROM sample WHERE s LIKE 'a%' ").fetchall()
        assert rows == [("alpha",)]

    def test_ilike(self, populated):
        rows = populated.execute(
            "SELECT DISTINCT s FROM sample WHERE s ILIKE 'ALPHA'").fetchall()
        assert rows == [("alpha",)]

    def test_not_like_excludes_null(self, populated):
        rows = populated.execute(
            "SELECT i FROM sample WHERE s NOT LIKE 'a%' ORDER BY i").fetchall()
        assert rows == [(2,), (5,)]  # NULL s row is filtered, not matched

    def test_qualified_names_and_alias(self, populated):
        rows = populated.execute(
            "SELECT smp.i FROM sample AS smp WHERE smp.i = 1").fetchall()
        assert rows == [(1,)]

    def test_unknown_column(self, populated):
        with pytest.raises(BinderError):
            populated.execute("SELECT nope FROM sample")

    def test_unknown_table(self, populated):
        with pytest.raises(CatalogError):
            populated.execute("SELECT 1 FROM nope")


class TestOrderLimit:
    def test_order_desc(self, populated):
        rows = populated.execute("SELECT i FROM sample ORDER BY i DESC").fetchall()
        assert rows == [(5,), (4,), (3,), (2,), (1,)]

    def test_order_by_alias_and_position(self, populated):
        by_alias = populated.execute(
            "SELECT i * -1 AS neg FROM sample ORDER BY neg").fetchall()
        by_position = populated.execute(
            "SELECT i * -1 FROM sample ORDER BY 1").fetchall()
        assert by_alias == by_position == [(-5,), (-4,), (-3,), (-2,), (-1,)]

    def test_order_by_expression_not_in_select(self, populated):
        rows = populated.execute(
            "SELECT s FROM sample ORDER BY i DESC LIMIT 2").fetchall()
        assert rows == [("gamma",), (None,)]

    def test_order_nulls_first_last(self, populated):
        first = populated.execute(
            "SELECT d FROM sample ORDER BY d NULLS FIRST").fetchall()
        assert first[0] == (None,)
        last = populated.execute(
            "SELECT d FROM sample ORDER BY d NULLS LAST").fetchall()
        assert last[-1] == (None,)

    def test_default_null_placement(self, populated):
        ascending = populated.execute(
            "SELECT d FROM sample ORDER BY d").fetchall()
        assert ascending[-1] == (None,)  # ASC defaults to NULLS LAST
        descending = populated.execute(
            "SELECT d FROM sample ORDER BY d DESC").fetchall()
        assert descending[0] == (None,)  # DESC defaults to NULLS FIRST

    def test_limit_offset(self, populated):
        rows = populated.execute(
            "SELECT i FROM sample ORDER BY i LIMIT 2 OFFSET 1").fetchall()
        assert rows == [(2,), (3,)]

    def test_limit_zero(self, populated):
        assert populated.execute("SELECT i FROM sample LIMIT 0").fetchall() == []

    def test_limit_larger_than_result(self, populated):
        assert len(populated.execute(
            "SELECT i FROM sample LIMIT 100").fetchall()) == 5

    def test_negative_limit_rejected(self, populated):
        with pytest.raises(BinderError):
            populated.execute("SELECT i FROM sample LIMIT -1")

    def test_limit_does_not_keep_a_large_result_alive(self, con):
        # The aggregate hands on views of its whole 20,000-group result;
        # the ten rows a LIMIT keeps must not reference it.
        con.execute("CREATE TABLE big (k BIGINT, v BIGINT)")
        with con.appender("big") as app:
            app.append_numpy({"k": np.arange(50_000) % 20_000,
                              "v": np.arange(50_000)})
        chunk = con.execute(
            "SELECT k, count(*) FROM big GROUP BY k LIMIT 10").fetch_chunk()
        assert chunk.size == 10
        for vector in chunk.columns:
            for array in (vector.data, vector.validity):
                owner = array if array.base is None else array.base
                assert owner.size == 10

    def test_order_stability_multi_key(self, con):
        con.execute("CREATE TABLE mk (a INTEGER, b INTEGER)")
        con.execute("INSERT INTO mk VALUES (1, 2), (1, 1), (0, 9)")
        rows = con.execute("SELECT a, b FROM mk ORDER BY a, b DESC").fetchall()
        assert rows == [(0, 9), (1, 2), (1, 1)]


class TestDistinctAndSetOps:
    def test_distinct(self, populated):
        rows = populated.execute(
            "SELECT DISTINCT s FROM sample ORDER BY s NULLS FIRST").fetchall()
        assert rows == [(None,), ("alpha",), ("beta",), ("gamma",)]

    def test_distinct_multi_column(self, con):
        con.execute("CREATE TABLE dup (a INTEGER, b INTEGER)")
        con.execute("INSERT INTO dup VALUES (1,1), (1,1), (1,2)")
        assert len(con.execute("SELECT DISTINCT a, b FROM dup").fetchall()) == 2

    def test_union_all(self, populated):
        rows = populated.execute(
            "SELECT i FROM sample UNION ALL SELECT i FROM sample").fetchall()
        assert len(rows) == 10

    def test_union_deduplicates(self, populated):
        rows = populated.execute(
            "SELECT s FROM sample UNION SELECT s FROM sample "
            "ORDER BY s NULLS FIRST").fetchall()
        assert rows == [(None,), ("alpha",), ("beta",), ("gamma",)]

    def test_except(self, populated):
        rows = populated.execute(
            "SELECT i FROM sample EXCEPT SELECT i FROM sample WHERE i > 2 "
            "ORDER BY 1").fetchall()
        assert rows == [(1,), (2,)]

    def test_intersect(self, populated):
        rows = populated.execute(
            "SELECT i FROM sample INTERSECT SELECT i FROM sample WHERE i IN (2, 4)"
        ).fetchall()
        assert sorted(rows) == [(2,), (4,)]

    def test_union_type_unification(self, con):
        rows = con.execute("SELECT 1 UNION ALL SELECT 2.5 ORDER BY 1").fetchall()
        assert rows == [(1.0,), (2.5,)]

    def test_union_column_count_mismatch(self, con):
        with pytest.raises(BinderError):
            con.execute("SELECT 1 UNION SELECT 1, 2")


class TestSubqueriesAndCTEs:
    def test_from_subquery(self, populated):
        rows = populated.execute(
            "SELECT x * 2 FROM (SELECT i AS x FROM sample WHERE i < 3) sub "
            "ORDER BY 1").fetchall()
        assert rows == [(2,), (4,)]

    def test_subquery_column_aliases(self, populated):
        rows = populated.execute(
            "SELECT a FROM (SELECT i, s FROM sample) AS t2(a, b) "
            "WHERE a = 1").fetchall()
        assert rows == [(1,)]

    def test_scalar_subquery(self, populated):
        rows = populated.execute(
            "SELECT i FROM sample WHERE i = (SELECT max(i) FROM sample)"
        ).fetchall()
        assert rows == [(5,)]

    def test_scalar_subquery_empty_is_null(self, populated):
        value = populated.execute(
            "SELECT (SELECT i FROM sample WHERE i > 100)").fetchvalue()
        assert value is None

    def test_scalar_subquery_multiple_rows_errors(self, populated):
        with pytest.raises(InvalidInputError):
            populated.execute("SELECT (SELECT i FROM sample)").fetchall()

    def test_in_subquery(self, populated):
        rows = populated.execute(
            "SELECT i FROM sample WHERE i IN (SELECT i FROM sample WHERE i < 3) "
            "ORDER BY i").fetchall()
        assert rows == [(1,), (2,)]

    def test_not_in_subquery_with_nulls(self, con):
        con.execute("CREATE TABLE a (x INTEGER)")
        con.execute("CREATE TABLE b (x INTEGER)")
        con.execute("INSERT INTO a VALUES (1), (2)")
        con.execute("INSERT INTO b VALUES (1), (NULL)")
        # NOT IN against a set containing NULL never returns TRUE (SQL 3VL).
        rows = con.execute("SELECT x FROM a WHERE x NOT IN (SELECT x FROM b)"
                           ).fetchall()
        assert rows == []

    def test_exists(self, populated):
        rows = populated.execute(
            "SELECT count(*) FROM sample WHERE EXISTS (SELECT 1 FROM sample "
            "WHERE i > 4)").fetchall()
        assert rows == [(5,)]

    def test_not_exists_empty(self, populated):
        value = populated.execute(
            "SELECT count(*) FROM sample WHERE EXISTS "
            "(SELECT 1 FROM sample WHERE i > 100)").fetchvalue()
        assert value == 0

    def test_cte(self, populated):
        rows = populated.execute(
            "WITH small AS (SELECT i FROM sample WHERE i <= 2), "
            "big AS (SELECT i FROM sample WHERE i >= 4) "
            "SELECT * FROM small UNION ALL SELECT * FROM big ORDER BY 1"
        ).fetchall()
        assert rows == [(1,), (2,), (4,), (5,)]

    def test_cte_shadows_table(self, populated):
        rows = populated.execute(
            "WITH sample AS (SELECT 42 AS i) SELECT i FROM sample").fetchall()
        assert rows == [(42,)]

    def test_correlated_subquery_rejected(self, populated):
        with pytest.raises((BinderError, CatalogError)):
            populated.execute(
                "SELECT i FROM sample s1 WHERE d = "
                "(SELECT max(d) FROM sample s2 WHERE s2.s = s1.s)")


class TestSelectWithoutFrom:
    def test_constants(self, con):
        assert con.execute("SELECT 1, 'a', 2.5, NULL").fetchall() == \
            [(1, "a", 2.5, None)]

    def test_expressions(self, con):
        assert con.execute("SELECT 2 + 3 * 4").fetchvalue() == 14

    def test_functions(self, con):
        assert con.execute("SELECT upper('duck') || '!' ").fetchvalue() == "DUCK!"

    def test_parameters(self, con):
        assert con.execute("SELECT ? + ?", [3, 4]).fetchvalue() == 7

    def test_missing_parameters(self, con):
        with pytest.raises(BinderError):
            con.execute("SELECT ?")


class TestViews:
    def test_create_and_query_view(self, populated):
        populated.execute(
            "CREATE VIEW positive AS SELECT i, s FROM sample WHERE d > 1")
        rows = populated.execute("SELECT i FROM positive ORDER BY i").fetchall()
        assert rows == [(1,), (2,), (4,)]

    def test_view_reflects_new_data(self, populated):
        populated.execute("CREATE VIEW all_i AS SELECT i FROM sample")
        populated.execute("INSERT INTO sample VALUES (99, 'zz', 1.0)")
        values = [row[0] for row in populated.execute(
            "SELECT i FROM all_i").fetchall()]
        assert 99 in values

    def test_or_replace(self, populated):
        populated.execute("CREATE VIEW v AS SELECT 1 AS x")
        populated.execute("CREATE OR REPLACE VIEW v AS SELECT 2 AS x")
        assert populated.execute("SELECT x FROM v").fetchvalue() == 2

    def test_drop_view(self, populated):
        populated.execute("CREATE VIEW v AS SELECT 1 AS x")
        populated.execute("DROP VIEW v")
        with pytest.raises(CatalogError):
            populated.execute("SELECT * FROM v")

    def test_insert_into_view_fails(self, populated):
        populated.execute("CREATE VIEW v AS SELECT i FROM sample")
        with pytest.raises(CatalogError):
            populated.execute("INSERT INTO v VALUES (1)")


class TestLargerThanVectorSize:
    def test_scan_order_filter_across_chunks(self, con):
        con.execute("CREATE TABLE big (i INTEGER)")
        with con.appender("big") as appender:
            import numpy as np

            appender.append_numpy({"i": np.arange(10_000, dtype=np.int32)})
        assert con.query_value("SELECT count(*) FROM big") == 10_000
        assert con.query_value("SELECT sum(i) FROM big") == sum(range(10_000))
        rows = con.execute(
            "SELECT i FROM big WHERE i % 1000 = 0 ORDER BY i DESC").fetchall()
        assert rows == [(9000,), (8000,), (7000,), (6000,), (5000,),
                        (4000,), (3000,), (2000,), (1000,), (0,)]
