"""Unit tests for scan internals: zone-condition extraction, probe batching."""

import datetime

import numpy as np
import pytest

import repro
from repro.execution.joins import _batched
from repro.execution.scan import _extract_zone_conditions
from repro.planner.expressions import (
    BoundCast,
    BoundColumnRef,
    BoundConstant,
    BoundOperator,
    BoundParameterRef,
)
from repro.types import (
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    TIMESTAMP,
    VARCHAR,
    DataChunk,
    Vector,
)
from repro.types.logical import date_to_days, timestamp_to_micros


def column(position=0, dtype=INTEGER):
    return BoundColumnRef(position, dtype, "c")


def constant(value, dtype=INTEGER):
    return BoundConstant(value, dtype)


def comparison(op, left, right):
    return BoundOperator(op, [left, right], BOOLEAN)


class TestZoneConditionExtraction:
    def test_simple_comparison(self):
        conditions = _extract_zone_conditions(
            [comparison("<", column(), constant(10))], [3])
        assert conditions == [(3, "<", 10)]

    def test_reversed_operands_flip_operator(self):
        conditions = _extract_zone_conditions(
            [comparison("<", constant(10), column())], [0])
        assert conditions == [(0, ">", 10)]

    def test_equality_both_directions(self):
        forward = _extract_zone_conditions(
            [comparison("=", column(), constant(5))], [0])
        backward = _extract_zone_conditions(
            [comparison("=", constant(5), column())], [0])
        assert forward == backward == [(0, "=", 5)]

    def test_column_ids_remapped(self):
        conditions = _extract_zone_conditions(
            [comparison(">=", column(position=1), constant(7))], [4, 9])
        assert conditions == [(9, ">=", 7)]

    def test_string_constants_ignored(self):
        conditions = _extract_zone_conditions(
            [comparison("=", column(dtype=VARCHAR), constant("x", VARCHAR))],
            [0])
        assert conditions == []

    def test_null_constants_ignored(self):
        conditions = _extract_zone_conditions(
            [comparison("=", column(), constant(None))], [0])
        assert conditions == []

    def test_column_vs_column_ignored(self):
        conditions = _extract_zone_conditions(
            [comparison("<", column(0), column(1))], [0, 1])
        assert conditions == []

    def test_date_constant_converted_to_days(self):
        day = datetime.date(2021, 6, 1)
        conditions = _extract_zone_conditions(
            [comparison(">", column(dtype=DATE), constant(day, DATE))], [0])
        assert conditions == [(0, ">", date_to_days(day))]

    def test_timestamp_constant_converted_to_micros(self):
        moment = datetime.datetime(2021, 6, 1, 12)
        conditions = _extract_zone_conditions(
            [comparison("<=", column(dtype=TIMESTAMP),
                        constant(moment, TIMESTAMP))], [0])
        assert conditions == [(0, "<=", timestamp_to_micros(moment))]

    def test_non_comparison_ignored(self):
        conditions = _extract_zone_conditions(
            [BoundOperator("and", [constant(True, BOOLEAN),
                                   constant(True, BOOLEAN)], BOOLEAN)], [0])
        assert conditions == []

    def test_float_constant_kept(self):
        conditions = _extract_zone_conditions(
            [comparison(">", column(dtype=DOUBLE), constant(1.5, DOUBLE))],
            [0])
        assert conditions == [(0, ">", 1.5)]

    def test_parameter_takes_its_execution_value(self):
        positional = _extract_zone_conditions(
            [comparison("<", column(), BoundParameterRef(0, INTEGER))],
            [0], (7,))
        named = _extract_zone_conditions(
            [comparison(">", BoundParameterRef("low", INTEGER), column())],
            [0], {"low": 2})
        assert (positional, named) == ([(0, "<", 7)], [(0, "<", 2)])

    def test_parameter_under_a_cast_is_cast(self):
        slot = BoundCast(BoundParameterRef(0, INTEGER), DOUBLE)
        conditions = _extract_zone_conditions(
            [comparison(">=", column(dtype=DOUBLE), slot)], [0], (3,))
        assert conditions == [(0, ">=", 3.0)]
        assert type(conditions[0][2]) is float

    def test_parameter_without_a_single_value_ignored(self):
        slot = BoundParameterRef(0, INTEGER)
        for parameters in ((), (None,), (Vector.from_values([1, 2]),)):
            assert _extract_zone_conditions(
                [comparison("=", column(), slot)], [0], parameters) == []
        # A value its cast rejects: the filter, not the lowering, reports it.
        day = BoundCast(BoundParameterRef(0, VARCHAR), DATE)
        assert _extract_zone_conditions(
            [comparison("=", column(dtype=DATE), day)], [0],
            ("not a date",)) == []


    def test_widening_cast_of_a_column_carries_its_cast(self):
        cast = BoundCast(column(), DOUBLE)
        forward = _extract_zone_conditions(
            [comparison(">", cast, constant(1.5, DOUBLE))], [2])
        backward = _extract_zone_conditions(
            [comparison("<", constant(1.5, DOUBLE), cast)], [2])
        assert forward == backward == [(2, ">", 1.5, np.float64)]

    def test_narrowing_cast_of_a_column_ignored(self):
        cast = BoundCast(column(dtype=DOUBLE), INTEGER)
        assert _extract_zone_conditions(
            [comparison("=", cast, constant(3))], [0]) == []


class TestProbeBatching:
    def chunks(self, sizes):
        for size in sizes:
            yield DataChunk([Vector.from_values(list(range(size)), INTEGER)])

    def test_coalesces_small_chunks(self):
        batches = list(_batched(self.chunks([100] * 10), batch_rows=500))
        assert [batch.size for batch in batches] == [500, 500]

    def test_passes_large_chunks_through(self):
        batches = list(_batched(self.chunks([800]), batch_rows=500))
        assert [batch.size for batch in batches] == [800]

    def test_trailing_remainder_flushed(self):
        batches = list(_batched(self.chunks([300, 300, 50]), batch_rows=500))
        assert [batch.size for batch in batches] == [600, 50]

    def test_skips_empty_chunks(self):
        batches = list(_batched(self.chunks([0, 10, 0]), batch_rows=500))
        assert [batch.size for batch in batches] == [10]

    def test_empty_stream(self):
        assert list(_batched(iter(()), batch_rows=10)) == []

    def test_data_preserved_in_order(self):
        batches = list(_batched(self.chunks([3, 3]), batch_rows=100))
        values = [value for batch in batches
                  for value in batch.columns[0].to_pylist()]
        assert values == [0, 1, 2, 0, 1, 2]


class TestPushedFilterOrder:
    """The scan carries a selection through its pushed filters: a later
    filter only ever sees rows every earlier one kept."""

    @pytest.fixture
    def con(self):
        connection = repro.connect()
        connection.execute("CREATE TABLE t (id INTEGER, s VARCHAR, n INTEGER)")
        connection.execute(
            "INSERT INTO t VALUES (1, '1', 5), (2, 'x', 6), (3, '10', 7), "
            "(4, NULL, 8), (5, '2', 9), (6, 'y', 1)")
        yield connection
        connection.close()

    def test_cast_never_sees_rows_an_earlier_filter_rejected(self, con):
        query = ("SELECT id, n FROM t WHERE s NOT IN ('x', 'y') "
                 "AND CAST(s AS INTEGER) > 1 AND n < 9")
        plan = "\n".join(row[0] for row in
                         con.execute("EXPLAIN " + query).fetchall())
        assert "TABLE_SCAN" in plan and "filters=3" in plan
        assert con.execute(query).fetchall() == [(3, 7)]
        # Evaluated first, the same cast meets 'x' and raises: the order
        # of the pushed filters is the order they were written in.
        with pytest.raises(repro.ConversionError):
            con.execute("SELECT id FROM t WHERE CAST(s AS INTEGER) > 1 "
                        "AND s NOT IN ('x', 'y')").fetchall()

    def test_filters_over_different_columns_and_no_survivors(self, con):
        assert con.execute("SELECT s FROM t WHERE n > 5 AND id < 5 AND n <> 7 "
                           "ORDER BY id").fetchall() == [("x",), (None,)]
        assert con.execute("SELECT id FROM t WHERE n > 100 AND "
                           "CAST(s AS INTEGER) > 0").fetchall() == []
        assert con.execute("SELECT count(*) FROM t WHERE 1 = 1 AND n >= 1"
                           ).fetchall() == [(6,)]
