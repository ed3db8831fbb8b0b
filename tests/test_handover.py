"""Columnar hand-over in both directions.

Export: ``Vector.to_pylist`` / ``DataChunk.to_rows`` convert per column and
must equal the per-value ``get_value`` / ``row`` answer, value *and* Python
type; ``QueryResult`` is the only row reader and every row method (its own,
a cursor's, the cursor's ``step()``) moves its one position.  Import:
``executemany`` is one statement -- an ``INSERT ... VALUES`` of one row is
bound once over parameter *columns* -- and stores exactly what running each
set on its own stores.
"""

import datetime
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.kernelcheck.conformance import (
    _VALIDITY_PATTERNS,
    _validity,
)
from repro.client.params import batch_runs, parameter_batches
from repro.errors import ConversionError
from repro.sql import parse
from repro.storage.wal import WALRecordType
from repro.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    FLOAT,
    INTEGER,
    SMALLINT,
    SQLNULL,
    TIMESTAMP,
    TINYINT,
    VARCHAR,
    DataChunk,
    Vector,
    common_type,
    infer_type_of_value,
)
from repro.types.dictionary import StringDictionary
from repro.types.logical import date_to_days, timestamp_to_micros

from .test_statement_pipeline import ROUTES, Route

_settings = settings(max_examples=50, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def same(left, right):
    """Equal in value and in Python type (NaN equals NaN)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float) and math.isnan(left):
        return math.isnan(right)
    return left == right


def same_list(left, right):
    return len(left) == len(right) and all(map(same, left, right))


# -- export: per-column conversion equals the per-value answer ----------------

DATE_RANGE = (date_to_days(datetime.date.min), date_to_days(datetime.date.max))
TIMESTAMP_RANGE = (timestamp_to_micros(datetime.datetime.min),
                   timestamp_to_micros(datetime.datetime.max))

#: dtype -> strategy for one *physical* value.
PHYSICAL = {
    BOOLEAN: st.booleans(),
    TINYINT: st.integers(-2**7, 2**7 - 1),
    SMALLINT: st.integers(-2**15, 2**15 - 1),
    INTEGER: st.integers(-2**31, 2**31 - 1),
    BIGINT: st.integers(-2**63, 2**63 - 1),
    FLOAT: st.floats(width=32),
    DOUBLE: st.floats(),
    VARCHAR: st.text(max_size=12),
    DATE: st.one_of(st.integers(*DATE_RANGE), st.sampled_from(DATE_RANGE)),
    TIMESTAMP: st.one_of(st.integers(*TIMESTAMP_RANGE),
                         st.sampled_from(TIMESTAMP_RANGE)),
    SQLNULL: st.just(False),
}


def make_vector(dtype, physical, validity, coded=False):
    """A vector straight from arrays -- no ``from_values`` involved."""
    validity = np.asarray(validity, dtype=np.bool_)
    if dtype == VARCHAR:
        data = np.empty(len(physical), dtype=object)
        data[:] = physical
        if coded:
            dictionary = StringDictionary(sorted(set(physical)))
            return Vector.from_codes(dictionary.encode(data), dictionary,
                                     validity)
    else:
        data = np.array(physical, dtype=dtype.numpy_dtype)
    if dtype == SQLNULL:
        validity = np.zeros(len(physical), dtype=np.bool_)
    return Vector(dtype, data, validity)


def assert_twin(vector):
    per_value = [vector.get_value(index) for index in range(len(vector))]
    coded_before = vector.codes is not None
    assert same_list(vector.to_pylist(), per_value)
    # Converting must not change the vector's form or its values.
    assert (vector.codes is not None) == coded_before
    assert same_list([vector.get_value(index)
                      for index in range(len(vector))], per_value)


@st.composite
def vectors(draw):
    dtype = draw(st.sampled_from(sorted(PHYSICAL, key=str)))
    physical = draw(st.lists(PHYSICAL[dtype], max_size=40))
    validity = draw(st.lists(st.booleans(), min_size=len(physical),
                             max_size=len(physical)))
    coded = dtype == VARCHAR and draw(st.booleans())
    return make_vector(dtype, physical, validity, coded)


class TestExportTwins:
    @_settings
    @given(vectors())
    def test_to_pylist_equals_get_value(self, vector):
        assert_twin(vector)

    @pytest.mark.parametrize("pattern", _VALIDITY_PATTERNS)
    @pytest.mark.parametrize("size", [0, 1, 2049])
    @pytest.mark.parametrize("dtype", sorted(PHYSICAL, key=str), ids=str)
    def test_every_type_validity_pattern_and_length(self, dtype, size,
                                                    pattern):
        rng = np.random.default_rng([size, len(pattern)])
        if dtype == VARCHAR:
            physical = [f"s{value}" for value in rng.integers(0, 9, size)]
        elif dtype in (FLOAT, DOUBLE):
            physical = rng.normal(size=size).tolist()
        elif dtype in (BOOLEAN, SQLNULL):
            physical = (rng.random(size) < 0.5).tolist()
        elif dtype == DATE:
            physical = rng.integers(*DATE_RANGE, size, endpoint=True).tolist()
        elif dtype == TIMESTAMP:
            physical = rng.integers(*TIMESTAMP_RANGE, size,
                                    endpoint=True).tolist()
        else:
            physical = rng.integers(*dtype.integer_range(), size,
                                    endpoint=True).tolist()
        validity = _validity(pattern, size, seed=1)
        assert_twin(make_vector(dtype, physical, validity))
        if dtype == VARCHAR:
            assert_twin(make_vector(dtype, physical, validity, coded=True))

    @pytest.mark.parametrize("dtype,edges", [
        (DATE, DATE_RANGE), (TIMESTAMP, TIMESTAMP_RANGE)], ids=str)
    def test_ends_of_the_python_temporal_range(self, dtype, edges):
        vector = make_vector(dtype, list(edges) + [0], [True, True, False])
        ends = (datetime.date.min, datetime.date.max) if dtype == DATE \
            else (datetime.datetime.min, datetime.datetime.max)
        assert vector.to_pylist() == [*ends, None]
        assert_twin(vector)
        # One step further Python cannot represent: both paths raise
        # instead of handing out an integer.
        beyond = make_vector(dtype, [edges[1] + 1], [True])
        with pytest.raises(OverflowError):
            beyond.get_value(0)
        with pytest.raises(OverflowError):
            beyond.to_pylist()
        # ...but garbage under a NULL is never looked at.
        assert make_vector(dtype, [edges[1] + 1], [False]).to_pylist() \
            == [None]

    @_settings
    @given(st.lists(vectors(), min_size=1, max_size=4))
    def test_to_rows_equals_row(self, columns):
        size = min(len(column) for column in columns)
        chunk = DataChunk([column.slice(slice(0, size))
                           for column in columns])
        rows = chunk.to_rows()
        assert len(rows) == size
        for index in range(size):
            assert same_list(rows[index], chunk.row(index))

    def test_repr_previews_a_slice(self):
        vector = Vector.from_values(list(range(100_000)), BIGINT)
        assert repr(vector) == ("Vector(BIGINT, 100000 values: "
                                "[0, 1, 2, 3, 4, 5, 6, 7], ...)")
        assert repr(Vector.from_values([1, None])) \
            == "Vector(INTEGER, 2 values: [1, None])"


# -- import: the from_values fast path equals the scalar path -----------------

def scalar_from_values(values, dtype):
    """The per-value oracle: type inference and ``set_value`` one by one."""
    if dtype is None:
        dtype = SQLNULL
        for value in values:
            if value is not None:
                unified = common_type(dtype, infer_type_of_value(value))
                if unified is None:
                    raise ConversionError("incompatible")
                dtype = unified
    vector = Vector.empty(dtype, len(values))
    if dtype == VARCHAR:
        vector = Vector(VARCHAR, vector.data, vector.validity)
    for index, value in enumerate(values):
        vector.set_value(index, value)
    return vector


def outcome(build):
    """The built vector's (type, values, physical type), or the error class
    (ConversionError for a value that does not fit; int("x") raises its own)."""
    try:
        vector = build()
    except (ConversionError, ValueError, TypeError, OverflowError) as error:
        return type(error)
    return vector.dtype, vector.to_pylist(), vector.data.dtype


native_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.integers(-2**31, 2**31), st.floats(), st.text(max_size=6))


class TestFromValues:
    # A DOUBLE beyond FLOAT's range becomes inf on either path.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @_settings
    @given(st.one_of(
        st.lists(st.one_of(st.none(), st.integers(-2**65, 2**65))),
        st.lists(st.one_of(st.none(), st.integers(-200, 200))),
        st.lists(st.one_of(st.none(), st.floats())),
        st.lists(st.one_of(st.none(), st.booleans())),
        st.lists(st.one_of(st.none(), st.text(max_size=6))),
        st.lists(native_values, max_size=6)),
        st.sampled_from([None, TINYINT, INTEGER, BIGINT, FLOAT, DOUBLE,
                         BOOLEAN, VARCHAR]))
    def test_fast_path_equals_scalar_path(self, values, dtype):
        got = outcome(lambda: Vector.from_values(values, dtype))
        want = outcome(lambda: scalar_from_values(values, dtype))
        if isinstance(got, type) or isinstance(want, type):
            assert got is want
        else:
            assert got[0] == want[0] and got[2] == want[2]
            assert same_list(got[1], want[1])

    def test_out_of_range_and_mixed_columns_raise(self):
        with pytest.raises(ConversionError, match="out of range for INTEGER"):
            Vector.from_values([1, None, 2**31], INTEGER)
        with pytest.raises(ConversionError, match="out of range for BIGINT"):
            Vector.from_values([2**63], BIGINT)
        with pytest.raises(ConversionError, match="out of BIGINT range"):
            Vector.from_values([1, 2**63])
        with pytest.raises(ConversionError, match="incompatible types"):
            Vector.from_values([1, "a"])

    def test_inference_widens_like_the_scalar_path(self):
        assert Vector.from_values([1, None, 2**40]).dtype == BIGINT
        assert Vector.from_values([1, 2.5]).dtype == DOUBLE
        assert Vector.from_values([None, None]).dtype == SQLNULL
        assert Vector.from_values([]).dtype == SQLNULL
        assert Vector.from_values([True, None]).dtype == BOOLEAN


# -- the one row reader -------------------------------------------------------

ROWS = 5000  # more than two chunks
READ = "SELECT a, s, d FROM big"


@pytest.fixture(scope="module")
def big():
    con = repro.connect()
    con.execute("CREATE TABLE big (a BIGINT, s VARCHAR, d DOUBLE)")
    keys = np.arange(ROWS, dtype=np.int64)
    with con.appender("big") as appender:
        appender.append_numpy(
            {"a": keys,
             "s": np.array([f"w{key % 7}" for key in keys], dtype=object),
             "d": keys * 0.5},
            {"d": keys % 10 != 0})
    expected = [(key, f"w{key % 7}", None if key % 10 == 0 else key * 0.5)
                for key in range(ROWS)]
    yield con, expected
    con.close()


reads = st.lists(st.one_of(
    st.just(("one",)), st.just(("step",)),
    st.tuples(st.just("many"), st.integers(0, 3000)),
    st.tuples(st.just("iter"), st.integers(0, 50))), max_size=12)


def read_all(reader, plan, stepper):
    """Apply ``plan`` to ``reader``, then drain it; every row handed out."""
    rows = []
    for action in plan:
        if action[0] == "one":
            row = reader.fetchone()
            if row is not None:
                rows.append(row)
        elif action[0] == "many":
            rows.extend(reader.fetchmany(action[1]))
        elif action[0] == "iter":
            for _, row in zip(range(action[1]), reader):
                rows.append(row)
        else:
            row = stepper(reader)
            if row is not None:
                rows.append(row)
    rows.extend(reader.fetchall())
    assert reader.fetchone() is None and reader.fetchmany(5) == []
    return rows


def result_step(result):
    at = result.step()
    return None if at is None else at[0].row(at[1])


def cursor_step(cursor):
    if not cursor.step():
        return None
    return tuple(cursor.column_value(index)
                 for index in range(cursor.column_count()))


class TestRowReader:
    @_settings
    @given(reads, st.booleans())
    def test_result_hands_out_each_row_once_in_order(self, big, plan, stream):
        con, expected = big
        got = read_all(con.execute(READ, stream=stream), plan, result_step)
        assert got == expected

    @_settings
    @given(reads)
    def test_cursor_shares_the_readers_position(self, big, plan):
        con, expected = big
        with con.cursor() as cursor:
            cursor.execute(READ)
            assert read_all(cursor, plan, cursor_step) == expected

    def test_fetchmany_crosses_chunk_boundaries(self, big):
        con, expected = big
        result = con.execute(READ, stream=True)
        sizes = [len(result.fetchmany(1500)) for _ in range(5)]
        assert sizes == [1500, 1500, 1500, 500, 0]

    def test_fetchmany_defaults(self, big):
        con, expected = big
        assert con.execute(READ).fetchmany() == expected[:1]
        with con.cursor() as cursor:
            cursor.execute(READ)
            assert cursor.fetchmany() == expected[:1]
            cursor.arraysize = 3
            assert cursor.fetchmany() == expected[1:4]
            assert cursor.fetchmany(2) == expected[4:6]
            assert cursor.fetchmany(-1) == []

    def test_to_dict_and_fetch_numpy_take_what_is_left(self, big):
        con, expected = big
        result = con.execute(READ, stream=True)
        first = result.fetch_chunk()
        rest = result.to_dict()
        assert list(rest) == ["a", "s", "d"]
        assert list(zip(rest["a"], rest["s"], rest["d"])) \
            == expected[first.size:]
        assert con.execute("SELECT a FROM big WHERE a < 0").to_dict() \
            == {"a": []}

    def test_rows_before_execute_raise(self, con):
        cursor = con.cursor()
        for call in (cursor.fetchone, cursor.fetchmany, cursor.fetchall,
                     cursor.step, cursor.column_count):
            with pytest.raises(repro.InvalidInputError):
                call()
        with pytest.raises(repro.InvalidInputError):
            cursor.column_value(0)


@pytest.fixture(scope="module")
def drain_tables():
    """A 3-row table (one chunk) and one that streams as several chunks."""
    con = repro.connect()
    con.execute("CREATE TABLE small (a INTEGER)")
    con.execute("INSERT INTO small VALUES (1), (2), (3)")
    con.execute("CREATE TABLE wide (a BIGINT, s VARCHAR)")
    keys = np.arange(40_000, dtype=np.int64)
    with con.appender("wide") as appender:
        appender.append_numpy(
            {"a": keys,
             "s": np.array([f"v{key % 5}" for key in keys], dtype=object)})
    yield con
    con.close()


class TestDrainAfterRowReads:
    """``fetch_numpy`` and ``to_dict`` take every row the row reader has
    not handed out, starting inside the chunk it stands on."""

    CASES = [("SELECT a FROM small", False),
             ("SELECT a, s FROM wide", True)]

    @pytest.mark.parametrize("sql, stream", CASES)
    @pytest.mark.parametrize("read, drain", [
        ("one", "numpy"), ("one", "dict"), ("many2", "numpy")])
    def test_drain_continues_after_row_reads(self, drain_tables, sql, stream,
                                             read, drain):
        con = drain_tables
        expected = con.execute(sql).fetchall()
        result = con.execute(sql, stream=stream)
        if stream:
            assert result.fetch_chunk().size < len(expected)
            result = con.execute(sql, stream=stream)
        rows = [result.fetchone()] if read == "one" else result.fetchmany(2)
        if drain == "numpy":
            columns = result.fetch_numpy()
            rest = [tuple(value.item() if hasattr(value, "item") else value
                          for value in row)
                    for row in zip(*columns.values())]
        else:
            rest = list(zip(*result.to_dict().values()))
        assert rows + rest == expected
        assert result.fetchall() == []
        assert result.fetchone() is None


# -- executemany: one statement, stores what the per-set loop stores ----------

DDL = "(a BIGINT, b DOUBLE, s VARCHAR, f BOOLEAN DEFAULT true, n INTEGER)"


def contents(con, table):
    rows = con.execute(f"SELECT * FROM {table}").fetchall()
    return [[(type(value), value) for value in row] for row in rows]


def stored_both_ways(sql, parameter_sets, ddl=DDL):
    """Run ``sql`` (over table ``t``) batched and set by set; both outcomes.

    An outcome is the table's rows, or the error class with the rows left
    behind -- which for the batched call must be none.
    """
    outcomes = []
    for batched in (True, False):
        con = repro.connect()
        con.execute(f"CREATE TABLE t {ddl}")
        try:
            if batched:
                result = con.executemany(sql, parameter_sets)
                assert result.rowcount == len(parameter_sets)
                assert result.fetchall() == [(len(parameter_sets),)]
            else:
                for parameters in parameter_sets:
                    con.execute(sql, parameters)
            outcomes.append(contents(con, "t"))
        except repro.Error as error:
            if batched:
                assert contents(con, "t") == []
            outcomes.append(type(error))
        con.close()
    return outcomes


def run_lengths(sql, parameter_sets):
    statement = parse(sql)[0]
    return [rows for _, run in parameter_batches(parameter_sets)
            for _, rows in batch_runs(statement, run)]


INSERT5 = "INSERT INTO t VALUES (?, ?, ?, ?, ?)"

parameter_values = st.one_of(
    st.none(), st.integers(-2**40, 2**40), st.integers(-100, 100),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(), st.sampled_from(["x", "7", "", "true"]))


class TestExecutemany:
    @pytest.mark.parametrize("sql,parameter_sets,runs", [
        (INSERT5, [(1, 1.5, "a", True, 1), (2, 2.5, "b", False, 2)], [2]),
        # None in any position agrees with whatever type comes before/after.
        (INSERT5, [(None, None, None, None, None), (1, 1.5, "a", True, 1),
                   (None, 2.5, None, False, None)], [3]),
        # int then float / int then str: new type, new run, same contents.
        (INSERT5, [(1, 1, "a", True, 1), (2, 2, "b", True, 2),
                   (3, 2.5, "c", True, 3), (4, 4, "d", True, 4)], [2, 1, 1]),
        (INSERT5, [(1, 1.0, "a", True, 1), (2, 2.0, 7, True, 2),
                   (3, 3.0, 8, True, "3")], [1, 1, 1]),
        # INTEGER and BIGINT do not agree either (no widening).
        ("INSERT INTO t (a) VALUES (?)", [(1,), (2**40,), (2**41,), (3,)],
         [1, 2, 1]),
        # Named markers; key order is part of the shape.
        ("INSERT INTO t (a, s) VALUES (:a, :s)",
         [{"a": 1, "s": "x"}, {"a": 2, "s": None}, {"s": "z", "a": 3}],
         [2, 1]),
        # Expressions over parameters run once over the batch.
        ("INSERT INTO t (a, n, s) VALUES (?, ? + 1, upper(?))",
         [(1, 10, "ab"), (2, None, "cd"), (3, 30, None)], [3]),
        ("INSERT INTO t (a, s) VALUES (:k * 2, :w || :w)",
         [{"k": 1, "w": "a"}, {"k": 2, "w": "b"}], [2]),
        # Explicit column list: the others take their DEFAULT / NULL.
        ("INSERT INTO t (s, a) VALUES (?, ?)", [("p", 1), ("q", 2)], [2]),
        # No markers at all still means one row per set.
        ("INSERT INTO t (a) VALUES (5)", [(), (), ()], [3]),
        # Strings parsed into numeric columns, and one that cannot be.
        ("INSERT INTO t (a, b) VALUES (?, ?)", [("1", "2.5"), ("3", "4")],
         [2]),
        ("INSERT INTO t (a) VALUES (?)", [("1",), ("nope",)], [2]),
    ])
    def test_batched_equals_per_set(self, sql, parameter_sets, runs):
        assert run_lengths(sql, parameter_sets) == runs
        batched, per_set = stored_both_ways(sql, parameter_sets)
        assert batched == per_set

    @_settings
    @given(st.lists(st.tuples(*[parameter_values] * 5), min_size=1,
                    max_size=8))
    def test_any_parameter_list_stores_the_same(self, parameter_sets):
        batched, per_set = stored_both_ways(INSERT5, parameter_sets)
        assert batched == per_set
        assert sum(run_lengths(INSERT5, parameter_sets)) \
            == len(parameter_sets)

    def test_subqueries_and_other_statements_keep_the_per_set_loop(self):
        sets = [(1,), (2,), (3,)]
        for sql in ("INSERT INTO t (a) VALUES ((SELECT count(*) + ? FROM t))",
                    "INSERT INTO t (a) VALUES (?), (?)",
                    "INSERT INTO t (a) SELECT ?",
                    "UPDATE t SET a = ? WHERE a = 0",
                    "DELETE FROM t WHERE a = ?"):
            assert run_lengths(sql, sets) == [None, None, None]
        # The subquery sees the rows earlier sets of the same call inserted.
        con = repro.connect()
        con.execute(f"CREATE TABLE t {DDL}")
        sql = "INSERT INTO t (a) VALUES ((SELECT count(*) + ? FROM t))"
        assert con.executemany(sql, [(10,), (10,), (10,)]).rowcount == 3
        assert con.execute("SELECT a FROM t ORDER BY a").fetchall() \
            == [(10,), (11,), (12,)]
        con.close()

    def test_update_and_delete_unchanged(self, con):
        con.execute("CREATE TABLE t (a INTEGER, s VARCHAR)")
        con.executemany("INSERT INTO t VALUES (?, ?)",
                        [(index, "x") for index in range(6)])
        updated = con.executemany("UPDATE t SET s = ? WHERE a >= ?",
                                  [("y", 4), ("z", 5), ("w", 9)])
        assert updated.rowcount == 3 and updated.fetchall() == [(3,)]
        deleted = con.executemany("DELETE FROM t WHERE a = ?",
                                  [(0,), (1,), (1,)])
        assert deleted.rowcount == 2
        assert con.execute("SELECT a, s FROM t ORDER BY a").fetchall() \
            == [(2, "x"), (3, "x"), (4, "y"), (5, "z")]

    def test_large_batch_is_one_chunk(self, con):
        con.execute("CREATE TABLE t (a BIGINT, s VARCHAR)")
        count = 10_000
        result = con.executemany(
            "INSERT INTO t VALUES (?, ?)",
            ((index, f"w{index % 5}") for index in range(count)))
        assert result.rowcount == count
        assert con.execute("SELECT count(*), sum(a), count(DISTINCT s) "
                           "FROM t").fetchall() \
            == [(count, count * (count - 1) // 2, 5)]

    def test_rejects_what_cannot_take_parameter_sets(self, con):
        con.execute("CREATE TABLE t (a INTEGER)")
        for sql in ("INSERT INTO t VALUES (?); INSERT INTO t VALUES (?)",
                    "BEGIN", "CHECKPOINT", ""):
            with pytest.raises(repro.InvalidInputError):
                con.executemany(sql, [(1,)])
        with pytest.raises(repro.ParserError):
            con.executemany("INSERT INTO", [])
        assert not con.in_transaction


@pytest.fixture(params=ROUTES)
def route(request):
    """One client route (tests/test_statement_pipeline.py) with an empty
    table ``h`` whose first column is NOT NULL."""
    made = Route(request.param)
    made.connection.execute("CREATE TABLE h (a INTEGER NOT NULL, s VARCHAR)")
    made.count = lambda: made.connection.execute(
        "SELECT count(*) FROM h").fetchvalue()
    yield made
    made.close()


class TestOneContractOnEveryRoute:
    INSERT = "INSERT INTO h VALUES (?, ?)"

    def test_rowcount_is_the_total(self, route):
        assert route.run_many(
            self.INSERT, [(1, "a"), (2, "b"), (3, None)]) == 3
        assert route.run_many("UPDATE h SET s = ? WHERE a > ?",
                              [("x", 1), ("y", 2)]) == 3
        assert route.count() == 3

    def test_no_sets_parses_and_runs_nothing(self, route):
        route.database.statement_log.clear()
        assert route.run_many(self.INSERT, []) == 0
        assert route.run_many(self.INSERT, iter(())) == 0
        assert route.database.statement_log.records() == []
        with pytest.raises(repro.ParserError):
            route.run_many("INSERT INTO h VALUES (", [])
        assert route.count() == 0

    def test_a_failing_set_leaves_nothing_behind(self, route):
        with pytest.raises(repro.ConstraintError):
            route.run_many("INSERT INTO h (a) VALUES (?)",
                           [(1,), (None,), (3,)])
        assert route.count() == 0
        # A retry therefore duplicates nothing.
        assert route.run_many("INSERT INTO h (a) VALUES (?)",
                              [(1,), (2,), (3,)]) == 3
        assert route.count() == 3
        # The per-set fallback is one transaction too.
        with pytest.raises(repro.ConstraintError):
            route.run_many("UPDATE h SET a = ? WHERE a = ?",
                           [(10, 1), (None, 2)])
        assert route.connection.execute(
            "SELECT a FROM h ORDER BY a").fetchall() == [(1,), (2,), (3,)]

    def test_inside_begin_it_follows_the_abort_policy(self, route):
        connection = route.connection
        connection.execute("BEGIN")
        assert route.run_many(self.INSERT, [(1, "a"), (2, "b")]) == 2
        # A bind error wrote nothing: the transaction stays usable.
        with pytest.raises(repro.BinderError):
            route.run_many("INSERT INTO h VALUES (?)", [(1,)])
        assert connection.in_transaction
        # Once execution began the whole transaction aborts.
        with pytest.raises(repro.ConstraintError):
            route.run_many(self.INSERT, [(3, "c"), (None, "d")])
        assert not connection.in_transaction
        assert route.count() == 0

    def test_one_log_row_one_root_span(self, route):
        route.connection.session_config.trace_enabled = True
        route.database.statement_log.clear()
        route.database.tracer.clear()
        route.run_many(self.INSERT, [(index, "x") for index in range(50)])
        records = route.database.statement_log.records()
        assert [(record.sql, record.rows_out, record.error)
                for record in records] == [(self.INSERT, 1, "")]
        assert [span.name for span in route.database.tracer.spans()
                if span.kind == "query"] == [self.INSERT]


def test_session_executemany_takes_one_ticket():
    sets = [(1, "a"), (2, None), (3, "c")]
    with repro.serve() as server:
        with server.session("writer") as session:
            session.execute("CREATE TABLE t (a INTEGER, s VARCHAR)")
            admitted = server.database.admission.stats()["admitted"]
            session.executemany("INSERT INTO t VALUES (?, ?)", sets)
            session.executemany("INSERT INTO t VALUES (?, ?)", [])
            assert server.database.admission.stats()["admitted"] \
                == admitted + 2
            assert session.stats()["statements"] == 3
            session.executemany("INSERT INTO t (a) VALUES (:a)",
                                [{"a": 4}, {"a": 5}])
            assert len(session.execute("SELECT a FROM t").fetchall()) == 5


def test_one_wal_record_one_fsync_and_it_survives_reopen(tmp_path,
                                                         monkeypatch):
    path = str(tmp_path / "batch.qdb")
    con = repro.connect(path, {"checkpoint_on_close": False})
    con.execute("CREATE TABLE t (a BIGINT, s VARCHAR)")
    wal = con.database.storage.wal
    groups_before = len(wal.read_all())
    syncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (syncs.append(fd), real_fsync(fd))[1])
    count = 300
    con.executemany("INSERT INTO t VALUES (?, ?)",
                    [(index, f"w{index % 3}") for index in range(count)])
    monkeypatch.undo()
    assert len(syncs) == 1
    groups = wal.read_all()[groups_before:]
    assert len(groups) == 1
    inserts = [record for record in groups[0]
               if record.record_type is WALRecordType.INSERT_CHUNK]
    assert len(inserts) == 1 and inserts[0].payload["chunk"].size == count
    # Crash: drop the handles without a checkpoint, then recover.
    con.database.storage.wal.close()
    con.database.storage.block_file.close()
    reopened = repro.connect(path)
    assert reopened.execute(
        "SELECT count(*), sum(a), count(DISTINCT s) FROM t").fetchall() \
        == [(count, count * (count - 1) // 2, 3)]
    reopened.close()
