"""Columnar CSV in both directions.

``COPY ... FROM`` / ``read_csv()`` cut each column out of a block of records
once and cast it as a whole; ``COPY ... TO`` renders each column once.  The
per-value code this replaced is kept below, verbatim from the parent commit,
as the reference: for every input the columnar path returns the same values,
validity and dtype, or raises the same exception with the same message, and
the writer produces the same bytes.
"""

import csv
import datetime
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import ConversionError, InvalidInputError
from repro.etl import csv_reader, csv_writer, read_csv_chunks
from repro.etl.csv_reader import _is_null_token
from repro.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    FLOAT,
    INTEGER,
    SMALLINT,
    TIMESTAMP,
    TINYINT,
    VARCHAR,
    DataChunk,
    LogicalType,
    LogicalTypeId,
    Vector,
    casts,
    logical,
)
from repro.types.casts import _parse_bool, _parse_date, _parse_timestamp
from repro.types.dictionary import StringDictionary

_settings = settings(max_examples=200, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

CHUNK_ROWS = 16384  # read_csv_chunks' default block: 8 * VECTOR_SIZE
INTEGER_TYPES = [TINYINT, SMALLINT, INTEGER, BIGINT]
ALL_TYPES = INTEGER_TYPES + [FLOAT, DOUBLE, BOOLEAN, DATE, TIMESTAMP, VARCHAR]


# -- the parent's per-value code, verbatim: the reference ---------------------

def cast_vector(vector, target):
    """The parent's ``cast_vector`` for the text casts the references use."""
    if vector.dtype == target:
        return vector
    if target.id is LogicalTypeId.VARCHAR:
        return Vector(VARCHAR, _varchar_from_physical(vector), vector.validity.copy())
    return _varchar_to_physical(vector, target)


def _varchar_from_physical(vector: Vector) -> np.ndarray:
    """Render a non-VARCHAR vector's values as strings (invalid entries -> None)."""
    out = np.empty(len(vector), dtype=object)
    source_id = vector.dtype.id
    for index in range(len(vector)):
        if not vector.validity[index]:
            out[index] = None
            continue
        if source_id is LogicalTypeId.BOOLEAN:
            out[index] = "true" if vector.data[index] else "false"
        elif source_id is LogicalTypeId.DATE:
            out[index] = logical.days_to_date(int(vector.data[index])).isoformat()
        elif source_id is LogicalTypeId.TIMESTAMP:
            out[index] = logical.micros_to_timestamp(int(vector.data[index])).isoformat(sep=" ")
        elif vector.dtype.is_float():
            out[index] = repr(float(vector.data[index]))
        else:
            out[index] = str(int(vector.data[index]))
    return out


def _varchar_to_physical(vector: Vector, target: LogicalType) -> Vector:
    """Parse a VARCHAR vector into any other type, value by value."""
    count = len(vector)
    validity = vector.validity.copy()
    data = np.zeros(count, dtype=target.numpy_dtype)
    target_id = target.id
    for index in range(count):
        if not validity[index]:
            continue
        text = vector.data[index]
        if target_id is LogicalTypeId.BOOLEAN:
            data[index] = _parse_bool(text)
        elif target_id is LogicalTypeId.DATE:
            data[index] = _parse_date(text)
        elif target_id is LogicalTypeId.TIMESTAMP:
            data[index] = _parse_timestamp(text)
        elif target.is_integer():
            try:
                parsed = int(text.strip())
            except ValueError:
                # Accept "3.0"-style text for integer casts when exact.
                try:
                    as_float = float(text.strip())
                except ValueError:
                    raise ConversionError(
                        f"Could not parse {text!r} as {target}"
                    ) from None
                parsed = int(as_float)
                if parsed != as_float:
                    raise ConversionError(
                        f"Could not parse {text!r} as {target} without loss"
                    ) from None
            low, high = target.integer_range()
            if not low <= parsed <= high:
                raise ConversionError(f"Value {parsed} out of range for {target}")
            data[index] = parsed
        elif target.is_float():
            try:
                data[index] = float(text.strip())
            except ValueError:
                raise ConversionError(f"Could not parse {text!r} as {target}") from None
        else:
            raise ConversionError(f"Unsupported cast VARCHAR -> {target}")
    return Vector(target, data, validity)


def _rows_to_chunk(rows, types):
    """Parse raw string rows into a typed chunk (NULL tokens -> NULL)."""
    width = len(types)
    count = len(rows)
    raw_columns = []
    for index in range(width):
        data = np.empty(count, dtype=object)
        validity = np.ones(count, dtype=np.bool_)
        for row_index, row in enumerate(rows):
            token = row[index] if index < len(row) else ""
            if _is_null_token(token):
                validity[row_index] = False
                data[row_index] = None
            else:
                data[row_index] = token
        raw_columns.append(Vector(VARCHAR, data, validity))
    return DataChunk([
        cast_vector(column, dtype) for column, dtype in zip(raw_columns, types)
    ])


def write_csv(path, chunks, names, delimiter=",", header=True, null_string=""):
    """Write chunks to a CSV file; returns the number of rows written.

    Values are rendered through the engine's VARCHAR cast so that output
    text round-trips through the CSV reader (ISO dates, ``true``/``false``
    booleans, ``repr`` floats).
    """
    rows_written = 0
    try:
        handle = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"Cannot open {path!r} for writing: {exc}") from None
    with handle:
        writer = csv.writer(handle, delimiter=delimiter)
        if header:
            writer.writerow(list(names))
        for chunk in chunks:
            if chunk.size == 0:
                continue
            rendered = [
                cast_vector(column, VARCHAR)
                if column.dtype.id is not LogicalTypeId.VARCHAR else column
                for column in chunk.columns
            ]
            for row_index in range(chunk.size):
                row = []
                for column in rendered:
                    if column.validity[row_index]:
                        row.append(column.data[row_index])
                    else:
                        row.append(null_string)
                writer.writerow(row)
            rows_written += chunk.size
    return rows_written


# -- comparison helpers --------------------------------------------------------

def outcome(function, *args):
    """``("ok", result)``, or ``("raised", type, message)``."""
    try:
        with np.errstate(over="ignore"):  # float32 overflow warns on both sides
            return ("ok", function(*args))
    except Exception as error:
        return ("raised", type(error), str(error))


def assert_same_vector(got, want):
    assert got.dtype == want.dtype
    assert got.data.dtype == want.data.dtype
    assert got.validity.dtype == want.validity.dtype
    assert got.validity.tolist() == want.validity.tolist()
    if want.data.dtype == object:
        assert got.data.tolist() == want.data.tolist()
        assert list(map(type, got.data)) == list(map(type, want.data))
    else:  # bit-exact: NaN payloads, -0.0, values under NULL
        assert got.data.tobytes() == want.data.tobytes()


def assert_same_chunk(got, want):
    assert got.size == want.size
    assert len(got.columns) == len(want.columns)
    for got_column, want_column in zip(got.columns, want.columns):
        assert_same_vector(got_column, want_column)


def assert_same_outcome(got, want, compare=assert_same_chunk):
    assert got[0] == want[0], (got, want)
    if want[0] == "raised":
        assert got[1:] == want[1:]
    else:
        compare(got[1], want[1])


def reference_read(path, types, header=True, chunk_size=CHUNK_ROWS):
    """The parent's reader loop over the reference ``_rows_to_chunk``."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if header:
            next(reader, None)
        rows = [row for row in reader if row]
    return [_rows_to_chunk(rows[start:start + chunk_size], types)
            for start in range(0, len(rows), chunk_size)]


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    return str(path)


# -- token strategies ------------------------------------------------------------

NULL_SPELLINGS = ["", " ", " NULL ", "null", "n/A", "N/A", "None", "na", "NA"]
NUMERIC_SPELLINGS = [" 7 ", "+7", "-7", "1_000", "1e3", "1E-3", "nan", "-inf",
                     "Infinity", "٣", "3.0", "3.5", "-0", "07", "0x10",
                     "1__0", "_1", "1.", ".5", " 8 ", "abc"]
INTEGER_EDGES = [str(value) for value in (
    127, 128, -128, -129, 32767, 32768, -32768, -32769,
    2**31 - 1, 2**31, -2**31, -2**31 - 1,
    2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**64, -10**30)]
DATE_SPELLINGS = ["1970-01-01", "1969-12-31", "1900-02-28", "0001-01-01",
                  "9999-12-31", "2020-02-29", " 2020-01-01 ", "2021-02-29",
                  "20200101", "2020-1-1", "2020-01-01 10:00:00", "yesterday"]
TIMESTAMP_SPELLINGS = ["1969-12-31 23:59:59.999999", "0001-01-01 00:00:00",
                       "9999-12-31 23:59:59.999999", "2020-01-01",
                       "0001-01-01", "2020-01-01T10:00:00",
                       " 2020-01-01 10:00 ", "1900-03-01 00:00:00.5",
                       "2020-01-01 25:00:00", "noon"]
BOOLEAN_SPELLINGS = ["true", "T", " yes ", "Y", "N", "no", "0", "1", "FALSE",
                     "f", "maybe", "2"]
TEXT_SPELLINGS = [" a ", "hello", "x, y", "multi\nline", "é", "  "]
NUMERIC_ALPHABET = " \t +-_.0123456789eEinfatyINFATY٣"


def _within(dtype):
    low, high = dtype.integer_range()
    return st.integers(low, high).map(str)


def token_elements(dtype, clean):
    """One text a column of ``dtype`` may hold: a value it accepts or a NULL
    spelling, plus -- unless ``clean`` -- the spellings that decide between
    the bulk and the scalar parse."""
    nulls = st.sampled_from(NULL_SPELLINGS)
    numeric_noise = st.text(alphabet=NUMERIC_ALPHABET, max_size=6)
    if dtype.is_integer():
        good = _within(dtype)
        odd = st.one_of(st.sampled_from(NUMERIC_SPELLINGS + INTEGER_EDGES),
                        st.integers(-2**70, 2**70).map(str), numeric_noise)
    elif dtype.is_float():
        good = st.one_of(st.floats(width=32 if dtype == FLOAT else 64)
                         .map(repr), st.integers(-2**70, 2**70).map(str))
        odd = st.one_of(st.sampled_from(NUMERIC_SPELLINGS + INTEGER_EDGES
                                        + ["1e39", "-1e39", "1e400"]),
                        numeric_noise)
    elif dtype == DATE:
        good = st.dates().map(str)
        odd = st.sampled_from(DATE_SPELLINGS)
    elif dtype == TIMESTAMP:
        good = st.one_of(st.datetimes().map(str), st.dates().map(str))
        odd = st.sampled_from(TIMESTAMP_SPELLINGS)
    elif dtype == BOOLEAN:
        good = st.sampled_from(["true", "false", "t", "f"])
        odd = st.sampled_from(BOOLEAN_SPELLINGS)
    else:
        good = st.text(max_size=5)
        odd = st.sampled_from(TEXT_SPELLINGS)
    return st.one_of(good, nulls) if clean else st.one_of(good, good, nulls, odd)


def token_strategy(dtype, count=None):
    """A column of texts: all accepted (or NULL), or mixed."""
    size = {"max_size": 30} if count is None \
        else {"min_size": count, "max_size": count}
    return st.booleans().flatmap(
        lambda clean: st.lists(token_elements(dtype, clean), **size))


# -- value twins ---------------------------------------------------------------

class TestParseTwins:
    @pytest.mark.parametrize("dtype", ALL_TYPES, ids=str)
    @_settings
    @given(data=st.data())
    def test_one_column(self, dtype, data):
        tokens = data.draw(token_strategy(dtype))
        rows = [[token] for token in tokens]
        assert_same_outcome(outcome(csv_reader._rows_to_chunk, rows, [dtype]),
                            outcome(_rows_to_chunk, rows, [dtype]))

    @_settings
    @given(data=st.data())
    def test_several_columns(self, data):
        types = data.draw(st.lists(st.sampled_from(ALL_TYPES), min_size=1,
                                   max_size=4))
        count = data.draw(st.integers(0, 25))
        columns = [data.draw(token_strategy(dtype, count)) for dtype in types]
        rows = [list(row) for row in zip(*columns)]
        assert_same_outcome(outcome(csv_reader._rows_to_chunk, rows, types),
                            outcome(_rows_to_chunk, rows, types))

    @pytest.mark.parametrize("dtype", ALL_TYPES[:-1], ids=str)
    @_settings
    @given(data=st.data())
    def test_cast_with_garbage_under_null(self, dtype, data):
        # cast_vector is also SQL's CAST: NULL rows may hold anything.
        tokens = data.draw(token_strategy(dtype))
        valid = data.draw(st.lists(st.booleans(), min_size=len(tokens),
                                   max_size=len(tokens)))
        texts = np.empty(len(tokens), dtype=object)
        texts[:] = [token if keep else garbage for token, keep, garbage
                    in zip(tokens, valid, [None, 17, "junk", b"x"] * 30)]
        vector = Vector(VARCHAR, texts, np.array(valid, dtype=np.bool_))
        assert_same_outcome(outcome(casts._varchar_to_physical, vector, dtype),
                            outcome(_varchar_to_physical, vector, dtype),
                            assert_same_vector)

    @pytest.mark.parametrize("tokens, dtype", [
        (["3.0", "4"], INTEGER),                  # exact float text
        (["3.5"], INTEGER),                       # lossy
        (["nan"], INTEGER),                       # ValueError from int(nan)
        (["inf"], BIGINT),                        # OverflowError from int(inf)
        ([str(2**31)], INTEGER),
        ([str(-2**31 - 1)], INTEGER),
        ([str(2**63)], BIGINT),
        ([str(-2**63)], BIGINT),
        (["1", "x", str(2**63)], BIGINT),         # first offender wins
        ([str(2**63), "x"], BIGINT),
        (["1", "2", "128"], TINYINT),
        (["1e39"], FLOAT),
        (["0001-01-01", "9999-12-31", "1969-12-31"], DATE),
        (["2020-01-01", "2020-01-01 10:00:00.25"], TIMESTAMP),
        (["1", "2021-02-29", "2021-02-30"], DATE),
        (["yes", "no", "maybe", "perhaps"], BOOLEAN),
        ([" padded ", "NULL", ""], VARCHAR),
    ])
    def test_pinned_cases(self, tokens, dtype):
        rows = [[token] for token in tokens]
        got = outcome(csv_reader._rows_to_chunk, rows, [dtype])
        assert_same_outcome(got, outcome(_rows_to_chunk, rows, [dtype]))


# -- render twins --------------------------------------------------------------

_DATE_RANGE = (logical.date_to_days(datetime.date.min),
               logical.date_to_days(datetime.date.max))
_TIMESTAMP_RANGE = (logical.timestamp_to_micros(datetime.datetime.min),
                    logical.timestamp_to_micros(datetime.datetime.max))


def physical_strategy(dtype):
    """``(values, garbage)`` strategies for a vector of ``dtype``: valid
    values, and what may sit under a NULL position."""
    if dtype == BOOLEAN:
        return st.booleans(), st.booleans()
    if dtype.is_integer():
        values = st.integers(*dtype.integer_range())
        return values, values
    if dtype.is_float():
        values = st.floats(width=32 if dtype == FLOAT else 64)
        return values, values
    if dtype == DATE:
        return st.integers(*_DATE_RANGE), st.integers(-2**31, 2**31 - 1)
    if dtype == TIMESTAMP:
        return st.integers(*_TIMESTAMP_RANGE), st.integers(-2**63, 2**63 - 1)
    return st.text(max_size=6), st.one_of(st.none(), st.just(17), st.text())


@st.composite
def physical_vectors(draw, dtype, count):
    values_strategy, garbage_strategy = physical_strategy(dtype)
    valid = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    values = [draw(values_strategy if keep else garbage_strategy)
              for keep in valid]
    if dtype == VARCHAR:
        data = np.empty(count, dtype=object)
        data[:] = values
        if draw(st.booleans()) and all(
                isinstance(value, str) for value in values):
            dictionary = StringDictionary()
            return Vector.from_codes(dictionary.encode(data), dictionary,
                                     np.array(valid, dtype=np.bool_))
    else:
        data = np.array(values, dtype=dtype.numpy_dtype)
    return Vector(dtype, data, np.array(valid, dtype=np.bool_))


class TestRenderTwins:
    @pytest.mark.parametrize("dtype", ALL_TYPES[:-1], ids=str)
    @_settings
    @given(data=st.data())
    def test_varchar_from_physical(self, dtype, data):
        vector = data.draw(physical_vectors(dtype, data.draw(
            st.integers(0, 20))))
        got = casts._varchar_from_physical(vector)
        want = _varchar_from_physical(vector)
        assert got.dtype == want.dtype == object
        assert got.tolist() == want.tolist()
        assert list(map(type, got)) == list(map(type, want))

    @pytest.mark.parametrize("dtype, value", [
        (DATE, _DATE_RANGE[1] + 1), (DATE, _DATE_RANGE[0] - 1),
        (DATE, 2**31 - 1), (TIMESTAMP, _TIMESTAMP_RANGE[1] + 1),
        (TIMESTAMP, -2**63)])
    def test_temporal_outside_python_range_raises_the_same(self, dtype, value):
        vector = Vector(dtype, np.array([0, value, 1], dtype=dtype.numpy_dtype))
        got = outcome(casts._varchar_from_physical, vector)
        want = outcome(_varchar_from_physical, vector)
        assert got[0] == want[0] == "raised"
        assert got[1:] == want[1:]
        # The render goes through to_pylist, which raises get_value's error.
        assert outcome(vector.to_pylist) == outcome(vector.get_value, 1)

    @_settings
    @given(data=st.data())
    def test_write_csv_bytes(self, tmp_path_factory, data):
        types = data.draw(st.lists(st.sampled_from(ALL_TYPES), min_size=1,
                                   max_size=5))
        sizes = data.draw(st.lists(st.integers(0, 12), max_size=3))
        chunks = [DataChunk([data.draw(physical_vectors(dtype, size))
                             for dtype in types]) for size in sizes]
        names = [f"c{index}" for index in range(len(types))]
        null_string = data.draw(st.sampled_from(["", "NULL", "\\N"]))
        directory = tmp_path_factory.mktemp("export")
        got_path = str(directory / "got.csv")
        want_path = str(directory / "want.csv")
        got = csv_writer.write_csv(got_path, chunks, names,
                                   null_string=null_string)
        want = write_csv(want_path, chunks, names, null_string=null_string)
        assert got == want
        with open(got_path, "rb") as left, open(want_path, "rb") as right:
            assert left.read() == right.read()


# -- record level ----------------------------------------------------------------

def mixed_rows(count, seed=3):
    """``count`` records over five types, ~30 % NULL tokens per column."""
    rng = np.random.default_rng(seed)
    columns = [
        [str(value) for value in rng.integers(-2**40, 2**40, count).tolist()],
        [repr(value) for value in rng.normal(size=count).tolist()],
        [f"name{value}" for value in rng.integers(0, 50, count).tolist()],
        [str(datetime.date(2000, 1, 1) + datetime.timedelta(days=value))
         for value in rng.integers(-9000, 9000, count).tolist()],
        ["true" if value else "false"
         for value in rng.integers(0, 2, count).tolist()],
    ]
    for column in columns:
        for index in np.flatnonzero(rng.random(count) < 0.3).tolist():
            column[index] = NULL_SPELLINGS[index % len(NULL_SPELLINGS)]
    return [list(row) for row in zip(*columns)]


MIXED_TYPES = [BIGINT, DOUBLE, VARCHAR, DATE, BOOLEAN]


class TestRecords:
    @pytest.mark.parametrize("text, types", [
        ("a,b,c\n1,x\n2\n3,y,z\n", [BIGINT, VARCHAR, VARCHAR]),
        ('a,b\n"1,5",x\n"2","multi\nline"\n"",""\n', [VARCHAR, VARCHAR]),
        ('a,b\n"1,5",x\n', [DOUBLE, VARCHAR]),
        ("a,b\n,1\nNA,2\nnull,3\n", [BIGINT, BIGINT]),
        ("a,b\n,1\nNA,2\nnull,3\n", [VARCHAR, DATE]),
        ("a\n\n1\n\n\n2\n\n", [BIGINT]),
        ("a,b\n", [BIGINT, VARCHAR]),
        ("a,b\n1,x\n", [BIGINT, VARCHAR]),
        ("", [BIGINT]),
    ])
    def test_small_files(self, tmp_path, text, types):
        path = tmp_path / "r.csv"
        path.write_text(text, encoding="utf-8")
        got = outcome(lambda: list(read_csv_chunks(str(path), types)))
        want = outcome(reference_read, str(path), types)
        assert_same_outcome(got, want, self._same_chunks)

    @pytest.mark.parametrize("count", [0, 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_chunk_boundary(self, tmp_path, count):
        path = write_rows(tmp_path / "b.csv",
                          [["a", "b", "c", "d", "e"]] + mixed_rows(count))
        got = list(read_csv_chunks(path, MIXED_TYPES))
        want = reference_read(path, MIXED_TYPES)
        assert [chunk.size for chunk in got] == \
            [chunk.size for chunk in want] == \
            ([] if count == 0 else [min(count, CHUNK_ROWS)]
             + ([1] if count > CHUNK_ROWS else []))
        self._same_chunks(got, want)

    @_settings
    @given(data=st.data())
    def test_random_records(self, tmp_path_factory, data):
        types = data.draw(st.lists(st.sampled_from(ALL_TYPES), min_size=1,
                                   max_size=4))
        tokens = [data.draw(token_strategy(dtype)) for dtype in types]
        count = max(map(len, tokens))
        rows = []
        for index in range(count):
            row = [column[index] if index < len(column) else ""
                   for column in tokens]
            width = data.draw(st.integers(1, len(types)))  # short rows
            rows.append(row[:width])
        path = write_rows(tmp_path_factory.mktemp("records") / "r.csv",
                          [["h"] * len(types)] + rows)
        got = outcome(lambda: list(read_csv_chunks(path, types,
                                                   chunk_size=7)))
        want = outcome(reference_read, path, types, True, 7)
        assert_same_outcome(got, want, self._same_chunks)

    @staticmethod
    def _same_chunks(got, want):
        assert len(got) == len(want)
        for got_chunk, want_chunk in zip(got, want):
            assert_same_chunk(got_chunk, want_chunk)


class TestWideRecords:
    def test_wide_row_in_a_block(self):
        rows = [["1", "x"], ["2", "y", "EXTRA"], ["3", "z", "a", "b"]]
        with pytest.raises(InvalidInputError,
                           match=r"^CSV record 12 has 3 fields, but only 2 "
                                 r"are expected$"):
            csv_reader._rows_to_chunk(rows, [BIGINT, VARCHAR], 11)

    def _file(self, tmp_path, wide_at):
        rows = [["a", "b"]] + [[str(i), "y"] for i in range(1, wide_at)]
        rows.append(["7", "y", "EXTRA"])
        rows.append(["8", "y"])
        return write_rows(tmp_path / "wide.csv", rows)

    def test_copy_past_the_sample(self, tmp_path, con):
        path = self._file(tmp_path, 200)  # the sniffer sees 128 lines
        con.execute("CREATE TABLE t (i BIGINT, s VARCHAR)")
        with pytest.raises(InvalidInputError,
                           match="CSV record 200 has 3 fields, but only 2"):
            con.execute(f"COPY t FROM '{path}' (HEADER)")
        assert con.query_value("SELECT count(*) FROM t") == 0

    def test_read_csv_past_the_sample(self, tmp_path, con):
        path = self._file(tmp_path, 300)
        with pytest.raises(InvalidInputError, match="CSV record 300 has 3"):
            con.execute(f"SELECT count(*) FROM read_csv('{path}')").fetchall()

    def test_record_number_counts_across_chunks(self, tmp_path):
        path = self._file(tmp_path, CHUNK_ROWS + 1)
        with pytest.raises(InvalidInputError,
                           match=f"CSV record {CHUNK_ROWS + 1} has 3"):
            list(read_csv_chunks(path, [BIGINT, VARCHAR]))

    def test_short_rows_still_padded(self, tmp_path, con):
        path = write_rows(tmp_path / "short.csv",
                          [["a", "b"]] + [["1", "x"]] * 200 + [["2"]])
        con.execute("CREATE TABLE t (i BIGINT, s VARCHAR)")
        con.execute(f"COPY t FROM '{path}' (HEADER)")
        assert con.execute("SELECT i, s FROM t WHERE i = 2").fetchall() \
            == [(2, None)]


class TestByteOrderMark:
    def test_headerless_bom_file_loads_every_row(self, tmp_path, con):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,x\n2,y\n")
        con.execute("CREATE TABLE t (i INTEGER, s VARCHAR)")
        assert con.execute(f"COPY t FROM '{path}'").fetchall() == [(2,)]
        assert con.execute("SELECT i, s FROM t ORDER BY i").fetchall() == \
            [(1, "x"), (2, "y")]

    def test_read_csv_names_first_column_without_bom(self, tmp_path, con):
        path = tmp_path / "bom_header.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
        result = con.execute(f"SELECT * FROM read_csv('{path}')")
        assert [column[0] for column in result.description] == ["a", "b"]
        assert result.fetchall() == [(1, 2), (3, 4)]


# -- export ------------------------------------------------------------------------

ROUND_TRIP_DDL = ("CREATE TABLE {} (id INTEGER, b BOOLEAN, t TINYINT, "
                  "s SMALLINT, i INTEGER, g BIGINT, f FLOAT, d DOUBLE, "
                  "v VARCHAR, dt DATE, ts TIMESTAMP)")


def fill_round_trip_table(con, rows=300, seed=11):
    rng = np.random.default_rng(seed)
    valid = {name: rng.random(rows) > 0.3
             for name in ("b", "t", "s", "i", "g", "f", "d", "v", "dt", "ts")}
    columns = {
        "id": np.arange(rows, dtype=np.int32),
        "b": rng.random(rows) < 0.5,
        "t": rng.integers(-128, 128, rows).astype(np.int8),
        "s": rng.integers(-2**15, 2**15, rows).astype(np.int16),
        "i": rng.integers(-2**31, 2**31, rows).astype(np.int32),
        "g": rng.integers(-2**63, 2**63 - 1, rows, dtype=np.int64),
        "f": rng.normal(size=rows).astype(np.float32),
        "d": np.where(rng.random(rows) < 0.1, np.inf, rng.normal(size=rows)),
        "v": np.array([f" v{i}, \"q\"\n" for i in range(rows)], dtype=object),
        "dt": np.array([datetime.date(1, 1, 1), datetime.date(9999, 12, 31),
                        datetime.date(1969, 12, 31)] * (rows // 3),
                       dtype="datetime64[D]"),
        "ts": np.array([datetime.datetime(1969, 12, 31, 23, 59, 59, 1),
                        datetime.datetime(2020, 1, 1),
                        datetime.datetime(9999, 12, 31, 23, 59, 59, 999999)]
                       * (rows // 3), dtype="datetime64[us]"),
    }
    with con.appender("src") as appender:
        appender.append_numpy(columns, valid)


class TestExport:
    def test_copy_to_matches_the_reference_writer(self, tmp_path, con):
        con.execute(ROUND_TRIP_DDL.format("src"))
        fill_round_trip_table(con)
        got = tmp_path / "got.csv"
        want = tmp_path / "want.csv"
        con.execute(f"COPY src TO '{got}'")
        result = con.execute("SELECT * FROM src")
        write_csv(str(want), result.chunks(), [
            column[0] for column in result.description])
        assert got.read_bytes() == want.read_bytes()

    def test_round_trip(self, tmp_path, con):
        con.execute(ROUND_TRIP_DDL.format("src"))
        con.execute(ROUND_TRIP_DDL.format("back"))
        fill_round_trip_table(con)
        path = tmp_path / "trip.csv"
        con.execute(f"COPY src TO '{path}'")
        con.execute(f"COPY back FROM '{path}' (HEADER)")
        assert con.execute("SELECT * FROM back ORDER BY id").fetchall() == \
            con.execute("SELECT * FROM src ORDER BY id").fetchall()

    def test_null_token_text_reads_back_as_null(self, tmp_path, con):
        # The documented limit: '' and the NULL spellings are NULL on read.
        con.execute("CREATE TABLE src (id INTEGER, v VARCHAR)")
        con.execute("INSERT INTO src VALUES (1, ''), (2, 'NA'), (3, NULL), "
                    "(4, ' none '), (5, 'x')")
        path = tmp_path / "ambiguous.csv"
        con.execute(f"COPY src TO '{path}'")
        con.execute("CREATE TABLE back (id INTEGER, v VARCHAR)")
        con.execute(f"COPY back FROM '{path}' (HEADER)")
        assert con.execute("SELECT id, v FROM back ORDER BY id").fetchall() \
            == [(1, None), (2, None), (3, None), (4, None), (5, "x")]


# -- file-backed ---------------------------------------------------------------------

class TestFileBacked:
    def test_copy_survives_wal_replay_and_checkpoint(self, tmp_path):
        csv_path = write_rows(tmp_path / "load.csv",
                              [["a", "b", "c", "d", "e"]]
                              + mixed_rows(CHUNK_ROWS + 500, seed=5))
        expected = [row for chunk in reference_read(csv_path, MIXED_TYPES)
                    for row in chunk.to_rows()]
        db_path = str(tmp_path / "db.qdb")
        config = {"checkpoint_on_close": False}
        con = repro.connect(db_path, config)
        con.execute("CREATE TABLE t (a BIGINT, b DOUBLE, c VARCHAR, d DATE, "
                    "e BOOLEAN)")
        con.execute(f"COPY t FROM '{csv_path}' (HEADER)")
        con.close()

        select = "SELECT * FROM t"
        con = repro.connect(db_path, config)  # replays the WAL
        try:
            assert con.execute(select).fetchall() == expected
            con.execute("CHECKPOINT")
        finally:
            con.close()
        con = repro.connect(db_path, config)  # reads checkpointed segments
        try:
            assert con.execute(select).fetchall() == expected
        finally:
            con.close()


# -- the scalar parse is the fallback, not the path ------------------------------------

class TestFallbackUse:
    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        scalar = casts._parse_each

        def counting(texts, target):
            calls.append(target)
            return scalar(texts, target)

        monkeypatch.setattr(casts, "_parse_each", counting)
        return calls

    @pytest.mark.parametrize("nulls", [False, True])
    def test_numeric_columns_never_enter_it(self, tmp_path, con, parses,
                                            nulls):
        rng = np.random.default_rng(7)
        rows = [[str(int(a)), str(int(b)), repr(float(c)), repr(float(d)),
                 str(int(e))]
                for a, b, c, d, e in zip(
                    rng.integers(-2**31, 2**31, 3000),
                    rng.integers(-2**63, 2**63 - 1, 3000, dtype=np.int64),
                    rng.normal(size=3000), rng.normal(size=3000),
                    rng.integers(-128, 128, 3000))]
        if nulls:
            for index, row in enumerate(rows):
                row[index % 5] = NULL_SPELLINGS[index % len(NULL_SPELLINGS)]
        path = write_rows(tmp_path / "numbers.csv", [list("abcde")] + rows)
        con.execute("CREATE TABLE t (a INTEGER, b BIGINT, c DOUBLE, d FLOAT, "
                    "e TINYINT)")
        con.execute(f"COPY t FROM '{path}' (HEADER)")
        assert con.query_value("SELECT count(*) FROM t") == 3000
        assert parses == []

    def test_exact_float_text_enters_it(self, tmp_path, con, parses):
        path = write_rows(tmp_path / "f.csv", [["a"], ["1"], ["3.0"]])
        con.execute("CREATE TABLE t (a INTEGER)")
        con.execute(f"COPY t FROM '{path}' (HEADER)")
        assert parses == [INTEGER]
        assert con.execute("SELECT a FROM t").fetchall() == [(1,), (3,)]


def test_csv_paths_are_module_globals():
    # benchmarks/ledger/layers.py wraps these by name.
    assert callable(csv_reader.read_csv_chunks)
    assert callable(csv_reader.sniff_csv)
    assert os.path.basename(csv_reader.__file__) == "csv_reader.py"
