"""Tests for Vector and DataChunk."""

import datetime

import numpy as np
import pytest

from repro.errors import ConversionError, InternalError
from repro.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    SQLNULL,
    TIMESTAMP,
    VARCHAR,
    DataChunk,
    StringDictionary,
    VECTOR_SIZE,
    Vector,
)


class TestVectorConstruction:
    def test_from_values_infers_type(self):
        vector = Vector.from_values([1, 2, 3])
        assert vector.dtype == INTEGER
        assert vector.to_pylist() == [1, 2, 3]

    def test_from_values_with_nulls(self):
        vector = Vector.from_values([1, None, 3])
        assert vector.null_count() == 1
        assert vector.to_pylist() == [1, None, 3]

    def test_from_values_all_null(self):
        vector = Vector.from_values([None, None])
        assert vector.dtype == SQLNULL
        assert vector.to_pylist() == [None, None]

    def test_from_values_promotes(self):
        vector = Vector.from_values([1, 2.5])
        assert vector.dtype == DOUBLE
        assert vector.to_pylist() == [1.0, 2.5]

    def test_from_values_incompatible(self):
        with pytest.raises(ConversionError):
            Vector.from_values([1, "x"])

    def test_from_values_explicit_type(self):
        vector = Vector.from_values([1, 2], DOUBLE)
        assert vector.dtype == DOUBLE

    def test_explicit_type_range_check(self):
        from repro.types import TINYINT

        with pytest.raises(ConversionError):
            Vector.from_values([1000], TINYINT)

    def test_strings(self):
        vector = Vector.from_values(["a", None, "c"])
        assert vector.dtype == VARCHAR
        assert vector.to_pylist() == ["a", None, "c"]

    def test_dates(self):
        day = datetime.date(2021, 6, 1)
        vector = Vector.from_values([day])
        assert vector.dtype == DATE
        assert vector.get_value(0) == day

    def test_timestamps(self):
        moment = datetime.datetime(2021, 6, 1, 12, 30, 0, 123)
        vector = Vector.from_values([moment])
        assert vector.dtype == TIMESTAMP
        assert vector.get_value(0) == moment

    def test_empty(self):
        vector = Vector.empty(INTEGER, 3)
        assert vector.to_pylist() == [None, None, None]

    def test_constant(self):
        vector = Vector.constant(7, 4)
        assert vector.to_pylist() == [7, 7, 7, 7]

    def test_constant_null(self):
        vector = Vector.constant(None, 2, INTEGER)
        assert vector.to_pylist() == [None, None]

    def test_from_numpy_zero_copy(self):
        array = np.arange(5, dtype=np.int32)
        vector = Vector.from_numpy(array, INTEGER)
        assert vector.data is array  # no copy for matching dtypes

    def test_from_numpy_casts_dtype(self):
        array = np.arange(5, dtype=np.int64)
        vector = Vector.from_numpy(array, INTEGER)
        assert vector.data.dtype == np.int32

    def test_mismatched_validity_length(self):
        with pytest.raises(InternalError):
            Vector(INTEGER, np.zeros(3, dtype=np.int32),
                   np.ones(2, dtype=np.bool_))


class TestVectorOperations:
    def test_set_value(self):
        vector = Vector.from_values([1, 2, 3])
        vector.set_value(1, 99)
        assert vector.to_pylist() == [1, 99, 3]
        vector.set_value(0, None)
        assert vector.to_pylist() == [None, 99, 3]

    def test_slice_by_mask(self):
        vector = Vector.from_values([1, 2, 3, 4])
        sliced = vector.slice(np.array([True, False, True, False]))
        assert sliced.to_pylist() == [1, 3]

    def test_slice_by_index(self):
        vector = Vector.from_values([1, 2, 3, 4])
        sliced = vector.slice(np.array([3, 0]))
        assert sliced.to_pylist() == [4, 1]

    def test_copy_is_independent(self):
        vector = Vector.from_values([1, 2])
        cloned = vector.copy()
        cloned.set_value(0, 9)
        assert vector.get_value(0) == 1

    def test_concat(self):
        joined = Vector.from_values([1]).concat(Vector.from_values([2, None]))
        assert joined.to_pylist() == [1, 2, None]

    def test_concat_type_mismatch(self):
        with pytest.raises(InternalError):
            Vector.from_values([1]).concat(Vector.from_values(["a"]))

    def test_concat_many(self):
        vectors = [Vector.from_values([i]) for i in range(4)]
        assert Vector.concat_many(vectors).to_pylist() == [0, 1, 2, 3]

    def test_all_valid(self):
        assert Vector.from_values([1, 2]).all_valid()
        assert not Vector.from_values([1, None]).all_valid()
        assert Vector.from_values([]).all_valid() or True  # no crash on empty

    def test_nbytes_strings_counts_content(self):
        short = Vector.from_values(["a"])
        long = Vector.from_values(["a" * 1000])
        assert long.nbytes() > short.nbytes()


class TestDataChunk:
    def test_from_pylists(self):
        chunk = DataChunk.from_pylists([[1, 2], ["x", "y"]])
        assert chunk.size == 2
        assert chunk.column_count == 2
        assert chunk.to_rows() == [(1, "x"), (2, "y")]

    def test_mismatched_lengths(self):
        with pytest.raises(InternalError):
            DataChunk([Vector.from_values([1]), Vector.from_values([1, 2])])

    def test_row_access(self):
        chunk = DataChunk.from_pylists([[1, 2], [None, "y"]])
        assert chunk.row(0) == (1, None)
        assert chunk.row(1) == (2, "y")

    def test_slice(self):
        chunk = DataChunk.from_pylists([[1, 2, 3], ["a", "b", "c"]])
        sliced = chunk.slice(np.array([2, 0]))
        assert sliced.to_rows() == [(3, "c"), (1, "a")]

    def test_project(self):
        chunk = DataChunk.from_pylists([[1], ["a"], [2.0]])
        projected = chunk.project([2, 0])
        assert projected.to_rows() == [(2.0, 1)]

    def test_concat_many(self):
        first = DataChunk.from_pylists([[1], ["a"]])
        second = DataChunk.from_pylists([[2], ["b"]])
        combined = DataChunk.concat_many([first, second])
        assert combined.to_rows() == [(1, "a"), (2, "b")]

    def test_split(self):
        chunk = DataChunk.from_pylists([list(range(5))])
        pieces = list(chunk.split(2))
        assert [piece.size for piece in pieces] == [2, 2, 1]
        assert [row for piece in pieces for row in piece.to_rows()] == \
            [(i,) for i in range(5)]

    @staticmethod
    def _mixed_chunk(rows):
        values = np.arange(rows, dtype=np.int64)
        validity = values % 7 != 0
        dictionary = StringDictionary()
        words = np.array(["w%d" % (i % 5) for i in range(rows)], dtype=object)
        coded = Vector.from_codes(dictionary.encode(words), dictionary)
        return DataChunk([Vector(BIGINT, values, validity), coded])

    def test_split_pieces_are_views_in_order(self):
        chunk = self._mixed_chunk(5 * 1000 + 3)
        numbers, coded = chunk.columns
        pieces = list(chunk.split(1000))
        assert [piece.size for piece in pieces] == [1000] * 5 + [3]
        for piece in pieces:
            number, word = piece.columns
            assert np.shares_memory(number.data, numbers.data)
            assert np.shares_memory(number.validity, numbers.validity)
            assert word.codes is not None
            assert word.dictionary is coded.dictionary
            assert np.shares_memory(word.codes, coded.codes)
        rebuilt = DataChunk.concat_many(pieces)
        assert rebuilt.to_rows() == chunk.to_rows()

    def test_split_piece_writes_stay_in_that_piece(self):
        chunk = self._mixed_chunk(10)
        first, second = list(chunk.split(5))
        before = second.to_rows()
        first.columns[0].data[:] = -1
        first.columns[0].validity[:] = True
        first.columns[1].data[:] = "changed"  # decodes this piece only
        assert second.to_rows() == before
        assert second.columns[1].codes is not None
        assert first.to_rows() == [(-1, "changed")] * 5

    def test_to_pydict(self):
        chunk = DataChunk.from_pylists([[1, 2]])
        assert chunk.to_pydict(["x"]) == {"x": [1, 2]}

    def test_empty_chunk(self):
        chunk = DataChunk.empty([INTEGER, VARCHAR])
        assert chunk.size == 0
        assert chunk.types == [INTEGER, VARCHAR]
