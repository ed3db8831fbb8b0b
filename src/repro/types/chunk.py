"""DataChunk: a horizontal slice of a table, intermediate, or result set.

The paper (Section 6): *"A chunk is a horizontal subset of a result set,
query intermediate or base table. The chunk consists of a set of column
slices."*  Chunks are what flows between operators in the Vector Volcano
model and what is handed to the client application without copying.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InternalError
from .logical import LogicalType
from .vector import VECTOR_SIZE, Vector

__all__ = ["DataChunk"]


class DataChunk:
    """An ordered collection of equal-length :class:`Vector` columns."""

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[Vector]):
        columns = list(columns)
        if columns:
            count = len(columns[0])
            for column in columns[1:]:
                if len(column) != count:
                    raise InternalError(
                        f"DataChunk columns of differing lengths: {count} vs {len(column)}"
                    )
        self.columns = columns

    # -- constructors ----------------------------------------------------
    @classmethod
    def empty(cls, types: Sequence[LogicalType]) -> "DataChunk":
        return cls([Vector.empty(dtype, 0) for dtype in types])

    @classmethod
    def from_pylists(cls, columns: Sequence[Sequence[Any]],
                     types: Optional[Sequence[Optional[LogicalType]]] = None) -> "DataChunk":
        """Build a chunk from per-column lists of Python values."""
        if types is None:
            types = [None] * len(columns)
        return cls([
            Vector.from_values(values, dtype)
            for values, dtype in zip(columns, types)
        ])

    @classmethod
    def from_numpy(cls, arrays: Sequence[np.ndarray], types: Sequence[LogicalType],
                   validities: Optional[Sequence[Optional[np.ndarray]]] = None) -> "DataChunk":
        """Wrap NumPy arrays as a chunk without copying."""
        if validities is None:
            validities = [None] * len(arrays)
        return cls([
            Vector.from_numpy(array, dtype, validity)
            for array, dtype, validity in zip(arrays, types, validities)
        ])

    # -- accessors ---------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of rows in the chunk."""
        return len(self.columns[0]) if self.columns else 0

    @property
    def column_count(self) -> int:
        return len(self.columns)

    @property
    def types(self) -> List[LogicalType]:
        return [column.dtype for column in self.columns]

    def __len__(self) -> int:
        return self.size

    def row(self, index: int) -> Tuple[Any, ...]:
        """One row as a tuple of Python values."""
        return tuple(column.get_value(index) for column in self.columns)

    def to_rows(self) -> List[Tuple[Any, ...]]:
        """Materialize the chunk as a list of row tuples."""
        per_column = [column.to_pylist() for column in self.columns]
        return list(zip(*per_column)) if per_column else []

    def to_pydict(self, names: Sequence[str]) -> Dict[str, List[Any]]:
        """Materialize as ``{column_name: [values]}``."""
        return {name: column.to_pylist() for name, column in zip(names, self.columns)}

    # -- transformations ----------------------------------------------------
    def slice(self, selection: np.ndarray) -> "DataChunk":
        """Rows selected by an index array or boolean mask, applied to all columns."""
        return DataChunk([column.slice(selection) for column in self.columns])

    def copy(self) -> "DataChunk":
        return DataChunk([column.copy() for column in self.columns])

    def flatten(self) -> "DataChunk":
        """Decode every dictionary-coded column in place; returns self."""
        for column in self.columns:
            column.flatten()
        return self

    def project(self, indices: Sequence[int]) -> "DataChunk":
        """A chunk containing only the given column positions (no copying)."""
        return DataChunk([self.columns[index] for index in indices])

    @classmethod
    def concat_many(cls, chunks: Iterable["DataChunk"]) -> "DataChunk":
        """Vertically concatenate same-schema chunks into one large chunk."""
        chunks = [chunk for chunk in chunks if chunk.size or chunk.columns]
        if not chunks:
            raise InternalError("concat_many of zero chunks")
        column_count = chunks[0].column_count
        for chunk in chunks:
            if chunk.column_count != column_count:
                raise InternalError("concat_many of chunks with differing column counts")
        return cls([
            Vector.concat_many([chunk.columns[position] for chunk in chunks])
            for position in range(column_count)
        ])

    def split(self, chunk_size: int = VECTOR_SIZE) -> Iterable["DataChunk"]:
        """Yield this chunk in pieces of at most ``chunk_size`` rows: views
        of its arrays, not copies (callers split results they are done with)."""
        for start in range(0, self.size, chunk_size):
            yield self.slice(slice(start, start + chunk_size))

    def nbytes(self) -> int:
        """Approximate memory footprint of all columns."""
        return sum(column.nbytes() for column in self.columns)

    def __repr__(self) -> str:
        types = ", ".join(str(dtype) for dtype in self.types)
        return f"DataChunk({self.size} rows x [{types}])"
