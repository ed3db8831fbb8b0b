"""Compressible, spillable buffers for query intermediates.

This is the engine-level cooperation hook of the paper (§6, Figure 1):

*"we can also choose to compress temporary structures like hash tables in
memory with different compression algorithms. As the RAM usage of the
application increases, the DBMS chooses first lightweight compression to
reduce its memory footprint at the expense of extra CPU cycles [then] a
heavy compression algorithm that will further reduce the memory
footprint."*

Blocking operators buffer their input through a :class:`ChunkBuffer`:
hash join builds, sorts and DISTINCT their whole input, grouped
aggregation its input chunks one morsel-sized batch at a time.  On every append the buffer asks the reactive controller for the
current :class:`CompressionLevel` and encodes the chunk accordingly; memory is accounted against the buffer manager, and
when even HEAVY compression cannot fit the limit the buffer spills whole
chunks to a temporary file (the out-of-core path).
"""

from __future__ import annotations

import os
import struct
import tempfile
from typing import Iterator, List, Optional, Tuple

from ..storage.compression import (CompressionLevel, decode_vector,
                                   encode_vector)
from ..types import DataChunk, LogicalType, Vector

__all__ = ["ChunkBuffer"]


class _CompressedChunk:
    """One buffered chunk: raw, compressed, or spilled to disk."""

    __slots__ = ("row_count", "payloads", "level", "raw", "spill_offset", "nbytes")

    def __init__(self) -> None:
        self.row_count = 0
        self.payloads: Optional[List[Tuple[bytes, bytes]]] = None
        self.level = CompressionLevel.NONE
        self.raw: Optional[DataChunk] = None
        self.spill_offset: Optional[int] = None
        self.nbytes = 0


class ChunkBuffer:
    """An append-then-scan chunk container with adaptive compression."""

    def __init__(self, types: List[LogicalType], context=None,
                 description: str = "intermediate") -> None:
        self.types = list(types)
        self.context = context
        self.description = description
        self._chunks: List[_CompressedChunk] = []
        self._reserved = 0
        self._spill_file = None
        self.row_count = 0
        #: Statistics for the Figure 1 / C6 experiments.
        self.compressed_appends = 0
        self.spilled_chunks = 0

    # -- policy -------------------------------------------------------------
    def _current_level(self) -> CompressionLevel:
        if self.context is not None and self.context.controller is not None:
            return self.context.controller.compression_level()
        return CompressionLevel.NONE

    def _buffer_manager(self):
        return self.context.buffer_manager if self.context is not None else None

    # -- append ----------------------------------------------------------------
    def append(self, chunk: DataChunk) -> None:
        if chunk.size == 0:
            return
        level = self._current_level()
        entry = _CompressedChunk()
        entry.row_count = chunk.size
        if level is CompressionLevel.NONE:
            entry.raw = chunk
            entry.nbytes = chunk.nbytes()
        else:
            entry.level = level
            entry.payloads = [encode_vector(vector, level)
                              for vector in chunk.columns]
            entry.nbytes = sum(len(data) + len(validity)
                               for data, validity in entry.payloads)
            self.compressed_appends += 1
        manager = self._buffer_manager()
        if manager is not None:
            if not manager.can_reserve(entry.nbytes):
                # Last resort: spill the chunk to disk (out-of-core path).
                self._spill(entry, chunk)
            else:
                manager.reserve(entry.nbytes, self.description)
                self._reserved += entry.nbytes
        self._chunks.append(entry)
        self.row_count += entry.row_count

    def _spill(self, entry: _CompressedChunk, chunk: DataChunk) -> None:
        if self._spill_file is None:
            handle, path = tempfile.mkstemp(prefix="quackdb_spill_")
            os.close(handle)
            self._spill_file = open(path, "w+b")
            os.unlink(path)  # anonymous: vanishes when closed
        payloads = entry.payloads
        if payloads is None:
            payloads = [encode_vector(vector, CompressionLevel.LIGHT)
                        for vector in chunk.columns]
        self._spill_file.seek(0, os.SEEK_END)
        entry.spill_offset = self._spill_file.tell()
        for data, validity in payloads:
            self._spill_file.write(struct.pack("<QQ", len(data), len(validity)))
            self._spill_file.write(data)
            self._spill_file.write(validity)
        entry.payloads = None
        entry.raw = None
        entry.nbytes = 0
        self.spilled_chunks += 1

    # -- scan -----------------------------------------------------------------------
    def _decode(self, entry: _CompressedChunk) -> DataChunk:
        if entry.raw is not None:
            return entry.raw
        if entry.spill_offset is not None:
            self._spill_file.seek(entry.spill_offset)
            vectors = []
            for dtype in self.types:
                data_length, validity_length = struct.unpack(
                    "<QQ", self._spill_file.read(16))
                vectors.append(decode_vector(
                    dtype, self._spill_file.read(data_length),
                    self._spill_file.read(validity_length)))
            return DataChunk(vectors)
        return DataChunk([
            decode_vector(dtype, data_payload, validity_payload)
            for dtype, (data_payload, validity_payload)
            in zip(self.types, entry.payloads)])

    def scan(self) -> Iterator[DataChunk]:
        """Yield the buffered chunks in insertion order (decompressing)."""
        for entry in self._chunks:
            yield self._decode(entry)

    def materialize(self) -> DataChunk:
        """All buffered rows as one chunk (empty chunk when no rows)."""
        chunks = [self._decode(entry) for entry in self._chunks]
        chunks = [chunk for chunk in chunks if chunk.size]
        if not chunks:
            return DataChunk([Vector.empty(dtype, 0) for dtype in self.types])
        if len(chunks) == 1:
            return chunks[0]
        return DataChunk.concat_many(chunks)

    def memory_bytes(self) -> int:
        return sum(entry.nbytes for entry in self._chunks)

    def close(self) -> None:
        """Release every buffered chunk; the buffer is empty and reusable."""
        manager = self._buffer_manager()
        if manager is not None and self._reserved:
            manager.release(self._reserved)
            self._reserved = 0
        if self._spill_file is not None:
            self._spill_file.close()
            self._spill_file = None
        self._chunks = []
        self.row_count = 0

    def __enter__(self) -> "ChunkBuffer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
