"""Simulated client-server protocol: the transfer-efficiency baseline.

Paper §5: *"Serialization traditionally occurs due to the need to transfer
a result set to a client program over a network connection. ... data
transfer over a network socket to another computer is limited by the
available bandwidth, e.g. 1 Gbit/s."*

This module implements that classic path faithfully enough to measure its
cost: result rows are serialized into a length-prefixed binary wire format
(one value at a time, as real row-oriented protocols do), "sent" through a
bandwidth/latency model, and deserialized on the "client" side back into
Python rows.  The serialization and deserialization CPU work is real; only
the wire itself is simulated, with the transfer time reported separately so
experiments can combine them for any assumed link speed.
"""

from __future__ import annotations

import struct
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from .connection import Connection

from ..errors import InvalidInputError
from ..types import DataChunk, LogicalType, LogicalTypeId

__all__ = ["serialize_result", "deserialize_result", "SocketProtocolClient",
           "GIGABIT_PER_SECOND"]

#: Bytes per second of a 1 Gbit/s link (the paper's example bandwidth).
GIGABIT_PER_SECOND = 125_000_000


def _serialize_value(dtype: LogicalType, value: Any, out: List[bytes]) -> None:
    """Length-prefixed, row-major value serialization (the classic design)."""
    if value is None:
        out.append(struct.pack("<i", -1))
        return
    type_id = dtype.id
    if type_id is LogicalTypeId.VARCHAR:
        raw = value.encode("utf-8")
    elif type_id is LogicalTypeId.BOOLEAN:
        raw = struct.pack("<B", 1 if value else 0)
    elif dtype.is_integer():
        raw = struct.pack("<q", int(value))
    elif dtype.is_float():
        raw = struct.pack("<d", float(value))
    elif type_id is LogicalTypeId.DATE:
        raw = value.isoformat().encode("utf-8")
    elif type_id is LogicalTypeId.TIMESTAMP:
        raw = value.isoformat(sep=" ").encode("utf-8")
    else:
        raise InvalidInputError(f"Cannot serialize values of type {dtype}")
    out.append(struct.pack("<i", len(raw)))
    out.append(raw)


def serialize_result(chunks: Iterable[DataChunk],
                     types: Sequence[LogicalType]) -> bytes:
    """Serialize result chunks into a row-major byte stream."""
    out: List[bytes] = [struct.pack("<I", len(types))]
    row_count = 0
    for chunk in chunks:
        for row_index in range(chunk.size):  # quacklint: disable=QLV003 -- the C3 socket baseline: a row-major wire format serialises value by value on purpose
            for column, dtype in zip(chunk.columns, types):
                _serialize_value(dtype, column.get_value(row_index), out)
            row_count += 1
    out.insert(1, struct.pack("<Q", row_count))
    return b"".join(out)


def _deserialize_value(dtype: LogicalType, payload: bytes,
                       offset: int) -> Tuple[Any, int]:
    (length,) = struct.unpack_from("<i", payload, offset)
    offset += 4
    if length < 0:
        return None, offset
    raw = payload[offset:offset + length]
    offset += length
    type_id = dtype.id
    if type_id is LogicalTypeId.VARCHAR:
        return raw.decode("utf-8"), offset
    if type_id is LogicalTypeId.BOOLEAN:
        return raw != b"\x00", offset
    if dtype.is_integer():
        return struct.unpack("<q", raw)[0], offset
    if dtype.is_float():
        return struct.unpack("<d", raw)[0], offset
    if type_id is LogicalTypeId.DATE:
        import datetime

        return datetime.date.fromisoformat(raw.decode("utf-8")), offset
    if type_id is LogicalTypeId.TIMESTAMP:
        import datetime

        return datetime.datetime.fromisoformat(raw.decode("utf-8")), offset
    raise InvalidInputError(f"Cannot deserialize values of type {dtype}")


def deserialize_result(payload: bytes,
                       types: Sequence[LogicalType]) -> List[Tuple[Any, ...]]:
    """Parse the wire stream back into Python rows (the client's work)."""
    (column_count,) = struct.unpack_from("<I", payload, 0)
    (row_count,) = struct.unpack_from("<Q", payload, 4)
    if column_count != len(types):
        raise InvalidInputError("Wire stream column count mismatch")
    offset = 12
    rows: List[Tuple[Any, ...]] = []
    for _ in range(row_count):
        row: List[Any] = []
        for dtype in types:
            value, offset = _deserialize_value(types[len(row)], payload, offset)
            row.append(value)
        rows.append(tuple(row))
    return rows


class SocketProtocolClient:
    """Runs queries through the simulated serializing client protocol.

    ``bandwidth`` models the link (bytes/second); ``latency`` the per-query
    round trip.  ``execute`` returns the fully deserialized rows plus a
    stats dict: real serialization/deserialization seconds and the simulated
    wire seconds for the configured link.
    """

    def __init__(self, connection: "Connection",
                 bandwidth: int = GIGABIT_PER_SECOND,
                 latency: float = 0.0005) -> None:
        self._connection = connection
        self.bandwidth = bandwidth
        self.latency = latency

    def execute(self, sql: str, parameters: Optional[Sequence[Any]] = None,
                ) -> Tuple[List[Tuple[Any, ...]], Dict[str, Any]]:
        import time

        result = self._connection.execute(sql, parameters, stream=True)
        start = time.perf_counter()
        payload = serialize_result(result.chunks(), result.types)
        serialize_seconds = time.perf_counter() - start
        result.close()

        wire_seconds = self.latency + len(payload) / self.bandwidth

        start = time.perf_counter()
        rows = deserialize_result(payload, result.types)
        deserialize_seconds = time.perf_counter() - start
        stats = {
            "bytes_transferred": len(payload),
            "serialize_seconds": serialize_seconds,
            "deserialize_seconds": deserialize_seconds,
            "simulated_wire_seconds": wire_seconds,
            "total_seconds": serialize_seconds + deserialize_seconds + wire_seconds,
        }
        return rows, stats
