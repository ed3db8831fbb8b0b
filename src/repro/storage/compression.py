"""Compression codecs for column segments and query intermediates.

Two roles, both from the paper:

* **storage** -- column segments are compressed inside 256 KiB blocks;
* **cooperation (Figure 1)** -- under memory pressure the reactive controller
  re-compresses *in-memory intermediates* (hash tables, sort runs) first with
  a lightweight codec, then with a heavy one, trading CPU cycles for RAM.

Codec taxonomy follows the paper's "no / light / heavy" levels:

========  ======================  =========================================
Level     Codec                    Characteristics
========  ======================  =========================================
NONE      :class:`NoneCodec`      memcpy; zero CPU cost, zero savings
LIGHT     :class:`RleCodec`,      one cheap NumPy pass; good on repetitive
          :class:`DictionaryCodec`, data (sorted keys, categorical strings)
          :class:`BitPackCodec`
HEAVY     :class:`ZlibCodec`      general-purpose entropy coding; highest
                                  ratio, highest CPU cost
========  ======================  =========================================

Each codec converts a NumPy array to bytes and back.  VARCHAR is written at
every level as a *string dictionary*: the distinct strings of the segment or
WAL chunk once, plus one width-reduced code per row -- the on-disk twin of
the in-memory representation (:mod:`repro.types.dictionary`), so a coded
vector is serialized without visiting a string per row.  The length-prefixed
``STRINGS`` codecs of earlier files are still decoded.  All payloads are
self-describing: :func:`decode_array` only needs the bytes.
"""

from __future__ import annotations

import enum
import struct
import zlib
from typing import Optional, Tuple

import numpy as np

from ..errors import CorruptionError, InternalError
from ..types import LogicalType, StringDictionary, Vector

__all__ = [
    "CompressionLevel",
    "CompressionType",
    "encode_array",
    "decode_array",
    "encode_vector",
    "decode_vector",
    "best_codec_for",
]


class CompressionLevel(enum.IntEnum):
    """The three reactive compression levels of Figure 1."""

    NONE = 0
    LIGHT = 1
    HEAVY = 2


class CompressionType(enum.IntEnum):
    """On-wire codec identifiers (stored in the segment header)."""

    RAW = 0
    RLE = 1
    DICTIONARY = 2
    BITPACK = 3
    ZLIB = 4
    STRINGS = 5        # length-prefixed UTF-8, uncompressed (read only)
    STRINGS_ZLIB = 6   # length-prefixed UTF-8, zlib-compressed (read only)
    STRING_DICT = 7    # distinct strings once + width-reduced codes


_HEADER = struct.Struct("<BBQ")  # codec, dtype code, element count

_DTYPE_CODES = {
    np.dtype(np.bool_): 0,
    np.dtype(np.int8): 1,
    np.dtype(np.int16): 2,
    np.dtype(np.int32): 3,
    np.dtype(np.int64): 4,
    np.dtype(np.float32): 5,
    np.dtype(np.float64): 6,
    np.dtype(object): 7,
    np.dtype(np.uint8): 8,
    np.dtype(np.uint32): 9,
    np.dtype(np.uint64): 10,
}
_CODES_DTYPE = {code: dtype for dtype, code in _DTYPE_CODES.items()}


def _decode_strings(payload: bytes, count: int) -> np.ndarray:
    """The legacy length-prefixed UTF-8 layout; None encoded as length -1."""
    out = np.empty(count, dtype=object)
    offset = 0
    for index in range(count):
        (length,) = struct.unpack_from("<i", payload, offset)
        offset += 4
        if length < 0:
            out[index] = None
        else:
            out[index] = payload[offset:offset + length].decode("utf-8")
            offset += length
    return out


#: Bytes per stored string code -> its dtype; the narrowest that fits wins.
_CODE_WIDTHS = {1: np.dtype("<u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4")}


def _encode_string_dictionary(codes: np.ndarray, dictionary: StringDictionary,
                              level: CompressionLevel) -> bytes:
    """A complete ``STRING_DICT`` payload for ``codes`` of ``dictionary``.

    After the header: a flag byte (1 = the rest is zlib-compressed), the
    entry count, the entries' UTF-8 byte lengths, their concatenated bytes,
    the code width in bytes, and the codes.  Only entries the codes
    reference are written, renumbered from 1; code 0 stays NULL.
    """
    header = _HEADER.pack(CompressionType.STRING_DICT,
                          _DTYPE_CODES[np.dtype(object)], len(codes))
    local, codes = dictionary.referenced(codes)
    raw = [entry.encode("utf-8") for entry in local.entries(1)]
    width = next(width for width, dtype in _CODE_WIDTHS.items()
                 if len(raw) <= np.iinfo(dtype).max)
    body = b"".join([
        struct.pack("<I", len(raw)),
        np.fromiter(map(len, raw), dtype="<u4", count=len(raw)).tobytes(),
        b"".join(raw),
        struct.pack("<B", width),
        codes.astype(_CODE_WIDTHS[width]).tobytes(),
    ])
    if level is CompressionLevel.HEAVY:
        return header + b"\x01" + zlib.compress(body, 6)
    return header + b"\x00" + body


def _decode_string_dictionary(payload: bytes
                              ) -> Tuple[np.ndarray, StringDictionary]:
    """Codes and a private dictionary from a ``STRING_DICT`` payload."""
    try:
        _, _, count = _HEADER.unpack_from(payload, 0)
        body = payload[_HEADER.size + 1:]
        if payload[_HEADER.size] == 1:
            body = zlib.decompress(body)
        (entry_count,) = struct.unpack_from("<I", body, 0)
        ends = np.cumsum(np.frombuffer(body, dtype="<u4", count=entry_count,
                                       offset=4), dtype=np.int64).tolist()
        offset = 4 + 4 * entry_count
        blob = body[offset:offset + (ends[-1] if ends else 0)]
        offset += len(blob)
        entries = [blob[start:end].decode("utf-8")
                   for start, end in zip([0] + ends, ends)]
        (width,) = struct.unpack_from("<B", body, offset)
        codes = np.frombuffer(body, dtype=_CODE_WIDTHS[width], count=count,
                              offset=offset + 1).astype(np.int32)
    except (ValueError, LookupError, struct.error, zlib.error) as exc:
        raise CorruptionError(f"Segment payload is corrupted: {exc}") from None
    if (ends and len(blob) != ends[-1]) \
            or (count and int(codes.max()) > entry_count):
        raise CorruptionError("String dictionary payload is inconsistent")
    return codes, StringDictionary(entries)


def _rle_encode(array: np.ndarray) -> Optional[bytes]:
    """Run-length encode; returns None when RLE would not shrink the data."""
    if len(array) == 0:
        return struct.pack("<Q", 0)
    changes = np.flatnonzero(array[1:] != array[:-1]) + 1
    starts = np.concatenate([[0], changes])
    if starts.size * (array.itemsize + 8) >= array.nbytes:
        return None
    run_values = array[starts]
    run_lengths = np.diff(np.concatenate([starts, [len(array)]])).astype(np.uint64)
    return (struct.pack("<Q", starts.size)
            + run_lengths.tobytes()
            + run_values.tobytes())


def _rle_decode(payload: bytes, dtype: np.dtype, count: int) -> np.ndarray:
    (runs,) = struct.unpack_from("<Q", payload, 0)
    offset = 8
    lengths = np.frombuffer(payload, dtype=np.uint64, count=runs, offset=offset)
    offset += runs * 8
    values = np.frombuffer(payload, dtype=dtype, count=runs, offset=offset)
    out = np.repeat(values, lengths.astype(np.int64))
    if len(out) != count:
        raise CorruptionError("RLE payload decodes to wrong element count")
    return out


def _dictionary_encode(array: np.ndarray) -> Optional[bytes]:
    """Dictionary encoding for integer arrays with few distinct values."""
    unique, inverse = np.unique(array, return_inverse=True)
    if unique.size > 255 or unique.size * array.itemsize + len(array) >= array.nbytes:
        return None
    codes = inverse.astype(np.uint8)
    return (struct.pack("<H", unique.size)
            + unique.tobytes()
            + codes.tobytes())


def _dictionary_decode(payload: bytes, dtype: np.dtype, count: int) -> np.ndarray:
    (size,) = struct.unpack_from("<H", payload, 0)
    offset = 2
    unique = np.frombuffer(payload, dtype=dtype, count=size, offset=offset)
    offset += size * dtype.itemsize
    codes = np.frombuffer(payload, dtype=np.uint8, count=count, offset=offset)
    return unique[codes]


def _bitpack_encode(array: np.ndarray) -> Optional[bytes]:
    """Frame-of-reference + width reduction for integer arrays."""
    if array.size == 0 or array.dtype.kind != "i":
        return None
    low = int(array.min())
    high = int(array.max())
    span = high - low
    for candidate, code in ((np.uint8, 0), (np.uint16, 1), (np.uint32, 2)):
        if span <= np.iinfo(candidate).max:
            if np.dtype(candidate).itemsize >= array.itemsize:
                return None
            packed = (array.astype(np.int64) - low).astype(candidate)
            return struct.pack("<qB", low, code) + packed.tobytes()
    return None


def _bitpack_decode(payload: bytes, dtype: np.dtype, count: int) -> np.ndarray:
    low, code = struct.unpack_from("<qB", payload, 0)
    packed_dtype = (np.uint8, np.uint16, np.uint32)[code]
    packed = np.frombuffer(payload, dtype=packed_dtype, count=count, offset=9)
    return (packed.astype(np.int64) + low).astype(dtype)


def encode_array(array: np.ndarray, level: CompressionLevel = CompressionLevel.NONE) -> bytes:
    """Serialize an array at the given compression level.

    LIGHT tries RLE, then dictionary, then bit-packing, keeping the first
    that actually shrinks the payload; HEAVY additionally zlib-compresses.
    The result always round-trips through :func:`decode_array`.
    """
    dtype_code = _DTYPE_CODES.get(array.dtype)
    if dtype_code is None:
        raise InternalError(f"Cannot serialize arrays of dtype {array.dtype}")
    count = len(array)

    if array.dtype == object:
        dictionary = StringDictionary()
        return _encode_string_dictionary(dictionary.encode(array), dictionary,
                                         level)

    contiguous = np.ascontiguousarray(array)
    if level is CompressionLevel.NONE:
        return _HEADER.pack(CompressionType.RAW, dtype_code, count) + contiguous.tobytes()

    if level is CompressionLevel.LIGHT:
        rle = _rle_encode(contiguous)
        if rle is not None:
            return _HEADER.pack(CompressionType.RLE, dtype_code, count) + rle
        if contiguous.dtype.kind == "i":
            packed = _dictionary_encode(contiguous)
            if packed is not None:
                return _HEADER.pack(CompressionType.DICTIONARY, dtype_code, count) + packed
            packed = _bitpack_encode(contiguous)
            if packed is not None:
                return _HEADER.pack(CompressionType.BITPACK, dtype_code, count) + packed
        return _HEADER.pack(CompressionType.RAW, dtype_code, count) + contiguous.tobytes()

    if level is CompressionLevel.HEAVY:
        # HEAVY means "spend the CPU, get the smallest": take the better of
        # the zlib encoding and the best lightweight encoding.
        heavy = _HEADER.pack(CompressionType.ZLIB, dtype_code, count) \
            + zlib.compress(contiguous.tobytes(), 6)
        light = encode_array(contiguous, CompressionLevel.LIGHT)
        return heavy if len(heavy) <= len(light) else light

    raise InternalError(f"Unknown compression level {level!r}")


def decode_array(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_array`; raises CorruptionError on bad data."""
    if len(payload) < _HEADER.size:
        raise CorruptionError("Compressed segment shorter than its header")
    codec_code, dtype_code, count = _HEADER.unpack_from(payload, 0)
    body = payload[_HEADER.size:]
    dtype = _CODES_DTYPE.get(dtype_code)
    if dtype is None:
        raise CorruptionError(f"Unknown dtype code {dtype_code} in segment header")
    try:
        codec = CompressionType(codec_code)
    except ValueError:
        raise CorruptionError(f"Unknown codec code {codec_code} in segment header") from None

    try:
        if codec is CompressionType.RAW:
            return np.frombuffer(body, dtype=dtype, count=count).copy()
        if codec is CompressionType.RLE:
            return _rle_decode(body, dtype, count)
        if codec is CompressionType.DICTIONARY:
            return _dictionary_decode(body, dtype, count).copy()
        if codec is CompressionType.BITPACK:
            return _bitpack_decode(body, dtype, count)
        if codec is CompressionType.ZLIB:
            raw = zlib.decompress(body)
            return np.frombuffer(raw, dtype=dtype, count=count).copy()
        if codec is CompressionType.STRINGS:
            return _decode_strings(body, count)
        if codec is CompressionType.STRINGS_ZLIB:
            return _decode_strings(zlib.decompress(body), count)
        if codec is CompressionType.STRING_DICT:
            codes, dictionary = _decode_string_dictionary(payload)
            return dictionary.take(codes)
    except (ValueError, struct.error, zlib.error) as exc:
        raise CorruptionError(f"Segment payload is corrupted: {exc}") from None
    raise InternalError(f"Unhandled codec {codec}")


def encode_vector(vector: Vector, level: CompressionLevel = CompressionLevel.NONE
                  ) -> Tuple[bytes, bytes]:
    """``(data payload, validity payload)`` of one vector.

    A coded VARCHAR vector goes straight from its codes to the string
    dictionary codec; everything else is :func:`encode_array` of ``.data``.
    """
    if vector.codes is None:
        data = encode_array(vector.data, level)
    else:
        data = _encode_string_dictionary(vector.codes, vector.dictionary,
                                         level)
    return data, encode_array(vector.validity, level)


def decode_vector(dtype: LogicalType, data_payload: bytes,
                  validity_payload: bytes) -> Vector:
    """Inverse of :func:`encode_vector`; a ``STRING_DICT`` payload comes back
    as a coded vector over a private dictionary, never flattened."""
    validity = decode_array(validity_payload).astype(np.bool_)
    if data_payload[:1] == bytes([CompressionType.STRING_DICT]):
        codes, dictionary = _decode_string_dictionary(data_payload)
        if len(codes) == len(validity):
            return Vector.from_codes(codes, dictionary, validity)
    else:
        data = decode_array(data_payload)
        if len(data) == len(validity):
            return Vector(dtype, data, validity)
    raise CorruptionError("Vector payload length mismatch")


def best_codec_for(array: np.ndarray, level: CompressionLevel) -> Tuple[bytes, float]:
    """Encode and report the achieved compression ratio (orig/encoded)."""
    encoded = encode_array(array, level)
    if array.dtype == object:
        # What the flat layout costs: a length prefix plus UTF-8 per value.
        original = sum(4 + (len(str(value).encode("utf-8"))
                            if value is not None else 0) for value in array)
    else:
        original = array.nbytes
    return encoded, max(original, 1) / max(len(encoded), 1)
