"""Buffer manager: memory accounting, buffer allocation, and memtests.

Three of the paper's requirements meet here:

* **Cooperation (§4)** -- the buffer manager enforces the configured
  ``memory_limit``.  Every sizable allocation (block cache entries, hash
  tables, sort runs) is registered; exceeding the limit either evicts cached
  blocks, signals operators to spill, or raises
  :class:`~repro.errors.OutOfMemoryError`.  The current pressure ratio feeds
  the reactive controller of Figure 1.
* **Resilience (§6)** -- when ``buffer_memtest`` is enabled, every freshly
  allocated buffer is swept with the moving-inversions test *before use*,
  and regions that fail are quarantined and never handed out again
  ("figuring out which areas are broken and avoiding the use of those
  memory areas").
* **Storage** -- a small LRU cache of verified file blocks sits in front of
  the :class:`~repro.storage.block_file.BlockFile`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import DatabaseConfig
from ..errors import MemoryFaultError, OutOfMemoryError
from ..sanitizer import SanRLock, tracked_access
from ..resilience.faults import PlainMemory
from ..resilience.memtest import MemtestReport, moving_inversions

__all__ = ["Buffer", "BufferManager"]


class Buffer:
    """A tracked allocation of raw memory handed to an operator."""

    __slots__ = ("buffer_id", "array", "arena_offset", "manager")

    def __init__(self, buffer_id: int, array: np.ndarray, arena_offset: int,
                 manager: "BufferManager") -> None:
        self.buffer_id = buffer_id
        self.array = array
        self.arena_offset = arena_offset
        self.manager = manager

    @property
    def size(self) -> int:
        return len(self.array)

    def release(self) -> None:
        self.manager.free_buffer(self)


class BufferManager:
    """Central allocator and accountant for all engine memory."""

    def __init__(self, config: DatabaseConfig, arena=None, arena_size: int = 0) -> None:
        self.config = config
        self._lock = SanRLock("buffer_manager")
        self._used = 0
        self._peak = 0
        self._next_buffer_id = 0
        self._buffers: Dict[int, Buffer] = {}
        #: Arena used for memtested buffer allocation.  Tests inject a
        #: FaultyMemory arena here; production uses lazily grown PlainMemory.
        self._arena = arena
        self._arena_size = arena_size if arena is None else arena.size
        self._arena_cursor = 0
        #: Quarantined arena ranges [(start, end)) that failed a memtest.
        self.quarantined: List[Tuple[int, int]] = []
        self.memtest_reports: List[MemtestReport] = []
        # Block cache: block id -> payload bytes, LRU order.
        self._block_cache: "OrderedDict[int, bytes]" = OrderedDict()
        self._block_cache_bytes = 0
        #: Cheap monotonic counters, read as this database's
        #: ``repro_block_cache_*`` metrics (see ``Database.metrics``).
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    # -- accounting -----------------------------------------------------------
    @property
    def memory_limit(self) -> int:
        return self.config.memory_limit

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def peak_bytes(self) -> int:
        return self._peak

    def memory_pressure(self) -> float:
        """Fraction of the memory limit currently in use (0.0 - 1.0+)."""
        return self._used / self.memory_limit if self.memory_limit else 0.0

    def reserve(self, nbytes: int, description: str = "allocation") -> None:
        """Account for ``nbytes``; evict cache or raise when over the limit."""
        with self._lock, tracked_access(("buffer_manager", id(self)), True,
                                        self._lock):
            total = self._used + self._block_cache_bytes + nbytes
            if total > self.memory_limit:
                self._evict_blocks_locked(total - self.memory_limit)
            if self._used + nbytes > self.memory_limit:
                raise OutOfMemoryError(
                    f"Cannot reserve {nbytes} bytes for {description}: "
                    f"{self._used} of {self.memory_limit} bytes already in use "
                    f"(set PRAGMA memory_limit to raise the cap)"
                )
            self._used += nbytes
            self._peak = max(self._peak, self._used)

    def release(self, nbytes: int) -> None:
        with self._lock, tracked_access(("buffer_manager", id(self)), True,
                                        self._lock):
            self._used = max(0, self._used - nbytes)

    def can_reserve(self, nbytes: int) -> bool:
        """Would a reservation of ``nbytes`` succeed right now (ignoring cache)?"""
        with self._lock:
            return self._used + nbytes <= self.memory_limit

    # -- memtested buffer allocation ---------------------------------------------
    def _ensure_arena_locked(self, nbytes: int) -> None:
        """Grow (or lazily create) the arena; caller must hold ``_lock``."""
        if self._arena is None:
            size = max(nbytes * 4, 1 << 20)
            self._arena = PlainMemory(size)
            self._arena_size = size
            self._arena_cursor = 0
        elif self._arena_cursor + nbytes > self._arena_size:
            if isinstance(self._arena, PlainMemory) and type(self._arena) is PlainMemory:
                # Healthy arenas can be grown; faulty test arenas are fixed.
                grown = PlainMemory(max(self._arena_size * 2, self._arena_cursor + nbytes))
                grown.data[: self._arena_size] = self._arena.data
                self._arena = grown
                self._arena_size = grown.size
            else:
                raise OutOfMemoryError("Buffer arena exhausted")

    def _overlaps_quarantine(self, start: int, end: int) -> bool:
        return any(start < q_end and q_start < end for q_start, q_end in self.quarantined)

    def allocate_buffer(self, nbytes: int, description: str = "buffer") -> Buffer:
        """Allocate a raw buffer, memtesting it first when configured.

        Regions that fail the moving-inversions sweep are quarantined and the
        allocation transparently retries on the next region; only when the
        arena cannot satisfy the request does the call fail.
        """
        self.reserve(nbytes, description)
        try:
            with self._lock:
                while True:
                    self._ensure_arena_locked(nbytes)
                    start = self._arena_cursor
                    end = start + nbytes
                    if self._overlaps_quarantine(start, end):
                        self._arena_cursor = end
                        continue
                    if self.config.buffer_memtest:
                        report = moving_inversions(self._arena, start, nbytes)
                        self.memtest_reports.append(report)
                        if not report.passed:
                            for bad_start, bad_end in report.bad_ranges(256):
                                self.quarantined.append((bad_start, bad_end))
                            self._arena_cursor = end
                            continue
                    self._arena_cursor = end
                    array = self._arena.view(start, nbytes)
                    array[:] = 0
                    buffer = Buffer(self._next_buffer_id, array, start, self)
                    self._next_buffer_id += 1
                    self._buffers[buffer.buffer_id] = buffer
                    return buffer
        except Exception:
            self.release(nbytes)
            raise

    def free_buffer(self, buffer: Buffer) -> None:
        with self._lock:
            if buffer.buffer_id in self._buffers:
                del self._buffers[buffer.buffer_id]
                self.release(buffer.size)

    def retest_buffers(self) -> List[MemtestReport]:
        """Periodic re-test of all live buffers ("periodically to detect new
        errors", §6).  Buffers whose region fails are NOT silently fixed --
        the caller gets the failing reports and must treat the contents as
        lost (raise, recompute, or re-read from storage)."""
        reports = []
        with self._lock:
            for buffer in list(self._buffers.values()):
                saved = self._arena.read(buffer.arena_offset, buffer.size)
                report = moving_inversions(self._arena, buffer.arena_offset, buffer.size)
                self._arena.write(buffer.arena_offset, saved)
                self.memtest_reports.append(report)
                if not report.passed:
                    for bad_start, bad_end in report.bad_ranges(256):
                        self.quarantined.append((bad_start, bad_end))
                    reports.append(report)
        return reports

    # -- block cache -----------------------------------------------------------
    def cache_block(self, block_id: int, payload: bytes) -> None:
        with self._lock:
            if block_id in self._block_cache:
                self._block_cache_bytes -= len(self._block_cache.pop(block_id))
            self._block_cache[block_id] = payload
            self._block_cache_bytes += len(payload)
            # The cache may use at most a quarter of the memory limit.
            budget = self.memory_limit // 4
            while self._block_cache_bytes > budget and self._block_cache:
                _, evicted = self._block_cache.popitem(last=False)
                self._block_cache_bytes -= len(evicted)
                self.cache_evictions += 1

    def get_cached_block(self, block_id: int) -> Optional[bytes]:
        with self._lock:
            payload = self._block_cache.get(block_id)
            if payload is not None:
                self._block_cache.move_to_end(block_id)
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            return payload

    def invalidate_cache(self) -> None:
        with self._lock:
            self._block_cache.clear()
            self._block_cache_bytes = 0

    def _evict_blocks_locked(self, needed: int) -> None:
        freed = 0
        while freed < needed and self._block_cache:
            _, evicted = self._block_cache.popitem(last=False)
            freed += len(evicted)
            self._block_cache_bytes -= len(evicted)
            self.cache_evictions += 1

    def stats(self) -> dict:
        """Snapshot of allocator state for monitoring and the controller."""
        with self._lock:
            return {
                "used_bytes": self._used,
                "peak_bytes": self._peak,
                "memory_limit": self.memory_limit,
                "pressure": self.memory_pressure(),
                "live_buffers": len(self._buffers),
                "block_cache_bytes": self._block_cache_bytes,
                "block_cache_hits": self.cache_hits,
                "block_cache_misses": self.cache_misses,
                "block_cache_evictions": self.cache_evictions,
                "quarantined_ranges": len(self.quarantined),
            }
