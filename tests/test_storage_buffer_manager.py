"""Buffer manager tests: accounting, OOM, eviction, memtest quarantine."""

import numpy as np
import pytest

from repro.config import DatabaseConfig
from repro.errors import OutOfMemoryError
from repro.resilience.faults import FaultyMemory
from repro.storage.buffer_manager import BufferManager


def manager(limit=1 << 20, **options):
    config = DatabaseConfig(memory_limit=limit, **options)
    return BufferManager(config)


class TestAccounting:
    def test_reserve_release(self):
        buffers = manager()
        buffers.reserve(1000, "test")
        assert buffers.used_bytes == 1000
        buffers.release(1000)
        assert buffers.used_bytes == 0

    def test_over_limit_raises(self):
        buffers = manager(limit=1000)
        with pytest.raises(OutOfMemoryError):
            buffers.reserve(2000, "too much")

    def test_error_mentions_description_and_pragma(self):
        buffers = manager(limit=1000)
        with pytest.raises(OutOfMemoryError, match="hash table"):
            buffers.reserve(5000, "hash table")
        with pytest.raises(OutOfMemoryError, match="memory_limit"):
            buffers.reserve(5000, "x")

    def test_peak_tracking(self):
        buffers = manager()
        buffers.reserve(500, "a")
        buffers.reserve(300, "b")
        buffers.release(800)
        assert buffers.peak_bytes == 800
        assert buffers.used_bytes == 0

    def test_pressure(self):
        buffers = manager(limit=1000)
        buffers.reserve(500, "x")
        assert buffers.memory_pressure() == pytest.approx(0.5)

    def test_can_reserve(self):
        buffers = manager(limit=1000)
        assert buffers.can_reserve(1000)
        buffers.reserve(800, "x")
        assert not buffers.can_reserve(300)


class TestBufferAllocation:
    def test_allocate_and_free(self):
        buffers = manager()
        buffer = buffers.allocate_buffer(4096)
        assert buffer.size == 4096
        assert (buffer.array == 0).all()
        assert buffers.used_bytes == 4096
        buffer.release()
        assert buffers.used_bytes == 0

    def test_buffers_are_writable(self):
        buffers = manager()
        buffer = buffers.allocate_buffer(128)
        buffer.array[:] = 7
        assert (buffer.array == 7).all()

    def test_allocation_respects_limit(self):
        buffers = manager(limit=10_000)
        with pytest.raises(OutOfMemoryError):
            buffers.allocate_buffer(20_000)
        assert buffers.used_bytes == 0  # failed allocation fully released

    def test_double_free_is_harmless(self):
        buffers = manager()
        buffer = buffers.allocate_buffer(100)
        buffer.release()
        buffer.release()
        assert buffers.used_bytes == 0


class TestMemtestIntegration:
    def test_healthy_arena_passes(self):
        buffers = BufferManager(DatabaseConfig(buffer_memtest=True))
        buffer = buffers.allocate_buffer(2048)
        assert buffer.size == 2048
        assert buffers.memtest_reports
        assert buffers.memtest_reports[-1].passed
        assert not buffers.quarantined

    def test_faulty_region_quarantined_and_avoided(self):
        """Paper §3: find broken regions and avoid using them."""
        arena = FaultyMemory(1 << 16, seed=1)
        arena.inject_stuck_region(2048, 1024, faults_per_kib=16)
        config = DatabaseConfig(buffer_memtest=True)
        buffers = BufferManager(config, arena=arena)
        allocated = [buffers.allocate_buffer(2048) for _ in range(4)]
        assert buffers.quarantined  # the bad region was found
        bad_ranges = buffers.quarantined
        for buffer in allocated:
            for bad_start, bad_end in bad_ranges:
                overlap = (buffer.arena_offset < bad_end
                           and bad_start < buffer.arena_offset + buffer.size)
                assert not overlap, "allocation overlaps quarantined range"

    def test_memtest_disabled_hands_out_faulty_memory(self):
        arena = FaultyMemory(1 << 16, seed=1)
        arena.inject_stuck_region(0, 4096, faults_per_kib=16)
        buffers = BufferManager(DatabaseConfig(buffer_memtest=False), arena=arena)
        buffer = buffers.allocate_buffer(2048)
        # Without memtests the engine blindly uses the broken region.
        assert buffer.arena_offset < 4096

    def test_periodic_retest_detects_new_faults(self):
        arena = FaultyMemory(1 << 16, seed=2)
        buffers = BufferManager(DatabaseConfig(buffer_memtest=True), arena=arena)
        buffer = buffers.allocate_buffer(4096)
        assert buffers.retest_buffers() == []  # healthy so far
        # Memory degrades at run time (the paper's aging-hardware scenario).
        arena.inject_stuck_bit(buffer.arena_offset + 100, bit=3, value=1)
        failing = buffers.retest_buffers()
        assert len(failing) == 1
        assert not failing[0].passed


class TestBlockCache:
    def test_cache_round_trip(self):
        buffers = manager()
        buffers.cache_block(1, b"payload one")
        assert buffers.get_cached_block(1) == b"payload one"
        assert buffers.get_cached_block(2) is None

    def test_lru_eviction_under_budget(self):
        buffers = manager(limit=4000)  # cache budget = 1000 bytes
        buffers.cache_block(1, b"a" * 400)
        buffers.cache_block(2, b"b" * 400)
        buffers.cache_block(3, b"c" * 400)  # evicts block 1
        assert buffers.get_cached_block(1) is None
        assert buffers.get_cached_block(3) is not None

    def test_access_refreshes_lru(self):
        buffers = manager(limit=4000)
        buffers.cache_block(1, b"a" * 400)
        buffers.cache_block(2, b"b" * 400)
        buffers.get_cached_block(1)  # freshen 1
        buffers.cache_block(3, b"c" * 400)  # evicts 2, not 1
        assert buffers.get_cached_block(1) is not None
        assert buffers.get_cached_block(2) is None

    def test_invalidate(self):
        buffers = manager()
        buffers.cache_block(1, b"x")
        buffers.invalidate_cache()
        assert buffers.get_cached_block(1) is None

    def test_reserve_evicts_cache_first(self):
        buffers = manager(limit=1000)
        buffers.cache_block(1, b"a" * 200)
        buffers.reserve(900, "big")  # must evict the cached block
        assert buffers.used_bytes == 900
        assert buffers.get_cached_block(1) is None

    def test_stats(self):
        buffers = manager()
        buffers.reserve(100, "x")
        stats = buffers.stats()
        assert stats["used_bytes"] == 100
        assert stats["memory_limit"] == 1 << 20
