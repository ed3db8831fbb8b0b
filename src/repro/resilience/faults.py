"""Fault-injection memory: the simulated unreliable DRAM of the paper (§3).

The paper's resilience analysis assumes consumer hardware without ECC where
bits flip silently.  Since we (hopefully) run on working hardware, this
module *simulates* broken memory so the detection machinery -- moving
inversions memtests, AN codes, block checksums -- has something real to
detect.  Three fault classes from the paper / MemTest86 manual are modeled:

* **stuck-at faults** -- a cell always reads 0 (stuck-at-0) or 1
  (stuck-at-1) regardless of what was written; "often only specific areas
  of the RAM are broken whereas others function correctly".
* **coupling (disturb) faults** -- writing a cell flips a neighboring cell;
  "writing to a cell might flip a neighboring cell"; these are the
  intermittent, data-dependent errors plain pattern tests miss.
* **transient bit flips** -- random single-bit upsets at a configurable
  per-access probability (the DRAM rows of Table 1).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import InternalError, OutOfMemoryError

__all__ = ["FaultyMemory", "PlainMemory", "StuckBit", "CouplingFault"]


class StuckBit:
    """One stuck-at fault: ``(address, bit, value)``."""

    __slots__ = ("address", "bit", "value")

    def __init__(self, address: int, bit: int, value: int) -> None:
        if bit not in range(8) or value not in (0, 1):
            raise InternalError("StuckBit bit must be 0-7, value 0/1")
        self.address = address
        self.bit = bit
        self.value = value


class CouplingFault:
    """Writing ``aggressor`` flips ``victim``'s bit (a disturb fault)."""

    __slots__ = ("aggressor", "victim", "bit")

    def __init__(self, aggressor: int, victim: int, bit: int) -> None:
        self.aggressor = aggressor
        self.victim = victim
        self.bit = bit


class PlainMemory:
    """A healthy memory arena: the default provider for the buffer manager."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)

    def read(self, offset: int, count: int) -> np.ndarray:
        return self.data[offset:offset + count].copy()

    def write(self, offset: int, values: np.ndarray) -> None:
        self.data[offset:offset + len(values)] = values

    def view(self, offset: int, count: int) -> np.ndarray:
        """Zero-copy view handed to operators as buffer storage."""
        return self.data[offset:offset + count]


class FaultyMemory(PlainMemory):
    """A memory arena with injectable faults, accessed via read/write.

    ``read``/``write`` model the memory bus: stuck bits override writes and
    reads, coupling faults fire on aggressor writes, and transient flips
    occur per read with probability ``transient_flip_probability``.
    """

    def __init__(self, size: int, seed: int = 0,
                 transient_flip_probability: float = 0.0) -> None:
        super().__init__(size)
        self._rng = np.random.default_rng(seed)
        self.transient_flip_probability = transient_flip_probability
        self._stuck: List[StuckBit] = []
        self._coupling: List[CouplingFault] = []
        #: Count of transient flips actually injected (for experiment reports).
        self.transient_flips_injected = 0

    # -- fault injection API -----------------------------------------------
    def inject_stuck_region(self, offset: int, length: int, faults_per_kib: float = 8.0,
                            value: Optional[int] = None) -> int:
        """Scatter stuck bits across [offset, offset+length); returns the count."""
        count = max(1, int(length / 1024 * faults_per_kib))
        addresses = self._rng.integers(offset, offset + length, size=count)
        for address in addresses:
            bit = int(self._rng.integers(0, 8))
            stuck_value = int(self._rng.integers(0, 2)) if value is None else value
            self._stuck.append(StuckBit(int(address), bit, stuck_value))
        self._apply_stuck()
        return count

    def inject_stuck_bit(self, address: int, bit: int, value: int) -> None:
        self._stuck.append(StuckBit(address, bit, value))
        self._apply_stuck()

    def inject_coupling_fault(self, aggressor: int, victim: int, bit: int = 0) -> None:
        self._coupling.append(CouplingFault(aggressor, victim, bit))

    def clear_faults(self) -> None:
        self._stuck = []
        self._coupling = []

    # -- bus model --------------------------------------------------------------
    def _apply_stuck(self) -> None:
        for fault in self._stuck:
            mask = np.uint8(1 << fault.bit)
            if fault.value:
                self.data[fault.address] |= mask
            else:
                self.data[fault.address] &= np.uint8(~mask & 0xFF)

    def write(self, offset: int, values: np.ndarray) -> None:
        end = offset + len(values)
        self.data[offset:end] = values
        # Stuck cells ignore the write.
        self._apply_stuck()
        # Aggressor writes disturb their victims.  One write() call models a
        # low-to-high sequential sweep over its range: if the victim lies
        # *after* the aggressor inside the same write, the subsequent store
        # overwrites (masks) the flip -- which is exactly why single-pass
        # pattern tests miss these data-dependent faults and moving
        # inversions needs its second, downward sweep.
        for fault in self._coupling:
            if offset <= fault.aggressor < end:
                masked = offset <= fault.victim < end and fault.victim > fault.aggressor
                if not masked:
                    self.data[fault.victim] ^= np.uint8(1 << fault.bit)

    def read(self, offset: int, count: int) -> np.ndarray:
        out = self.data[offset:offset + count].copy()
        if self.transient_flip_probability > 0.0 and count > 0:
            flips = self._rng.random(count) < self.transient_flip_probability
            if flips.any():
                positions = np.flatnonzero(flips)
                bits = self._rng.integers(0, 8, size=positions.size)
                out[positions] ^= (np.uint8(1) << bits).astype(np.uint8)
                self.transient_flips_injected += int(positions.size)
        return out
