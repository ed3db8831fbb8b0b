"""Database configuration.

The paper's Cooperation requirement (§4, §6): the embedded database must not
assume it owns the machine.  DuckDB "allows the user to manually set hard
limits on memory and CPU core utilization"; the same knobs exist here, plus
switches for the resilience features (block checksums, buffer memtests) and
the reactive resource controller.

Options are also reachable at runtime through ``PRAGMA name = value``.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, Optional

from .errors import InvalidInputError

__all__ = ["DatabaseConfig"]


_SIZE_SUFFIXES = {
    "B": 1,
    "KB": 10**3,
    "MB": 10**6,
    "GB": 10**9,
    "KIB": 2**10,
    "MIB": 2**20,
    "GIB": 2**30,
}


def parse_memory_size(value: Any) -> int:
    """Parse ``"256MB"``-style strings (or plain ints) into a positive
    byte count."""
    size = _parse_size(value)
    if size <= 0:
        raise InvalidInputError("memory size must be positive")
    return int(size)


def _parse_size(value: Any) -> float:
    """The byte count ``value`` names, of any sign."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    if not isinstance(value, str):
        raise InvalidInputError(f"Cannot parse memory size from {value!r}")
    text = value.strip().upper()
    try:
        for suffix in sorted(_SIZE_SUFFIXES, key=len, reverse=True):
            if text.endswith(suffix):
                number = text[: -len(suffix)].strip()
                return int(float(number) * _SIZE_SUFFIXES[suffix])
        return int(text)
    except ValueError:
        raise InvalidInputError(
            f"Cannot parse memory size from {value!r}") from None


@dataclasses.dataclass
class DatabaseConfig:
    """Tunable knobs of a database instance.

    Attributes
    ----------
    memory_limit:
        Hard cap, in bytes, on memory used for buffers and query
        intermediates.  Operators that would exceed it must spill (external
        merge join / external sort) or abort with ``OutOfMemoryError``.
    threads:
        Maximum worker threads the engine may use.  ``1`` keeps the engine
        single-threaded (the co-resident application gets the other cores);
        values above 1 let an aggregate over a table scan fold its morsels
        on that many workers (every other scan runs in place).
        The ``REPRO_THREADS`` environment variable provides the default for
        configs built via :meth:`from_dict` (i.e. ``connect(config=...)``)
        when the option is not given explicitly.
    morsel_size:
        Rows per morsel of a scan pipeline (rounded down to a whole number
        of scan chunks at execution time), at every ``threads`` value: the
        unit a worker takes, and the unit an aggregate folds into one
        partial state, so it -- not ``threads`` -- groups float sums.
        Smaller morsels spread load more evenly but add scheduling
        overhead.
    verify_checksums:
        Verify the CRC-32 of every storage block on read (paper §6,
        Resilience).  Disabling this is only intended for benchmarking the
        cost of verification.
    buffer_memtest:
        Run a moving-inversions memory test on buffer allocation, and avoid
        regions that fail (paper §6 "we plan to integrate memory tests into
        the buffer manager").
    reactive_resources:
        Enable the reactive controller that switches intermediate
        compression and join algorithms under memory pressure (Figure 1).
    wal_autocheckpoint:
        Checkpoint automatically once the WAL exceeds this many bytes
        (0 disables auto-checkpointing).
    checkpoint_on_close:
        Write a checkpoint when the database is cleanly closed.
    trace_enabled:
        Trace statements run under this config (see
        :mod:`repro.observability`): each is profiled into an operator span
        tree kept by its database's tracer.  Off by default -- an untraced
        statement costs one ``is None`` test per operator.  The
        ``REPRO_TRACE`` environment variable provides the
        default for configs built via :meth:`from_dict` when the option is
        not given explicitly.
    verify_plans:
        Run quackplan (see :mod:`repro.verifier`) on every statement: each
        optimizer pass and every logical->physical lowering is checked
        against the plan invariants, violations surface through
        ``repro_plan_checks()`` and raise
        :class:`~repro.errors.PlanVerificationError`.  Off by default with
        near-zero overhead (one attribute test per optimize call); the
        ``REPRO_VERIFY_PLANS`` environment variable provides the default
        for configs built via :meth:`from_dict` -- tests and CI turn it on.
    plan_cache_entries:
        Capacity (in plans) of the shared plan cache: bound+optimized
        SELECT plans memoized on (SQL text, parameter-type fingerprint)
        and invalidated by DDL commits via the catalog version.  ``0``
        disables plan caching.
    result_cache_entries:
        Capacity (in result sets) of the shared read-only result cache,
        keyed on (SQL text, parameter values, data version) -- any
        committed write moves the data version, so stale entries are never
        served and age out by LRU.  ``0`` disables result caching.
    result_cache_max_rows:
        Results larger than this many rows are not cached (they would
        evict many small, hot entries for one cold scan).
    max_concurrent_queries:
        Admission-control limit on queries executing at once across all
        sessions of a :class:`~repro.server.QueryServer`.  ``0`` means
        unlimited.  Queries over the limit wait up to
        ``admission_timeout_ms`` before failing with
        :class:`~repro.errors.AdmissionError`.
    admission_timeout_ms:
        How long an admitted-over-limit query may wait in the admission
        queue, in milliseconds.
    """

    memory_limit: int = 1 << 31  # 2 GiB default
    threads: int = 1
    morsel_size: int = 65536
    verify_checksums: bool = True
    buffer_memtest: bool = False
    reactive_resources: bool = False
    wal_autocheckpoint: int = 16 << 20  # 16 MiB
    checkpoint_on_close: bool = True
    trace_enabled: bool = False
    verify_plans: bool = False
    plan_cache_entries: int = 256
    result_cache_entries: int = 128
    result_cache_max_rows: int = 16384
    max_concurrent_queries: int = 0
    admission_timeout_ms: float = 30000.0

    @classmethod
    def from_dict(cls, options: Optional[Dict[str, Any]]) -> "DatabaseConfig":
        """Build a config from a plain dict, validating option names."""
        config = cls()
        if options:
            for name, value in options.items():
                config.set_option(name, value)
        given = {name.lower() for name in options} if options else set()
        if "threads" not in given:
            env_threads = os.environ.get("REPRO_THREADS")
            if env_threads:
                config.set_option("threads", env_threads)
        if "trace_enabled" not in given:
            env_trace = os.environ.get("REPRO_TRACE")
            if env_trace:
                config.set_option("trace_enabled", env_trace)
        if "verify_plans" not in given:
            env_verify = os.environ.get("REPRO_VERIFY_PLANS")
            if env_verify:
                config.set_option("verify_plans", env_verify)
        return config

    def set_option(self, name: str, value: Any) -> None:
        """Set one option by name, coercing the value (used by PRAGMA)."""
        name = name.lower()
        if name == "memory_limit":
            self.memory_limit = parse_memory_size(value)
        elif name == "threads":
            threads = int(value)
            if threads < 1:
                raise InvalidInputError("threads must be >= 1")
            self.threads = threads
        elif name == "morsel_size":
            morsel_size = int(value)
            if morsel_size < 1:
                raise InvalidInputError("morsel_size must be >= 1")
            self.morsel_size = morsel_size
        elif name in ("verify_checksums", "buffer_memtest", "reactive_resources",
                      "checkpoint_on_close", "trace_enabled", "verify_plans"):
            setattr(self, name, _coerce_bool(value))
        elif name == "wal_autocheckpoint":
            # Zero in any unit ('0', '0KB') turns auto-checkpointing off.
            size = _parse_size(value) if value else 0
            self.wal_autocheckpoint = parse_memory_size(size) if size else 0
        elif name in ("plan_cache_entries", "result_cache_entries",
                      "result_cache_max_rows", "max_concurrent_queries"):
            count = int(value)
            if count < 0:
                raise InvalidInputError(f"{name} must be >= 0")
            setattr(self, name, count)
        elif name == "admission_timeout_ms":
            timeout = float(value)
            if timeout < 0:
                raise InvalidInputError("admission_timeout_ms must be >= 0")
            self.admission_timeout_ms = timeout
        else:
            raise InvalidInputError(f"Unknown configuration option {name!r}")

    def get_option(self, name: str) -> Any:
        name = name.lower()
        if not hasattr(self, name):
            raise InvalidInputError(f"Unknown configuration option {name!r}")
        return getattr(self, name)


def _coerce_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "1", "on", "yes"):
            return True
        if lowered in ("false", "0", "off", "no"):
            return False
    raise InvalidInputError(f"Cannot interpret {value!r} as a boolean")
