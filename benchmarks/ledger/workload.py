"""What the four workloads share: the run record, the closed loop of one
client, and the digest of a generated op stream.

Workloads drive the engine through its public API only (``repro.connect``,
``repro.serve``, ``Connection.execute``, result fetch methods, ``appender``,
``server.session``) and under the default ``DatabaseConfig``: no knob is set
anywhere in this directory.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from spans import Tracer

__all__ = ["RunResult", "Workload", "closed_loop", "Digest", "close_enough"]

#: Relative tolerance for float answers: the engine and NumPy may add in a
#: different order.
FLOAT_RTOL = 1e-9


class RunResult:
    """What one pass over a range of ops produced."""

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        #: Time the clients spent inside ops.  With one client the clock is
        #: stopped while the harness verifies a result between two ops.
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Work counted by the harness itself (rows handed over, bytes, ...).
        self.counts: Dict[str, float] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount


class Workload:
    """One named workload: seeded inputs, an op stream, oracles."""

    name = ""
    #: Why the workload exists is in metrics.WORKLOADS.
    tail = 90.0
    clients = 1
    #: Op counts are multiples of this (a session of serve_mixed is 4 ops).
    granule = 1
    #: Ops measured per nominal run (run.NOMINAL_SECONDS at the seed).
    nominal_ops = 100
    rows_per_op = ""

    def __init__(self, seed: int, total_ops: int, scale: float,
                 scratch: str) -> None:
        self.seed = seed
        self.total_ops = total_ops
        #: 1.0 for a real run; the smoke run shrinks every table by it.
        self.scale = scale
        self.scratch = scratch
        self.digest = ""

    def rows(self, nominal: int) -> int:
        return max(64, int(nominal * self.scale))

    def setup(self) -> None:
        """Generate inputs, open the database, load the tables."""
        raise NotImplementedError

    def run(self, first: int, count: int, tracer: Optional[Tracer] = None,
            clients: Optional[int] = None) -> RunResult:
        """Run ops ``first .. first+count-1`` of the stream, in order."""
        raise NotImplementedError

    def finish(self, result: RunResult) -> Dict[str, float]:
        """Final-state oracles (failures go into ``result``) and the
        workload's extra metrics."""
        return {}

    def handle(self) -> Any:
        """The connection or server, for ``layers.database_counters``."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


def closed_loop(result: RunResult, first: int, count: int,
                do_op: Callable[[int], Any],
                verify: Callable[[int, Any], Optional[str]],
                tracer: Optional[Tracer]) -> None:
    """One closed-loop client: the next op starts when the previous one has
    returned and been verified.  ``do_op`` is timed, ``verify`` is not."""
    clock = time.perf_counter
    for index in range(first, first + count):
        result.attempted += 1
        span = tracer.begin("op", op_id=index) if tracer is not None else None
        started = clock()
        try:
            outcome = do_op(index)
        except Exception as error:  # an op that raises is a failed op
            elapsed = clock() - started
            if span is not None:
                tracer.finish(span)
            result.busy_s += elapsed
            result.fail(f"op {index}: {type(error).__name__}: {error}")
            continue
        elapsed = clock() - started
        if span is not None:
            tracer.finish(span)
        result.busy_s += elapsed
        problem = verify(index, outcome)
        if problem is not None:
            result.fail(f"op {index}: {problem}")
            continue
        result.latencies_ms.append(elapsed * 1000.0)


class Digest:
    """Hash of everything a workload generated from its seed."""

    def __init__(self, *context: Any) -> None:
        self._hash = hashlib.sha256(repr(context).encode())

    def add(self, item: Any) -> None:
        if isinstance(item, np.ndarray) and item.dtype != object:
            self._hash.update(str(item.dtype).encode())
            self._hash.update(np.ascontiguousarray(item).tobytes())
        elif isinstance(item, np.ndarray):
            self._hash.update("\x00".join(map(str, item)).encode())
        elif isinstance(item, dict):
            for key in sorted(item):
                self._hash.update(str(key).encode())
                self.add(item[key])
        else:
            self._hash.update(repr(item).encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


def close_enough(got: Any, want: Any) -> bool:
    """Exact for everything but floats, which get ``FLOAT_RTOL``."""
    if isinstance(want, float) or isinstance(got, float):
        if got is None or want is None:
            return got is want
        return abs(got - want) <= FLOAT_RTOL * max(abs(got), abs(want), 1e-300)
    return got == want
