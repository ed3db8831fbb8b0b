"""Workload capture & replay: production traffic as a benchmark.

``PRAGMA capture_enabled = 1`` (with ``capture_path`` set, or the
``REPRO_CAPTURE_PATH`` environment default) makes the serving layer record
every statement that passes through a :class:`~repro.server.session.Session`
-- SQL text, parameters, timing offset from capture start, row count, and
error outcome -- as one JSON line.  :func:`replay_workload` (CLI:
``tools/replay_workload.py``) then replays the file against a *fresh*
database at recorded or maximum speed and summarises its latency, so
captured traffic becomes a reproducible benchmark and a correctness
check: statement counts always match, and row counts and error outcomes
match exactly when the capture was serial (pinned by
``tests/test_telemetry.py``); concurrent captures interleave writes, so
reader row counts are compared best-effort.

Capture is **instance-wide**: the PRAGMA plumbing flips the database
config (not the session's private copy), because a capture that recorded
only one session's slice of an interleaved workload would replay into a
different database state.  Emission happens in ``Session.execute``'s
epilogue, strictly outside every engine lock (quacklint QLO004) -- capture
I/O can slow the *client's* turnaround, never a lock holder.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = ["WorkloadCapture", "replay_workload", "CAPTURE_FORMAT_VERSION"]

#: Bumped when the capture line shape changes incompatibly.
CAPTURE_FORMAT_VERSION = 1


def _jsonable_params(parameters: Any) -> Any:
    """Parameters in a JSON-stable shape (tuples become lists)."""
    if parameters is None:
        return None
    if isinstance(parameters, dict):
        return {str(key): value for key, value in parameters.items()}
    if isinstance(parameters, (list, tuple)):
        return list(parameters)
    return [parameters]


class WorkloadCapture:
    """Append-only JSONL recorder of served statements.

    Thread-safe: many sessions on many worker threads emit concurrently.
    The first line is a ``capture_start`` header carrying the format
    version; every later line is one ``statement`` record ordered by
    emission time (the lock serializes writes, so file order is a valid
    replay order).  Statements that *manage the capture itself*
    (``PRAGMA capture_...``) are skipped -- replaying them would recurse.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")  # noqa: SIM115 -- lifetime spans the capture
        self._origin = time.perf_counter()
        self.statements_recorded = 0
        self._handle.write(json.dumps({
            "type": "capture_start",
            "version": CAPTURE_FORMAT_VERSION,
            "started_at": time.time(),
        }, separators=(",", ":")) + "\n")
        self._handle.flush()

    def emit_statement(self, session_name: str, session_id: int, seq: int,
                       sql: str, parameters: Any, rowcount: int,
                       wall_ms: float, error: str = "",
                       many: bool = False) -> None:
        """Record one served statement (no-op after close).

        ``many`` marks an ``executemany``: ``parameters`` is then the list
        of its parameter sets, and replay re-issues it the same way.
        """
        head = sql.lstrip().lower()
        if head.startswith("pragma capture"):
            return
        line = json.dumps({
            "type": "statement",
            "offset_s": time.perf_counter() - self._origin,
            "session": session_name,
            "session_id": session_id,
            "seq": seq,
            "sql": sql,
            "params": list(map(_jsonable_params, parameters)) if many
            else _jsonable_params(parameters),
            "many": many,
            "rowcount": rowcount,
            "wall_ms": wall_ms,
            "error": error,
        }, default=str, separators=(",", ":"))
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()
            self.statements_recorded += 1

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __repr__(self) -> str:
        state = "closed" if self._handle.closed else "open"
        return (f"WorkloadCapture({self.path!r}, {state}, "
                f"recorded={self.statements_recorded})")


def load_capture(path: str) -> List[Dict[str, Any]]:
    """Parse a capture file into its statement records, in file order."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "capture_start":
                version = record.get("version")
                if version != CAPTURE_FORMAT_VERSION:
                    raise ValueError(
                        f"{path}:{line_number}: unsupported capture format "
                        f"version {version!r}")
            elif kind == "statement":
                records.append(record)
            else:
                raise ValueError(
                    f"{path}:{line_number}: unknown record type {kind!r}")
    return records


def _percentile(sorted_samples: List[float], fraction: float) -> float:
    if not sorted_samples:
        return 0.0
    index = min(len(sorted_samples) - 1,
                int(fraction * (len(sorted_samples) - 1)))
    return sorted_samples[index]


def _replay_params(params: Any) -> Any:
    if params is None:
        return None
    if isinstance(params, dict):
        return params
    return tuple(params)


def replay_workload(path: str, *, speed: str = "max",
                    config: Optional[Dict[str, Any]] = None,
                    ) -> Dict[str, Any]:
    """Replay a captured workload against a fresh in-memory server.

    ``speed="max"`` replays back-to-back; ``speed="recorded"`` honors each
    statement's captured offset (a capture of a 60 s run replays in 60 s).
    Statements replay in file order through sessions recreated by name, so
    a serial capture reproduces the exact same database state -- the
    returned ``replay`` block counts row matches/mismatches against the
    recorded counts, and the ``serving`` block summarises replay latency
    (p50/p99/max) with the server's cache and admission statistics.
    """
    if speed not in ("max", "recorded"):
        raise ValueError(f"speed must be 'max' or 'recorded', not {speed!r}")
    from .server import QueryServer

    records = load_capture(path)
    server = QueryServer(config=dict(config) if config else None)
    sessions: Dict[str, Any] = {}
    latencies: List[float] = []
    matches = 0
    mismatches = 0
    mismatch_samples: List[Dict[str, Any]] = []
    errors = 0
    wall_start = time.perf_counter()
    try:
        for record in records:
            if speed == "recorded":
                target = wall_start + float(record.get("offset_s", 0.0))
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            name = record.get("session", "replay")
            session = sessions.get(name)
            if session is None:
                session = server.session(name)
                sessions[name] = session
            many = record.get("many", False)
            params = list(map(_replay_params, record["params"])) if many \
                else _replay_params(record.get("params"))
            expected_rows = int(record.get("rowcount", 0))
            expected_error = record.get("error", "")
            start = time.perf_counter()
            try:
                run = session.executemany if many else session.execute
                result = run(record["sql"], params)
                actual_rows = len(result.fetchall())
                actual_error = ""
            except Exception as exc:  # quacklint: disable=QLE001 -- a replay harness records divergence, it must not die on it
                actual_rows = 0
                actual_error = type(exc).__name__
                errors += 1
            latencies.append(time.perf_counter() - start)
            if (actual_rows == expected_rows
                    and bool(actual_error) == bool(expected_error)):
                matches += 1
            else:
                mismatches += 1
                if len(mismatch_samples) < 5:
                    mismatch_samples.append({
                        "sql": record["sql"],
                        "expected_rows": expected_rows,
                        "actual_rows": actual_rows,
                        "expected_error": expected_error,
                        "actual_error": actual_error,
                    })
        wall = time.perf_counter() - wall_start
        plan_stats = server.database.plan_cache.stats()
        plan_lookups = plan_stats["hits"] + plan_stats["misses"]
        merged = sorted(latencies)
        return {
            "serving": {
                "sessions": len(sessions),
                "workers": 1,
                "statements": len(merged),
                "errors": errors,
                "wall_seconds": wall,
                "statements_per_second": len(merged) / wall if wall else 0.0,
                "p50_ms": _percentile(merged, 0.50) * 1000.0,
                "p99_ms": _percentile(merged, 0.99) * 1000.0,
                "max_ms": merged[-1] * 1000.0 if merged else 0.0,
                "plan_cache": plan_stats,
                "plan_cache_hit_rate":
                    plan_stats["hits"] / plan_lookups if plan_lookups else 0.0,
                "result_cache": server.database.result_cache.stats(),
                "admission": server.database.admission.stats(),
            },
            "replay": {
                "source": path,
                "speed": speed,
                "statements": len(records),
                "matches": matches,
                "mismatches": mismatches,
                "mismatch_samples": mismatch_samples,
            },
        }
    finally:
        for session in sessions.values():
            session.close()
        server.close()
