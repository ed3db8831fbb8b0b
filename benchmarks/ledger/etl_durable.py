"""``etl_durable``: ETL batches against a file-backed database.

One closed-loop client; flush policy is the engine's default, one fsync per
commit.  The database starts with ten batches (200k rows) loaded and
checkpointed, so every op sees the same amount of live data.  An op is one
*batch*:

1. append 20k rows (NumPy appender; every 4th batch ``COPY ... FROM`` a CSV
   written beforehand),
2. ``UPDATE m SET d = NULL WHERE d = -999`` over the 30 % sentinels
   (paper section 2),
3. retention ``DELETE`` keeping the last ten batches live,
4. 20 single-row autocommit ``INSERT``s into an audit table (one fsync each),
5. one ``GROUP BY`` read over the live data,
6. every 5th batch an explicit ``CHECKPOINT``: 20 % of ops, so the p90 sits
   inside the checkpoint-stall mode, not on its edge.

The harness keeps a NumPy model of the acknowledged state.  The ``GROUP BY``
is checked on the first and every tenth batch; after the last acknowledged
commit the file and its WAL are copied *without* closing or checkpointing,
and the copy must open to exactly the acknowledged state.
"""

from __future__ import annotations

import csv
import os
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro
from spans import Tracer
from workload import Digest, RunResult, Workload, close_enough, closed_loop

BATCH_ROWS = 20_000
LIVE_BATCHES = 10
AUDIT_ROWS = 20
CSV_EVERY = 4
CHECKPOINT_EVERY = 5
CHECK_EVERY = 10
SENTINEL = -999.0
SENSORS = 100
M_ROW_BYTES = 4 + 8 + 4 + 8 + 3
AUDIT_ROW_BYTES = 4 + 4 + 2
COLUMNS = ("batch", "k", "sensor", "d", "tag")
NULL_SENTINELS = "UPDATE m SET d = NULL WHERE d = -999"
GROUP_BY = ("SELECT sensor, count(*), count(d), sum(d) FROM m "
            "GROUP BY sensor ORDER BY sensor")


class EtlDurable(Workload):
    name = "etl_durable"
    nominal_ops = 170
    rows_per_op = (f"{BATCH_ROWS:,} rows appended, ~{BATCH_ROWS * 3 // 10:,} "
                   f"updated, {BATCH_ROWS:,} deleted, {AUDIT_ROWS} audit "
                   f"rows, {LIVE_BATCHES * BATCH_ROWS:,} read")

    # -- inputs -----------------------------------------------------------
    def _batch(self, number: int) -> Dict[str, np.ndarray]:
        """Batch ``number`` as generated; a pure function of the seed."""
        rng = np.random.default_rng([self.seed, 4, number])
        rows = self.batch_rows
        d = rng.normal(size=rows).round(3)
        d[rng.random(rows) < 0.3] = SENTINEL
        tags = np.array([f"t{i:02d}" for i in range(8)], dtype=object)
        return {"batch": np.full(rows, number, dtype=np.int32),
                "k": rng.integers(0, 1 << 32, rows),
                "sensor": rng.integers(0, SENSORS, rows).astype(np.int32),
                "d": d,
                "tag": tags[rng.integers(0, len(tags), rows)]}

    def _uses_csv(self, index: int) -> bool:
        return index % CSV_EVERY == CSV_EVERY - 1

    def _prepare(self, index: int) -> None:
        """Generate the next op's batch (and its CSV) outside the timed op."""
        self.pending = self._batch(LIVE_BATCHES + index)
        if self._uses_csv(index):
            with open(self.csv_path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(COLUMNS)
                writer.writerows(zip(*(self.pending[name].tolist()
                                       for name in COLUMNS)))

    def setup(self) -> None:
        self.batch_rows = self.rows(BATCH_ROWS)
        os.makedirs(self.scratch, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="etl_", dir=self.scratch)
        self.path = os.path.join(self.directory, "ledger.qdb")
        self.csv_path = os.path.join(self.directory, "batch.csv")
        self.live: Dict[int, Dict[str, np.ndarray]] = {}
        self.audit_rows = 0
        self.next_index = 0
        preload = [self._batch(number) for number in range(LIVE_BATCHES)]
        digest = Digest(self.name, self.seed, self.total_ops)
        for batch in preload:
            digest.add(batch)
        digest.add([(self._uses_csv(index),
                     index % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1)
                    for index in range(self.total_ops)])
        self.digest = digest.hexdigest()

        self.con = repro.connect(self.path)
        self.con.execute("CREATE TABLE m (batch INTEGER, k BIGINT, "
                         "sensor INTEGER, d DOUBLE, tag VARCHAR)")
        self.con.execute("CREATE TABLE audit (batch INTEGER, step INTEGER, "
                         "note VARCHAR)")
        for number, batch in enumerate(preload):
            with self.con.appender("m") as appender:
                appender.append_numpy(batch)
            self._acknowledge_append(number, batch)
        self.con.execute(NULL_SENTINELS)
        self.con.execute("CHECKPOINT")

    def _acknowledge_append(self, number: int,
                            batch: Dict[str, np.ndarray]) -> None:
        """The model after batch ``number`` and the sentinel UPDATE."""
        self.live[number] = {"k": batch["k"], "sensor": batch["sensor"],
                             "d": batch["d"],
                             "valid": batch["d"] != SENTINEL}

    # -- the op -----------------------------------------------------------
    def _etl_batch(self, index: int, checkpoint: Optional[bool] = None
                   ) -> Dict[str, Any]:
        con = self.con
        number = LIVE_BATCHES + index
        clock = time.perf_counter
        t0 = clock()
        if self._uses_csv(index):
            con.execute(f"COPY m FROM '{self.csv_path}' (HEADER)")
        else:
            with con.appender("m") as appender:
                appender.append_numpy(self.pending)
        t1 = clock()
        con.execute(NULL_SENTINELS)
        con.execute("DELETE FROM m WHERE batch <= ?",
                    (number - LIVE_BATCHES,))
        for step in range(AUDIT_ROWS):
            con.execute("INSERT INTO audit VALUES (?, ?, ?)",
                        (number, step, "ok"))
        groups = con.execute(GROUP_BY).fetchall()
        if checkpoint is None:
            checkpoint = index % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1
        t2 = clock()
        if checkpoint:
            con.execute("CHECKPOINT")
        return {"groups": groups, "load_s": t1 - t0,
                "checkpoint_s": clock() - t2 if checkpoint else None}

    def _acknowledge(self, index: int) -> None:
        number = LIVE_BATCHES + index
        self._acknowledge_append(number, self.pending)
        self.live.pop(number - LIVE_BATCHES, None)
        self.audit_rows += AUDIT_ROWS
        self.next_index = index + 1

    def _verify(self, index: int, out: Dict[str, Any]) -> Optional[str]:
        self._acknowledge(index)
        result = self._result
        kind = "csv" if self._uses_csv(index) else "append"
        result.count(f"{kind}_rows", float(self.batch_rows))
        result.count(f"{kind}_s", out["load_s"])
        if out["checkpoint_s"] is not None:
            result.count("checkpoints", 1.0)
            result.count("checkpoint_s", out["checkpoint_s"])
        problem = None
        if (index - self._first) % CHECK_EVERY == 0:
            problem = self._compare_groups(out["groups"])
        if index + 1 < self.total_ops:
            self._prepare(index + 1)
        return problem

    def _model_groups(self) -> List[Tuple[Any, ...]]:
        sensor = np.concatenate([b["sensor"] for b in self.live.values()])
        valid = np.concatenate([b["valid"] for b in self.live.values()])
        d = np.concatenate([b["d"] for b in self.live.values()])
        rows = np.bincount(sensor, minlength=SENSORS)
        present = np.bincount(sensor[valid], minlength=SENSORS)
        total = np.bincount(sensor[valid], weights=d[valid],
                            minlength=SENSORS)
        return [(code, int(rows[code]), int(present[code]),
                 float(total[code]) if present[code] else None)
                for code in range(SENSORS) if rows[code]]

    def _compare_groups(self, groups: List[Tuple[Any, ...]]) -> Optional[str]:
        want = self._model_groups()
        if len(groups) != len(want) or not all(
                all(map(close_enough, got_row, want_row))
                for got_row, want_row in zip(groups, want)):
            return (f"GROUP BY differs from the model: got {groups[:2]}, "
                    f"want {want[:2]}")
        return None

    def run(self, first: int, count: int, tracer: Optional[Tracer] = None,
            clients: Optional[int] = None) -> RunResult:
        result = self._result = RunResult()
        self._first = first
        self._prepare(first)
        before = self.con.metrics()
        closed_loop(result, first, count, self._etl_batch, self._verify,
                    tracer)
        after = self.con.metrics()
        for key, metric in (("wal_bytes", "repro_wal_bytes_written_total"),
                            ("checkpoint_bytes",
                             "repro_checkpoint_bytes_written_total")):
            if metric in after:
                result.count(key, after[metric] - before.get(metric, 0.0))
        result.count("user_bytes_written", float(count) * (
            self.batch_rows * M_ROW_BYTES + AUDIT_ROWS * AUDIT_ROW_BYTES))
        result.count("write_attempts", float(count) * (3 + AUDIT_ROWS))
        result.count("statements", float(count) * (4 + AUDIT_ROWS))
        return result

    # -- final state ------------------------------------------------------
    def _live_user_bytes(self) -> int:
        rows = sum(len(batch["k"]) for batch in self.live.values())
        return rows * M_ROW_BYTES + self.audit_rows * AUDIT_ROW_BYTES

    def _state_problem(self, con: Any, label: str) -> Optional[str]:
        """Does the database behind ``con`` hold the acknowledged state?"""
        k = np.concatenate([batch["k"] for batch in self.live.values()])
        valid = np.concatenate([b["valid"] for b in self.live.values()])
        want = (len(k), int(k.sum()), int(valid.sum()),
                sum(number * len(batch["k"])
                    for number, batch in self.live.items()))
        got = con.execute("SELECT count(*), sum(k), count(d), sum(batch) "
                          "FROM m").fetchall()[0]
        if tuple(got) != want:
            return f"{label}: m holds {tuple(got)}, acknowledged {want}"
        audit = con.execute("SELECT count(*) FROM audit").fetchall()[0][0]
        if audit != self.audit_rows:
            return (f"{label}: audit holds {audit} rows, acknowledged "
                    f"{self.audit_rows}")
        problem = self._compare_groups(con.execute(GROUP_BY).fetchall())
        return f"{label}: {problem}" if problem else None

    def finish(self, result: RunResult) -> Dict[str, float]:
        """Durability check on a copy taken mid-flight, then the space cost
        after a final checkpoint."""
        extra: Dict[str, float] = {}
        result.attempted += 1
        try:
            # One more acknowledged batch, not checkpointed: the copy below
            # has to replay it from the WAL.
            tail = self.next_index
            self._prepare(tail)
            self._etl_batch(tail, checkpoint=False)
            self._acknowledge(tail)
            copy_dir = tempfile.mkdtemp(prefix="copy_", dir=self.directory)
            copy_path = os.path.join(copy_dir, "ledger.qdb")
            shutil.copyfile(self.path, copy_path)
            shutil.copyfile(self.path + ".wal", copy_path + ".wal")
            started = time.perf_counter()
            copy = repro.connect(copy_path)
            extra["recover_ms"] = (time.perf_counter() - started) * 1000.0
            try:
                problem = self._state_problem(copy, "recovered copy")
            finally:
                copy.close()
            shutil.rmtree(copy_dir)
            if problem is None:
                problem = self._state_problem(self.con, "live database")
            self.con.execute("CHECKPOINT")
            extra["stored_bytes_per_user_byte"] = \
                os.path.getsize(self.path) / self._live_user_bytes()
        except Exception as error:  # the check itself failing is a failure
            problem = f"durability check: {type(error).__name__}: {error}"
        if problem is not None:
            result.fail(problem)
        return extra

    def handle(self) -> Any:
        return self.con

    def close(self) -> None:
        self.con.close()
        shutil.rmtree(self.directory, ignore_errors=True)
