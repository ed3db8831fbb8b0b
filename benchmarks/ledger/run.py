#!/usr/bin/env python3
"""The benchmark ledger: one command for every metric.

    python3 benchmarks/ledger/run.py                 all workloads, untraced
    python3 benchmarks/ledger/run.py --trace         ... and the traced runs
    python3 benchmarks/ledger/run.py --workload olap_scan --seed 7
    python3 benchmarks/ledger/run.py --smoke         seconds, for the tests
    python3 benchmarks/ledger/run.py --out A.json    append the set to A.json
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --repeat-check

Without ``--workload`` every workload runs in a fresh subprocess of this
script.  With it the workload runs in this process and the last line of
standard output is one JSON object, ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit code is non-zero if any op failed or any
oracle disagreed.

A run is a *fixed op count*: ``--seconds`` sizes it (the seed commit needs
about that long for the measured ops on the 2-core sandbox), the clock does
not end it.  The work is therefore the same on every commit, counts repeat
exactly, and a faster engine does not get a bigger table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ENGINE = os.path.join(ROOT, "src")
#: Everything a run writes goes here (git-ignored), never outside the tree.
WORK_DIR = os.path.join(ROOT, ".ledger")

NOMINAL_SECONDS = 22
WARMUP_FRACTION = 0.05   # discarded ops before the measured ones
TRACE_SLICE = 0.10       # share of the measured ops the traced run replays
SETUPS = 3               # set-ups per run; setup_s is their median
SMOKE_SCALE = 0.04       # table sizes of a --smoke run
SMOKE_OPS = 0.06         # op count of a --smoke run
WORKLOAD_NAMES = ("olap_scan", "serve_mixed", "transfer_bulk", "etl_durable")
DEFAULTS = ("DatabaseConfig defaults: threads 1, WAL fsync per commit, "
            "checksums verified, plan cache 256, result cache 128, "
            "memory limit 2 GiB")


def _use_engine_of_this_checkout() -> None:
    """Measure the engine source next to this benchmark, under defaults."""
    if not os.path.isfile(os.path.join(ENGINE, "repro", "__init__.py")):
        sys.exit(f"run.py: no engine source at {ENGINE}/repro; the ledger "
                 "measures the checkout it lives in")
    for path in (ENGINE, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        print(f"note: ignoring {name} (the ledger sets no knob)")
        del os.environ[name]


def _workload_class(name: str) -> Any:
    import etl_durable
    import olap_scan
    import serve_mixed
    import transfer_bulk
    return {"olap_scan": olap_scan.OlapScan,
            "serve_mixed": serve_mixed.ServeMixed,
            "transfer_bulk": transfer_bulk.TransferBulk,
            "etl_durable": etl_durable.EtlDurable}[name]


# -- one workload, in this process -----------------------------------------
class Plan:
    """Op counts of one run: warm-up, measured, traced slice."""

    def __init__(self, workload_class: Any, seconds: float,
                 smoke: bool) -> None:
        granule = workload_class.granule * workload_class.clients
        ops = workload_class.nominal_ops * seconds / NOMINAL_SECONDS
        if smoke:
            ops *= SMOKE_OPS

        def whole(count: float, least: int) -> int:
            return max(least, int(round(count / granule))) * granule

        self.measured = whole(ops, 4)
        self.warmup = whole(self.measured * WARMUP_FRACTION, 1)
        self.slice = whole(self.measured * TRACE_SLICE, 2)
        self.total = self.warmup + self.measured
        self.scale = SMOKE_SCALE if smoke else 1.0


def _set_up(workload_class: Any, seed: int, plan: Plan
            ) -> Tuple[Any, float]:
    started = time.perf_counter()
    workload = workload_class(seed, plan.total, plan.scale,
                              os.path.join(WORK_DIR, "scratch"))
    workload.setup()
    return workload, time.perf_counter() - started


def run_untraced(name: str, seed: int, seconds: float, smoke: bool
                 ) -> Dict[str, Any]:
    import metrics
    workload_class = _workload_class(name)
    plan = Plan(workload_class, seconds, smoke)
    setups: List[float] = []
    for attempt in range(SETUPS):
        workload, seconds_taken = _set_up(workload_class, seed, plan)
        setups.append(seconds_taken)
        if attempt < SETUPS - 1:
            workload.close()
    try:
        workload.run(0, plan.warmup)
        result = workload.run(plan.warmup, plan.measured)
        extra = workload.finish(result)
    finally:
        workload.close()
    summary = metrics.summarise_latencies(result.latencies_ms, workload.tail) \
        if result.latencies_ms else {}
    good = len(result.latencies_ms)
    values: Dict[str, Optional[float]] = {
        "throughput_ops_s": good / result.busy_s if result.busy_s else None,
        "op_ms_p50": summary.get("op_ms_p50"),
        "op_ms_tail": summary.get("op_ms_tail"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stored_bytes_per_user_byte": extra.get("stored_bytes_per_user_byte"),
        "failed_frac": result.failed / result.attempted,
    }
    return {"workload": name, "seed": seed, "trace": 0,
            "digest": workload.digest, "ops": plan.measured,
            "warmup_ops": plan.warmup, "clients": workload.clients,
            "rows_per_op": workload.rows_per_op, "samples": good,
            "tail_percentile": summary.get("tail_percentile"),
            "setup_samples": len(setups), "measured_s": result.busy_s,
            "attempted": result.attempted, "failed": result.failed,
            "failures": result.failures, "metrics": values}


def run_traced(name: str, seed: int, seconds: float, smoke: bool
               ) -> Dict[str, Any]:
    """Replay one slice of the op stream several times, each on a fresh
    database so the slice meets identical state: untraced, traced, and (with
    more than one client) untraced with a single client."""
    import layers
    import metrics
    import spans
    workload_class = _workload_class(name)
    plan = Plan(workload_class, seconds, smoke)
    attempted = failed = 0
    failures: List[str] = []

    def one_pass(tracer: Optional[spans.Tracer], clients: Optional[int]
                 ) -> Tuple[Any, Dict[str, float], Dict[str, Any]]:
        nonlocal attempted, failed
        workload, _ = _set_up(workload_class, seed, plan)
        found: Dict[str, Any] = {"unavailable": {}}
        try:
            workload.run(0, plan.warmup)
            before, _ = layers.database_counters(workload.handle())
            if tracer is not None:
                found["unavailable"].update(layers.install(tracer))
            try:
                result = workload.run(plan.warmup, plan.slice, tracer, clients)
            finally:
                layers.uninstall()
            after, gone = layers.database_counters(workload.handle())
            found["unavailable"].update(gone)
            found["counters"] = {key: after[key] - before.get(key, 0.0)
                                 for key in after}
            if tracer is not None:
                connection = workload.handle()
                if hasattr(connection, "session"):
                    with connection.session("statement-log") as session:
                        found["log"], reason = layers.statement_log(session)
                else:
                    found["log"], reason = layers.statement_log(connection)
                if reason:
                    found["unavailable"]["statement_log"] = reason
            extra = workload.finish(result)
        finally:
            workload.close()
        attempted += result.attempted
        failed += result.failed
        failures.extend(result.failures)
        found["digest"] = workload.digest
        return result, extra, found

    def p50(result: Any) -> Optional[float]:
        return metrics.percentile(sorted(result.latencies_ms), 50.0) \
            if result.latencies_ms else None

    # The first pass only warms the process (imports, allocator): without
    # it the pass that runs first looks slower than the one that runs second.
    one_pass(None, None)
    plain, _, _ = one_pass(None, None)
    tracer = spans.Tracer()
    traced, extra, found = one_pass(tracer, None)
    alone = one_pass(None, 1)[0] if workload_class.clients > 1 else None

    recorded = tracer.spans()
    problems = spans.validate(recorded)
    for problem in problems:
        attempted += 1
        failed += 1
        failures.append(f"span tree: {problem}")
    os.makedirs(WORK_DIR, exist_ok=True)
    trace_path = os.path.join(WORK_DIR, f"trace_{name}.json")
    spans.dump(trace_path, name, recorded)
    shares = spans.layer_shares(recorded)
    values = per_layer_metrics(
        shares, traced, found, extra, p50(plain), p50(traced),
        p50(alone) if alone is not None else None)
    return {"workload": name, "seed": seed, "trace": 1,
            "digest": found["digest"], "ops": plan.slice,
            "warmup_ops": plan.warmup, "clients": workload_class.clients,
            "samples": len(traced.latencies_ms), "spans": len(recorded),
            "trace_file": os.path.relpath(trace_path, ROOT),
            "untraced_op_ms_p50": p50(plain), "traced_op_ms_p50": p50(traced),
            "by_name": shares["by_name"], "unavailable": found["unavailable"],
            "attempted": attempted, "failed": failed, "failures": failures,
            "metrics": values}


def per_layer_metrics(shares: Dict[str, Any], result: Any,
                      found: Dict[str, Any], extra: Dict[str, float],
                      p50_plain: Optional[float], p50_traced: Optional[float],
                      p50_alone: Optional[float]) -> Dict[str, Any]:
    """Every PER_LAYER metric: a number, ``None`` where the workload does not
    exercise it, or a string saying why it is unavailable."""
    import metrics
    by_name = shares["by_name"]
    unavailable: Dict[str, str] = found["unavailable"]
    counters: Dict[str, float] = found.get("counters", {})
    log: Dict[str, float] = found.get("log", {})
    counts = result.counts
    ops = max(1, len(result.latencies_ms))

    def missing(*needs: str) -> Optional[str]:
        for need in needs:
            if need in unavailable:
                return f"unavailable: {unavailable[need]}"
        return None

    def span_ms(*names: str, per: Optional[float] = None, own: bool = False
                ) -> Any:
        """Mean ms per call of the first span (or per ``per``), summed over
        ``names``; self time only with ``own``."""
        gone = missing(*names)
        if gone:
            return gone
        calls = by_name.get(names[0], {}).get("calls", 0)
        if not calls:
            return None
        total = sum(by_name.get(name, {}).get(
            "self_ns" if own else "total_ns", 0) for name in names)
        return total / 1e6 / (per if per is not None else calls)

    def ratio(top: Optional[float], bottom: Optional[float], *needs: str
              ) -> Any:
        gone = missing(*needs)
        if gone:
            return gone
        return top / bottom if top is not None and bottom else None

    def counter(key: str) -> Any:
        return missing(key.split(".")[0]) or counters.get(key)

    def hit_rate(cache: str) -> Any:
        hits, misses = counters.get(f"{cache}.hits"), \
            counters.get(f"{cache}.misses")
        return ratio(hits, (hits or 0.0) + (misses or 0.0), cache)

    values: Dict[str, Any] = {
        f"share.{layer}_pct": shares["share_pct"].get(layer, 0.0)
        for layer in metrics.LAYERS}
    values.update({
        "sql.parse_ms": span_ms("sql.parse"),
        "planner.bind_ms": span_ms("planner.bind"),
        "optimizer.optimize_ms": span_ms("optimizer.optimize"),
        "server.session_open_ms": span_ms("server.session_open",
                                          "server.session_close"),
        "server.plan_cache_hit_rate": hit_rate("plan_cache"),
        "server.result_cache_hit_rate": hit_rate("result_cache"),
        "server.plan_cache_evictions": counter("plan_cache.evictions"),
        "server.plan_cache_invalidations":
            counter("plan_cache.invalidations"),
        "server.result_cache_evictions": counter("result_cache.evictions"),
        "server.admission_waits": counter("admission.waits"),
        # untraced with one client against untraced with all of them
        "server.wait_share": 1.0 - p50_alone / p50_plain
        if p50_alone is not None and p50_plain else None,
        "execution.lower_ms": span_ms("execution.lower"),
        "execution.run_ms": span_ms("execution.run", per=ops),
        "execution.rows_scanned_per_result_row": ratio(
            log.get("rows_scanned"), log.get("rows_out"), "statement_log"),
        "execution.vectors_per_stmt": ratio(
            log.get("vectors"), log.get("statements"), "statement_log"),
        "client.glue_ms": span_ms("client.execute", own=True),
        "client.export_numpy_rows_s": ratio(counts.get("export_numpy_rows"),
                                            counts.get("export_numpy_s")),
        "client.export_rows_rows_s": ratio(counts.get("export_rows_rows"),
                                           counts.get("export_rows_s")),
        "client.import_numpy_rows_s": ratio(counts.get("import_numpy_rows"),
                                            counts.get("import_numpy_s")),
        "client.import_rows_rows_s": ratio(counts.get("import_rows_rows"),
                                           counts.get("import_rows_s")),
        "client.bytes_per_op": ratio(counts.get("bytes"), float(ops)),
        "transaction.commit_ms": span_ms("transaction.commit"),
        "transaction.conflicts_retried": counts.get("conflicts"),
        "transaction.conflict_rate": ratio(counts.get("conflicts"),
                                           counts.get("write_attempts")),
        "storage.checkpoint_ms": span_ms("storage.checkpoint"),
        "storage.wal_bytes_per_user_byte": ratio(
            counts.get("wal_bytes"), counts.get("user_bytes_written")),
        "storage.file_bytes_written_per_user_byte": ratio(
            counts.get("checkpoint_bytes"), counts.get("user_bytes_written")),
        "storage.stored_bytes_per_user_byte":
            extra.get("stored_bytes_per_user_byte"),
        "storage.recover_ms": extra.get("recover_ms"),
        "storage.buffer_hits": counter("buffer.hits"),
        "storage.buffer_misses": counter("buffer.misses"),
        "etl.csv_rows_per_s": ratio(counts.get("csv_rows"),
                                    counts.get("csv_s")),
        "trace.overhead_pct": 100.0 * (p50_traced / p50_plain - 1.0)
        if p50_traced is not None and p50_plain else None,
    })
    return values


# -- printing ---------------------------------------------------------------
def _number(value: float) -> str:
    return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.0f}"


def print_report(report: Dict[str, Any]) -> None:
    import metrics
    traced = bool(report["trace"])
    print(f"== {report['workload']}  seed={report['seed']}  "
          f"{'traced slice' if traced else 'end to end'}  "
          f"ops={report['ops']} (+{report['warmup_ops']} warm-up)  "
          f"clients={report['clients']}")
    print(f"   workload_digest {report['digest']}")
    print(f"   why: {metrics.WORKLOADS[report['workload']]}")
    print(f"   config: {DEFAULTS}")
    if not traced:
        print(f"   rows_per_op: {report['rows_per_op']}")
    table = metrics.PER_LAYER if traced else metrics.END_TO_END
    for metric in table:
        value = report["metrics"].get(metric.name)
        if value is None:
            continue
        if isinstance(value, str):
            print(f"   {metric.name:<42} {value}")
            continue
        note = ""
        if metric.name == "op_ms_tail":
            note = f"p{report['tail_percentile']:g}, "
        if metric.name == "setup_s":
            note += f"median of n={report['setup_samples']}"
        elif not traced and metric.name == "failed_frac":
            note += f"{report['failed']}/{report['attempted']}"
        else:
            note += f"n={report['samples']}"
        print(f"   {metric.name:<42} {_number(value):>12} {metric.unit:<7}"
              f" ({note})")
    if traced:
        print(f"   op_ms_p50 on the slice: untraced "
              f"{_number(report['untraced_op_ms_p50'] or 0.0)} ms, traced "
              f"{_number(report['traced_op_ms_p50'] or 0.0)} ms; "
              f"{report['spans']} spans -> {report['trace_file']}")
        print(f"   {'span':<26}{'calls':>9}{'total ms':>12}{'self ms':>12}")
        for name, entry in sorted(report["by_name"].items()):
            print(f"   {name:<26}{entry['calls']:>9}"
                  f"{entry['total_ns'] / 1e6:>12.1f}"
                  f"{entry['self_ns'] / 1e6:>12.1f}")
        for name, reason in sorted(report["unavailable"].items()):
            print(f"   unavailable {name}: {reason}")
    for failure in report["failures"]:
        print(f"   FAILED {failure}")


def driver_line(report: Dict[str, Any]) -> str:
    """The one JSON object the driver reads: numbers only, every metric."""
    import metrics
    if report["trace"]:
        names = [(metric.name, metric.unit) for metric in metrics.PER_LAYER]
    else:
        names = [(metric.name, metric.unit) for metric in metrics.END_TO_END
                 if metric.name in metrics.GATED_BY_DRIVER]
    out = {}
    for name, unit in names:
        value = report["metrics"].get(name)
        out[name] = {"value": value if isinstance(value, (int, float))
                     else 0.0, "unit": unit}
    return json.dumps({"correct": report["failed"] == 0,
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": out})


# -- sets -------------------------------------------------------------------
def run_set(args: argparse.Namespace) -> Tuple[List[Dict[str, Any]], int]:
    """Every workload in a fresh subprocess; their reports and the worst
    exit code."""
    os.makedirs(WORK_DIR, exist_ok=True)
    reports: List[Dict[str, Any]] = []
    worst = 0
    for name in WORKLOAD_NAMES:
        for trace in ((0, 1) if args.trace else (0,)):
            report_path = os.path.join(WORK_DIR, f"report_{name}_{trace}.json")
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--out", report_path]
            if args.smoke:
                command.append("--smoke")
            if os.path.exists(report_path):
                os.remove(report_path)
            lines = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True).stdout.splitlines()
            print("\n".join(lines[:-1]))  # all but the driver's JSON line
            if not os.path.exists(report_path):
                print(f"   FAILED {name}: no report (crashed?)")
                worst = 1
                continue
            with open(report_path) as handle:
                report = json.load(handle)["sets"][-1][0]
            os.remove(report_path)
            reports.append(report)
            worst = max(worst, int(report["failed"] > 0))
    return reports, worst


def append_set(path: str, reports: List[Dict[str, Any]]) -> None:
    """``--out``: a file holds any number of sets, for ``--compare``."""
    sets: List[Any] = []
    if os.path.exists(path):
        with open(path) as handle:
            sets = json.load(handle)["sets"]
    sets.append(reports)
    with open(path, "w") as handle:
        json.dump({"format": "ledger-v1", "sets": sets}, handle, indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="sizes the fixed op count (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny tables and op counts, for the self-tests")
    parser.add_argument("--out", metavar="FILE",
                        help="append this set's reports to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)

    if args.compare:
        import compare
        return compare.compare_files(*args.compare)
    _use_engine_of_this_checkout()
    if args.repeat_check:
        import compare
        first, worst_a = run_set(args)
        second, worst_b = run_set(args)
        return max(worst_a, worst_b, compare.compare_sets([first], [second]))
    if args.workload is None:
        reports, worst = run_set(args)
        if args.out:
            append_set(args.out, reports)
        return worst
    run = run_traced if args.trace else run_untraced
    report = run(args.workload, args.seed, args.seconds, args.smoke)
    print_report(report)
    if args.out:
        append_set(args.out, [report])
    print(driver_line(report))
    return int(report["failed"] > 0)


if __name__ == "__main__":
    sys.exit(main())
