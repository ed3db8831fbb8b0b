"""Benchmark harness support: experiment report registry.

Every benchmark registers the table/series it regenerates (shaped like the
paper's Table 1, Figure 1, or the §2-§6 claims) via :func:`record_experiment`.
The collected reports are printed after the pytest run so they survive
output capturing and land in ``bench_output.txt``.  Speed claims are
measured by the ledger (``benchmarks/ledger/run.py``), not here.
"""

from typing import List, Tuple

from repro import sanitizer

_REPORTS: List[Tuple[str, str, List[str]]] = []


def pytest_sessionfinish(session, exitstatus):
    """Under ``REPRO_SANITIZE=1`` the benchmarks double as a sanitizer gate
    (the C2 concurrent OLAP/ETL bench is the interesting workload)."""
    if sanitizer.enabled():
        sanitizer.assert_clean()


def record_experiment(experiment_id: str, title: str, lines) -> None:
    """Register one experiment's regenerated output for the final report."""
    _REPORTS.append((experiment_id, title, list(lines)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    write = terminalreporter.write_line
    write("")
    write("=" * 78)
    write("EXPERIMENT REPORTS (paper artifacts regenerated by this run)")
    write("=" * 78)
    for experiment_id, title, lines in sorted(_REPORTS):
        write("")
        write(f"--- {experiment_id}: {title} ---")
        for line in lines:
            write("  " + line)
    write("")
