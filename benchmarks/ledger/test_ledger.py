"""Self-tests of the benchmark ledger, over ``--smoke`` runs.

Not part of tier-1 (``testpaths`` is ``tests``); run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAMES = list(metrics.WORKLOADS)


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    """One full smoke set, untraced and traced, through the real command."""
    out = tmp_path_factory.mktemp("ledger") / "set.json"
    done = subprocess.run(RUN + ["--smoke", "--trace", "--out", str(out)],
                          stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stdout
    with open(out) as handle:
        reports = json.load(handle)["sets"][-1]
    return {(report["workload"], report["trace"]): report
            for report in reports}, done.stdout


def test_benchmark_json_repeats_the_ledgers_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert declared["paths"] == [os.path.relpath(HERE, ROOT)]
    assert declared["run_seconds"] == run.NOMINAL_SECONDS
    assert {w["name"]: w["why"] for w in declared["workloads"]} \
        == metrics.WORKLOADS
    by_name = {metric.name: metric for metric in metrics.END_TO_END}
    assert [m["name"] for m in declared["end_to_end"]] \
        == list(metrics.GATED_BY_DRIVER)
    for entry in declared["end_to_end"]:
        metric = by_name[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) \
            == (metric.unit, metric.better, metric.bound)
        assert 0 < entry["bound"] <= 0.25
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]


def test_every_end_to_end_metric_is_reported(smoke_set):
    reports, text = smoke_set
    for name in NAMES:
        report = reports[name, 0]
        assert report["samples"] >= 4 and report["setup_samples"] >= 3
        assert report["tail_percentile"] is not None
        for metric in metrics.END_TO_END:
            value = report["metrics"][metric.name]
            if metric.name == "stored_bytes_per_user_byte":
                assert (value is not None) == (name == "etl_durable")
            else:
                assert isinstance(value, float), (name, metric.name)
                assert value > 0 or metric.name == "failed_frac"
        assert report["metrics"]["failed_frac"] == 0.0, report["failures"]
        assert report["clients"] <= 2  # nproc of the sandbox
    for metric in metrics.END_TO_END:  # printed by name, with unit and n
        line = next(line for line in text.splitlines()
                    if line.split()[:1] == [metric.name])
        assert metric.unit in line and ("n=" in line or "/" in line)


def test_every_per_layer_metric_has_a_verdict(smoke_set):
    reports, _ = smoke_set
    for name in NAMES:
        report = reports[name, 1]
        assert report["failed"] == 0, report["failures"]
        assert report["unavailable"] == {}
        assert set(report["metrics"]) == {m.name for m in metrics.PER_LAYER}
        assert report["metrics"]["trace.overhead_pct"] is not None
        assert report["digest"] == reports[name, 0]["digest"]
    assert reports["serve_mixed", 1]["metrics"]["server.wait_share"] is not None
    assert reports["etl_durable", 1]["metrics"]["storage.recover_ms"] > 0
    assert reports["transfer_bulk", 1]["metrics"][
        "client.export_numpy_rows_s"] > reports["transfer_bulk", 1][
        "metrics"]["client.export_rows_rows_s"]


def test_span_trees_are_well_formed(smoke_set):
    reports, _ = smoke_set
    for name in NAMES:
        with open(os.path.join(ROOT, reports[name, 1]["trace_file"])) as handle:
            dumped = json.load(handle)["spans"]
        recorded = []
        for item in dumped:
            span = spans.Span(item["id"], item["parent"], item["op"],
                              item["thread"], item["name"], item["start_ns"])
            span.end = item["end_ns"]
            recorded.append(span)
        assert len(recorded) == reports[name, 1]["spans"] > 0
        assert spans.validate(recorded) == []
        roots = [span for span in recorded if span.parent_id is None]
        assert {span.name for span in roots} \
            == ({"session"} if name == "serve_mixed" else {"op"})
        assert len({span.op_id for span in roots}) == len(roots)
        shares = spans.layer_shares(recorded)["share_pct"]
        assert all(share >= 0 for share in shares.values())
        assert sum(shares.values()) <= 100.0 + 1e-6


def test_driver_lines():
    for trace, table in ((0, metrics.GATED_BY_DRIVER),
                         (1, [m.name for m in metrics.PER_LAYER])):
        done = subprocess.run(
            RUN + ["--workload", "etl_durable", "--seed", "5", "--seconds",
                   "22", "--trace", str(trace), "--smoke"],
            stdout=subprocess.PIPE, text=True)
        assert done.returncode == 0, done.stdout
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == list(table)
        for entry in result["metrics"].values():
            assert set(entry) == {"value", "unit"}
            assert isinstance(entry["value"], (int, float))


def test_digest_is_a_function_of_the_seed(tmp_path):
    for name in NAMES:
        workload_class = run._workload_class(name)
        plan = run.Plan(workload_class, run.NOMINAL_SECONDS, smoke=True)
        digests = []
        for seed in (1, 1, 2):
            workload = workload_class(seed, plan.total, plan.scale,
                                      str(tmp_path))
            workload.setup()
            workload.close()
            digests.append(workload.digest)
        assert digests[0] == digests[1] != digests[2], name


def test_a_wrong_oracle_fails_the_command(monkeypatch, capsys):
    import olap_scan
    monkeypatch.setattr(olap_scan.OlapScan, "reference_q6",
                        lambda self, *parameters: [(1.0,)])
    code = run.main(["--workload", "olap_scan", "--smoke"])
    printed = capsys.readouterr().out
    assert code != 0
    assert "FAILED" in printed and "Q6" in printed
    assert json.loads(printed.splitlines()[-1])["correct"] is False


def test_a_missing_entry_point_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(layers, "ENTRY_POINTS", layers.ENTRY_POINTS + (
        ("sql.gone", "repro.sql", None, "no_such_function", "call"),
        ("etl.gone", "repro.no_such_module", None, "anything", "call")))
    import repro.client.connection as connection
    original = connection.Connection.execute
    tracer = spans.Tracer()
    try:
        unavailable = layers.install(tracer)
        assert connection.Connection.execute is not original
    finally:
        layers.uninstall()
    assert connection.Connection.execute is original
    assert set(unavailable) == {"sql.gone", "etl.gone"}
    assert "no_such_function" in unavailable["sql.gone"]


def test_self_time_and_validation():
    tracer = spans.Tracer()
    root = tracer.begin("op", op_id=7)
    child = tracer.begin("sql.parse")
    tracer.finish(child)
    other = tracer.begin("execution.run")
    tracer.finish(other)
    tracer.finish(root)
    recorded = tracer.spans()
    assert spans.validate(recorded) == []
    own = spans.self_times(recorded)
    assert own[root.span_id] \
        == root.duration - child.duration - other.duration >= 0
    assert {span.op_id for span in recorded} == {7}
    shares = spans.layer_shares(recorded)
    assert abs(sum(shares["share_pct"].values()) - 100.0) < 1e-6
    # a wrapped call outside any op records nothing
    assert tracer.wrap("client.execute", lambda: 3)() == 3
    assert len(tracer.spans()) == 3
    child.end = root.end + 10
    assert any("outside" in problem for problem in spans.validate(recorded))


def _set(workload, **values):
    return [{"workload": workload, "trace": 0, "seed": 1, "ops": 10,
             "digest": "d", "metrics": values}]


def test_compare_verdicts(capsys):
    base = [_set("olap_scan", op_ms_p50=100.0 + i, throughput_ops_s=10.0,
                 failed_frac=0.0) for i in range(5)]
    slower = [_set("olap_scan", op_ms_p50=140.0 + i, throughput_ops_s=10.0,
                   failed_frac=0.0) for i in range(5)]
    noisy = [_set("olap_scan", op_ms_p50=60.0 + 30 * i, throughput_ops_s=10.0,
                  failed_frac=0.0) for i in range(5)]
    assert compare.compare_sets(base, base) == 0
    assert "within bound" in capsys.readouterr().out
    assert compare.compare_sets(base, slower) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.compare_sets(base, noisy) == 0
    assert "unresolved" in capsys.readouterr().out
    failing = [_set("olap_scan", op_ms_p50=100.0, throughput_ops_s=10.0,
                    failed_frac=0.01)]
    assert compare.compare_sets(base, failing) == 1


def test_tail_percentile_needs_ten_samples_beyond():
    assert metrics.tail_percentile(100, 90.0) == 90.0
    assert metrics.tail_percentile(99, 90.0) == 75.0
    assert metrics.tail_percentile(30000, 99.0) == 99.0
    assert metrics.tail_percentile(200, 90.0) == 90.0
    assert metrics.tail_percentile(6, 90.0) == 50.0
