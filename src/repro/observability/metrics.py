"""Engine metrics: one database's counters, gauges, and latency histogram.

The paper's cooperation pillar (§4) says the embedded engine shares a
machine with its host application; this module is how the application
*sees* that sharing: queries executed, rows returned, block-cache traffic,
WAL bytes, compression-level switches, and (when quacksan is enabled) lock
contention, all exported through ``connection.metrics()`` and a
Prometheus-style text dump that drops straight into a scrape endpoint.

Metrics are **per database** and **always on**, and nothing here counts:
each number is kept by the component that does the work (the buffer
manager, the caches, the WAL, the statement log, ...) as it does it, and
:meth:`Database.metrics() <repro.database.Database.metrics>` reads them
into one list of :class:`Metric` rows when an export asks.  Every name is
present from the moment the database opens, at 0.  This module renders
that list: :func:`snapshot` as a plain dict, :func:`render_text` as one
scrape page.  Both append quacksan's lock series, which stay process-wide
because the sanitizer is.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, NamedTuple, Sequence, Tuple

__all__ = ["Metric", "snapshot", "render_text", "DEFAULT_TIME_BUCKETS"]

#: Fixed histogram bounds for query latencies, in seconds.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


class Metric(NamedTuple):
    """One exported metric.

    ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"``.  A counter
    or gauge ``value`` is a number; a histogram's is
    ``{"count": ..., "sum": ..., "buckets": {bound: cumulative count}}``.
    """

    name: str
    kind: str
    help: str
    value: Any


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash must go first -- escaping it last would re-escape the
    backslashes introduced for quotes and newlines.
    """
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label_value(str(value))}"'
                     for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # The exposition format spells non-finite values +Inf/-Inf/NaN
    # (histogram +Inf buckets, uninitialized gauges); int() on them raises.
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def _lock_stat_gauges() -> List[Tuple[str, Mapping[str, str], float]]:
    """Lock contention from quacksan (empty while disabled)."""
    from ..sanitizer import lock_statistics

    rows: List[Tuple[str, Mapping[str, str], float]] = []
    for lock_name, stats in sorted(lock_statistics().items()):
        data = stats.as_dict()
        for field in ("acquisitions", "contentions"):
            rows.append((f"repro_lock_{field}",
                         {"lock": lock_name}, float(data.get(field, 0))))
        rows.append(("repro_lock_hold_seconds_total",
                     {"lock": lock_name},
                     float(data.get("hold_time", 0.0))))
    return rows


def snapshot(metrics: Sequence[Metric]) -> Dict[str, Any]:
    """Plain-dict export: counters/gauges as numbers, histograms as
    ``{"count": ..., "sum": ..., "buckets": {bound: cumulative}}``, and
    each quacksan lock series as ``{lock name: value}``."""
    out: Dict[str, Any] = {metric.name: metric.value for metric in metrics}
    for name, labels, value in _lock_stat_gauges():
        out.setdefault(name, {})[labels["lock"]] = value
    return out


def render_text(metrics: Sequence[Metric]) -> str:
    """Prometheus exposition format (one scrape page)."""
    lines: List[str] = []
    for name, kind, help_text, value in metrics:
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        if kind != "histogram":
            lines.append(f"{name} {_format_value(value)}")
            continue
        for bound, count in value["buckets"].items():
            lines.append(f'{name}_bucket{{le="{bound}"}} {count}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {value["count"]}')
        lines.append(f"{name}_sum {repr(value['sum'])}")
        lines.append(f"{name}_count {value['count']}")
    seen_types = set()
    for name, labels, value in _lock_stat_gauges():
        if name not in seen_types:
            lines.append(f"# TYPE {name} gauge")
            seen_types.add(name)
        lines.append(f"{name}{_render_labels(labels)} "
                     f"{_format_value(value)}")
    return "\n".join(lines) + "\n"
