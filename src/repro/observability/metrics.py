"""Engine metrics: process-wide counters, gauges, and histograms.

The paper's cooperation pillar (§4) says the embedded engine shares a
machine with its host application; this module is how the application
*sees* that sharing: queries executed, rows scanned, block-cache traffic,
WAL bytes, compression-level switches, and (when quacksan is enabled) lock
contention, all exported through ``connection.metrics()`` and a
Prometheus-style text dump that drops straight into a scrape endpoint.

Metrics are **always on**: every instrument is fed from low-frequency
engine points (per statement, per commit group, per block-cache access),
never from the per-value hot path, so the cost is a handful of lock
acquisitions per query.  All metric objects must be created through the
:class:`MetricsRegistry` (``registry().counter(...)``); quacklint's QLO002
flags off-registry construction.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "registry",
           "DEFAULT_TIME_BUCKETS"]

#: Fixed histogram bounds for query latencies, in seconds.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


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


class Counter:
    """Monotonically increasing count (e.g. queries executed)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def render(self) -> List[str]:
        lines = [f"# TYPE {self.name} counter"]
        if self.help:
            lines.insert(0, f"# HELP {self.name} {self.help}")
        lines.append(f"{self.name} {_format_value(self._value)}")
        return lines


class Gauge:
    """A value that can go up and down (e.g. buffer bytes in use)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def render(self) -> List[str]:
        lines = [f"# TYPE {self.name} gauge"]
        if self.help:
            lines.insert(0, f"# HELP {self.name} {self.help}")
        lines.append(f"{self.name} {_format_value(self._value)}")
        return lines


class Histogram:
    """Distribution over fixed bucket bounds (cumulative, Prometheus-style)."""

    __slots__ = ("name", "help", "bounds", "_bucket_counts", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, help_text: str = "",
                 bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        self.name = name
        self.help = help_text
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._bucket_counts = [0] * len(self.bounds)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[index] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def buckets(self) -> Dict[float, int]:
        """Cumulative count per upper bound (snapshot)."""
        with self._lock:
            return dict(zip(self.bounds, self._bucket_counts))

    def _reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * len(self.bounds)
            self._sum = 0.0
            self._count = 0

    def render(self) -> List[str]:
        lines = [f"# TYPE {self.name} histogram"]
        if self.help:
            lines.insert(0, f"# HELP {self.name} {self.help}")
        with self._lock:
            for bound, count in zip(self.bounds, self._bucket_counts):
                lines.append(
                    f'{self.name}_bucket{{le="{bound}"}} {count}')
            lines.append(f'{self.name}_bucket{{le="+Inf"}} {self._count}')
            lines.append(f"{self.name}_sum {repr(self._sum)}")
            lines.append(f"{self.name}_count {self._count}")
        return lines


class MetricsRegistry:
    """Process-wide home of every engine metric.

    Instruments are created lazily and idempotently: the same
    ``counter(name)`` call from two threads returns one shared object.
    Export has two shapes: :meth:`snapshot` (a plain dict for programmatic
    use) and :meth:`render_text` (Prometheus exposition format).  When the
    quacksan sanitizer is active, per-lock contention/hold statistics are
    folded into both exports as synthetic gauges.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument factories ---------------------------------------------
    def counter(self, name: str, help_text: str = "") -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = Counter(name, help_text)
                self._counters[name] = metric
            return metric

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = Gauge(name, help_text)
                self._gauges[name] = metric
            return metric

    def histogram(self, name: str, help_text: str = "",
                  bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = Histogram(name, help_text, bounds)
                self._histograms[name] = metric
            return metric

    # -- views --------------------------------------------------------------
    @property
    def counters(self) -> Dict[str, Counter]:
        with self._lock:
            return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, Gauge]:
        with self._lock:
            return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    def _lock_stat_gauges(self) -> List[Tuple[str, Mapping[str, str], float]]:
        """Lock contention folded from quacksan (empty while disabled)."""
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

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict export: counters/gauges as numbers, histograms as
        ``{"count": ..., "sum": ..., "buckets": {bound: cumulative}}``."""
        out: Dict[str, Any] = {}
        for name, counter in sorted(self.counters.items()):
            out[name] = counter.value
        for name, gauge in sorted(self.gauges.items()):
            out[name] = gauge.value
        for name, histogram in sorted(self.histograms.items()):
            out[name] = {"count": histogram.count, "sum": histogram.sum,
                         "buckets": histogram.buckets()}
        for name, labels, value in self._lock_stat_gauges():
            out.setdefault(name, {})[labels["lock"]] = value
        return out

    def render_text(self) -> str:
        """Prometheus exposition format (one scrape page)."""
        lines: List[str] = []
        for _, counter in sorted(self.counters.items()):
            lines.extend(counter.render())
        for _, gauge in sorted(self.gauges.items()):
            lines.extend(gauge.render())
        for _, histogram in sorted(self.histograms.items()):
            lines.extend(histogram.render())
        lock_rows = self._lock_stat_gauges()
        seen_types = set()
        for name, labels, value in lock_rows:
            if name not in seen_types:
                lines.append(f"# TYPE {name} gauge")
                seen_types.add(name)
            lines.append(f"{name}{_render_labels(labels)} "
                         f"{_format_value(value)}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every instrument (tests; instruments stay registered)."""
        with self._lock:
            metrics = (list(self._counters.values())
                       + list(self._gauges.values())
                       + list(self._histograms.values()))
        for metric in metrics:
            metric._reset()


#: The process-wide registry every engine component feeds.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _REGISTRY
