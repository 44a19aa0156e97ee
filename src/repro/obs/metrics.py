"""Metric primitives: counters, gauges, log-bucket histograms, timelines.

Everything here is built around three requirements the experiments put on
telemetry:

* **streaming** -- a metric is updated millions of times per run, so each
  update is O(1) and allocation-free;
* **mergeable** -- sweep replicates run in separate processes; their
  snapshots must combine into one distribution without access to the raw
  samples.  Histograms therefore use *fixed* logarithmic buckets (the
  bucket boundaries are a pure function of the growth constant, never of
  the data), so merging is bucket-wise addition and is associative;
* **serialisable** -- every metric round-trips through a plain-JSON dict
  (:meth:`to_dict` / :meth:`from_dict`) so a run's snapshot can be
  exported next to its spans and reloaded bit-identically.

The relative error of a histogram quantile is bounded by the bucket
width: with the default growth of ``2**(1/8)`` (~9% per bucket) a
reported quantile is within ~4.5% of the exact sample quantile.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError

#: Default histogram bucket growth factor: 8 buckets per octave.
DEFAULT_GROWTH = 2.0 ** 0.125


class Counter:
    """A monotonically accumulating count (int or float)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> Any:
        return self.value

    @classmethod
    def from_dict(cls, data: Any) -> "Counter":
        return cls(data)


class Gauge:
    """A point-in-time value, with the min/max envelope it has visited."""

    __slots__ = ("value", "min", "max", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1

    def merge(self, other: "Gauge") -> None:
        """Combine envelopes; the merged point value is the other's last
        (merge order is documented as last-writer-wins)."""
        if other.updates:
            self.value = other.value
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.updates += other.updates

    def to_dict(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "min": self.min if self.updates else None,
            "max": self.max if self.updates else None,
            "updates": self.updates,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Gauge":
        gauge = cls()
        gauge.value = data["value"]
        gauge.updates = data["updates"]
        gauge.min = data["min"] if data["min"] is not None else math.inf
        gauge.max = data["max"] if data["max"] is not None else -math.inf
        return gauge


class Histogram:
    """A streaming histogram over fixed logarithmic buckets.

    A positive value ``v`` lands in bucket ``floor(log(v) / log(growth))``
    whose bounds are ``[growth**i, growth**(i+1))``; values ``<= 0`` are
    counted in a dedicated zero bucket (the simulator's durations are
    non-negative, and an exact zero -- e.g. a wait that never blocked --
    is common and meaningful).  Because the boundaries depend only on
    ``growth``, two histograms with the same growth merge exactly, in any
    order and grouping.
    """

    __slots__ = ("growth", "_inv_log", "count", "total", "min", "max",
                 "zeros", "buckets")

    def __init__(self, growth: float = DEFAULT_GROWTH) -> None:
        if growth <= 1.0:
            raise ConfigurationError(f"growth must be > 1, got {growth!r}")
        self.growth = growth
        self._inv_log = 1.0 / math.log(growth)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zeros = 0
        self.buckets: Dict[int, int] = {}

    # -- recording -----------------------------------------------------------
    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zeros += 1
            return
        index = math.floor(math.log(value) * self._inv_log)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    # -- queries -------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _bucket_mid(self, index: int) -> float:
        """Representative value: geometric mean of the bucket bounds."""
        return self.growth ** (index + 0.5)

    def quantile(self, q: float) -> float:
        """Approximate ``q``-th percentile (``0 <= q <= 100``).

        Exact to within one bucket width; 0.0 when empty.
        """
        if not 0 <= q <= 100:
            raise ConfigurationError(f"q must be in [0, 100], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = self.zeros
        if rank <= seen:
            return max(0.0, self.min)
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if rank <= seen:
                return min(max(self._bucket_mid(index), self.min), self.max)
        return self.max

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        return [self.quantile(q) for q in qs]

    # -- merging -------------------------------------------------------------
    def merge(self, other: "Histogram") -> None:
        if not math.isclose(other.growth, self.growth):
            raise ConfigurationError(
                f"cannot merge histograms with growths {self.growth!r} "
                f"and {other.growth!r}")
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.zeros += other.zeros
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "growth": self.growth,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zeros": self.zeros,
            "buckets": {str(index): self.buckets[index]
                        for index in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Histogram":
        hist = cls(growth=data["growth"])
        hist.count = data["count"]
        hist.total = data["total"]
        hist.min = data["min"] if data["min"] is not None else math.inf
        hist.max = data["max"] if data["max"] is not None else -math.inf
        hist.zeros = data["zeros"]
        hist.buckets = {int(index): n for index, n in data["buckets"].items()}
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram(n={self.count}, mean={self.mean:.4g}, "
                f"p50={self.quantile(50):.4g}, p99={self.quantile(99):.4g})")


class Timeline:
    """Busy-time accumulated into fixed simulated-time windows.

    The utilisation-timeline metric: ``add(start, duration)`` spreads one
    service interval over the windows it overlaps, so
    :meth:`utilisation` recovers the busy *fraction* per window --
    e.g. the CPU's load shape across a run, not just its mean.  Windows
    are addressed by index, so timelines merge bucket-wise like
    histograms.
    """

    __slots__ = ("window", "buckets")

    def __init__(self, window: float = 0.25) -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window!r}")
        self.window = window
        self.buckets: Dict[int, float] = {}

    def add(self, start: float, duration: float) -> None:
        remaining = duration
        position = start
        while remaining > 0:
            index = int(position // self.window)
            window_end = (index + 1) * self.window
            slice_len = min(remaining, window_end - position)
            self.buckets[index] = self.buckets.get(index, 0.0) + slice_len
            remaining -= slice_len
            position = window_end

    def utilisation(self) -> List[Tuple[float, float]]:
        """Per-window ``(window_start, busy_fraction)``, in time order."""
        return [(index * self.window, min(1.0, busy / self.window))
                for index, busy in sorted(self.buckets.items())]

    def merge(self, other: "Timeline") -> None:
        if not math.isclose(other.window, self.window):
            raise ConfigurationError(
                f"cannot merge timelines with windows {self.window!r} "
                f"and {other.window!r}")
        for index, busy in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0.0) + busy

    def to_dict(self) -> Dict[str, Any]:
        return {
            "window": self.window,
            "buckets": {str(index): self.buckets[index]
                        for index in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Timeline":
        timeline = cls(window=data["window"])
        timeline.buckets = {int(index): busy
                            for index, busy in data["buckets"].items()}
        return timeline


class MetricsRegistry:
    """A namespace of metrics, addressed by dotted name.

    Accessors are get-or-create, so instrumentation sites never have to
    pre-register anything; a metric that never fires simply never exists
    (and never appears in the snapshot).
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.timelines: Dict[str, Timeline] = {}

    # -- get-or-create accessors ----------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge()
        return metric

    def histogram(self, name: str,
                  growth: float = DEFAULT_GROWTH) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(growth=growth)
        return metric

    def timeline(self, name: str, window: float = 0.25) -> Timeline:
        metric = self.timelines.get(name)
        if metric is None:
            metric = self.timelines[name] = Timeline(window=window)
        return metric

    # -- one-shot update helpers ---------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        self.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def add_busy(self, name: str, start: float, duration: float) -> None:
        self.timeline(name).add(start, duration)

    # -- merging & serialisation ---------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (bucket-wise, associative)."""
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other.gauges.items():
            self.gauge(name).merge(gauge)
        for name, hist in other.histograms.items():
            self.histogram(name, growth=hist.growth).merge(hist)
        for name, timeline in other.timelines.items():
            self.timeline(name, window=timeline.window).merge(timeline)

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        self.merge(MetricsRegistry.from_snapshot(snapshot))

    def snapshot(self) -> Dict[str, Any]:
        """The whole registry as a plain-JSON dict (sorted names)."""
        return {
            "counters": {name: self.counters[name].to_dict()
                         for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name].to_dict()
                       for name in sorted(self.gauges)},
            "histograms": {name: self.histograms[name].to_dict()
                           for name in sorted(self.histograms)},
            "timelines": {name: self.timelines[name].to_dict()
                          for name in sorted(self.timelines)},
        }

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, Any]) -> "MetricsRegistry":
        registry = cls()
        for name, data in snapshot.get("counters", {}).items():
            registry.counters[name] = Counter.from_dict(data)
        for name, data in snapshot.get("gauges", {}).items():
            registry.gauges[name] = Gauge.from_dict(data)
        for name, data in snapshot.get("histograms", {}).items():
            registry.histograms[name] = Histogram.from_dict(data)
        for name, data in snapshot.get("timelines", {}).items():
            registry.timelines[name] = Timeline.from_dict(data)
        return registry

    @staticmethod
    def merge_snapshots(
            snapshots: Iterable[Optional[Dict[str, Any]]]) -> "MetricsRegistry":
        """Merge many snapshots (``None`` entries skipped) into one registry."""
        merged = MetricsRegistry()
        for snapshot in snapshots:
            if snapshot is not None:
                merged.merge_snapshot(snapshot)
        return merged
