"""Metrics registry: counters, gauges, and histograms.

Histogram summaries are deterministic: percentiles use the nearest-rank
method over the sorted stored observations, so two runs that record the
same values produce byte-identical summaries regardless of insertion
order or platform.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Tuple


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of pre-sorted ``sorted_values``."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[rank - 1]


def summarize_values(values: List[float]) -> Dict[str, float]:
    """Deterministic summary of a list of observations."""
    ordered = sorted(values)
    count = len(ordered)
    total = sum(ordered)
    return {
        "count": count,
        "total": total,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": total / count,
        "p50": percentile(ordered, 50.0),
        "p90": percentile(ordered, 90.0),
        "p99": percentile(ordered, 99.0),
    }


class MetricsRegistry:
    """Accumulates counters, gauges, and raw histogram observations.

    Every mutation and every read is guarded by a lock, so one registry can
    be shared across threads (an observer's replications, a server's
    handlers).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Append one observation to histogram ``name``."""
        with self._lock:
            self._histograms.setdefault(name, []).append(value)

    def counter_value(self, name: str, default: float = 0) -> float:
        """Current value of counter ``name`` (``default`` if never counted)."""
        with self._lock:
            return self._counters.get(name, default)

    def histogram_values(self, name: str) -> List[float]:
        """Copy of the raw observations recorded for histogram ``name``."""
        with self._lock:
            return list(self._histograms.get(name, []))

    def _copy(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, List[float]]]:
        """Counters, gauges and histograms, copied under the lock."""
        with self._lock:
            return (
                dict(self._counters),
                dict(self._gauges),
                {name: list(vals) for name, vals in self._histograms.items()},
            )

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's state into this one (gauges: theirs win).

        ``other`` is copied under its own lock and folded in under this
        one's; the two locks are never held together.
        """
        counters, gauges, histograms = other._copy()
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(gauges)
            for name, values in histograms.items():
                self._histograms.setdefault(name, []).extend(values)

    def reset(self) -> None:
        """Drop all recorded state."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic, JSON-ready view: sorted names, summarized histograms."""
        counters, gauges, histograms = self._copy()
        return {
            "counters": {name: counters[name] for name in sorted(counters)},
            "gauges": {name: gauges[name] for name in sorted(gauges)},
            "histograms": {
                name: summarize_values(histograms[name]) for name in sorted(histograms)
            },
        }
