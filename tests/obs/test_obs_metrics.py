"""The metrics registry and its deterministic summaries."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import MetricsRegistry, percentile
from repro.obs.metrics import summarize_values


class TestPercentile:
    def test_nearest_rank_on_a_known_series(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(values, 50) == 5.0
        assert percentile(values, 90) == 9.0
        assert percentile(values, 99) == 10.0
        assert percentile(values, 100) == 10.0

    def test_single_value(self):
        assert percentile([42.0], 50) == 42.0
        assert percentile([42.0], 99) == 42.0

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestSummarizeValues:
    def test_summary_fields(self):
        summary = summarize_values([3.0, 1.0, 2.0])
        assert summary["count"] == 3
        assert summary["total"] == 6.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == 2.0
        assert summary["p50"] == 2.0
        assert summary["p99"] == 3.0


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.count("a", 4)
        assert registry.counter_value("a") == 5
        assert registry.counter_value("missing") == 0

    def test_gauges_keep_the_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("depth", 3)
        registry.gauge("depth", 9)
        assert registry.snapshot()["gauges"] == {"depth": 9}

    def test_histograms_keep_raw_observations(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.2)
        registry.observe("lat", 0.1)
        assert registry.histogram_values("lat") == [0.2, 0.1]

    def test_snapshot_is_sorted_and_summarized(self):
        registry = MetricsRegistry()
        registry.count("b")
        registry.count("a", 2)
        registry.gauge("g", 1.5)
        registry.observe("h", 1.0)
        registry.observe("h", 3.0)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"]["h"]["count"] == 2
        assert snapshot["histograms"]["h"]["mean"] == 2.0

    def test_merge_combines_both_registries(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.count("a", 1)
        right.count("a", 2)
        right.gauge("g", 5)
        right.observe("h", 1.0)
        left.merge(right)
        assert left.counter_value("a") == 3
        assert left.snapshot()["gauges"] == {"g": 5}
        assert left.histogram_values("h") == [1.0]

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.gauge("g", 1)
        registry.observe("h", 1.0)
        registry.reset()
        assert registry.counter_value("a") == 0
        assert registry.snapshot()["gauges"] == {}
        assert registry.histogram_values("h") == []

    def test_concurrent_mutations_lose_nothing(self):
        registry = MetricsRegistry()

        def burst(worker):
            for i in range(500):
                registry.count("a")
                registry.observe("h", float(i))
                registry.gauge(f"g{worker}", float(i))

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(burst, range(4)))
        assert registry.counter_value("a") == 2000
        assert len(registry.histogram_values("h")) == 2000
        assert registry.snapshot()["gauges"] == {f"g{w}": 499.0 for w in range(4)}

    def test_merge_while_the_other_registry_is_observed(self):
        # Merging copies ``source`` under its lock, so observers adding new
        # histograms meanwhile cannot break the merge's iteration.  Three
        # threads on two cores, switching often, inside the merge too.
        target, source = MetricsRegistry(), MetricsRegistry()
        done = threading.Event()

        def observe(prefix):
            for i in range(4000):
                source.observe(f"{prefix}{i}", float(i))

        def merge():
            merges = 0
            while not done.is_set():
                target.merge(source)
                merges += 1
            return merges

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                merging = pool.submit(merge)
                try:
                    for observer in [pool.submit(observe, p) for p in "ab"]:
                        observer.result(timeout=60)
                finally:
                    done.set()
                merges = merging.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        target.merge(source)
        assert merges > 0
        for prefix in "ab":
            for i in range(4000):
                values = target.histogram_values(f"{prefix}{i}")
                assert values and set(values) == {float(i)}
