"""The observer contract: no-op by default, context-local, thread-portable."""

import time
from concurrent.futures import ThreadPoolExecutor

from repro.obs import (
    NULL_OBSERVER,
    Observer,
    TracingObserver,
    current_observer,
    use_observer,
)


class TestNullObserver:
    def test_default_observer_is_the_shared_noop(self):
        assert current_observer() is NULL_OBSERVER
        assert NULL_OBSERVER.enabled is False

    def test_noop_span_supports_the_full_protocol(self):
        with NULL_OBSERVER.span("anything", attr=1) as span:
            span.set_attrs(more=2)
        NULL_OBSERVER.count("c")
        NULL_OBSERVER.count("c", 5)
        NULL_OBSERVER.gauge("g", 3.5)
        NULL_OBSERVER.observe("h", 0.25)
        assert NULL_OBSERVER.current_span_id() is None

    def test_noop_activation_is_reentrant(self):
        with NULL_OBSERVER.activate(None):
            with NULL_OBSERVER.activate(17):
                assert current_observer() is NULL_OBSERVER

    def test_base_observer_class_is_the_noop(self):
        observer = Observer()
        assert observer.enabled is False
        with observer.span("x"):
            pass


class TestUseObserver:
    def test_installs_and_restores(self):
        observer = TracingObserver()
        with use_observer(observer) as installed:
            assert installed is observer
            assert current_observer() is observer
        assert current_observer() is NULL_OBSERVER

    def test_nesting_restores_the_outer_observer(self):
        outer, inner = TracingObserver(), TracingObserver()
        with use_observer(outer):
            with use_observer(inner):
                assert current_observer() is inner
            assert current_observer() is outer

    def test_restores_on_exception(self):
        observer = TracingObserver()
        try:
            with use_observer(observer):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_observer() is NULL_OBSERVER


class TestTracingObserver:
    def test_spans_nest_and_record_attrs(self):
        observer = TracingObserver()
        with use_observer(observer):
            with observer.span("outer", kind="test") as outer:
                with observer.span("inner", index=3):
                    pass
                outer.set_attrs(post=True)
        spans = observer.spans()
        assert [span.name for span in spans] == ["outer", "inner"]
        outer_span, inner_span = spans
        assert outer_span.parent_id is None
        assert inner_span.parent_id == outer_span.span_id
        assert outer_span.attrs == {"kind": "test", "post": True}
        assert inner_span.attrs == {"index": 3}
        assert outer_span.end_s >= inner_span.end_s >= inner_span.start_s

    def test_current_span_id_tracks_the_open_span(self):
        observer = TracingObserver()
        with use_observer(observer):
            assert observer.current_span_id() is None
            with observer.span("a") as span_a:
                assert observer.current_span_id() == span_a.span_id
            assert observer.current_span_id() is None

    def test_metrics_funnel_into_the_registry(self):
        observer = TracingObserver()
        observer.count("hits")
        observer.count("hits", 2)
        observer.gauge("depth", 7)
        observer.observe("latency", 0.5)
        observer.observe("latency", 1.5)
        assert observer.metrics.counter_value("hits") == 3
        assert observer.metrics.snapshot()["gauges"] == {"depth": 7}
        assert observer.metrics.histogram_values("latency") == [0.5, 1.5]

    def test_activate_reparents_spans_across_threads(self):
        observer = TracingObserver()
        with use_observer(observer):
            with observer.span("parent") as parent:
                parent_id = observer.current_span_id()

                def worker():
                    # Fresh threads see the default observer until the
                    # captured one is re-entered.
                    assert current_observer() is NULL_OBSERVER
                    with observer.activate(parent_id):
                        assert current_observer() is observer
                        with observer.span("child"):
                            time.sleep(0.001)

                with ThreadPoolExecutor(max_workers=2) as pool:
                    list(pool.map(lambda _i: worker(), range(3)))
        children = [span for span in observer.spans() if span.name == "child"]
        assert len(children) == 3
        assert all(span.parent_id == parent.span_id for span in children)

    def test_span_ids_are_unique_under_concurrency(self):
        observer = TracingObserver()

        def burst():
            with observer.activate(None):
                for _ in range(50):
                    with observer.span("s"):
                        pass

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda _i: burst(), range(4)))
        ids = [span.span_id for span in observer.spans()]
        assert len(ids) == 200
        assert len(set(ids)) == 200
