"""Unit tests for the tracing + metrics subsystem (repro.core.trace).

Covers span nesting and attribute capture, counter/gauge/histogram
math (including parent forwarding), the JSON and Chrome trace_event
export schemas, and the disabled fast path's zero-span-allocation
guarantee.
"""

import gc
import json

import pytest

from repro.core import trace
from repro.core.trace import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    Tracer,
)


class FakeClock:
    """A manually advanced monotonic clock for deterministic timing."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("compile"):
            with tracer.span("compile.elaborate"):
                pass
            with tracer.span("compile.techmap"):
                with tracer.span("compile.techmap.inner"):
                    pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "compile"
        assert [c.name for c in root.children] == [
            "compile.elaborate",
            "compile.techmap",
        ]
        assert root.children[1].children[0].name == "compile.techmap.inner"
        assert tracer.span_names() == [
            "compile",
            "compile.elaborate",
            "compile.techmap",
            "compile.techmap.inner",
        ]

    def test_sibling_spans_are_both_roots(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [r.name for r in tracer.roots] == ["a", "b"]

    def test_wall_time_from_injected_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work"):
            clock.advance(1.5)
        assert tracer.roots[0].wall_time_s == pytest.approx(1.5)

    def test_attributes_and_events(self):
        tracer = Tracer()
        with tracer.span("stage", phase="map") as span:
            span.set_attribute("cells", 13)
            span.set_attributes(cached=False, skipped=False)
            tracer.event("milestone", step=2)
        assert span.attributes["phase"] == "map"
        assert span.attributes["cells"] == 13
        assert span.attributes["cached"] is False
        assert span.events[0]["name"] == "milestone"
        assert span.events[0]["attributes"] == {"step": 2}

    def test_record_attaches_completed_span_under_current(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("run.sample"):
            tracer.record("solver.sa.sample", duration_s=0.25, kernel="dense")
        child = tracer.roots[0].children[0]
        assert child.name == "solver.sa.sample"
        assert child.wall_time_s == pytest.approx(0.25)
        assert child.attributes["kernel"] == "dense"
        # record() never enters the stack, so the parent stayed current.
        assert tracer.roots[0].name == "run.sample"

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("boom")
        assert tracer.roots[0].attributes["error"] == "ValueError"

    def test_find_and_walk(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert tracer.find("b") is tracer.roots[0].children[0]
        assert tracer.find("nope") is None
        assert [s.name for s in tracer.walk()] == ["a", "b"]


# ----------------------------------------------------------------------
# Export schemas
# ----------------------------------------------------------------------
class TestExport:
    def _traced(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("compile", cached=False):
            clock.advance(0.5)
            with tracer.span("compile.techmap") as inner:
                inner.set_attribute("cells", 7)
                inner.set_attribute("wall_time_s", 0.123)
                clock.advance(0.25)
        return tracer

    def test_to_dict_round_trips_through_json(self):
        tracer = self._traced()
        data = json.loads(tracer.to_json())
        (root,) = data["spans"]
        assert root["name"] == "compile"
        assert root["wall_time_s"] == pytest.approx(0.75)
        assert root["children"][0]["attributes"]["cells"] == 7

    def test_content_strips_all_timing(self):
        tracer = self._traced()
        content = tracer.content()
        (root,) = content["spans"]
        assert "start_s" not in root and "wall_time_s" not in root
        child = root["children"][0]
        # Timing-derived attributes are stripped; real content stays.
        assert "wall_time_s" not in child["attributes"]
        assert child["attributes"]["cells"] == 7

    def test_chrome_trace_schema(self):
        tracer = self._traced()
        chrome = tracer.to_chrome_trace()
        assert chrome["displayTimeUnit"] == "ms"
        events = chrome["traceEvents"]
        assert [e["name"] for e in events] == ["compile", "compile.techmap"]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 0 and event["tid"] == 0
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
        # ts is microseconds relative to the tracer epoch.
        assert events[0]["ts"] == pytest.approx(0.0)
        assert events[1]["ts"] == pytest.approx(0.5e6)
        assert events[1]["dur"] == pytest.approx(0.25e6)
        # The category is the span-name prefix, for per-layer filtering.
        assert events[0]["cat"] == "compile"

    def test_chrome_trace_instant_events(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("run"):
            clock.advance(0.1)
            tracer.event("runner.retry", attempt=1)
        chrome = tracer.to_chrome_trace()
        instants = [e for e in chrome["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "runner.retry"
        assert instants[0]["ts"] == pytest.approx(0.1e6)
        assert instants[0]["args"] == {"attempt": 1}

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        data = json.loads(path.read_text())
        assert {e["name"] for e in data["traceEvents"]} == {
            "compile",
            "compile.techmap",
        }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_math(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.get() == 5

    def test_gauge_last_value_wins(self):
        g = Gauge()
        g.set(3)
        g.set(1.5)
        assert g.get() == 1.5

    def test_histogram_aggregates(self):
        h = Histogram()
        h.observe(2.0)
        h.observe_many([4.0, 6.0])
        assert h.count == 3
        assert h.total == pytest.approx(12.0)
        assert h.min == 2.0 and h.max == 6.0
        assert h.mean() == pytest.approx(4.0)
        assert h.percentile(0) == 2.0
        assert h.percentile(100) == 6.0
        summary = h.summary()
        assert summary["count"] == 3 and summary["mean"] == pytest.approx(4.0)

    def test_histogram_bounds_retained_samples(self):
        h = Histogram(max_samples=10)
        h.observe_many(range(100))
        assert h.count == 100
        assert len(h.samples) == 10
        assert h.max == 99.0  # streaming aggregates still exact

    def test_empty_histogram_summary(self):
        assert Histogram().summary() == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
        }

    def test_registry_creates_on_demand_and_remembers(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc()
        assert registry.value("a") == 2
        assert registry.value("never") == 0
        assert "a" in registry and "never" not in registry

    def test_parent_forwarding_single_increment_two_scopes(self):
        process = MetricsRegistry()
        run = MetricsRegistry(parent=process)
        run.counter("runner.sample_retries").inc(3)
        run.gauge("runner.fallback_depth").set(2)
        run.histogram("solver.energy").observe_many([-1.0, -3.0])
        # One recording, visible at both scopes.
        assert run.value("runner.sample_retries") == 3
        assert process.value("runner.sample_retries") == 3
        assert process.value("runner.fallback_depth") == 2
        assert process.histogram("solver.energy").count == 2
        # Run-scoped-only metrics don't leak *from* the parent.
        process.counter("other").inc()
        assert "other" not in run

    def test_as_dict_schema(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(7)
        registry.histogram("h").observe(1.0)
        data = registry.as_dict()
        assert data["counters"] == {"c": 1}
        assert data["gauges"] == {"g": 7.0}
        assert data["histograms"]["h"]["count"] == 1

    def test_render_summary_derives_hit_ratio(self):
        registry = MetricsRegistry()
        registry.counter("cache.compile.hits").inc(3)
        registry.counter("cache.compile.misses").inc(1)
        text = registry.render_summary()
        assert "cache.compile.hit_ratio" in text
        assert "0.750" in text
        assert registry.hit_ratio("cache.compile") == pytest.approx(0.75)

    def test_render_summary_empty(self):
        assert "no metrics" in MetricsRegistry().render_summary()

    def test_hit_ratio_well_defined_at_zero_lookups(self):
        """Regression: a fresh server pre-registers hits/misses at zero
        and renders /metrics before any request -- the derived ratio
        must be an explicit n/a, never 0/0, never NaN."""
        registry = MetricsRegistry()
        registry.counter("cache.compile.hits")
        registry.counter("cache.compile.misses")
        assert registry.hit_ratio("cache.compile") == 0.0
        text = registry.render_summary()
        assert "cache.compile.hit_ratio" in text
        assert "n/a (0 lookups)" in text
        assert "nan" not in text.lower()

    def test_hit_ratio_emitted_when_only_one_twin_exists(self):
        registry = MetricsRegistry()
        registry.counter("cache.embedding.misses").inc(4)
        text = registry.render_summary()
        # All-miss traffic without a .hits twin still derives the line
        # (exactly once).
        assert text.count("cache.embedding.hit_ratio") == 1
        assert "0.000" in text
        assert registry.hit_ratio("cache.embedding") == 0.0

    def test_hit_ratio_clamps_non_finite_counters(self):
        registry = MetricsRegistry()
        registry.counter("cache.c.hits").inc(float("inf"))
        registry.counter("cache.c.misses").inc(1)
        assert registry.hit_ratio("cache.c") == 0.0
        assert "nan" not in registry.render_summary().lower()


# ----------------------------------------------------------------------
# Collector pauses
# ----------------------------------------------------------------------
@pytest.fixture
def explicit_gc_only():
    """No automatic collection may land in a span under test."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


class TestGcPauses:
    def test_collection_is_charged_to_the_innermost_span_only(self, explicit_gc_only):
        with trace.capture() as (tracer, metrics):
            with trace.span("a") as a:
                with trace.span("b") as b:
                    gc.collect()
        assert b.attributes["gc_s"] > 0
        assert "gc_s" not in a.attributes
        assert metrics.value("gc.collections.gen2") == 1
        assert metrics.value("gc.collections.gen0") == 0
        # A pause is timing, not content.
        assert "attributes" not in tracer.content()["spans"][0]["children"][0]

    def test_hook_lives_only_while_a_tracer_is_installed(self):
        assert trace._on_gc not in gc.callbacks
        with trace.capture():
            assert gc.callbacks.count(trace._on_gc) == 1
            with trace.capture():
                assert gc.callbacks.count(trace._on_gc) == 1
            assert gc.callbacks.count(trace._on_gc) == 1
        assert trace._on_gc not in gc.callbacks
        trace.install()
        try:
            assert trace._on_gc in gc.callbacks
        finally:
            trace.uninstall()
        assert trace._on_gc not in gc.callbacks
        with trace.capture(NullTracer()):
            assert trace._on_gc not in gc.callbacks

    def test_collection_outside_every_span_is_only_counted(self, explicit_gc_only):
        with trace.capture() as (tracer, metrics):
            gc.collect(0)
        assert tracer.roots == []
        assert metrics.value("gc.collections.gen0") == 1


# ----------------------------------------------------------------------
# Ambient installation + the disabled fast path
# ----------------------------------------------------------------------
class TestAmbient:
    def test_disabled_by_default(self):
        assert not trace.enabled()
        assert isinstance(trace.tracer(), NullTracer)
        assert isinstance(trace.metrics(), NullMetrics)

    def test_capture_installs_and_restores(self):
        assert not trace.enabled()
        with trace.capture() as (tracer, metrics):
            assert trace.enabled()
            with trace.span("outer"):
                trace.metrics().counter("hits").inc()
            assert tracer.find("outer") is not None
            assert metrics.value("hits") == 1
        assert not trace.enabled()

    def test_install_uninstall(self):
        tracer, metrics = trace.install()
        try:
            assert trace.tracer() is tracer
            assert trace.metrics() is metrics
            assert trace.enabled()
        finally:
            trace.uninstall()
        assert not trace.enabled()

    def test_disabled_path_allocates_no_spans(self):
        """The no-op fast path creates zero Span records."""
        assert not trace.enabled()
        before = trace.span_allocations()
        for _ in range(100):
            with trace.span("hot.loop", attr=1) as span:
                span.set_attribute("k", "v")
                span.add_event("tick")
            trace.record("solver.sa.sample", duration_s=0.1)
            trace.event("instant")
            trace.metrics().counter("c").inc()
            trace.metrics().histogram("h").observe(1.0)
        assert trace.span_allocations() == before

    def test_null_span_is_shared_and_inert(self):
        span = trace.span("anything")
        assert span is trace.span("something.else")
        assert not span.is_recording
        assert span.content() == {}
        assert span.span_names() == []

    def test_null_metrics_store_nothing(self):
        registry = trace.metrics()
        registry.counter("x").inc(100)
        registry.gauge("y").set(5)
        registry.histogram("z").observe(1)
        assert registry.value("x") == 0
        assert registry.as_dict()["counters"] == {}

    def test_run_scoped_registry_works_while_ambient_disabled(self):
        """Parenting to NullMetrics records locally, forwards nowhere."""
        run = MetricsRegistry(parent=trace.metrics())
        run.counter("runner.sample_attempts").inc()
        assert run.value("runner.sample_attempts") == 1

    def test_observe_sample_is_noop_when_disabled(self):
        class FakeSampleSet:
            info = {"sweeps_per_s": 10.0}
            energies = [-1.0]

            def __len__(self):
                return 1

        before = trace.span_allocations()
        trace.observe_sample("sa", FakeSampleSet(), 0.5, kernel="dense")
        assert trace.span_allocations() == before

    def test_observe_sample_records_span_and_metrics(self):
        class FakeSampleSet:
            info = {"sweeps_per_s": 10.0}
            energies = [-1.0, -2.0]

            def __len__(self):
                return 2

        with trace.capture() as (tracer, metrics):
            trace.observe_sample("sa", FakeSampleSet(), 0.5, kernel="dense")
        span = tracer.find("solver.sa.sample")
        assert span is not None
        assert span.attributes["kernel"] == "dense"
        assert span.attributes["samples"] == 2
        assert metrics.value("solver.sa.samples") == 1
        assert metrics.value("solver.kernel.dense") == 1
        assert metrics.histogram("solver.energy").count == 2
        assert metrics.histogram("solver.sweeps_per_s").count == 1
