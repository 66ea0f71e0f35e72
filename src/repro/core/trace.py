"""Structured tracing + metrics: the observability layer.

The pipeline is now a multi-stage system (compile and run pass
pipelines, caches, retry/fallback tiers, batched annealing kernels), and
diagnosing an annealer result hinges on per-phase instrumentation:
embedding quality, chain-break rates, sweep throughput, cache and retry
behaviour.  This module provides the process-wide subsystem the rest of
the code records into:

* **Spans** -- hierarchical timed regions (``span("compile.techmap")``)
  carrying wall time, key/value attributes, and instant events, recorded
  into an in-memory tree.  The tree exports as plain JSON
  (:meth:`Tracer.to_dict`) and as a Chrome ``trace_event`` file
  (:meth:`Tracer.to_chrome_trace`) loadable in ``about:tracing`` or
  Perfetto.
* **Metrics** -- a registry of named counters, gauges, and histograms
  (``solver.sweeps_per_s``, ``embed.chain_length``,
  ``runner.sample_retries``, ``cache.compile.hits``, ...) with a
  plain-text summary renderer and JSON export.  Registries can be
  *parented*: a per-run registry forwards every increment to the ambient
  process-wide registry, so one number is only ever computed in one
  place but visible at both scopes.

Both facilities are **zero-overhead when disabled**, which is the
default: the ambient tracer and registry are null implementations whose
``span()``/``counter()`` calls return shared no-op singletons -- no span
records are allocated at all (``span_allocations()`` lets tests assert
this).  Enable collection for a region of code with::

    from repro.core import trace

    with trace.capture() as (tracer, metrics):
        result = compiler.run(program, ...)
    tracer.write_chrome_trace("t.json")
    print(metrics.render_summary())

or process-wide with :func:`install` / :func:`uninstall` (the CLI's
``--trace``/``--metrics`` flags do exactly this).

Determinism: span *content* (names, nesting, attributes, events) is a
pure function of the work performed -- two same-seed runs produce
identical :meth:`Span.content` trees.  Wall-clock values (start times,
durations, and attributes named in :data:`TIMING_ATTR_KEYS`) are kept
separate so they can be stripped for comparison.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "TIMING_ATTR_KEYS",
    "tracer",
    "metrics",
    "span",
    "record",
    "event",
    "enabled",
    "install",
    "uninstall",
    "capture",
    "span_allocations",
]

#: Attribute keys that carry wall-clock-derived values.  They are
#: reported normally but excluded from :meth:`Span.content`, so trace
#: content stays deterministic for same-seed runs.
TIMING_ATTR_KEYS = frozenset(
    {"wall_time_s", "duration_s", "sampling_time_s", "sweeps_per_s", "time_s"}
)

#: Module-wide count of real :class:`Span` records ever allocated.
#: Tests use this to prove the disabled fast path allocates nothing.
_span_allocations = 0


def span_allocations() -> int:
    """How many real :class:`Span` records this process has allocated."""
    return _span_allocations


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span:
    """One timed, attributed region of work; a node in the trace tree.

    Spans are created by :meth:`Tracer.span` (as a context manager) or
    :meth:`Tracer.record` (already-completed work with an explicit
    duration); user code never constructs them directly.
    """

    __slots__ = (
        "name",
        "attributes",
        "events",
        "children",
        "start_s",
        "wall_time_s",
        "_tracer",
    )

    #: Real spans record; the null span reports False so callers can
    #: cheaply tell whether tracing is live.
    is_recording = True

    def __init__(self, name: str, tracer: "Tracer", start_s: float):
        global _span_allocations
        _span_allocations += 1
        self.name = name
        self.attributes: Dict[str, Any] = {}
        self.events: List[Dict[str, Any]] = []
        self.children: List[Span] = []
        self.start_s = start_s
        self.wall_time_s = 0.0
        self._tracer = tracer

    # -- recording -----------------------------------------------------
    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def add_event(self, name: str, **attributes: Any) -> None:
        """Attach an instant event (a point in time) to this span."""
        entry: Dict[str, Any] = {"name": name}
        if attributes:
            entry["attributes"] = attributes
        entry["ts_s"] = self._tracer._clock()
        self.events.append(entry)

    # -- context manager -----------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._end_span(self)
        return False

    # -- structure access ----------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree, or None."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def span_names(self) -> List[str]:
        return [node.name for node in self.walk()]

    # -- export --------------------------------------------------------
    def to_dict(self, include_times: bool = True) -> Dict[str, Any]:
        """This subtree as plain data (JSON-ready).

        With ``include_times=False`` all wall-clock values -- start
        offsets, durations, event timestamps, and attributes named in
        :data:`TIMING_ATTR_KEYS` -- are dropped, leaving only content
        that is deterministic for a fixed seed.
        """
        attributes = self.attributes
        if not include_times:
            attributes = {
                k: v for k, v in attributes.items() if k not in TIMING_ATTR_KEYS
            }
        node: Dict[str, Any] = {"name": self.name}
        if include_times:
            node["start_s"] = self.start_s
            node["wall_time_s"] = self.wall_time_s
        if attributes:
            node["attributes"] = dict(attributes)
        if self.events:
            node["events"] = [
                {
                    k: v
                    for k, v in entry.items()
                    if include_times or k != "ts_s"
                }
                for entry in self.events
            ]
        if self.children:
            node["children"] = [
                child.to_dict(include_times=include_times)
                for child in self.children
            ]
        return node

    def content(self) -> Dict[str, Any]:
        """The deterministic content of this subtree (timestamps stripped)."""
        return self.to_dict(include_times=False)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.wall_time_s:.4f}s, "
            f"{len(self.children)} child(ren))"
        )


class _NullSpan:
    """The shared no-op span: every disabled-path call lands here."""

    __slots__ = ()
    is_recording = False
    name = ""
    attributes: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []
    children: List["Span"] = []
    start_s = 0.0
    wall_time_s = 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    def add_event(self, name: str, **attributes: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def walk(self):
        return iter(())

    def find(self, name: str) -> None:
        return None

    def span_names(self) -> List[str]:
        return []

    def to_dict(self, include_times: bool = True) -> Dict[str, Any]:
        return {}

    def content(self) -> Dict[str, Any]:
        return {}


NULL_SPAN = _NullSpan()


class Tracer:
    """Records a forest of :class:`Span` trees for one process/region.

    Args:
        clock: monotonic time source (seconds); ``time.perf_counter``
            by default.  Injectable for deterministic tests.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.epoch_s: float = clock()
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        """Open a span; use as a context manager to time a region."""
        node = Span(name, self, self._clock())
        if attributes:
            node.attributes.update(attributes)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        return node

    def _end_span(self, node: Span) -> None:
        node.wall_time_s = self._clock() - node.start_s
        # Tolerate mispaired exits instead of corrupting the stack.
        if self._stack and self._stack[-1] is node:
            self._stack.pop()
        elif node in self._stack:
            while self._stack and self._stack.pop() is not node:
                pass

    def record(self, name: str, duration_s: float = 0.0, **attributes: Any) -> Span:
        """Attach an already-completed span (explicit duration).

        For instrumenting code that measures its own elapsed time (the
        solvers do): the span is parented under the currently open span
        and never enters the stack.
        """
        now = self._clock()
        node = Span(name, self, now - duration_s)
        node.wall_time_s = duration_s
        if attributes:
            node.attributes.update(attributes)
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(node)
        else:
            self.roots.append(node)
        return node

    def event(self, name: str, **attributes: Any) -> None:
        """An instant event on the currently open span (or the forest)."""
        if self._stack:
            self._stack[-1].add_event(name, **attributes)
        else:
            # No open span: record as a zero-length root for visibility.
            node = self.record(name)
            node.attributes.update(attributes)

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- structure access ----------------------------------------------
    def walk(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> Optional[Span]:
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def span_names(self) -> List[str]:
        return [node.name for node in self.walk()]

    # -- export --------------------------------------------------------
    def to_dict(self, include_times: bool = True) -> Dict[str, Any]:
        return {
            "spans": [
                root.to_dict(include_times=include_times)
                for root in self.roots
            ]
        }

    def content(self) -> Dict[str, Any]:
        """Deterministic trace content (all timestamps stripped)."""
        return self.to_dict(include_times=False)

    def to_json(self, include_times: bool = True, indent: int = 2) -> str:
        return json.dumps(
            self.to_dict(include_times=include_times),
            indent=indent,
            sort_keys=True,
            default=str,
        )

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The trace as a Chrome ``trace_event`` object.

        Spans become complete (``"ph": "X"``) events and span events
        become instant (``"ph": "i"``) events; timestamps are
        microseconds relative to the tracer's epoch.  Load the written
        file in ``about:tracing`` or https://ui.perfetto.dev.
        """
        trace_events: List[Dict[str, Any]] = []
        for node in self.walk():
            trace_events.append(
                {
                    "name": node.name,
                    "cat": node.name.split(".", 1)[0] or "span",
                    "ph": "X",
                    "ts": round((node.start_s - self.epoch_s) * 1e6, 3),
                    "dur": round(node.wall_time_s * 1e6, 3),
                    "pid": 0,
                    "tid": 0,
                    "args": {k: _jsonable(v) for k, v in node.attributes.items()},
                }
            )
            for entry in node.events:
                trace_events.append(
                    {
                        "name": entry["name"],
                        "cat": "event",
                        "ph": "i",
                        "s": "t",
                        "ts": round((entry["ts_s"] - self.epoch_s) * 1e6, 3),
                        "pid": 0,
                        "tid": 0,
                        "args": {
                            k: _jsonable(v)
                            for k, v in entry.get("attributes", {}).items()
                        },
                    }
                )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)

    def __repr__(self) -> str:
        return f"Tracer({len(self.roots)} root span(s))"


class NullTracer(Tracer):
    """The disabled tracer: every call returns the shared no-op span."""

    enabled = False

    def __init__(self):
        super().__init__(clock=lambda: 0.0)

    def span(self, name: str, **attributes: Any) -> _NullSpan:  # type: ignore[override]
        return NULL_SPAN

    def record(self, name: str, duration_s: float = 0.0, **attributes: Any) -> _NullSpan:  # type: ignore[override]
        return NULL_SPAN

    def event(self, name: str, **attributes: Any) -> None:
        pass


def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    try:
        # numpy scalars and similar
        return value.item()
    except AttributeError:
        return str(value)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value", "_parent")

    def __init__(self, parent: Optional["Counter"] = None):
        self.value: float = 0
        self._parent = parent

    def inc(self, amount: float = 1) -> None:
        self.value += amount
        if self._parent is not None:
            self._parent.inc(amount)

    def get(self) -> float:
        return self.value


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("value", "_parent")

    def __init__(self, parent: Optional["Gauge"] = None):
        self.value: float = 0.0
        self._parent = parent

    def set(self, value: float) -> None:
        self.value = float(value)
        if self._parent is not None:
            self._parent.set(value)

    def get(self) -> float:
        return self.value


class Histogram:
    """A streaming distribution: count, sum, min, max (+ bounded samples).

    The first :attr:`max_samples` observations are retained so tests and
    reports can compute exact percentiles on small runs; beyond that
    only the streaming aggregates update, keeping memory bounded on
    production-sized runs.
    """

    __slots__ = ("count", "total", "min", "max", "samples", "max_samples", "_parent")

    def __init__(self, parent: Optional["Histogram"] = None, max_samples: int = 4096):
        self.count: int = 0
        self.total: float = 0.0
        self.min: float = float("inf")
        self.max: float = float("-inf")
        self.samples: List[float] = []
        self.max_samples = max_samples
        self._parent = parent

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < self.max_samples:
            self.samples.append(value)
        if self._parent is not None:
            self._parent.observe(value)

    def observe_many(self, values: Sequence[float]) -> None:
        """Record a batch (vectorized for numpy arrays)."""
        values = list(map(float, values))
        if not values:
            return
        self.count += len(values)
        self.total += sum(values)
        low, high = min(values), max(values)
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        room = self.max_samples - len(self.samples)
        if room > 0:
            self.samples.extend(values[:room])
        if self._parent is not None:
            self._parent.observe_many(values)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Exact percentile over the retained samples (q in [0, 100])."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        index = min(
            len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1)))
        )
        return ordered[int(index)]

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
        }


class _NullCounter(Counter):
    __slots__ = ()

    def __init__(self):
        super().__init__()

    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def __init__(self):
        super().__init__()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def __init__(self):
        super().__init__()

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Sequence[float]) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named counters, gauges, and histograms, created on first use.

    Args:
        parent: optional registry every recording is forwarded to.  A
            per-run registry parented to the ambient process registry
            gives run-scoped numbers without double bookkeeping: the
            increment happens once and both scopes observe it.
    """

    enabled = True

    def __init__(self, parent: Optional["MetricsRegistry"] = None):
        self.parent = parent
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- creation/access -----------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.get(name)
                if metric is None:
                    parent = (
                        self.parent.counter(name) if self.parent is not None else None
                    )
                    metric = self._counters[name] = Counter(parent)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.get(name)
                if metric is None:
                    parent = (
                        self.parent.gauge(name) if self.parent is not None else None
                    )
                    metric = self._gauges[name] = Gauge(parent)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.get(name)
                if metric is None:
                    parent = (
                        self.parent.histogram(name)
                        if self.parent is not None
                        else None
                    )
                    metric = self._histograms[name] = Histogram(parent)
        return metric

    def value(self, name: str, default: float = 0) -> float:
        """The current value of a counter or gauge (0 if never touched)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return default

    def names(self) -> List[str]:
        return sorted(
            list(self._counters) + list(self._gauges) + list(self._histograms)
        )

    def __contains__(self, name: str) -> bool:
        return (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        )

    # -- export --------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
        }

    def hit_ratio(self, prefix: str) -> float:
        """Derived hit ratio for a ``<prefix>.hits``/``.misses`` pair.

        Well-defined for every counter state: zero lookups (a freshly
        started server rendering ``/metrics`` before any request) is
        0.0, never a ZeroDivisionError, and a non-finite result (a
        pathological counter holding ``inf``/``nan``) is clamped to 0.0
        so the rendered summary can never contain ``nan``.
        """
        hits = self.value(f"{prefix}.hits")
        lookups = hits + self.value(f"{prefix}.misses")
        if lookups <= 0 or not math.isfinite(lookups):
            return 0.0
        ratio = hits / lookups
        return ratio if math.isfinite(ratio) else 0.0

    def render_summary(self, title: str = "metrics:") -> str:
        """An aligned plain-text table of every metric.

        Counter pairs named ``<prefix>.hits``/``<prefix>.misses`` also
        get a derived ``<prefix>.hit_ratio`` line -- derived at render
        time, never stored, so the ratio cannot drift from its inputs.
        """
        rows: List[Tuple[str, str]] = []
        for name in sorted(self._counters):
            rows.append((name, _format_number(self._counters[name].value)))
            prefix = None
            if name.endswith(".hits"):
                prefix = name[: -len(".hits")]
            elif name.endswith(".misses"):
                # A pre-registered .misses without its .hits twin still
                # deserves the derived line (emitted once: the .hits
                # branch owns it whenever both exist).
                candidate = name[: -len(".misses")]
                if f"{candidate}.hits" not in self._counters:
                    prefix = candidate
            if prefix is not None:
                lookups = self.value(f"{prefix}.hits") + self.value(
                    f"{prefix}.misses"
                )
                if lookups > 0 and math.isfinite(lookups):
                    ratio_text = f"{self.hit_ratio(prefix):.3f}"
                else:
                    # Zero lookups: "0.000" would read as a measured
                    # all-miss ratio; say explicitly that nothing was
                    # looked up yet.
                    ratio_text = "n/a (0 lookups)"
                rows.append((f"{prefix}.hit_ratio", ratio_text))
        for name in sorted(self._gauges):
            rows.append((name, _format_number(self._gauges[name].value)))
        for name in sorted(self._histograms):
            h = self._histograms[name]
            if h.count:
                rows.append(
                    (
                        name,
                        f"count={h.count} mean={h.mean():.4g} "
                        f"min={h.min:.4g} max={h.max:.4g}",
                    )
                )
            else:
                rows.append((name, "count=0"))
        if not rows:
            return f"{title} (no metrics recorded)"
        width = max(len(name) for name, _ in rows)
        lines = [title]
        lines.extend(f"  {name:<{width}}  {value}" for name, value in rows)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counter(s), "
            f"{len(self._gauges)} gauge(s), "
            f"{len(self._histograms)} histogram(s))"
        )


class NullMetrics(MetricsRegistry):
    """The disabled registry: shared no-op metrics, nothing stored."""

    enabled = False

    def counter(self, name: str) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return NULL_HISTOGRAM


# ----------------------------------------------------------------------
# Ambient (process-wide) instances
# ----------------------------------------------------------------------
NULL_TRACER = NullTracer()
NULL_METRICS = NullMetrics()

_ambient_tracer: Tracer = NULL_TRACER
_ambient_metrics: MetricsRegistry = NULL_METRICS


def tracer() -> Tracer:
    """The ambient tracer (a no-op :class:`NullTracer` unless installed)."""
    return _ambient_tracer


def metrics() -> MetricsRegistry:
    """The ambient registry (a no-op :class:`NullMetrics` unless installed)."""
    return _ambient_metrics


def enabled() -> bool:
    return _ambient_tracer.enabled or _ambient_metrics.enabled


def span(name: str, **attributes: Any):
    """Open a span on the ambient tracer (no-op when disabled)."""
    return _ambient_tracer.span(name, **attributes)


def record(name: str, duration_s: float = 0.0, **attributes: Any):
    """Record a completed span on the ambient tracer (no-op when disabled)."""
    return _ambient_tracer.record(name, duration_s=duration_s, **attributes)


def event(name: str, **attributes: Any) -> None:
    """Attach an instant event to the current ambient span."""
    _ambient_tracer.event(name, **attributes)


def install(
    tracer_obj: Optional[Tracer] = None,
    metrics_obj: Optional[MetricsRegistry] = None,
) -> Tuple[Tracer, MetricsRegistry]:
    """Enable process-wide collection; returns the live instances."""
    global _ambient_tracer, _ambient_metrics
    _ambient_tracer = tracer_obj if tracer_obj is not None else Tracer()
    _ambient_metrics = (
        metrics_obj if metrics_obj is not None else MetricsRegistry()
    )
    return _ambient_tracer, _ambient_metrics


def uninstall() -> None:
    """Return to the zero-overhead null implementations."""
    global _ambient_tracer, _ambient_metrics
    _ambient_tracer = NULL_TRACER
    _ambient_metrics = NULL_METRICS


def observe_sample(
    solver: str,
    sampleset: Any,
    elapsed_s: float,
    **attributes: Any,
) -> None:
    """Record one solver invocation on the ambient tracer and metrics.

    The uniform hook every sampling backend calls on its way out: a
    completed ``solver.<name>.sample`` span (with the call's shape as
    attributes), per-solver call counters, kernel-choice counters, and
    the sweep-rate / energy histograms.  A single early ``enabled()``
    check keeps the disabled path at one attribute load and one branch.
    """
    if not enabled():
        return
    _ambient_tracer.record(
        f"solver.{solver}.sample",
        duration_s=elapsed_s,
        samples=len(sampleset),
        **attributes,
    )
    registry = _ambient_metrics
    registry.counter(f"solver.{solver}.samples").inc()
    kernel = attributes.get("kernel")
    if kernel:
        registry.counter(f"solver.kernel.{kernel}").inc()
    info = getattr(sampleset, "info", None) or {}
    rate = info.get("sweeps_per_s")
    if rate:
        registry.histogram("solver.sweeps_per_s").observe(float(rate))
        # Per-tier sweep rate: the perf-trajectory gauge the kernel
        # benchmarks and dashboards key on (kernel.native.sweeps_per_s,
        # kernel.dense.sweeps_per_s, kernel.sparse.sweeps_per_s).
        if kernel:
            registry.gauge(f"kernel.{kernel}.sweeps_per_s").set(float(rate))
    if len(sampleset):
        registry.histogram("solver.energy").observe_many(
            [float(e) for e in sampleset.energies]
        )


@contextmanager
def capture(
    tracer_obj: Optional[Tracer] = None,
    metrics_obj: Optional[MetricsRegistry] = None,
):
    """Collect traces + metrics within a ``with`` block, then restore.

    Yields ``(tracer, metrics)``; the previously ambient instances are
    restored on exit, so nested/concurrent test usage cannot leak.
    """
    global _ambient_tracer, _ambient_metrics
    previous = (_ambient_tracer, _ambient_metrics)
    live = install(tracer_obj, metrics_obj)
    try:
        yield live
    finally:
        _ambient_tracer, _ambient_metrics = previous


def _format_number(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))
