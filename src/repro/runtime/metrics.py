"""Process-local metrics registry with Prometheus text exposition.

The registry is built for one hot-path property: **reads never take a
lock**.  Incrementing a counter or observing a histogram sample takes a
tiny per-child lock (writes from many handler threads must not lose
updates), but rendering ``/metrics`` — and any opportunistic snapshot,
like the one :func:`tests.waiters.wait_until` dumps on timeout — only
*reads* plain attributes.  A scrape can therefore never stall a request,
and a wedged request can never stall a scrape.

Three concrete instrument kinds plus one escape hatch:

- :class:`Counter` — monotone, ``inc()`` only.
- :class:`Gauge` — ``set()/inc()/dec()``.
- :class:`Histogram` — fixed cumulative buckets, ``observe()``,
  with a bucket-interpolated :meth:`Histogram.quantile`.
- :meth:`MetricsRegistry.collector` — a callback evaluated at scrape
  time, for values the codebase already maintains under its own locks
  (pool stats, cache stats, journal counters, ...).  A failing callback
  or scrape hook is skipped, never raised — observability must not take
  the service down — and counted on the same page as
  ``mc_metrics_collector_errors_total{family}``.

Exposition follows the Prometheus text format 0.0.4: ``# HELP`` /
``# TYPE`` headers, ``\\`` ``"`` and newline escaping in label values,
``_bucket{le=...}`` / ``_sum`` / ``_count`` histogram series.
"""

from __future__ import annotations

import math
import re
import threading
import weakref
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "render_all_registries",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Latency buckets (seconds) spanning the sub-millisecond local transport
#: through multi-second workflow runs.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Family counting swallowed collector/scrape-hook failures, by family.
COLLECTOR_ERRORS = "mc_metrics_collector_errors_total"

#: Weak set of live registries, for post-mortem snapshots (see
#: :func:`render_all_registries`).  Weak so tests creating thousands of
#: short-lived containers do not accumulate dead registries.
_REGISTRIES: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _format_le(bound: float) -> str:
    return "+Inf" if bound == math.inf else _format_value(bound)


def _labels_text(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Family:
    """One named metric family: children keyed by label-value tuples."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._children: dict[tuple[str, ...], Any] = {}
        self._lock = threading.Lock()

    def labels(self, *values: Any):
        """The child for ``values`` (created on first use)."""
        key = tuple(str(v) for v in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label values, "
                f"got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    # rebind the dict so concurrent lock-free readers only
                    # ever see fully-formed mappings
                    updated = dict(self._children)
                    updated[key] = child
                    self._children = updated
        return child

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def children(self) -> "dict[tuple[str, ...], Any]":
        return self._children

    def header_lines(self) -> list[str]:
        return [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def render(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class _CounterChild:
    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self.value += amount


class _ScalarFamily(_Family):
    """A family whose children each hold one number (counters, gauges)."""

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        return self.labels().value if not self.label_names else sum(
            child.value for child in self._children.values()
        )

    def render(self) -> list[str]:
        lines = self.header_lines()
        if not self.label_names and not self._children:
            lines.append(f"{self.name} 0")
            return lines
        for key, child in sorted(self._children.items()):
            labels = _labels_text(self.label_names, key)
            lines.append(f"{self.name}{labels} {_format_value(child.value)}")
        return lines


class Counter(_ScalarFamily):
    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()


class _GaugeChild:
    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Gauge(_ScalarFamily):
    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self.labels().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)


class _HistogramChild:
    __slots__ = ("bounds", "counts", "sum", "count", "_lock")

    def __init__(self, bounds: tuple[float, ...]):
        self.bounds = bounds  # ascending, ends with +Inf
        self.counts = [0] * len(bounds)  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        lo, hi = 0, len(self.bounds) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self.counts[lo] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (Prometheus-style)."""
        total = self.count
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                upper = self.bounds[index]
                lower = self.bounds[index - 1] if index else 0.0
                if upper == math.inf:
                    return lower
                fraction = (rank - (seen - bucket_count)) / bucket_count
                return lower + (upper - lower) * fraction
        return self.bounds[-2] if len(self.bounds) > 1 else 0.0


class Histogram(_Family):
    kind = "histogram"

    def __init__(self, name, help, label_names, buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.bounds = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def quantile(self, q: float) -> float:
        return self.labels().quantile(q)

    @property
    def count(self) -> int:
        return sum(child.count for child in self._children.values())

    def render(self) -> list[str]:
        lines = self.header_lines()
        children = self._children
        if not self.label_names and not children:
            children = {(): _HistogramChild(self.bounds)}
        for key, child in sorted(children.items()):
            cumulative = 0
            # copy once: counts mutate concurrently, sum/count read after so
            # the cumulative +Inf bucket never exceeds the reported _count
            counts = list(child.counts)
            for bound, bucket_count in zip(child.bounds, counts):
                cumulative += bucket_count
                labels = _labels_text(
                    self.label_names + ("le",), key + (_format_le(bound),)
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _labels_text(self.label_names, key)
            lines.append(f"{self.name}_sum{labels} {_format_value(child.sum)}")
            lines.append(f"{self.name}_count{labels} {cumulative}")
        return lines


class _CollectorFamily(_Family):
    """A family whose samples come from a callback at scrape time."""

    def __init__(self, name, help, label_names, kind, fn, on_error):
        super().__init__(name, help, label_names)
        if kind not in ("counter", "gauge"):
            raise ValueError(f"collector kind must be counter or gauge, not {kind!r}")
        self.kind = kind
        self.fn = fn
        self.on_error = on_error

    def render(self) -> list[str]:
        lines = self.header_lines()
        try:
            produced = self.fn()
            if isinstance(produced, (int, float)):
                produced = [] if self.label_names else [((), produced)]
            for label_values, value in produced:
                key = tuple(str(v) for v in label_values)
                if len(key) != len(self.label_names):
                    continue
                labels = _labels_text(self.label_names, key)
                lines.append(f"{self.name}{labels} {_format_value(float(value))}")
        except Exception:  # noqa: BLE001 - a broken callback must not break the scrape
            self.on_error(self.name)
            return []
        return lines if len(lines) > 2 else []


class MetricsRegistry:
    """A named bag of metric families rendered as one ``/metrics`` page.

    Registration is idempotent: asking for an existing name with the
    same kind and label set returns the existing family, so independent
    subsystems can share ``mc_*`` families without coordination; a
    mismatched re-registration raises.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()
        self._scrape_hooks: list[Callable[[], None]] = []
        _REGISTRIES.add(self)

    def _count_error(self, family: str) -> None:
        """A collector callback or scrape hook raised: swallowed, counted."""
        self.counter(
            COLLECTOR_ERRORS,
            "Collector callbacks and scrape hooks that raised during a scrape.",
            labels=("family",),
        ).labels(family).inc()

    def on_scrape(self, hook: Callable[[], None]) -> None:
        """Register a callback run at the start of every scrape.

        Deferred recorders (e.g. the request middleware) buffer raw
        samples on the hot path and flush them into their families here,
        so request threads never pay aggregation cost."""
        self._scrape_hooks.append(hook)

    def _register(self, name: str, family_factory, kind: str,
                  label_names: Sequence[str]):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.label_names != tuple(label_names):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.label_names!r}"
                    )
                return existing
            family = family_factory()
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(name, lambda: Counter(name, help, labels), "counter", labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(name, lambda: Gauge(name, help, labels), "gauge", labels)

    def histogram(self, name: str, help: str = "", labels: Sequence[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(
            name, lambda: Histogram(name, help, labels, buckets), "histogram", labels
        )

    def collector(self, name: str, help: str, kind: str,
                  fn: Callable[[], Any], labels: Sequence[str] = ()) -> _Family:
        return self._register(
            name,
            lambda: _CollectorFamily(name, help, labels, kind, fn, self._count_error),
            kind, labels,
        )

    def families(self) -> list[_Family]:
        for hook in self._scrape_hooks:
            try:
                hook()
            except Exception:  # noqa: BLE001 - a broken hook must not break the scrape
                self._count_error(getattr(hook, "__qualname__", "scrape_hook"))
        return sorted(self._families.values(), key=lambda f: f.name)

    def render(self) -> str:
        """The registry as Prometheus text exposition format 0.0.4.

        The error counter renders last, so a collector that fails during
        this scrape is already counted on this page."""
        lines: list[str] = []
        for family in self.families():
            if family.name != COLLECTOR_ERRORS:
                lines.extend(family.render())
        errors = self._families.get(COLLECTOR_ERRORS)
        if errors is not None:
            lines.extend(errors.render())
        return "\n".join(lines) + "\n" if lines else ""


def render_all_registries() -> str:
    """Every live registry's exposition, headed by its name.

    Used for post-mortem dumps (test waiters print this on timeout) —
    never served over HTTP, which stays strictly per-process.
    """
    sections: list[str] = []
    for registry in sorted(_REGISTRIES, key=lambda r: r.name):
        body = registry.render()
        if body:
            sections.append(f"### registry: {registry.name or '(anonymous)'}\n{body}")
    return "\n".join(sections)
