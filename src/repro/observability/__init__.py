"""The observability plane: trace spans, /metrics, /status aggregation.

Builds on the primitives in :mod:`repro.runtime` (``MetricsRegistry``,
``Tracer``, the ``span``/``X-Trace`` context machinery) and wires them
into the serving stack: a middleware that times every request and joins
or starts traces, scrape-time collectors over the state every subsystem
already keeps, the ``/metrics`` resource, and the gateway's fleet-wide
``/status`` aggregate with platform percentiles.
"""

from repro.observability.instrument import (
    METRICS_CONTENT_TYPE,
    ObservabilityMiddleware,
    RestHost,
    instrument_container,
    instrument_gateway,
    instrument_wms,
    mount_metrics,
)
from repro.observability.promtext import (
    Family,
    Sample,
    histogram_quantile,
    parse_metrics,
)
from repro.observability.status import gateway_status, verify_trace_tree

__all__ = [
    "METRICS_CONTENT_TYPE",
    "Family",
    "ObservabilityMiddleware",
    "RestHost",
    "Sample",
    "gateway_status",
    "histogram_quantile",
    "instrument_container",
    "instrument_gateway",
    "instrument_wms",
    "mount_metrics",
    "parse_metrics",
    "verify_trace_tree",
]
