"""repro.obs: end-to-end observability for the GenDP reproduction.

Three coordinated layers (``docs/observability.md``):

- **Tracing** (:mod:`repro.obs.trace`): a dependency-free span/event
  recorder with an injectable clock, threaded through the engine's job
  lifecycle and exportable as Chrome-trace-event JSON (opens directly
  in Perfetto / ``chrome://tracing``).
- **Simulator profiling** (:mod:`repro.obs.profile`): opt-in per-PE
  cycle accounting on the DPAx simulator -- stall-reason breakdowns,
  per-way VLIW slot occupancy and FIFO depth histograms -- surfaced as
  a :class:`~repro.obs.profile.ProfileReport` that feeds Table 11 from
  measured activity and exports cycle-level timelines in the same
  trace format.
- **Exporters** (:mod:`repro.obs.export`, :mod:`repro.obs.server`,
  :mod:`repro.obs.logs`): Prometheus-text and JSON exporters over
  :meth:`repro.engine.metrics.MetricsRegistry.snapshot`, a stdlib-only
  scrape endpoint, and structured JSON logging with correlation ids.
"""

from repro.obs.export import (
    histogram_quantiles,
    prometheus_text,
    quantile_from_buckets,
    snapshot_json,
)
from repro.obs.logs import (
    configure_json_logging,
    current_context,
    get_logger,
    log_context,
)
from repro.obs.profile import (
    ArrayProfile,
    PEProfile,
    ProfileReport,
    TileProfile,
)
from repro.obs.trace import (
    Span,
    TraceRecorder,
    monotonic_epoch_clock,
    new_trace_id,
    validate_chrome_trace,
    worker_span,
)



def __getattr__(name: str):
    # MetricsServer loads on first use: http.server drags in the ssl and
    # email stacks (~7 MB resident), and every engine process -- each
    # forked pool worker included -- imports this package.
    if name == "MetricsServer":
        from repro.obs.server import MetricsServer

        return MetricsServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArrayProfile",
    "MetricsServer",
    "PEProfile",
    "ProfileReport",
    "Span",
    "TileProfile",
    "TraceRecorder",
    "configure_json_logging",
    "current_context",
    "get_logger",
    "histogram_quantiles",
    "log_context",
    "monotonic_epoch_clock",
    "new_trace_id",
    "prometheus_text",
    "quantile_from_buckets",
    "snapshot_json",
    "validate_chrome_trace",
    "worker_span",
]
