"""Campaign observability: event tracing, metrics, exporters, progress.

The telemetry layer answers "where did this campaign spend its effort"
without perturbing what it measures:

- :mod:`repro.obs.trace` — structured events (spans and instants) with
  rank/run context: always counted, ring-buffered only when something
  will read the stream.  A disabled tracer is ``None`` at every emitter
  site (one attribute load + ``is not None`` test on the hot path).
- :mod:`repro.obs.metrics` — counters, gauges, and fixed-boundary
  histograms in a :class:`~repro.obs.metrics.MetricsRegistry`; the
  deterministic namespaces (``engine.*``, ``pb.*``, ``campaign.*``,
  ``run.*``) are reproducible bit-for-bit across ``--jobs`` settings.
- :mod:`repro.obs.export` — the JSONL event log (the one file format of
  an event stream, what ``repro stats`` reads back) and Chrome
  ``trace_event`` JSON (chrome://tracing / Perfetto, per-rank lanes).
- :mod:`repro.obs.progress` — throttled stderr heartbeat for long
  campaigns.
- :mod:`repro.obs.campaign` — :class:`~repro.obs.campaign.CampaignTelemetry`,
  the per-verification aggregator wired into
  :meth:`repro.dampi.verifier.DampiVerifier.verify`.
"""

from repro.obs.campaign import CampaignTelemetry
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    deterministic_view,
)
from repro.obs.trace import Event, Tracer, event_signature
from repro._lazy import lazy_names

#: a campaign without ``--progress`` does not import :mod:`repro.obs.progress`
__getattr__ = lazy_names(globals(), {"ProgressReporter": "repro.obs.progress"})

__all__ = [
    "CampaignTelemetry",
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProgressReporter",
    "Tracer",
    "deterministic_view",
    "event_signature",
]
