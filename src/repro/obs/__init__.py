"""Observability: structured tracing and metrics for the reproduction.

The paper's whole evaluation is a latency decomposition — ``L_T = L_F +
L_N`` (Fig 9, Table II), client-observed response time (Fig 10) and
per-registration SGX transition counts (Table III).  This package makes
that decomposition a first-class artifact instead of experiment-script
arithmetic:

* :mod:`repro.obs.trace` — a :class:`Tracer` that attaches a span tree
  to each UE registration (NAS exchange → SBI hop → enclave OCALL),
  tagging spans with the paper's cost taxonomy so one trace reproduces
  the Table II ratios and Table III counts directly,
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and bounded histograms built on the exact
  :class:`~repro.sim.metrics.RunningStats` primitives,
* :mod:`repro.obs.export` — JSON and Prometheus-text exporters (with
  parsers, so round-trips are testable),
* :mod:`repro.obs.collect` — assembles a registry from a live testbed
  and records one-registration traces,
* :mod:`repro.obs.scrape` / :mod:`repro.obs.tsdb` — continuous
  monitoring: a :class:`Scraper` samples any registry producer on a
  simulated-time cadence into a ring-buffer :class:`Tsdb` with
  query-time recording rules (``rate``/``increase``/quantiles),
* :mod:`repro.obs.slo` — declarative objectives evaluated as
  multi-window burn-rate alerts over the Tsdb timeline,
* :mod:`repro.obs.profile` / :mod:`repro.obs.flame` — a
  cycle-attribution profiler folding span trees into collapsed-stack
  flame graphs split by the shield/copy/host/transition components,
* :mod:`repro.obs.analytics` — the one fold of a registration tree
  into the paper's tables (exact integer ns, with a float-µs view) and
  the tail-based analytics over stored trees: critical paths and the
  deterministic slowest-traces digest.

Distributed tracing rides on the same span trees: a tracer armed with a
``trace_seed`` stamps deterministic ``trace_id``/``span_id`` identity on
every span, the HTTP client/server pair propagates the W3C
``traceparent`` across SBI hops, and finished trees land in a bounded
:class:`~repro.obs.trace.TraceStore` under tail-based sampling.

Tracing and monitoring are **zero-cost in simulated time** (spans and
scrapes only read the clock, never advance it) and near-zero in host
time when disabled.  Protocol code reaches both only through the
observation seam on :class:`~repro.hw.host.PhysicalHost`
(``host.span`` / ``host.trace`` / ``host.annotate`` / ``host.tick``);
docs/ARCHITECTURE.md describes what it hides and what it costs.
"""
