//! The server's `maras_*` series: per-endpoint request counters and
//! latency histograms, cache hit/miss counts, robustness counters (shed /
//! timeout / recovered-panic totals plus worker-liveness, queue-depth and
//! in-flight gauges), and per-phase handling-time histograms.
//!
//! Every series is a `maras-obs` handle registered in the [`Registry`]
//! each [`ServeState`](crate::ServeState) owns, so servers sharing a
//! process keep separate ledgers. Handles are lock-free atomics; the
//! registry's mutex is taken once at registration and once per scrape.
//! `/metrics` renders that registry (after [`ServeMetrics::refresh_gauges`]
//! sets the scrape-time gauges), and [`ServeMetrics::to_json`] derives the
//! legacy `/metrics.json` schema from the same handles. Reloads only ever
//! *increment* `maras_snapshot_reloads_total`; no cumulative series resets
//! on a snapshot swap.

use maras_obs::{Counter, Gauge, Histogram, Registry};
use serde_json::Value;

/// Upper bounds (µs) of the latency histogram buckets; the last bucket
/// is the +Inf overflow.
pub const LATENCY_BUCKETS_US: [f64; 10] =
    [50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 50_000.0, 250_000.0];

/// Upper bounds (µs) of the per-phase (parse / route / write) histograms.
const PHASE_BUCKETS_US: [f64; 8] =
    [10.0, 50.0, 100.0, 250.0, 1_000.0, 5_000.0, 25_000.0, 100_000.0];

/// Endpoints the server distinguishes in its counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics` (Prometheus) and `GET /metrics.json`
    Metrics,
    /// `GET /search`
    Search,
    /// `GET /autocomplete`
    Autocomplete,
    /// `GET /cluster/<rank>`
    Cluster,
    /// `POST /reload`
    Reload,
    /// Anything else (404s, bad methods, parse failures, handler panics).
    Other,
    /// `GET /cluster/<rank>/reports` (paginated evidence drill-down).
    Reports,
    /// `GET /report/<case_id>` (single-record evidence lookup).
    Report,
    /// `GET /debug/*` (flight-recorder introspection suite).
    Debug,
}

impl Endpoint {
    /// Every endpoint, in declaration order (`ALL[e as usize] == e`).
    const ALL: [Endpoint; 10] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Search,
        Endpoint::Autocomplete,
        Endpoint::Cluster,
        Endpoint::Reload,
        Endpoint::Other,
        Endpoint::Reports,
        Endpoint::Report,
        Endpoint::Debug,
    ];

    /// The `endpoint` label value.
    fn name(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Search => "search",
            Endpoint::Autocomplete => "autocomplete",
            Endpoint::Cluster => "cluster",
            Endpoint::Reload => "reload",
            Endpoint::Other => "other",
            Endpoint::Reports => "reports",
            Endpoint::Report => "report",
            Endpoint::Debug => "debug",
        }
    }
}

/// Handles to the server's metric series.
pub struct ServeMetrics {
    /// `maras_requests_total{endpoint}`, indexed by `Endpoint as usize`.
    requests: [Counter; 10],
    /// `maras_request_latency_us{endpoint}`, indexed like `requests`.
    latency: [Histogram; 10],
    /// Requests answered with status >= 400.
    pub errors: Counter,
    /// Response-cache hits.
    pub cache_hits: Counter,
    /// Response-cache misses.
    pub cache_misses: Counter,
    /// Response-cache entries (set at scrape time).
    pub cache_entries: Gauge,
    /// Snapshot reloads completed.
    pub reloads: Counter,
    /// Requests slower than the slow-request threshold.
    pub slow_requests: Counter,
    /// Connections answered 503 by admission control.
    pub shed: Counter,
    /// Connections dropped after exceeding the socket I/O deadline.
    pub timeouts: Counter,
    /// Handler panics caught and recovered by the worker pool.
    pub worker_panics: Counter,
    /// Worker threads currently alive (the liveness gauge).
    pub workers_alive: Gauge,
    /// Connections waiting in the bounded accept queue.
    pub queue_used: Gauge,
    /// Requests currently being handled by workers.
    pub in_flight: Gauge,
    /// Global latency p50 in µs (set at scrape time).
    pub latency_p50: Gauge,
    /// Global latency p99 in µs (set at scrape time).
    pub latency_p99: Gauge,
    /// Request-parse wall time, µs.
    pub phase_parse: Histogram,
    /// Routing (handler) wall time, µs.
    pub phase_route: Histogram,
    /// Response-write wall time, µs.
    pub phase_write: Histogram,
}

impl ServeMetrics {
    /// Registers (or re-acquires) the series in `reg`.
    pub fn register(reg: &Registry) -> ServeMetrics {
        let quantile_help = "interpolated global latency quantile in microseconds";
        let phase = |name| {
            reg.histogram_with(
                "maras_serve_phase_us",
                "request handling wall time by phase, microseconds",
                &PHASE_BUCKETS_US,
                &[("phase", name)],
            )
        };
        ServeMetrics {
            requests: Endpoint::ALL.map(|e| {
                reg.counter_with(
                    "maras_requests_total",
                    "requests served, by endpoint",
                    &[("endpoint", e.name())],
                )
            }),
            latency: Endpoint::ALL.map(|e| {
                reg.histogram_with(
                    "maras_request_latency_us",
                    "request wall latency in microseconds, by endpoint",
                    &LATENCY_BUCKETS_US,
                    &[("endpoint", e.name())],
                )
            }),
            errors: reg
                .counter("maras_request_errors_total", "requests answered with status >= 400"),
            cache_hits: reg.counter("maras_cache_hits_total", "response-cache hits"),
            cache_misses: reg.counter("maras_cache_misses_total", "response-cache misses"),
            cache_entries: reg.gauge("maras_cache_entries", "response-cache entries"),
            reloads: reg.counter("maras_snapshot_reloads_total", "snapshot reloads completed"),
            slow_requests: reg.counter(
                "maras_slow_requests_total",
                "requests slower than the slow-request threshold",
            ),
            shed: reg.counter(
                "maras_serve_shed_total",
                "connections answered 503 by admission control (full queue or drain)",
            ),
            timeouts: reg.counter(
                "maras_serve_timeouts_total",
                "connections dropped after exceeding the socket I/O deadline",
            ),
            worker_panics: reg.counter(
                "maras_serve_worker_panics_total",
                "handler panics caught and recovered by the worker pool",
            ),
            workers_alive: reg.gauge("maras_serve_workers_alive", "worker threads currently alive"),
            queue_used: reg
                .gauge("maras_serve_queue_used", "connections waiting in the bounded accept queue"),
            in_flight: reg
                .gauge("maras_serve_inflight", "requests currently being handled by workers"),
            latency_p50: reg.gauge("maras_request_latency_p50_us", quantile_help),
            latency_p99: reg.gauge("maras_request_latency_p99_us", quantile_help),
            phase_parse: phase("parse"),
            phase_route: phase("route"),
            phase_write: phase("write"),
        }
    }

    /// Records one served request with its wall latency.
    pub fn record(&self, endpoint: Endpoint, latency_us: u64, is_error: bool) {
        self.requests[endpoint as usize].inc();
        if is_error {
            self.errors.inc();
        }
        self.latency[endpoint as usize].observe(latency_us as f64);
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().map(Counter::get).sum()
    }

    /// The latency histogram summed across endpoints.
    fn latency(&self) -> Histogram {
        Histogram::merged(&self.latency)
    }

    /// Sets the scrape-time gauges: the response cache's size (owned by
    /// the router) and the global latency p50/p99 from the summed buckets
    /// (0 before any request).
    pub fn refresh_gauges(&self, cache_entries: usize) {
        self.cache_entries.set(cache_entries as f64);
        let latency = self.latency();
        self.latency_p50.set(latency.quantile(0.5).unwrap_or(0.0));
        self.latency_p99.set(latency.quantile(0.99).unwrap_or(0.0));
    }

    /// Renders the legacy `/metrics.json` counter set (global histogram,
    /// summed across endpoints).
    pub fn to_json(&self) -> Value {
        let requests = Value::obj(
            Endpoint::ALL.iter().zip(&self.requests).map(|(e, c)| (e.name(), Value::from(c.get()))),
        );
        let latency = self.latency();
        let counts = latency.counts();
        let histogram = Value::arr(counts.iter().enumerate().map(|(i, &count)| {
            let le = latency
                .bounds()
                .get(i)
                .map_or_else(|| Value::from("+Inf"), |&ub| Value::from(ub as u64));
            Value::obj([("le_us", le), ("count", Value::from(count))])
        }));
        let hits = self.cache_hits.get();
        let misses = self.cache_misses.get();
        let lookups = hits + misses;
        Value::obj([
            ("requests", requests),
            ("errors", Value::from(self.errors.get())),
            (
                "latency_us",
                Value::obj([("buckets", histogram), ("total", Value::from(latency.sum() as u64))]),
            ),
            (
                "cache",
                Value::obj([
                    ("hits", Value::from(hits)),
                    ("misses", Value::from(misses)),
                    (
                        "hit_rate",
                        if lookups == 0 {
                            Value::Null
                        } else {
                            Value::from(hits as f64 / lookups as f64)
                        },
                    ),
                ]),
            ),
            ("reloads", Value::from(self.reloads.get())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (Registry, ServeMetrics) {
        let reg = Registry::new();
        let m = ServeMetrics::register(&reg);
        (reg, m)
    }

    /// The Prometheus text `/metrics` serves for this ledger alone.
    fn scrape(reg: &Registry, m: &ServeMetrics, cache_entries: usize) -> String {
        m.refresh_gauges(cache_entries);
        reg.render_prometheus()
    }

    #[test]
    fn counters_accumulate_and_render() {
        let (_reg, m) = fresh();
        m.record(Endpoint::Search, 120, false);
        m.record(Endpoint::Search, 30, false);
        m.record(Endpoint::Other, 999_999, true);
        m.cache_hits.inc();
        m.cache_misses.inc();
        m.cache_misses.inc();
        m.reloads.inc();
        assert_eq!(m.total_requests(), 3);
        let json = m.to_json();
        assert_eq!(json["requests"]["search"], 2u64);
        assert_eq!(json["requests"]["other"], 1u64);
        assert_eq!(json["errors"], 1u64);
        assert_eq!(json["reloads"], 1u64);
        assert_eq!(json["cache"]["hits"], 1u64);
        assert_eq!(json["cache"]["misses"], 2u64);
        let rate = json["cache"]["hit_rate"].as_f64().unwrap();
        assert!((rate - 1.0 / 3.0).abs() < 1e-12);
        // 30µs lands in the ≤50 bucket, 120µs in ≤250, overflow in +Inf.
        let buckets = json["latency_us"]["buckets"].as_array().unwrap();
        assert_eq!(buckets[0]["count"], 1u64);
        assert_eq!(buckets[2]["count"], 1u64);
        assert_eq!(buckets.last().unwrap()["count"], 1u64);
    }

    #[test]
    fn hit_rate_is_null_before_any_lookup() {
        let (_reg, m) = fresh();
        assert!(m.to_json()["cache"]["hit_rate"].is_null());
    }

    #[test]
    fn latency_quantile_interpolates_within_bucket() {
        let (_reg, m) = fresh();
        assert_eq!(m.latency().quantile(0.99), None, "no observations yet");
        // 100 requests, all in the (100, 250] bucket.
        for _ in 0..100 {
            m.record(Endpoint::Search, 200, false);
        }
        // p50 is halfway into the bucket, p99 near its top — not the
        // bucket's upper bound for every quantile.
        assert_eq!(m.latency().quantile(0.5), Some(175.0));
        assert_eq!(m.latency().quantile(0.99), Some(248.5));
        // Overflow-bucket observations clamp to the last finite bound.
        let (_reg2, m2) = fresh();
        m2.record(Endpoint::Search, 10_000_000, false);
        assert_eq!(m2.latency().quantile(0.99), Some(250_000.0));
    }

    #[test]
    fn reload_never_resets_cumulative_series() {
        let (reg, m) = fresh();
        m.record(Endpoint::Search, 100, false);
        m.record(Endpoint::Cluster, 100, true);
        m.cache_hits.inc();
        let before = m.to_json();
        m.reloads.inc();
        m.reloads.inc();
        let after = m.to_json();
        assert_eq!(after["requests"], before["requests"]);
        assert_eq!(after["errors"], before["errors"]);
        assert_eq!(after["latency_us"], before["latency_us"]);
        assert_eq!(after["cache"]["hits"], before["cache"]["hits"]);
        assert_eq!(after["reloads"], 2u64);
        assert!(scrape(&reg, &m, 0).contains("maras_snapshot_reloads_total 2"));
    }

    #[test]
    fn robustness_counters_render_as_serve_series() {
        let (reg, m) = fresh();
        m.shed.inc();
        m.shed.inc();
        m.timeouts.inc();
        m.worker_panics.inc();
        m.workers_alive.add(1.0);
        m.workers_alive.add(1.0);
        m.workers_alive.add(-1.0);
        m.queue_used.add(1.0);
        m.in_flight.add(1.0);
        assert_eq!(m.shed.get(), 2);
        assert_eq!(m.timeouts.get(), 1);
        assert_eq!(m.worker_panics.get(), 1);
        assert_eq!(m.workers_alive.get() as u64, 1);
        assert_eq!(m.queue_used.get() as u64, 1);
        assert_eq!(m.in_flight.get() as u64, 1);
        let text = scrape(&reg, &m, 0);
        assert!(text.contains("# TYPE maras_serve_shed_total counter"));
        assert!(text.contains("maras_serve_shed_total 2"));
        assert!(text.contains("maras_serve_timeouts_total 1"));
        assert!(text.contains("maras_serve_worker_panics_total 1"));
        assert!(text.contains("# TYPE maras_serve_workers_alive gauge"));
        assert!(text.contains("maras_serve_workers_alive 1"));
        assert!(text.contains("maras_serve_queue_used 1"));
        assert!(text.contains("maras_serve_inflight 1"));
        // The legacy JSON schema is frozen: robustness series are
        // Prometheus-only and must not leak into `/metrics.json`.
        let json = m.to_json();
        assert!(json.get("shed").is_none());
        assert!(json.get("timeouts").is_none());
    }

    #[test]
    fn prometheus_exposition_has_per_endpoint_series() {
        let (reg, m) = fresh();
        m.record(Endpoint::Search, 120, false);
        m.record(Endpoint::Healthz, 10, false);
        m.slow_requests.inc();
        let text = scrape(&reg, &m, 3);
        assert!(text.contains("# TYPE maras_requests_total counter"));
        assert!(text.contains("maras_requests_total{endpoint=\"search\"} 1"));
        assert!(text.contains("maras_requests_total{endpoint=\"healthz\"} 1"));
        assert!(text.contains("# TYPE maras_request_latency_us histogram"));
        assert!(text.contains("maras_request_latency_us_bucket{endpoint=\"search\",le=\"250\"} 1"));
        assert!(text.contains("maras_request_latency_us_bucket{endpoint=\"search\",le=\"+Inf\"} 1"));
        assert!(text.contains("maras_request_latency_us_count{endpoint=\"search\"} 1"));
        assert!(text.contains("maras_cache_entries 3"));
        assert!(text.contains("maras_slow_requests_total 1"));
    }

    #[test]
    fn every_endpoint_indexes_its_own_series() {
        for (i, e) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(*e as usize, i, "{e:?} out of place in Endpoint::ALL");
        }
    }
}
