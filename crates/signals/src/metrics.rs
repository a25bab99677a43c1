//! `maras_signals_*` instrumentation, registered in a `maras-obs` registry
//! so the series ride the existing `/metrics` exposition.

use maras_obs::{Counter, Gauge, Histogram, Registry};
use std::time::Instant;

/// Microsecond buckets for whole-batch scoring passes — a few thousand rules
/// score in the low milliseconds, dominated by the EBGM posterior quantiles.
pub const SIGNALS_LATENCY_BUCKETS_US: [f64; 10] =
    [100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 25000.0, 100000.0, 500000.0];

/// Handles to the score engine's metric series.
#[derive(Clone)]
pub struct SignalsMetrics {
    /// Rules scored across all batches.
    pub rules_scored: Counter,
    /// Scoring batches run (one per `score_rules` or ranking call).
    pub batches: Counter,
    /// Wall time of one whole scoring batch, µs.
    pub batch_us: Histogram,
    /// Worker threads used by the latest batch.
    pub threads: Gauge,
}

impl SignalsMetrics {
    /// Registers (or re-acquires) the series in `reg`.
    pub fn register(reg: &Registry) -> SignalsMetrics {
        SignalsMetrics {
            rules_scored: reg
                .counter("maras_signals_rules_scored_total", "rules scored by the signal engine"),
            batches: reg.counter("maras_signals_batches_total", "signal-scoring batches completed"),
            batch_us: reg.histogram(
                "maras_signals_batch_us",
                "signal-scoring batch wall time in microseconds",
                &SIGNALS_LATENCY_BUCKETS_US,
            ),
            threads: reg
                .gauge("maras_signals_threads", "worker threads used by the latest scoring batch"),
        }
    }

    /// Records one finished batch: `rules` rules scored on `n_threads`
    /// workers (clamped to ≥ 1), begun at `started`.
    pub fn record_batch(&self, rules: usize, n_threads: usize, started: Instant) {
        self.rules_scored.add(rules as u64);
        self.batches.inc();
        self.batch_us.observe(started.elapsed().as_micros() as f64);
        self.threads.set(n_threads.max(1) as f64);
    }

    /// Registers the series in the process-global registry (what `/metrics`
    /// exposes).
    pub fn global() -> SignalsMetrics {
        SignalsMetrics::register(maras_obs::registry())
    }
}
