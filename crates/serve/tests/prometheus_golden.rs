//! Golden-file test for the Prometheus text exposition: a fixed sequence
//! of recorded requests must render byte-identically to the checked-in
//! `tests/golden/metrics.prom` (and its `/metrics.json` body to
//! `tests/golden/metrics.json`), plus structural checks (header-once
//! semantics, label escaping, bucket monotonicity) that hold for any
//! counter state — including the full `/metrics` scrape, where the
//! server's registry is followed by the process-global one.
//!
//! Regenerate the golden files after an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test -p maras-serve --test prometheus_golden`.

use maras_serve::http::Request;
use maras_serve::{respond, Endpoint, ServeMetrics, ServeState, Snapshot};
use serde_json::Value;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics.prom")
}

/// The fixed counter state every golden render uses, registered in a
/// fresh registry; the scrape-time gauges see 5 response-cache entries.
fn fixed_metrics() -> (maras_obs::Registry, ServeMetrics) {
    let reg = maras_obs::Registry::new();
    let m = ServeMetrics::register(&reg);
    m.record(Endpoint::Healthz, 40, false);
    m.record(Endpoint::Search, 120, false);
    m.record(Endpoint::Search, 800, false);
    m.record(Endpoint::Search, 2_000_000, false);
    m.record(Endpoint::Cluster, 90, true);
    m.record(Endpoint::Other, 10, true);
    // Evidence drill-down endpoints: one cold page fetch, one point lookup.
    m.record(Endpoint::Reports, 350, false);
    m.record(Endpoint::Report, 60, false);
    // One flight-recorder introspection hit.
    m.record(Endpoint::Debug, 75, false);
    m.cache_hits.inc();
    m.cache_misses.inc();
    m.cache_misses.inc();
    m.reloads.inc();
    m.slow_requests.inc();
    // Robustness ledger: shed twice, one I/O timeout, one recovered
    // panic, and a live pool of 3 workers with one queued + one
    // in-flight request at scrape time.
    m.shed.inc();
    m.shed.inc();
    m.timeouts.inc();
    m.worker_panics.inc();
    for _ in 0..3 {
        m.workers_alive.add(1.0);
    }
    m.queue_used.add(1.0);
    m.queue_used.add(1.0);
    m.queue_used.add(-1.0);
    m.in_flight.add(1.0);
    m.refresh_gauges(5);
    (reg, m)
}

#[test]
fn exposition_matches_golden_file() {
    let rendered = fixed_metrics().0.render_prometheus();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(rendered, golden, "exposition drifted from {path:?}");
}

/// Structural checks that hold for any exposition: no blank lines, one
/// `# TYPE` per family, numeric samples, and per-endpoint latency
/// histograms whose cumulative buckets never decrease and end in a
/// `le="+Inf"` bucket equal to `_count`.
fn assert_exposition_valid(text: &str) {
    let mut seen_types = std::collections::HashSet::new();
    for line in text.lines() {
        assert!(!line.is_empty(), "no blank lines inside the exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap();
            let kind = parts.next().unwrap();
            assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
            assert!(seen_types.insert(name.to_string()), "duplicate # TYPE for {name}");
        } else if !line.starts_with('#') {
            // Every sample line is `name{labels} value` or `name value`.
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            value.parse::<f64>().unwrap_or_else(|_| panic!("non-numeric value in {line}"));
        }
    }
    // Cumulative buckets never decrease within one series, and each
    // histogram's last bucket is le="+Inf" with count == _count.
    for endpoint in [
        "healthz",
        "metrics",
        "search",
        "autocomplete",
        "cluster",
        "reload",
        "other",
        "reports",
        "report",
        "debug",
    ] {
        let prefix = format!("maras_request_latency_us_bucket{{endpoint=\"{endpoint}\",le=");
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with(&prefix))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!counts.is_empty(), "missing histogram for {endpoint}");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{endpoint} buckets not monotone");
        let inf_line =
            format!("maras_request_latency_us_bucket{{endpoint=\"{endpoint}\",le=\"+Inf\"}}");
        assert!(text.lines().any(|l| l.starts_with(&inf_line)), "missing +Inf bucket");
        let count_line = format!("maras_request_latency_us_count{{endpoint=\"{endpoint}\"}}");
        let total: u64 = text
            .lines()
            .find(|l| l.starts_with(&count_line))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .expect("histogram _count");
        assert_eq!(*counts.last().unwrap(), total, "{endpoint}: +Inf bucket != _count");
    }
}

#[test]
fn exposition_is_structurally_valid() {
    assert_exposition_valid(&fixed_metrics().0.render_prometheus());
}

fn get(path: &str) -> Request {
    Request { method: "GET".into(), path: path.into(), query: vec![] }
}

#[test]
fn full_scrape_is_structurally_valid() {
    // Mining the snapshot runs the score engine and the set-algebra
    // kernels, so the process-global registry holds their families too.
    let mut synth = maras_faers::Synthesizer::new(maras_faers::SynthConfig::test_scale(91));
    let quarter = synth.generate_quarter(maras_faers::QuarterId::new(2016, 2));
    let dv = synth.drug_vocab().clone();
    let av = synth.adr_vocab().clone();
    let result =
        maras_core::Pipeline::new(maras_core::PipelineConfig::default()).run(quarter, &dv, &av);
    let state = ServeState::new(Snapshot::build("2016 Q2", &result, &dv, &av, None), None, 64);
    // Served requests (accounted the way the connection handler does),
    // cache traffic, and one reload.
    for path in ["/search", "/search", "/cluster/1", "/nope"] {
        let (endpoint, status, _) = respond(&state, &get(path));
        state.metrics.record(endpoint, 150, status >= 400);
    }
    let snap = state.snapshot();
    state.swap(Snapshot::from_parts(
        snap.quarter.clone(),
        snap.n_reports,
        snap.drug_vocab().clone(),
        snap.adr_vocab().clone(),
        snap.clusters.clone(),
    ));
    let (_, status, text) = respond(&state, &get("/metrics"));
    assert_eq!(status, 200);
    assert_exposition_valid(&text);
    for family in [
        "maras_requests_total",
        "maras_serve_phase_us",
        "maras_signals_rules_scored_total",
        "maras_tidset_intersect_total",
    ] {
        assert!(text.contains(&format!("# TYPE {family} ")), "missing family {family}");
    }
    assert!(text.contains("maras_requests_total{endpoint=\"search\"} 2"));
    assert!(text.contains("maras_cache_hits_total 1"));
    assert!(text.contains("maras_snapshot_reloads_total 1"));
    assert!(text.contains("maras_request_errors_total 1"));
}

fn json_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics.json")
}

/// The `/metrics.json` body for the fixed counter state, byte for byte:
/// the legacy JSON dump plus the response cache's size (5 entries).
fn fixed_metrics_json() -> String {
    let mut body = match fixed_metrics().1.to_json() {
        Value::Object(m) => m,
        _ => unreachable!("metrics render as an object"),
    };
    body.insert("cache_entries".into(), Value::from(5usize));
    Value::Object(body).to_string()
}

#[test]
fn metrics_json_matches_golden_file() {
    let rendered = fixed_metrics_json();
    let path = json_golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(rendered, golden, "/metrics.json drifted from {path:?}");
}

#[test]
fn metrics_json_schema_stays_frozen_for_existing_keys() {
    // Adding the evidence endpoints must be purely additive: the
    // legacy `/metrics.json` consumers keep every key they had, with
    // the same shapes, and the new endpoint counters appear alongside
    // the old ones instead of displacing them.
    let m = ServeMetrics::register(&maras_obs::Registry::new());
    m.record(Endpoint::Search, 100, false);
    m.record(Endpoint::Reports, 200, false);
    m.record(Endpoint::Report, 50, true);
    m.record(Endpoint::Debug, 25, false);
    let json = m.to_json();
    let top: Vec<&str> = match &json {
        Value::Object(o) => o.keys().map(String::as_str).collect(),
        _ => panic!("metrics.json is an object"),
    };
    assert_eq!(top, ["cache", "errors", "latency_us", "reloads", "requests"]);
    for legacy in ["healthz", "metrics", "search", "autocomplete", "cluster", "reload", "other"] {
        assert!(json["requests"].get(legacy).is_some(), "lost requests.{legacy}");
    }
    assert_eq!(json["requests"]["reports"], 1u64);
    assert_eq!(json["requests"]["report"], 1u64);
    assert_eq!(json["requests"]["debug"], 1u64);
    assert_eq!(json["errors"], 1u64);
    assert!(json["latency_us"]["buckets"].as_array().is_some());
    assert!(json["cache"].get("hit_rate").is_some());
    // The score engine's `maras_signals_*` and the set-algebra
    // kernels' `maras_tidset_*` series live in the shared Prometheus
    // registry only — like the robustness series, they are
    // append-only on `/metrics` and never grow the frozen JSON schema.
    assert!(json.get("signals").is_none());
    assert!(json.get("tidset").is_none());
    for (i, key) in ["cache", "errors", "latency_us", "reloads", "requests"].iter().enumerate() {
        assert_eq!(top[i], *key, "legacy key index {i} moved");
    }
}

fn evidence_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/evidence_metrics.prom")
}

/// The fixed evidence-reader counter state the evidence golden renders:
/// two cache hits, one miss (one disk read + decode), one resident block,
/// and one cover intersection.
fn fixed_evidence_registry() -> maras_obs::Registry {
    let reg = maras_obs::Registry::new();
    let m = maras_evidence::EvidenceMetrics::register(&reg);
    m.cache_hits.add(2);
    m.cache_misses.inc();
    m.cache_entries.set(1.0);
    m.block_read_us.observe(180.0);
    m.block_decode_us.observe(45.0);
    m.intersections.inc();
    reg
}

#[test]
fn evidence_series_match_golden_file() {
    let rendered = fixed_evidence_registry().render_prometheus();
    let path = evidence_golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(rendered, golden, "evidence exposition drifted from {path:?}");
    // Every series carries the subsystem prefix; nothing anonymous leaks
    // into the shared registry from the evidence layer.
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        assert!(line.starts_with("maras_evidence_"), "unprefixed series: {line}");
    }
}

fn signals_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/signals_metrics.prom")
}

/// The fixed score-engine counter state the signals golden renders: two
/// batches (one 4-threaded, one single-threaded) totalling 150 rules.
fn fixed_signals_registry() -> maras_obs::Registry {
    let reg = maras_obs::Registry::new();
    let m = maras_signals::SignalsMetrics::register(&reg);
    m.rules_scored.add(120);
    m.batches.inc();
    m.batch_us.observe(1800.0);
    m.threads.set(4.0);
    m.rules_scored.add(30);
    m.batches.inc();
    m.batch_us.observe(700.0);
    m.threads.set(1.0);
    reg
}

#[test]
fn signals_series_match_golden_file() {
    let rendered = fixed_signals_registry().render_prometheus();
    let path = signals_golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(rendered, golden, "signals exposition drifted from {path:?}");
    // Every series carries the subsystem prefix; the score engine adds to
    // the shared registry append-only.
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        assert!(line.starts_with("maras_signals_"), "unprefixed series: {line}");
    }
    for series in [
        "maras_signals_rules_scored_total",
        "maras_signals_batches_total",
        "maras_signals_batch_us",
        "maras_signals_threads",
    ] {
        assert!(golden.contains(series), "missing series {series}");
    }
}

fn tidset_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tidset_metrics.prom")
}

/// The fixed set-algebra counter state the tidset golden renders: one
/// index build (3 array + 1 bitmap container, 9 KiB resident) followed by
/// a mixed kernel workload.
fn fixed_tidset_registry() -> maras_obs::Registry {
    let reg = maras_obs::Registry::new();
    let m = maras_tidset::TidsetMetrics::register(&reg);
    m.array_containers.add(3);
    m.bitmap_containers.inc();
    m.built_bytes.add(9216);
    m.intersect_calls.add(4);
    m.intersect_count_calls.add(12);
    m.union_calls.add(2);
    m.intersect_k_calls.add(5);
    reg
}

#[test]
fn tidset_series_match_golden_file() {
    let rendered = fixed_tidset_registry().render_prometheus();
    let path = tidset_golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(rendered, golden, "tidset exposition drifted from {path:?}");
    // Every series carries the subsystem prefix; the kernels add to the
    // shared registry append-only.
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        assert!(line.starts_with("maras_tidset_"), "unprefixed series: {line}");
    }
    for series in [
        "maras_tidset_intersect_total",
        "maras_tidset_intersect_count_total",
        "maras_tidset_union_total",
        "maras_tidset_intersect_k_total",
        "maras_tidset_array_containers_total",
        "maras_tidset_bitmap_containers_total",
        "maras_tidset_built_bytes_total",
    ] {
        assert!(golden.contains(series), "missing series {series}");
    }
}

fn obs_dropped_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_dropped_metrics.prom")
}

/// The fixed flight-recorder drop ledger the obs golden renders: seven
/// log events evicted from the ring, two spans discarded at capacity.
/// Production increments the same series through the global registry;
/// a fresh one keeps the golden deterministic.
fn fixed_obs_dropped_registry() -> maras_obs::Registry {
    let reg = maras_obs::Registry::new();
    reg.counter_with(maras_obs::DROPPED_SERIES, maras_obs::DROPPED_HELP, &[("kind", "logs")])
        .add(7);
    reg.counter_with(maras_obs::DROPPED_SERIES, maras_obs::DROPPED_HELP, &[("kind", "spans")])
        .add(2);
    reg
}

#[test]
fn obs_dropped_series_match_golden_file() {
    let rendered = fixed_obs_dropped_registry().render_prometheus();
    let path = obs_dropped_golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(rendered, golden, "obs-dropped exposition drifted from {path:?}");
    // One # TYPE/# HELP block, both kinds present, subsystem prefix on
    // every sample: the drop ledger is append-only in the shared registry.
    for line in golden.lines().filter(|l| !l.starts_with('#')) {
        assert!(line.starts_with("maras_obs_dropped_total{"), "unprefixed series: {line}");
    }
    for kind in ["logs", "spans"] {
        assert!(
            golden.contains(&format!("maras_obs_dropped_total{{kind=\"{kind}\"}}")),
            "missing kind={kind}"
        );
    }
}

#[test]
fn label_values_are_escaped_in_registry_series() {
    // The global registry flows into the same exposition on /metrics;
    // escaping must survive the round trip for hostile label values.
    let reg = maras_obs::Registry::new();
    reg.counter_with("golden_escapes_total", "tricky \\ help\nline", &[("q", "a\"b\\c\nd")]).add(1);
    let text = reg.render_prometheus();
    assert!(text.contains("# HELP golden_escapes_total tricky \\\\ help\\nline\n"));
    assert!(text.contains("golden_escapes_total{q=\"a\\\"b\\\\c\\nd\"} 1\n"));
}
