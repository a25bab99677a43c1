//! In-process calls into the program's crates: the refresh chain in the
//! CLI's order with a benchmark-side span around each call, the reference
//! state whose `respond()` bodies the socket bodies must equal, and the
//! replay that times the query engine and the archive per request.

use crate::corpus::QUARTER;
use crate::procs::Metrics;
use crate::trace::{Req, Trace};
use maras::core::{encode_reports, AnalysisResult, KnowledgeBase, PipelineConfig, RuleQuery};
use maras::evidence::{build_archive, BuildConfig, EvidenceReader};
use maras::faers::ascii::{read_quarter_dir_with, ErrorBudget, IngestMode, IngestOptions};
use maras::faers::{Cleaner, QuarterId, Vocabulary};
use maras::mcac::{rank_clusters_with, Mcac};
use maras::mining::mine_patterns_parallel;
use maras::rules::{rule_space, DrugAdrRule};
use maras::serve::http::{percent_decode, Request};
use maras::serve::{ServeState, Snapshot, SortBy};
use maras::signals::score_rules;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pipeline settings `maras snapshot` uses when given no flags.
fn cli_config() -> PipelineConfig {
    PipelineConfig::default().with_min_support(6).with_theta(0.5).with_n_threads(0)
}

/// The `tidset` counters reported for each call: those the calls move at
/// the commit that introduced the benchmark (the others stay at 0).
const TIDSET_COUNTERS: [(&str, &str); 8] = [
    ("core.encode", "built_bytes"),
    ("rules.rule_space", "intersect_count"),
    ("rules.rule_space", "intersect"),
    ("mcac.rank", "intersect_count"),
    ("mcac.rank", "intersect"),
    ("serve.snapshot.build", "intersect_k"),
    ("serve.snapshot.build", "intersect"),
    ("serve.snapshot.build", "built_bytes"),
];

/// Benchmark-side spans: one per named call, plus the time the benchmark
/// spends on its own bookkeeping, which is kept out of the wall time.
#[derive(Default)]
struct Tracer {
    spans: Vec<(&'static str, Duration)>,
    counters: Vec<(String, f64)>,
    own: Duration,
}

impl Tracer {
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let before = self.read_counters();
        let t = Instant::now();
        let out = f();
        self.spans.push((name, t.elapsed()));
        let after = self.read_counters();
        for (_, counter) in TIDSET_COUNTERS.iter().filter(|(call, _)| *call == name) {
            let series = format!("maras_tidset_{counter}_total");
            self.counters.push((format!("tidset.{name}.{counter}"), after.delta(&before, &series)));
        }
        out
    }

    fn read_counters(&mut self) -> Metrics {
        let t = Instant::now();
        let m = Metrics::parse(&maras::obs::registry().render_prometheus());
        self.own += t.elapsed();
        m
    }

    /// Benchmark work inside the chain that the CLI does not do.
    fn own<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.own += t.elapsed();
        out
    }
}

fn read_vocab(path: &Path) -> std::io::Result<Vocabulary> {
    let text = std::fs::read_to_string(path)?;
    Ok(Vocabulary::from_terms(text.lines().map(str::to_string)))
}

/// The timings and counts of one in-process refresh.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// Per-layer metrics, named as `BENCHMARK.json` lists them.
    pub layers: Vec<(String, f64, &'static str)>,
    /// Chain wall time in seconds, without the benchmark's own bookkeeping.
    pub wall: f64,
    /// Seconds inside the named calls, summed.
    pub named: f64,
}

impl Chain {
    /// One figure per line, for [`Chain::parse`] in another process.
    pub fn render(&self) -> String {
        let mut out = format!("wall {:?}\nnamed {:?}\n", self.wall, self.named);
        for (name, value, unit) in &self.layers {
            out.push_str(&format!("layer {name} {value:?} {unit}\n"));
        }
        out
    }

    pub fn parse(text: &str) -> Option<Chain> {
        let mut chain = Chain { layers: Vec::new(), wall: 0.0, named: 0.0 };
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            match f[..] {
                ["wall", v] => chain.wall = v.parse().ok()?,
                ["named", v] => chain.named = v.parse().ok()?,
                ["layer", name, value, unit] => {
                    let unit = ["s", "ratio", "count"].into_iter().find(|u| *u == unit)?;
                    chain.layers.push((name.to_string(), value.parse().ok()?, unit));
                }
                _ => return None,
            }
        }
        (chain.wall > 0.0).then_some(chain)
    }
}

/// What the in-process chain leaves behind: the analysis, the snapshot,
/// the vocabularies, and the target rules for the calls timed apart.
struct Refreshed {
    result: AnalysisResult,
    snapshot: Snapshot,
    vocabularies: (Vocabulary, Vocabulary),
    targets: Vec<DrugAdrRule>,
}

/// Runs the refresh in-process, call by call, in the order `maras
/// snapshot` makes them, writing `snapshot_out` and `archive_out`, with a
/// span around each call.
fn run_chain(
    tr: &mut Tracer,
    data: &Path,
    snapshot_out: &Path,
    archive_out: &Path,
) -> Result<Refreshed, String> {
    let id = QuarterId::new(QUARTER.0, QUARTER.1);
    let config = cli_config();
    let threads = config.effective_threads();
    let opts =
        IngestOptions { mode: IngestMode::Strict, budget: ErrorBudget::unlimited(), n_threads: 0 };
    let (ingested, dv, av) = tr.call("faers.ingest", || -> Result<_, String> {
        let ingested = read_quarter_dir_with(data, id, &opts).map_err(|e| e.to_string())?;
        let dv = read_vocab(&data.join("drug_vocab.txt")).map_err(|e| e.to_string())?;
        let av = read_vocab(&data.join("adr_vocab.txt")).map_err(|e| e.to_string())?;
        Ok((ingested, dv, av))
    })?;
    let (quarter, cleaned, cleaning) = tr.call("faers.clean", || {
        let quarter =
            if config.expedited_only { ingested.data.expedited_only() } else { ingested.data };
        let mut cleaner = Cleaner::new(&dv, &av, config.clean.clone());
        let (cleaned, stats) = cleaner.clean_quarter(&quarter);
        (quarter, cleaned, stats)
    });
    let encoded = tr.call("core.encode", || encode_reports(&cleaned, &dv, &av));
    let space = tr.call("rules.rule_space", || {
        rule_space(&encoded.db, &encoded.partition, config.min_support, threads)
    });
    let targets = tr.own(|| space.multi_drug_rules.clone());
    let ranked = tr.call("mcac.rank", || {
        rank_clusters_with(space.multi_drug_rules, &encoded.db, config.ranking_method(), threads)
    });
    let result = AnalysisResult {
        quarter,
        cleaned,
        cleaning,
        encoded,
        counts: space.counts,
        closed_patterns: space.closed,
        ranked,
    };
    let snapshot = tr.call("serve.snapshot.build", || {
        let kb = KnowledgeBase::literature_validated();
        Snapshot::build(id.to_string(), &result, &dv, &av, Some(&kb))
    });
    tr.call("serve.store.save", || maras::serve::save(&snapshot, snapshot_out))
        .map_err(|e| e.to_string())?;
    tr.call("evidence.build", || {
        build_archive(&result, &dv, &av, archive_out, BuildConfig::default())
    })
    .map_err(|e| e.to_string())?;
    Ok(Refreshed { result, snapshot, vocabularies: (dv, av), targets })
}

/// The in-process refresh as the reference: `respond()` over the snapshot
/// and archive it wrote.
pub fn reference(
    data: &Path,
    snapshot_out: &Path,
    archive_out: &Path,
) -> Result<ServeState, String> {
    let refreshed = run_chain(&mut Tracer::default(), data, snapshot_out, archive_out)?;
    let reader = EvidenceReader::open(archive_out).map_err(|e| e.to_string())?;
    Ok(ServeState::new(refreshed.snapshot, None, 1024).with_evidence(Arc::new(reader), None))
}

/// The in-process refresh, timed: the chain, then freeing what it built as
/// the CLI does when its command returns, in a last span. Mining, scoring
/// and cluster building are also timed apart on the same inputs, outside
/// the chain's wall time.
pub fn timed(data: &Path, snapshot_out: &Path, archive_out: &Path) -> Result<Chain, String> {
    let config = cli_config();
    let threads = config.effective_threads();
    let mut tr = Tracer::default();
    let start = Instant::now();
    let Refreshed { result, snapshot, vocabularies, targets } =
        run_chain(&mut tr, data, snapshot_out, archive_out)?;

    let db = &result.encoded.db;
    let (mine_s, score_s, build_s, context_rules) = tr.own(|| {
        let t = Instant::now();
        drop(std::hint::black_box(mine_patterns_parallel(db, config.min_support, threads)));
        let mine_s = t.elapsed().as_secs_f64();
        let multi: Vec<_> = targets.into_iter().filter(|r| r.is_multi_drug()).collect();
        let t = Instant::now();
        std::hint::black_box(score_rules(db, &multi, threads));
        let score_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let context_rules: usize =
            multi.into_iter().map(|r| Mcac::build(r, db).context_size()).sum();
        (mine_s, score_s, t.elapsed().as_secs_f64(), context_rules)
    });
    let counts = [
        ("faers.clean.memo_hit_rate", result.cleaning.cache_hit_rate(), "ratio"),
        ("mining.mine_s", mine_s, "s"),
        ("rules.closed", result.counts.closed_itemsets as f64, "count"),
        ("rules.targets", result.counts.mcacs as f64, "count"),
        ("signals.score_s", score_s, "s"),
        ("mcac.build_s", build_s, "s"),
        ("mcac.context_rules", context_rules as f64, "count"),
    ];
    tr.call("refresh.teardown", move || drop((result, snapshot, vocabularies)));
    let wall = start.elapsed().saturating_sub(tr.own).as_secs_f64();

    let named = tr.spans.iter().map(|(_, d)| d.as_secs_f64()).sum();
    let mut layers: Vec<(String, f64, &'static str)> =
        tr.spans.iter().map(|(name, d)| (format!("{name}_s"), d.as_secs_f64(), "s")).collect();
    layers.extend(counts.into_iter().map(|(k, v, u)| (k.to_string(), v, u)));
    layers.extend(tr.counters.into_iter().map(|(k, v)| (k, v, "count")));
    Ok(Chain { layers, wall, named })
}

/// Splits a request target into the server's parsed form.
pub fn request(method: &str, target: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let query = query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let (k, v) = p.split_once('=').unwrap_or((p, ""));
            (percent_decode(k).unwrap_or_default(), percent_decode(v).unwrap_or_default())
        })
        .collect();
    Request { method: method.to_string(), path: percent_decode(path).unwrap_or_default(), query }
}

/// Mean per-request time of each engine and archive step, replaying the
/// first `n` requests of `trace` in-process against the served files.
pub fn replay(
    snapshot: &Path,
    archive: &Path,
    trace: &Trace,
    n: usize,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let t = Instant::now();
    let snap = maras::serve::load(snapshot).map_err(|e| e.to_string())?;
    let load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let evidence = EvidenceReader::open(archive).map_err(|e| e.to_string())?;
    let open_s = t.elapsed().as_secs_f64();

    // [query, sort, render, cover, fetch]: (total, count)
    let mut acc = [(Duration::ZERO, 0u32); 5];
    let mut time = |slot: usize, t: Instant| {
        acc[slot].0 += t.elapsed();
        acc[slot].1 += 1;
    };
    for i in 0..n {
        match trace.get(i) {
            Req::Search(s) => {
                let mut q = RuleQuery::new();
                for d in &s.drugs {
                    q = q.with_drug(d);
                }
                if let Some(a) = &s.adr {
                    q = q.with_any_adr(a);
                }
                if let Some(v) = s.min_severity {
                    q = q.with_min_severity(v);
                }
                if let Some(v) = s.n_drugs {
                    q = q.with_n_drugs(v);
                }
                if let Some(v) = s.min_prr {
                    q = q.with_min_prr(v);
                }
                let sort_by = s.sort_by.and_then(SortBy::from_str_opt).unwrap_or(SortBy::Rank);
                let t = Instant::now();
                let hits = snap.query(&q);
                time(0, t);
                let t = Instant::now();
                let ranks = snap.sort_ranks(hits, sort_by);
                time(1, t);
                let t = Instant::now();
                let body: Vec<String> =
                    ranks.iter().take(50).map(|&r| snap.hit_json(r).to_string()).collect();
                std::hint::black_box(body);
                time(2, t);
            }
            Req::Autocomplete { kind, prefix } => {
                let t = Instant::now();
                std::hint::black_box(if *kind == "adr" {
                    snap.complete_adr(prefix, 10)
                } else {
                    snap.complete_drug(prefix, 10)
                });
                time(0, t);
            }
            Req::Cluster(rank) => {
                let t = Instant::now();
                let r = rank.resolve(snap.len()) - 1;
                std::hint::black_box(snap.try_detail_json(r).map(|v| v.to_string()));
                time(2, t);
            }
            Req::Reports { rank, offset, limit } => {
                let c = &snap.clusters[rank.resolve(snap.len()) - 1];
                let t = Instant::now();
                let cover = evidence.cover(&c.drugs, &c.adrs);
                time(3, t);
                let page: Vec<u32> = cover.into_iter().skip(*offset).take(*limit).collect();
                let t = Instant::now();
                std::hint::black_box(evidence.reports_for(&page).map_err(|e| e.to_string())?);
                time(4, t);
            }
            Req::Report(id) => {
                let t = Instant::now();
                std::hint::black_box(evidence.report_by_case_id(*id).map_err(|e| e.to_string())?);
                time(4, t);
            }
        }
    }
    let mean_us =
        |(d, n): (Duration, u32)| if n == 0 { 0.0 } else { d.as_secs_f64() * 1e6 / f64::from(n) };
    Ok(vec![
        ("serve.store.load_s".into(), load_s, "s"),
        ("evidence.open_s".into(), open_s, "s"),
        ("serve.snapshot.query_us".into(), mean_us(acc[0]), "us"),
        ("serve.snapshot.sort_us".into(), mean_us(acc[1]), "us"),
        ("serve.snapshot.render_us".into(), mean_us(acc[2]), "us"),
        ("evidence.cover_us".into(), mean_us(acc[3]), "us"),
        ("evidence.fetch_us".into(), mean_us(acc[4]), "us"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_round_trip_through_text() {
        let chain = Chain {
            layers: vec![
                ("faers.clean_s".into(), 0.664_332_542, "s"),
                ("rules.closed".into(), 39_533.0, "count"),
            ],
            wall: 3.065_1,
            named: 3.061_7,
        };
        assert_eq!(Chain::parse(&chain.render()), Some(chain));
        assert_eq!(Chain::parse("wall 1.0\nlayer x 1.0 furlong\n"), None);
        assert_eq!(Chain::parse(""), None);
    }
}
