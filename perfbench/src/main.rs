//! End-to-end MARAS benchmark.
//!
//! ```text
//! perfbench --maras BIN --work DIR --workload browse|drilldown
//!           --seed N --seconds S --trace 0|1
//! perfbench --record FIRST-LAST        print input fingerprints for seeds
//! perfbench --chain DATA SNAPSHOT ARCHIVE
//!                                       one traced in-process refresh
//! ```
//!
//! Every run generates the seeded paper-scale quarter, refreshes it with
//! `maras snapshot`, serves the result with `maras serve`, drives the
//! workload's traffic over real sockets, and checks the outputs. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` the
//! per-layer ones. The last stdout line is one JSON object. See
//! `README.md` beside this crate for the workloads and the metrics.

mod corpus;
mod inproc;
mod load;
mod procs;
mod stats;
mod trace;

use corpus::Corpus;
use load::Job;
use procs::{Metrics, Paths, Server};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use trace::{Req, Trace};

/// Recorded input fingerprints: `seed corpus browse drilldown`.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");
/// Checked on every run, whatever seed the run uses.
const CANARY_SEED: u64 = 1;
/// Server set-up samples per run; the median is reported.
const SERVER_SETUPS: usize = 5;
/// Serving rounds per run: each sends an open-loop slice, a closed-loop
/// slice and reloads; every `REFRESH_EVERY`-th also refreshes once more.
/// With the refresh before the server starts, an untraced run times
/// `1 + ROUNDS / REFRESH_EVERY` refreshes, and takes about 50 s.
const ROUNDS: usize = 6;
const REFRESH_EVERY: usize = 2;
/// The latency limit the open-loop rates are chosen to stay well within.
const LATENCY_LIMIT: Duration = Duration::from_millis(50);
/// Requests replayed in-process in a traced run.
const REPLAY: usize = 3_000;
/// Socket bodies compared byte for byte against `respond()`.
const BODY_SAMPLE: usize = 64;
/// Drilldown requests sent before measuring, to fault in pages; browse
/// instead sends each of its distinct requests once, filling the cache.
const WARMUP: usize = 300;
/// Quads of CLI refresh, chain, chain, CLI refresh a traced run times.
const CHAIN_QUADS: usize = 4;
/// Share of the CLI's refresh wall time the named calls must cover.
const MIN_ATTRIBUTED: f64 = 0.95;
/// How far the in-process chain's wall time may stray from the CLI's.
const MAX_OVERHEAD: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Browse,
    Drilldown,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "browse" => Some(Workload::Browse),
            "drilldown" => Some(Workload::Drilldown),
            _ => None,
        }
    }

    /// Fixed open-loop rate, req/s: about a tenth of the closed-loop
    /// `sat_rps` of the commit that introduced the benchmark on a quiet
    /// 2-core x86-64 virtual machine (browse 10k, drilldown 4.2k). Nearer
    /// half, stretches when the host took the vCPUs away built backlogs
    /// that did not drain (p50 of 3 to 63 ms against 0.3 ms). A 2 s
    /// slice still holds at least 1000 samples, enough for a p99.
    /// Constant, so later commits see the same offered load.
    fn rate(self) -> f64 {
        match self {
            Workload::Browse => 1000.0,
            Workload::Drilldown => 500.0,
        }
    }

    /// `POST /reload`s per round. Drilldown's sit beside the closed
    /// slice's reads, so two keep the slice mostly reads. Browse's go to
    /// the idle server after the slice, where they are cheap.
    fn reloads_per_round(self) -> usize {
        match self {
            Workload::Browse => 6,
            Workload::Drilldown => 2,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    maras: PathBuf,
    work: PathBuf,
}

enum Mode {
    Run(Args),
    /// Print the input fingerprints of seeds `FIRST..=LAST`.
    Record(u64, u64),
    /// Run the in-process refresh once on `data`, writing the snapshot and
    /// archive, and print its [`inproc::Chain`]. The traced run times the
    /// chain this way, in a fresh process as the CLI's refresh is.
    Chain([PathBuf; 3]),
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    if let Some(range) = get("--record") {
        let (a, b) = range.split_once('-').ok_or("--record wants FIRST-LAST")?;
        let seed = |s: &str| s.parse().map_err(|_| "bad seed".to_string());
        return Ok(Mode::Record(seed(a)?, seed(b)?));
    }
    if argv.first().map(String::as_str) == Some("--chain") {
        return match &argv[1..] {
            [data, snapshot, archive] => {
                Ok(Mode::Chain([data, snapshot, archive].map(PathBuf::from)))
            }
            _ => Err("--chain wants DATA SNAPSHOT ARCHIVE".into()),
        };
    }
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let num = |name: &str| -> Result<u64, String> {
        need(name)?.parse().map_err(|_| format!("{name} wants a whole number"))
    };
    Ok(Mode::Run(Args {
        workload: Workload::parse(need("--workload")?).ok_or("unknown --workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace wants 0 or 1".into()),
        },
        maras: PathBuf::from(need("--maras")?),
        work: PathBuf::from(need("--work")?),
    }))
}

/// One seed's inputs: the corpus files, the workloads' traces (browse,
/// drilldown), the planted interactions, and their fingerprints.
struct Inputs {
    files: Vec<(String, Vec<u8>)>,
    traces: [Trace; 2],
    planted: Vec<(Vec<String>, Vec<String>)>,
    fingerprints: [u64; 3],
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let corpus = Corpus::generate(seed);
        let facts = corpus.facts();
        let files = corpus.files();
        let traces = [trace::browse(seed, &facts), trace::drilldown(seed, &facts)];
        let fingerprints =
            [Corpus::fingerprint(&files), traces[0].fingerprint(), traces[1].fingerprint()];
        Inputs { files, traces, planted: facts.planted, fingerprints }
    }
}

fn recorded(seed: u64) -> Option<[u64; 3]> {
    FINGERPRINTS.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next()?.parse::<u64>().ok()? == seed).then_some(())?;
        let mut out = [0; 3];
        for slot in &mut out {
            *slot = u64::from_str_radix(f.next()?, 16).ok()?;
        }
        Some(out)
    })
}

/// Refuses inputs that differ from the recorded ones: a change to
/// `faers::synth` or to a trace builder must not silently alter a
/// workload. The canary seed is checked on every run; the run's own seed
/// too when it is recorded.
fn verify_inputs(seed: u64, fp: [u64; 3]) -> Result<(), String> {
    let check = |seed: u64, fp: [u64; 3]| match recorded(seed) {
        Some(want) if want != fp => Err(format!(
            "inputs for seed {seed} changed: fingerprints {} != recorded {}",
            hex(&fp),
            hex(&want)
        )),
        _ => Ok(()),
    };
    check(seed, fp)?;
    if seed != CANARY_SEED {
        check(CANARY_SEED, Inputs::generate(CANARY_SEED).fingerprints)?;
    }
    if recorded(CANARY_SEED).is_none() {
        return Err("no recorded fingerprint for the canary seed".into());
    }
    Ok(())
}

fn hex(fp: &[u64; 3]) -> String {
    fp.iter().map(|v| format!("{v:016x}")).collect::<Vec<_>>().join(" ")
}

/// One metric as printed.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
    /// False for a figure printed for reading only, outside the result
    /// line's metrics.
    reported: bool,
}

/// What a run measured and found.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
            reported: true,
        });
    }

    fn show(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
            reported: false,
        });
    }

    fn expect(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Mode::Run(args)) => args,
        Ok(Mode::Record(first, last)) => {
            println!("# seed corpus browse drilldown");
            for seed in first..=last {
                println!("{seed} {}", hex(&Inputs::generate(seed).fingerprints));
            }
            return ExitCode::SUCCESS;
        }
        Ok(Mode::Chain([data, snapshot, archive])) => {
            return match inproc::timed(&data, &snapshot, &archive) {
                Ok(chain) => {
                    print!("{}", chain.render());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::from(2)
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = args.work.join(format!("{:?}-{}", args.workload, args.seed).to_lowercase());
    let _ = std::fs::remove_dir_all(&dir);
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &out.metrics {
        let name = if m.reported { m.name.clone() } else { format!("({})", m.name) };
        println!("{name:<40} {:>14.4} {:<6} {}", m.value, m.unit, m.note);
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| m.reported)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let mut out = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let paths = Paths {
        maras: args.maras.clone(),
        data: dir.join("data"),
        snapshot: dir.join("quarter.snap"),
        archive: dir.join("quarter.evid"),
    };

    // Inputs, fingerprinted before anything runs on them.
    let inputs = Inputs::generate(args.seed);
    verify_inputs(args.seed, inputs.fingerprints)?;
    eprintln!("perfbench: seed {} inputs {}", args.seed, hex(&inputs.fingerprints));
    Corpus::write(&inputs.files, &paths.data).map_err(io("write corpus"))?;
    let [browse, drilldown] = inputs.traces;
    let trace = match args.workload {
        Workload::Browse => browse,
        Workload::Drilldown => drilldown,
    };

    let mut refreshes = vec![procs::refresh(&paths).map_err(io("refresh"))?];
    let n_clusters = refreshes[0].clusters;
    let snapshot_mb = mb(std::fs::metadata(&paths.snapshot).map_err(io("stat snapshot"))?.len());
    let archive_mb = mb(std::fs::metadata(&paths.archive).map_err(io("stat archive"))?.len());

    // Output checks on the artifacts.
    let os = |s: &'static str| std::ffi::OsStr::new(s);
    let serve_check = procs::check(
        &paths.maras,
        &[
            os("serve"),
            os("--check"),
            os("--snapshot"),
            paths.snapshot.as_os_str(),
            os("--evidence"),
            paths.archive.as_os_str(),
        ],
    )
    .map_err(io("serve --check"))?;
    out.expect(serve_check, || "maras serve --check refused the refreshed artifacts".into());
    let evidence_check = procs::check(
        &paths.maras,
        &[os("evidence"), os("check"), os("--archive"), paths.archive.as_os_str()],
    )
    .map_err(io("evidence check"))?;
    out.expect(evidence_check, || "maras evidence check refused the archive".into());

    // The same refresh in-process, as the reference: it must write the
    // CLI's bytes, and its state answers the `respond()` calls the socket
    // bodies must equal.
    let (ref_snapshot, ref_archive) = (dir.join("ref.snap"), dir.join("ref.evid"));
    let state = inproc::reference(&paths.data, &ref_snapshot, &ref_archive)?;
    same_artifacts(&mut out, &paths, &ref_snapshot, &ref_archive)?;
    let planted: Vec<(String, &Vec<String>, &Vec<String>)> = inputs
        .planted
        .iter()
        .map(|(drugs, adrs)| {
            let req = Req::Search(trace::Search { drugs: drugs.clone(), ..Default::default() });
            (req.target(n_clusters), drugs, adrs)
        })
        .collect();
    let sample: Vec<String> = planted
        .iter()
        .map(|p| p.0.clone())
        .chain((0..BODY_SAMPLE).map(|i| trace.get(i * 7).target(n_clusters)))
        .collect();
    let expected: Vec<(u16, String)> = sample
        .iter()
        .map(|t| {
            let (_, status, body) = maras::serve::respond(&state, &inproc::request("GET", t));
            (status, body)
        })
        .collect();
    for (t, (status, _)) in sample.iter().zip(&expected) {
        out.expect(*status == 200, || format!("in-process {t} answered {status}"));
    }
    drop(state);

    // Traced: the in-process chain, each time in a fresh child process,
    // timed beside CLI refreshes before any traffic, in quads of CLI,
    // chain, chain, CLI, so a drift of the machine's speed weighs on both
    // sides alike. Pairs: (CLI refresh wall time, chain timed beside it).
    let mut pairs: Vec<(f64, inproc::Chain)> = Vec::new();
    for _ in 0..if args.trace { CHAIN_QUADS } else { 0 } {
        let mut chain = || -> Result<inproc::Chain, String> {
            let (snapshot, archive) = (dir.join("chain.snap"), dir.join("chain.evid"));
            let chain =
                procs::chain(&paths, &snapshot, &archive).map_err(io("in-process refresh"))?;
            same_artifacts(&mut out, &paths, &snapshot, &archive)?;
            Ok(chain)
        };
        let first = procs::refresh(&paths).map_err(io("refresh"))?;
        pairs.push((first.wall.as_secs_f64(), chain()?));
        let second = chain()?;
        let last = procs::refresh(&paths).map_err(io("refresh"))?;
        pairs.push((last.wall.as_secs_f64(), second));
        refreshes.extend([first, last]);
    }

    // The server, started several times for set-up samples; the last
    // one stays up for the socket checks and the first round.
    let mut server = None;
    let mut server_setups = Vec::new();
    for _ in 0..SERVER_SETUPS {
        drop(server.take());
        let s = Server::spawn(&paths).map_err(io("serve"))?;
        server_setups.push(s.setup.as_secs_f64());
        server = Some(s);
    }
    let mut server = server.expect("SERVER_SETUPS > 0");
    let addr = server.addr;

    // Output checks over the socket.
    for (t, drugs, adrs) in &planted {
        let found = match load::http(addr, "GET", t) {
            Ok((200, body)) => planted_found(&body, drugs, adrs),
            _ => false,
        };
        out.expect(found, || format!("planted interaction {drugs:?} -> {adrs:?} not found by {t}"));
    }
    for (t, (status, body)) in sample.iter().zip(&expected) {
        match load::http(addr, "GET", t) {
            Ok((s, b)) if s == *status && b == body.as_bytes() => {}
            Ok((s, _)) => out
                .problems
                .push(format!("{t}: socket body ({s}) differs from respond() ({status})")),
            Err(e) => out.problems.push(format!("{t}: {e}")),
        }
    }

    // Traffic.
    let read = |addr, i: usize| {
        matches!(load::http(addr, "GET", &trace.get(i).target(n_clusters)), Ok((200, _)))
    };
    let reload = |addr| matches!(load::http(addr, "POST", "/reload"), Ok((200, _)));
    let warmup: Vec<String> = if args.workload == Workload::Browse {
        trace.reqs.iter().map(|r| r.target(n_clusters)).collect()
    } else {
        (0..WARMUP).map(|i| trace.get(i).target(n_clusters)).collect()
    };
    let warm = |out: &mut Outcome, addr| {
        for t in &warmup {
            let ok = matches!(load::http(addr, "GET", t), Ok((200, _)));
            out.expect(ok, || format!("warm-up {t} failed"));
        }
    };
    warm(&mut out, addr);
    // The serving phase runs in rounds, each an open-loop slice, a
    // closed-loop slice, reloads and maybe a refresh, so every metric's
    // samples spread over the whole run and one slow stretch of the
    // machine moves only one round. Browse warmed up on its distinct set
    // and starts its trace afresh; drilldown continues past its warm-up.
    let mut next = if args.workload == Workload::Browse { 0 } else { WARMUP };
    let slice = Duration::from_secs(args.seconds) / (2 * ROUNDS as u32);
    // Drilldown's reloads sit beside each closed slice's reads; browse
    // reloads the idle server after it, which the next round replaces, so
    // the empty response cache a reload leaves is never measured.
    let marks: Vec<Duration> = if args.workload == Workload::Drilldown {
        let n = args.workload.reloads_per_round() as u32;
        (1..=n).map(|k| slice * k / (n + 1)).collect()
    } else {
        Vec::new()
    };
    let scrape = |server: &Server| -> Result<Option<Metrics>, String> {
        if args.trace {
            server.scrape().map(Some).map_err(io("scrape"))
        } else {
            Ok(None)
        }
    };
    // `/metrics` deltas over the slices only, and server CPU time over the
    // closed-loop slices, so checks, warm-ups, browse's reloads and
    // scrapes do not count.
    let (mut open_deltas, mut slice_deltas) = (Metrics::default(), Metrics::default());
    let mut closed_cpu = 0.0;
    let (mut opens, mut closeds, mut reloads) = (Vec::new(), Vec::new(), Vec::new());
    let cpu = |server: &Server| server.cpu_s().map_err(io("server CPU time"));
    // Each round has a server of its own: keep the last one's peak, then
    // start, time and warm up the next. Every reload raises VmHWM by a
    // random step that does not level off (one server after all 36 of
    // browse's reloads read 199–262 MB over ten seeds, one after
    // drilldown's 12 spread 8% and 25% of the median in two 10-seed
    // sets), so `peak_rss_mb` is the median of six lifetimes' peaks.
    let mut server_rss = Vec::new();
    for round in 1..=ROUNDS {
        if round > 1 {
            server_rss.push(server.peak_rss_mb().map_err(io("server VmHWM"))?);
            drop(server);
            server = Server::spawn(&paths).map_err(io("serve"))?;
            server_setups.push(server.setup.as_secs_f64());
            warm(&mut out, server.addr);
        }
        let addr = server.addr;
        let before = scrape(&server)?;
        let base = next;
        let open =
            load::open_loop(args.workload.rate(), slice, Duration::from_secs(1), nproc, &|i| {
                read(addr, base + i)
            });
        if let (Some(a), Some(b)) = (&before, scrape(&server)?) {
            open_deltas.add(&b.since(a));
        }
        next += open.scheduled;
        let before = scrape(&server)?;
        let cpu_before = cpu(&server)?;
        let base = next;
        let closed = load::closed_loop(slice, nproc, &marks, &|job| match job {
            Job::Read(i) => read(addr, base + i),
            Job::Reload => reload(addr),
        });
        closed_cpu += cpu(&server)? - cpu_before;
        if let (Some(a), Some(b)) = (&before, scrape(&server)?) {
            slice_deltas.add(&b.since(a));
        }
        next += closed.ok + closed.failed;
        reloads.extend(closed.reloads.iter().copied());
        if marks.is_empty() {
            reloads.extend(
                (0..args.workload.reloads_per_round()).map(|_| load::timed(|| reload(addr))),
            );
        }
        opens.push(open);
        closeds.push(closed);
        if round % REFRESH_EVERY == 0 {
            refreshes.push(procs::refresh(&paths).map_err(io("refresh"))?);
        }
    }
    slice_deltas.add(&open_deltas);
    server_rss.push(server.peak_rss_mb().map_err(io("server VmHWM"))?);
    drop(server);
    eprintln!("perfbench: server VmHWMs {server_rss:.1?} MB");
    let refresh_walls: Vec<f64> = refreshes.iter().map(|r| r.wall.as_secs_f64()).collect();
    eprintln!("perfbench: refresh walls {refresh_walls:.3?} s");
    let refresh_s = stats::median(&refresh_walls);
    out.attempted += refreshes.len() as u64;
    out.expect(refreshes.iter().all(|r| r.clusters == n_clusters), || {
        "refreshes disagree on the cluster count".into()
    });

    for o in opens.iter().filter(|o| !o.valid()) {
        out.problems.push(format!(
            "open loop invalid: the generator left {} of {} due requests unsent",
            o.unsent, o.scheduled
        ));
    }
    let reads: Vec<&load::Sample> = opens.iter().flat_map(|o| &o.reads).collect();
    let open_failed = reads.iter().filter(|s| !s.ok).count();
    let closed_failed: usize = closeds.iter().map(|c| c.failed).sum();
    let reload_failed = reloads.iter().filter(|r| !r.1).count();
    let attempted_reads = reads.len() + closeds.iter().map(|c| c.ok + c.failed).sum::<usize>();
    out.attempted += (attempted_reads + reloads.len()) as u64;
    out.failed += (open_failed + closed_failed + reload_failed) as u64;
    // A failed request counts as missing every latency limit.
    let latency = |s: &load::Sample| if s.ok { ms(s.latency) } else { ms(load::REQUEST_TIMEOUT) };
    let latencies: Vec<f64> = reads.iter().map(|s| latency(s)).collect();
    let p50 = stats::median(&latencies);
    let whole_p99 =
        stats::tail(&latencies, 99.0).ok_or("too few open-loop samples for any percentile")?;
    let slices: Vec<Vec<f64>> =
        opens.iter().map(|o| o.reads.iter().map(latency).collect()).collect();
    let p99 = stats::median_tail(&slices, 99.0)
        .ok_or("too few open-loop samples per slice for any percentile")?;
    let late: Vec<f64> = reads.iter().map(|s| ms(s.late)).collect();
    let late_tail = stats::tail(&late, 99.0).ok_or("too few open-loop samples")?;
    let sat_rps = stats::median(
        &closeds.iter().map(|c| c.ok as f64 / c.elapsed.as_secs_f64()).collect::<Vec<_>>(),
    );
    let sat_note = format!("median of {ROUNDS} closed-loop slices, {nproc} clients");
    let p50_note =
        format!("open loop at {} req/s, {} samples", args.workload.rate(), latencies.len());
    let reload_ms = stats::median(&reloads.iter().map(|r| ms(r.0)).collect::<Vec<_>>());
    let refresh_rss = stats::median(&refreshes.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>());
    let closed_reqs = closeds.iter().map(|c| c.ok + c.failed + c.reloads.len()).sum::<usize>();
    let over_limit = reads.iter().filter(|s| !s.ok || s.latency > LATENCY_LIMIT).count();
    let slice_p99s: Vec<String> = slices
        .iter()
        .filter_map(|s| stats::tail(s, 99.0))
        .map(|t| format!("{:.3}", t.value))
        .collect();
    let p99_note = format!(
        "median of {} slices' p{} [{}] (>= {} samples each); all slices p{} {:.3} ms of {}; {} over the {} ms limit",
        p99.groups,
        p99.q,
        slice_p99s.join(" "),
        p99.min_n,
        whole_p99.q,
        whole_p99.value,
        whole_p99.n,
        over_limit,
        LATENCY_LIMIT.as_millis()
    );

    if !args.trace {
        let w = args.workload;
        let setup_note =
            format!("median of {} server spawns to the first /healthz 200", server_setups.len());
        out.put("setup_s", stats::median(&server_setups), "s", setup_note);
        out.put(
            "refresh_s",
            refresh_s,
            "s",
            format!("median of {}; {n_clusters} clusters", refreshes.len()),
        );
        out.put("snapshot_mb", snapshot_mb, "MB", "");
        out.put("archive_mb", archive_mb, "MB", "");
        out.put(
            "refresh_rss_mb",
            refresh_rss,
            "MB",
            format!("median of {} refresh children's own peaks, wait4(2)", refreshes.len()),
        );
        out.put(
            "peak_rss_mb",
            stats::median(&server_rss),
            "MB",
            format!(
                "median VmHWM of {} servers, each after {} reloads",
                server_rss.len(),
                reloads.len() / server_rss.len()
            ),
        );
        out.show("p50_ms", p50, "ms", &p50_note);
        out.show("p99_ms", p99.value, "ms", &p99_note);
        out.show("sat_rps", sat_rps, "req/s", &sat_note);
        let failed = open_failed + closed_failed;
        out.put(
            "success_ratio",
            1.0 - failed as f64 / attempted_reads.max(1) as f64,
            "ratio",
            format!("error_rate = {failed}/{attempted_reads}"),
        );
        let when =
            if w == Workload::Drilldown { "beside the closed loop" } else { "on an idle server" };
        out.put(
            "reload_ms",
            reload_ms,
            "ms",
            format!("median of {} POST /reload {when}", reloads.len()),
        );
    } else {
        // Medians over the chain runs, each in a fresh process like the
        // CLI refresh it is paired with.
        let per_pair = |f: &dyn Fn(f64, &inproc::Chain) -> f64| -> Vec<f64> {
            pairs.iter().map(|(cli, c)| f(*cli, c)).collect()
        };
        let median_of = |f: &dyn Fn(f64, &inproc::Chain) -> f64| stats::median(&per_pair(f));
        for (i, (name, _, unit)) in pairs[0].1.layers.iter().enumerate() {
            out.put(name, median_of(&|_, c| c.layers[i].1), unit, "");
        }
        let walls: Vec<(f64, f64)> = pairs.iter().map(|(cli, c)| (*cli, c.wall)).collect();
        eprintln!("perfbench: (CLI, in-process chain) walls {walls:.3?} s");
        // Both against the CLI's own wall time, pair by pair, so a step
        // the CLI gains or loses that the in-process chain does not copy
        // fails the run. One pair is too noisy to judge, so a check fails
        // only when three pairs in four fail it.
        let attributed = median_of(&|cli, c| c.named / cli);
        let overhead = median_of(&|cli, c| c.wall / cli) - 1.0;
        let unattributed = median_of(&|cli, c| cli - c.named);
        let covered = stats::percentile(&per_pair(&|cli, c| c.named / cli), 75.0);
        out.expect(covered >= MIN_ATTRIBUTED, || {
            format!(
                "in three pairs of four the named calls cover less than {:.0}% of the CLI's \
                 wall time (upper quartile {:.1}%)",
                100.0 * MIN_ATTRIBUTED,
                100.0 * covered
            )
        });
        let ratios = per_pair(&|cli, c| c.wall / cli);
        let (q1, q3) = (stats::percentile(&ratios, 25.0), stats::percentile(&ratios, 75.0));
        out.expect(q1 <= 1.0 + MAX_OVERHEAD && q3 >= 1.0 - MAX_OVERHEAD, || {
            format!(
                "in three pairs of four the chain's wall time strays more than {:.0}% from \
                 the CLI's (quartiles {:+.1}%, {:+.1}%)",
                100.0 * MAX_OVERHEAD,
                100.0 * (q1 - 1.0),
                100.0 * (q3 - 1.0)
            )
        });
        let note = format!("median of {} pairs of CLI refresh and in-process chain", pairs.len());
        out.put(
            "refresh.unattributed_s",
            unattributed,
            "s",
            "CLI wall less the spans; ".to_string() + &note,
        );
        out.put(
            "refresh.attributed_pct",
            100.0 * attributed,
            "%",
            "spans over CLI wall; ".to_string() + &note,
        );
        out.put(
            "trace.overhead_pct",
            100.0 * overhead,
            "%",
            "chain wall over CLI wall; ".to_string() + &note,
        );
        let setups: Vec<f64> = refreshes.iter().map(|r| r.setup.as_secs_f64()).collect();
        out.put(
            "refresh.setup_s",
            stats::median(&setups),
            "s",
            "refresh spawn to its first stdout line",
        );
        serving_layers(&mut out, &slice_deltas, &open_deltas, &reads);
        out.put(
            "serve.server.cpu_us",
            closed_cpu * 1e6 / closed_reqs.max(1) as f64,
            "us",
            format!(
                "server user+system CPU over the closed-loop slices, per request of {closed_reqs}"
            ),
        );
        out.put("p50_ms", p50, "ms", &p50_note);
        out.put("p99_ms", p99.value, "ms", &p99_note);
        out.put("sat_rps", sat_rps, "req/s", &sat_note);
        out.put(
            "client.late_ms_p99",
            late_tail.value,
            "ms",
            format!("p{} of {}", late_tail.q, late_tail.n),
        );
        let replay = inproc::replay(&paths.snapshot, &paths.archive, &trace, REPLAY)?;
        for (name, value, unit) in replay {
            out.put(&name, value, unit, "");
        }
    }
    Ok(out)
}

/// Checks that an in-process refresh wrote the same bytes as `maras
/// snapshot`: a chain that no longer makes the CLI's calls, or makes them
/// with other settings, fails here on every run.
fn same_artifacts(
    out: &mut Outcome,
    paths: &Paths,
    snapshot: &Path,
    archive: &Path,
) -> Result<(), String> {
    for (ours, cli) in [(snapshot, &paths.snapshot), (archive, &paths.archive)] {
        let read = |p: &Path| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()));
        let same = read(ours)? == read(cli)?;
        out.expect(same, || {
            format!("in-process {} differs from the CLI's {}", ours.display(), cli.display())
        });
    }
    Ok(())
}

/// Whether a `/search` body lists a cluster of exactly the planted drugs
/// with one of the planted ADRs.
fn planted_found(body: &[u8], drugs: &[String], adrs: &[String]) -> bool {
    let Ok(v) = serde_json::from_str(&String::from_utf8_lossy(body)) else { return false };
    let names = |v: &serde_json::Value, key: &str| -> Vec<String> {
        v.get(key)
            .and_then(|a| a.as_array())
            .map(|a| a.iter().filter_map(|s| s.as_str().map(str::to_string)).collect())
            .unwrap_or_default()
    };
    let mut want: Vec<String> = drugs.iter().map(|d| d.to_ascii_uppercase()).collect();
    want.sort();
    v.get("hits").and_then(|h| h.as_array()).is_some_and(|hits| {
        hits.iter().any(|h| {
            let mut got = names(h, "drugs");
            got.sort();
            got == want && names(h, "adrs").iter().any(|a| adrs.contains(a))
        })
    })
}

/// Per-layer serving metrics from `/metrics` deltas over every traffic
/// slice (`slices`) and over the open-loop slices alone (`open`), whose
/// client samples `open_samples` are, for the queue wait.
fn serving_layers(
    out: &mut Outcome,
    slices: &Metrics,
    open: &Metrics,
    open_samples: &[&load::Sample],
) {
    out.put(
        "serve.cache.hit_rate",
        slices.ratio("maras_cache_hits_total", "maras_cache_misses_total"),
        "ratio",
        "",
    );
    for phase in ["parse", "route", "write"] {
        let v = slices.mean("maras_serve_phase_us", &format!("{{phase=\"{phase}\"}}"));
        out.put(&format!("serve.server.{phase}_us"), v, "us", "");
    }
    // Client time from send to response, less what the server recorded
    // for the same requests: accept, admission queue and the network.
    let client_ms =
        open_samples.iter().map(|s| ms(s.service)).sum::<f64>() / open_samples.len().max(1) as f64;
    let (mut sum, mut count) = (0.0, 0.0);
    for e in trace::ENDPOINTS {
        sum += open.get(&format!("maras_request_latency_us_sum{{endpoint=\"{e}\"}}"));
        count += open.get(&format!("maras_request_latency_us_count{{endpoint=\"{e}\"}}"));
    }
    let server_ms = if count > 0.0 { sum / count / 1e3 } else { 0.0 };
    out.put("serve.server.queue_wait_ms", client_ms - server_ms, "ms", "");
    out.put("serve.server.shed", slices.get("maras_serve_shed_total"), "count", "");
    out.put("serve.server.timeouts", slices.get("maras_serve_timeouts_total"), "count", "");
    for e in trace::ENDPOINTS {
        let v = slices.mean("maras_request_latency_us", &format!("{{endpoint=\"{e}\"}}"));
        out.put(&format!("serve.endpoint.{e}_us"), v, "us", "");
    }
    out.put(
        "evidence.block_cache.hit_rate",
        slices.ratio(
            "maras_evidence_block_cache_hits_total",
            "maras_evidence_block_cache_misses_total",
        ),
        "ratio",
        "",
    );
    out.put(
        "evidence.block_decode_us",
        slices.mean("maras_evidence_block_decode_us", ""),
        "us",
        "",
    );
    let dropped = slices.get("maras_obs_dropped_total{kind=\"logs\"}")
        + slices.get("maras_obs_dropped_total{kind=\"spans\"}");
    out.put("obs.dropped", dropped, "count", "");
}
