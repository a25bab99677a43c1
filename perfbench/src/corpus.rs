//! The seeded paper-scale corpus: generation, FAERS `$`-ASCII files on
//! disk, and the facts the request traces are drawn from.

use crate::trace::Rng;
use maras::faers::ascii::QuarterWriter;
use maras::faers::{CaseReport, QuarterData, QuarterId, ReportType, SynthConfig, Synthesizer};
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// The synthetic world's seed (`maras generate`'s default).
const WORLD_SEED: u64 = 2014;
/// The quarter every workload analyzes.
pub const QUARTER: (u16, u8) = (2014, 1);
/// How the CLI spells [`QUARTER`].
pub const QUARTER_ARG: &str = "2014Q1";

/// FNV-1a, the hash behind every input fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One generated quarter plus its vocabularies, still in memory.
pub struct Corpus {
    pub quarter: QuarterData,
    pub drug_terms: Vec<String>,
    pub adr_terms: Vec<String>,
    /// Planted multi-drug interactions as canonical (drugs, ADRs).
    pub planted: Vec<(Vec<String>, Vec<String>)>,
}

impl Corpus {
    /// The paper-scale (`SynthConfig::paper_scale`) quarter, its cases
    /// shuffled and renumbered by `seed`.
    ///
    /// Every seed analyzes the same reports. Between quarters of one
    /// synthetic world the cluster count moves by about 8%, and refresh
    /// cost and snapshot size with it; that spread would hide regressions
    /// of a few percent. The seed still changes every byte of the input
    /// files, the tid order the program assigns, the archive's blocks, and
    /// every request trace.
    pub fn generate(seed: u64) -> Corpus {
        let config = SynthConfig::paper_scale(WORLD_SEED);
        let planted =
            config.interactions.iter().map(|p| (p.drugs.clone(), p.adrs.clone())).collect();
        let mut synth = Synthesizer::new(config);
        let mut quarter = synth.generate_quarter(QuarterId::new(QUARTER.0, QUARTER.1));
        shuffle_cases(&mut quarter.reports, seed);
        let terms = |v: &maras::faers::Vocabulary| v.iter().map(|(_, t)| t.to_string()).collect();
        Corpus {
            drug_terms: terms(synth.drug_vocab()),
            adr_terms: terms(synth.adr_vocab()),
            quarter,
            planted,
        }
    }

    /// The four quarter files and the two vocabulary files the CLI
    /// reads, as (file name, bytes), in a fixed order.
    pub fn files(&self) -> Vec<(String, Vec<u8>)> {
        let label = self.quarter.id.file_label();
        let reports = &self.quarter.reports;
        let table = |write: fn(&mut Vec<u8>, &[CaseReport]) -> io::Result<()>| {
            let mut buf = Vec::new();
            write(&mut buf, reports).expect("writing to memory cannot fail");
            buf
        };
        let terms = |terms: &[String]| {
            terms.iter().flat_map(|t| [t.as_bytes(), b"\n"]).flatten().copied().collect()
        };
        vec![
            (format!("DEMO{label}.txt"), table(QuarterWriter::write_demo)),
            (format!("DRUG{label}.txt"), table(QuarterWriter::write_drug)),
            (format!("REAC{label}.txt"), table(QuarterWriter::write_reac)),
            (format!("OUTC{label}.txt"), table(QuarterWriter::write_outc)),
            ("drug_vocab.txt".to_string(), terms(&self.drug_terms)),
            ("adr_vocab.txt".to_string(), terms(&self.adr_terms)),
        ]
    }

    /// Hash of the files [`Corpus::files`] returns, names included.
    pub fn fingerprint(files: &[(String, Vec<u8>)]) -> u64 {
        let mut h = Fnv::default();
        for (name, bytes) in files {
            h.bytes(name.as_bytes());
            h.bytes(bytes);
        }
        h.0
    }

    /// Writes `files` into `dir`.
    pub fn write(files: &[(String, Vec<u8>)], dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, bytes) in files {
            std::fs::write(dir.join(name), bytes)?;
        }
        Ok(())
    }

    /// The generator-side facts request traces are drawn from. They come
    /// from the generated reports only, never from program output, so a
    /// change to the program cannot change what the benchmark asks.
    pub fn facts(&self) -> Facts {
        let drug_set: HashMap<&str, ()> =
            self.drug_terms.iter().map(|t| (t.as_str(), ())).collect();
        let adr_set: HashMap<&str, ()> = self.adr_terms.iter().map(|t| (t.as_str(), ())).collect();
        let mut drug_counts: HashMap<&str, usize> = HashMap::new();
        let mut adr_counts: HashMap<&str, usize> = HashMap::new();
        let mut pairs = Vec::new();
        let mut case_ids = Vec::new();
        for r in &self.quarter.reports {
            let drugs = canonical_drugs(r, &drug_set);
            for d in &drugs {
                *drug_counts.entry(d).or_default() += 1;
            }
            for a in r.reactions.iter().map(|a| a.as_ref()).filter(|a| adr_set.contains_key(a)) {
                *adr_counts.entry(a).or_default() += 1;
            }
            if drugs.len() >= 2 {
                pairs.push((drugs[0].to_string(), drugs[1].to_string()));
            }
            if r.report_type == ReportType::Expedited
                && r.version == 1
                && drugs.len() >= 2
                && !r.reactions.is_empty()
            {
                case_ids.push(r.case_id);
            }
        }
        Facts {
            top_drugs: by_count(drug_counts),
            top_adrs: by_count(adr_counts),
            drug_terms: self.drug_terms.clone(),
            pairs,
            case_ids,
            planted: self.planted.clone(),
        }
    }
}

/// Reorders whole cases (a case's versions stay adjacent and in order)
/// and deals them the same case ids in a new order, both from `seed`.
fn shuffle_cases(reports: &mut Vec<CaseReport>, seed: u64) {
    let mut rng = Rng::new(seed ^ 0xca5e);
    let mut cases: Vec<Vec<CaseReport>> = Vec::new();
    for r in reports.drain(..) {
        match cases.last_mut() {
            Some(case) if case[0].case_id == r.case_id => case.push(r),
            _ => cases.push(vec![r]),
        }
    }
    let mut ids: Vec<u64> = cases.iter().map(|c| c[0].case_id).collect();
    rng.shuffle(&mut cases);
    rng.shuffle(&mut ids);
    for (case, id) in cases.iter_mut().zip(ids) {
        for r in case {
            r.case_id = id;
        }
    }
    *reports = cases.into_iter().flatten().collect();
}

/// A report's drug names that are exact canonical vocabulary terms, in
/// report order, without repeats.
fn canonical_drugs<'a>(r: &'a CaseReport, vocab: &HashMap<&str, ()>) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for d in r.drug_names().filter(|d| vocab.contains_key(d)) {
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

fn by_count(counts: HashMap<&str, usize>) -> Vec<String> {
    let mut v: Vec<(&str, usize)> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    v.into_iter().map(|(t, _)| t.to_string()).collect()
}

/// What the trace builders may draw on.
pub struct Facts {
    /// Canonical drug names, most reported first.
    pub top_drugs: Vec<String>,
    /// Canonical ADR terms, most reported first.
    pub top_adrs: Vec<String>,
    /// The whole drug vocabulary.
    pub drug_terms: Vec<String>,
    /// The first two canonical drugs of every multi-drug report.
    pub pairs: Vec<(String, String)>,
    /// First-version expedited multi-drug reports: these survive cleaning
    /// into the evidence archive, so `/report/<case_id>` finds them.
    pub case_ids: Vec<u64>,
    /// Planted interactions, canonical names.
    pub planted: Vec<(Vec<String>, Vec<String>)>,
}
