//! Request traces for the workloads, built from the seed and the
//! generated corpus only.

use crate::corpus::{Facts, Fnv};

/// Requests one trace holds before it wraps around; more than any run at
/// the shipped rates sends.
const TRACE_LEN: usize = 60_000;

/// splitmix64: the trace builder's own PRNG, so a change to the
/// program's vendored `rand` cannot silently change a trace.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 + f64::EPSILON <= p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How a request names a cluster. Traces must not depend on program
/// output, so a rank is either a fixed top rank or a fraction of however
/// many clusters the served snapshot has; both wrap into range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rank {
    Top(usize),
    /// `frac / 2^32` of the way down the ranking.
    Frac(u32),
}

impl Rank {
    /// The 1-based rank this names in a ranking of `n` clusters.
    pub fn resolve(self, n: usize) -> usize {
        let n = n.max(1);
        match self {
            Rank::Top(k) => (k.max(1) - 1) % n + 1,
            Rank::Frac(f) => ((u64::from(f) * n as u64) >> 32) as usize + 1,
        }
    }
}

/// One read request, before ranks are resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    Autocomplete { kind: &'static str, prefix: String },
    Search(Search),
    Cluster(Rank),
    Reports { rank: Rank, offset: usize, limit: usize },
    Report(u64),
}

/// `/search` parameters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Search {
    pub drugs: Vec<String>,
    pub adr: Option<String>,
    pub min_severity: Option<u8>,
    pub n_drugs: Option<usize>,
    pub min_prr: Option<f64>,
    pub sort_by: Option<&'static str>,
}

/// The server's endpoint label for each request kind, as `/metrics` has it.
pub const ENDPOINTS: [&str; 5] = ["search", "cluster", "reports", "report", "autocomplete"];

impl Req {
    /// The request target against a snapshot of `n_clusters` clusters.
    pub fn target(&self, n_clusters: usize) -> String {
        match self {
            Req::Autocomplete { kind, prefix } => {
                format!("/autocomplete?kind={kind}&prefix={}", encode(prefix))
            }
            Req::Search(s) => {
                let mut q: Vec<String> =
                    s.drugs.iter().map(|d| format!("drug={}", encode(d))).collect();
                if let Some(a) = &s.adr {
                    q.push(format!("adr={}", encode(a)));
                }
                if let Some(v) = s.min_severity {
                    q.push(format!("min_severity={v}"));
                }
                if let Some(v) = s.n_drugs {
                    q.push(format!("n_drugs={v}"));
                }
                if let Some(v) = s.min_prr {
                    q.push(format!("min_prr={v}"));
                }
                if let Some(v) = s.sort_by {
                    q.push(format!("sort_by={v}"));
                }
                format!("/search?{}", q.join("&"))
            }
            Req::Cluster(r) => format!("/cluster/{}", r.resolve(n_clusters)),
            Req::Reports { rank, offset, limit } => {
                format!(
                    "/cluster/{}/reports?offset={offset}&limit={limit}",
                    rank.resolve(n_clusters)
                )
            }
            Req::Report(id) => format!("/report/{id}"),
        }
    }
}

/// Percent-encodes everything but unreserved characters.
fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// A workload's request sequence: position `i` sends `reqs[order[i]]`,
/// wrapping around at the end.
pub struct Trace {
    pub reqs: Vec<Req>,
    pub order: Vec<u32>,
}

impl Trace {
    pub fn get(&self, i: usize) -> &Req {
        &self.reqs[self.order[i % self.order.len()] as usize]
    }

    /// Hash of every request and the order they are sent in.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for r in &self.reqs {
            h.bytes(format!("{r:?}").as_bytes());
        }
        for o in &self.order {
            h.bytes(&o.to_le_bytes());
        }
        h.0
    }

    fn in_order(reqs: Vec<Req>) -> Trace {
        let order = (0..reqs.len() as u32).collect();
        Trace { reqs, order }
    }
}

/// `browse`: an analyst session over about 200 distinct requests —
/// autocomplete keystrokes, searches on the most reported drugs and ADRs,
/// and the top-ranked clusters — sent in Zipf-skewed order. The set fits
/// in the server's 1024-entry response cache.
pub fn browse(seed: u64, facts: &Facts) -> Trace {
    let mut reqs: Vec<Req> = Vec::new();
    let mut push = |r: Req| {
        if !reqs.contains(&r) {
            reqs.push(r);
        }
    };
    for (kind, terms, n_terms, n_chars) in
        [("drug", &facts.top_drugs, 12, 4), ("adr", &facts.top_adrs, 6, 3)]
    {
        for term in terms.iter().take(n_terms) {
            for len in 1..=n_chars.min(term.len()) {
                push(Req::Autocomplete { kind, prefix: term[..len].to_ascii_lowercase() });
            }
        }
    }
    for d in facts.top_drugs.iter().take(50) {
        push(Req::Search(Search { drugs: vec![d.clone()], ..Search::default() }));
    }
    for a in facts.top_adrs.iter().take(20) {
        push(Req::Search(Search { adr: Some(a.clone()), ..Search::default() }));
    }
    for (drugs, _) in &facts.planted {
        push(Req::Search(Search { drugs: drugs.clone(), ..Search::default() }));
    }
    for k in 1..=60 {
        push(Req::Cluster(Rank::Top(k)));
    }
    // Zipf(1) popularity over a seeded shuffle of the distinct set.
    let mut rng = Rng::new(seed ^ 0xb40e);
    let mut popularity: Vec<u32> = (0..reqs.len() as u32).collect();
    rng.shuffle(&mut popularity);
    let weights: Vec<f64> = (1..=reqs.len()).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in weights {
        acc += w / total;
        cdf.push(acc);
    }
    let order = (0..TRACE_LEN)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let k = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
            popularity[k]
        })
        .collect();
    Trace { reqs, order }
}

/// `drilldown`: requests that almost never repeat — searches on drug
/// pairs with random filters and sort keys, clusters uniform over all
/// ranks, report pages, and single case reports. The keys far exceed the
/// response cache and the pages touch every archive block.
pub fn drilldown(seed: u64, facts: &Facts) -> Trace {
    const SORT_BY: [&str; 6] = ["rank", "score", "exclusiveness", "prr", "ror", "ebgm"];
    let mut rng = Rng::new(seed ^ 0xd7111);
    let reqs = (0..TRACE_LEN)
        .map(|_| {
            let roll = rng.below(100);
            if roll < 40 {
                // Pairs that are co-reported, mostly; some uniform pairs
                // from the vocabulary, which usually match nothing.
                let drugs = if rng.chance(0.7) {
                    let (a, b) = rng.pick(&facts.pairs).clone();
                    vec![a, b]
                } else {
                    vec![rng.pick(&facts.drug_terms).clone(), rng.pick(&facts.drug_terms).clone()]
                };
                let top_adrs = &facts.top_adrs[..facts.top_adrs.len().min(100)];
                Req::Search(Search {
                    drugs,
                    adr: rng.chance(0.2).then(|| rng.pick(top_adrs).clone()),
                    min_severity: rng.chance(0.3).then(|| 1 + rng.below(3) as u8),
                    n_drugs: rng.chance(0.2).then(|| 2 + rng.below(2)),
                    min_prr: rng.chance(0.15).then(|| (1 + rng.below(4)) as f64),
                    sort_by: rng.chance(0.5).then(|| *rng.pick(&SORT_BY)),
                })
            } else if roll < 65 {
                Req::Cluster(Rank::Frac(rng.next_u64() as u32))
            } else if roll < 85 {
                Req::Reports {
                    rank: Rank::Frac(rng.next_u64() as u32),
                    offset: 20 * rng.below(3),
                    limit: 20,
                }
            } else {
                Req::Report(*rng.pick(&facts.case_ids))
            }
        })
        .collect();
    Trace::in_order(reqs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_resolve_into_range() {
        assert_eq!(Rank::Top(1).resolve(10), 1);
        assert_eq!(Rank::Top(11).resolve(10), 1);
        assert_eq!(Rank::Frac(0).resolve(10), 1);
        assert_eq!(Rank::Frac(u32::MAX).resolve(10), 10);
        assert_eq!(Rank::Frac(1 << 31).resolve(10), 6);
    }

    #[test]
    fn targets_are_percent_encoded() {
        let s = Req::Search(Search {
            drugs: vec!["A B".into()],
            adr: Some("Pain/x".into()),
            ..Search::default()
        });
        assert_eq!(s.target(1), "/search?drug=A%20B&adr=Pain%2Fx");
    }
}
