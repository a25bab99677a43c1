//! The batch score engine: one parallel pass deriving every rule's full
//! disproportionality block from its stored tid-list marginals.
//!
//! The legacy path re-derived each rule's 2×2 table with three
//! [`TransactionDb::support`] scans per rule
//! ([`ContingencyTable::from_db`]), then called each measure separately —
//! O(rules × |DB|) across a ranking pass. Every mined [`DrugAdrRule`]
//! already carries its exact marginals in [`maras_rules::RuleStats`],
//! established once by the miner's compressed tid-set intersections
//! (hybrid array/bitmap kernels from `maras-tidset`), so the table is
//! an O(1) inclusion–exclusion rearrangement ([`ContingencyTable::from_stats`])
//! and the only remaining database probes are the per-constituent-drug
//! lookups the interaction contrast needs, counted through each worker's
//! [`SupportMemo`] so a drug shared by many rules is probed once. The
//! differential suite in `tests/signals_differential.rs` proves the tables
//! and every score bit-identical to the legacy per-rule path at 1/2/4
//! threads.

use crate::contingency::ContingencyTable;
use crate::disproportionality::SignalScores;
use crate::metrics::SignalsMetrics;
use maras_mining::{map_sharded, SupportMemo, TransactionDb};
use maras_rules::DrugAdrRule;
use std::time::Instant;

/// Scores every rule in one pass, sharded across `n_threads` workers
/// (clamped to ≥ 1) by [`map_sharded`], each worker counting through its
/// own [`SupportMemo`]. Output order matches input order and is identical
/// at every thread count.
pub fn score_rules(
    db: &TransactionDb,
    rules: &[DrugAdrRule],
    n_threads: usize,
) -> Vec<SignalScores> {
    let started = Instant::now();
    let score_span = maras_obs::span("signals");
    let out = map_sharded(db, rules.iter().collect(), n_threads, score_rule_with);
    drop(score_span);
    SignalsMetrics::global().record_batch(rules.len(), n_threads, started);
    out
}

/// Scores one rule: the table-derived measures from its stored marginals,
/// plus the interaction contrast for multi-drug rules. The exclusiveness
/// slot stays 0 here — it needs the rule's contextual cluster, which
/// `maras-mcac` attaches during ranking.
pub fn score_rule(db: &TransactionDb, rule: &DrugAdrRule) -> SignalScores {
    score_rule_with(&mut SupportMemo::new(db), rule)
}

/// [`score_rule`] counting the interaction probes through a caller-held
/// [`SupportMemo`]: each probe is a single drug and that drug ∪ the ADRs,
/// the same sets a cluster's `k = 1` context counts.
pub fn score_rule_with(memo: &mut SupportMemo<'_>, rule: &DrugAdrRule) -> SignalScores {
    let table =
        ContingencyTable::from_stats(&rule.stats).expect("miner-derived rule stats are consistent");
    let base = SignalScores::from_table(table);
    if !rule.is_multi_drug() {
        return base;
    }
    base.with_interaction(interaction_from_stats(memo, rule))
}

/// Interaction contrast from the rule's stored joint/antecedent supports
/// plus one tid-list probe per constituent drug.
///
/// This reproduces [`crate::interaction::interaction_contrast`] bit for bit:
/// the stored `support_ab`/`support_a` are the same integers that function
/// re-derives with two `db.support` scans, so the combo term divides
/// identical `f64` values, and the per-drug terms run the same lookups in
/// the same (sorted) drug order with the same `fold(0.0, f64::max)`.
fn interaction_from_stats(memo: &mut SupportMemo<'_>, rule: &DrugAdrRule) -> f64 {
    let n = memo.db().len().max(1) as f64;
    let s = 0.5 / n;
    let p_combo = if rule.stats.support_a == 0 {
        0.0
    } else {
        rule.stats.support_ab as f64 / rule.stats.support_a as f64
    };
    let adrs = rule.adrs.items();
    let p_best_single = rule
        .drugs
        .items()
        .iter()
        .map(|&d| {
            let single = [d];
            let exposed = memo.support_of(&single) as f64;
            if exposed == 0.0 {
                0.0
            } else {
                memo.support_of_union(&single, adrs) as f64 / exposed
            }
        })
        .fold(0.0f64, f64::max);
    ((p_combo + s) / (p_best_single + s)).log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interaction::interaction_contrast;
    use maras_mining::Item;
    use maras_rules::{multi_drug_rules, ItemPartition};

    fn db(rows: &[&[u32]]) -> TransactionDb {
        TransactionDb::new(rows.iter().map(|r| r.iter().map(|&i| Item(i)).collect()).collect())
    }

    const P: ItemPartition = ItemPartition { adr_start: 10 };

    fn example_db() -> TransactionDb {
        db(&[
            &[0, 1, 10],
            &[0, 1, 10],
            &[0, 1, 11],
            &[0, 2, 10],
            &[1, 2, 11],
            &[2, 10],
            &[3, 11],
            &[0, 10],
            &[1, 10],
            &[2, 3, 10, 11],
        ])
    }

    #[test]
    fn engine_matches_legacy_per_rule_path() {
        let d = example_db();
        let rules = multi_drug_rules(&d, &P, 1);
        assert!(!rules.is_empty());
        let scored = score_rules(&d, &rules, 1);
        assert_eq!(scored.len(), rules.len());
        for (rule, got) in rules.iter().zip(&scored) {
            let table = ContingencyTable::from_db(&d, &rule.drugs, &rule.adrs);
            let want = SignalScores::from_table(table).with_interaction(interaction_contrast(
                &d,
                &rule.drugs,
                &rule.adrs,
            ));
            assert_eq!(got, &want, "rule {rule}");
        }
    }

    #[test]
    fn thread_count_does_not_change_scores() {
        let d = example_db();
        let rules = multi_drug_rules(&d, &P, 1);
        let baseline = score_rules(&d, &rules, 1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(score_rules(&d, &rules, threads), baseline, "threads={threads}");
        }
        // More workers than rules must still cover every index.
        let two = &rules[..2.min(rules.len())];
        assert_eq!(score_rules(&d, two, 8), score_rules(&d, two, 1));
    }

    #[test]
    fn empty_batch_is_fine() {
        let d = example_db();
        assert!(score_rules(&d, &[], 4).is_empty());
    }

    #[test]
    fn single_drug_rules_get_zero_interaction() {
        let d = example_db();
        let single = maras_rules::DrugAdrRule::from_parts(
            maras_mining::ItemSet::from_ids([0u32]),
            maras_mining::ItemSet::from_ids([10u32]),
            &d,
        );
        let scored = score_rules(&d, std::slice::from_ref(&single), 1);
        assert_eq!(scored[0].interaction, 0.0);
        assert!(scored[0].prr.estimate > 0.0);
    }
}
