//! Memoized support counting and the sharded pass that owns one memo per
//! worker.
//!
//! A ranking pass asks for the same supports many times over: every MCAC
//! (thesis Def. 3.5.2) counts one drug subset and one subset∪ADR set per
//! contextual rule, and clusters that share drugs and ADRs share those
//! subsets. [`SupportMemo`] counts each distinct item set once against its
//! [`TransactionDb`] and answers repeats from a hash map keyed by the item
//! set itself, so a hit returns exactly the integer a fresh
//! [`TransactionDb::support_of`] would. [`map_sharded`] runs a batch
//! across worker threads, each with its own memo (no locks), and merges
//! the results back in input order.

use crate::items::Item;
use crate::transactions::TransactionDb;
use rustc_hash::FxHashMap;

/// Exact supports of item sets in one database, each counted at most once.
///
/// Lookups borrow the caller's slice; only a miss allocates its key.
///
/// ```
/// use maras_mining::{Item, SupportMemo, TransactionDb};
/// let db = TransactionDb::new(vec![
///     vec![Item(0), Item(1), Item(10)],
///     vec![Item(0), Item(10)],
/// ]);
/// let mut memo = SupportMemo::new(&db);
/// assert_eq!(memo.support_of(&[Item(0)]), 2);
/// assert_eq!(memo.support_of_union(&[Item(0), Item(1)], &[Item(10)]), 1);
/// assert_eq!(memo.support_of(&[Item(0), Item(1), Item(10)]), 1); // a hit
/// ```
pub struct SupportMemo<'db> {
    db: &'db TransactionDb,
    counts: FxHashMap<Box<[Item]>, u32>,
    /// Scratch buffer the union keys are concatenated into.
    key: Vec<Item>,
}

impl<'db> SupportMemo<'db> {
    /// An empty memo over `db`.
    pub fn new(db: &'db TransactionDb) -> Self {
        SupportMemo { db, counts: FxHashMap::default(), key: Vec::new() }
    }

    /// The database every support is counted against.
    pub fn db(&self) -> &'db TransactionDb {
        self.db
    }

    /// [`TransactionDb::support_of`], counted once per distinct slice.
    pub fn support_of(&mut self, items: &[Item]) -> u32 {
        if let Some(&support) = self.counts.get(items) {
            return support;
        }
        let support = self.db.support_of(items);
        self.counts.insert(items.into(), support);
        support
    }

    /// [`TransactionDb::support_of_union`] for `a` wholly below `b` — a
    /// drug subset and an ADR set, since every drug id sorts below every
    /// ADR id — so the concatenation is the union's sorted item list and
    /// shares its memo entry with any other spelling of the same set.
    pub fn support_of_union(&mut self, a: &[Item], b: &[Item]) -> u32 {
        debug_assert!(
            match (a.last(), b.first()) {
                (Some(x), Some(y)) => x < y,
                _ => true,
            },
            "union key halves must be disjoint and ascending: {a:?} then {b:?}"
        );
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.extend_from_slice(a);
        key.extend_from_slice(b);
        let support = self.support_of(&key);
        self.key = key;
        support
    }
}

/// Applies `f` to every item in one pass sharded across `n_threads`
/// workers (clamped to `1..=items.len()`), each worker holding its own
/// [`SupportMemo`] over `db`. Worker `w` takes the items whose index is
/// `≡ w (mod workers)`, and the results merge back in input order, so the
/// output is identical at every thread count whenever `f`'s result does
/// not depend on what the memo already holds — which [`SupportMemo`]
/// guarantees for the supports it returns.
///
/// The calling thread works shard 0 itself and spawns one scoped thread
/// per further shard. Every worker records a `shard` span under the
/// caller's current span.
pub fn map_sharded<T, R, F>(db: &TransactionDb, items: Vec<T>, n_threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut SupportMemo<'_>, T) -> R + Sync,
{
    let len = items.len();
    let workers = n_threads.clamp(1, len.max(1));
    let mut shards: Vec<Vec<T>> =
        (0..workers).map(|_| Vec::with_capacity(len / workers + 1)).collect();
    for (idx, item) in items.into_iter().enumerate() {
        shards[idx % workers].push(item);
    }
    let work = |shard: Vec<T>| -> Vec<R> {
        let mut memo = SupportMemo::new(db);
        shard.into_iter().map(|item| f(&mut memo, item)).collect()
    };
    let parent = maras_obs::current_path().unwrap_or_default();
    let (parent, work) = (parent.as_str(), &work);
    let mut shards = shards.into_iter();
    let first = shards.next().expect("at least one shard");
    let done: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .map(|shard| {
                scope.spawn(move || {
                    let _shard = maras_obs::span_under(parent, "shard");
                    work(shard)
                })
            })
            .collect();
        let own = {
            let _shard = maras_obs::span("shard");
            work(first)
        };
        std::iter::once(own)
            .chain(handles.into_iter().map(|h| h.join().expect("shard worker panicked")))
            .collect()
    });
    let mut done: Vec<_> = done.into_iter().map(Vec::into_iter).collect();
    (0..len)
        .map(|idx| done[idx % workers].next().expect("every index mapped exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TransactionDb {
        TransactionDb::new(vec![
            vec![Item(0), Item(1), Item(10), Item(11)],
            vec![Item(0), Item(2), Item(10)],
            vec![Item(1), Item(11)],
            vec![Item(0), Item(1), Item(10)],
            vec![],
        ])
    }

    #[test]
    fn memo_returns_the_database_support_on_hits_and_misses() {
        let d = db();
        let mut memo = SupportMemo::new(&d);
        let drug_sets: [&[Item]; 6] =
            [&[], &[Item(0)], &[Item(1)], &[Item(0), Item(1)], &[Item(2)], &[Item(7)]];
        let adr_sets: [&[Item]; 4] = [&[], &[Item(10)], &[Item(11)], &[Item(10), Item(11)]];
        // Two rounds: the first misses, the second hits every key.
        for round in 0..2 {
            for drugs in drug_sets {
                assert_eq!(memo.support_of(drugs), d.support_of(drugs), "round {round}");
                for adrs in adr_sets {
                    assert_eq!(
                        memo.support_of_union(drugs, adrs),
                        d.support_of_union(drugs, adrs),
                        "round {round}: {drugs:?} ∪ {adrs:?}"
                    );
                }
            }
        }
        // A union and the same set spelled as one slice share an entry.
        let before = memo.counts.len();
        assert_eq!(memo.support_of(&[Item(0), Item(1), Item(10)]), 2);
        assert_eq!(memo.counts.len(), before);
    }

    #[test]
    fn unknown_items_and_the_empty_set_match_the_database() {
        let d = db();
        let mut memo = SupportMemo::new(&d);
        assert!(memo.counts.is_empty());
        assert_eq!(memo.support_of(&[]), d.len() as u32);
        assert_eq!(memo.support_of(&[Item(99)]), 0);
        assert_eq!(memo.support_of_union(&[Item(0)], &[Item(99)]), 0);
        assert_eq!(memo.counts.len(), 3);
        assert!(std::ptr::eq(memo.db(), &d));
    }

    #[test]
    fn sharded_map_keeps_input_order_at_every_thread_count() {
        let d = db();
        let items: Vec<u32> = (0..13).collect();
        let f = |memo: &mut SupportMemo<'_>, i: u32| (i, memo.support_of(&[Item(i % 3)]));
        let baseline = map_sharded(&d, items.clone(), 1, f);
        assert_eq!(baseline.iter().map(|r| r.0).collect::<Vec<_>>(), items);
        for threads in [0, 2, 3, 4, 13, 40] {
            assert_eq!(map_sharded(&d, items.clone(), threads, f), baseline, "threads={threads}");
        }
        assert!(map_sharded(&d, Vec::<u32>::new(), 4, f).is_empty());
    }
}
