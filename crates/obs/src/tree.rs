//! The merged span tree: per-path aggregation of raw [`SpanRecord`]s and
//! the human `--timings` rendering.

use crate::span::SpanRecord;
use std::collections::BTreeMap;

/// One aggregated node of the span tree: every recorded span sharing a
/// path, regardless of thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Full `/`-joined path.
    pub path: String,
    /// Last path segment.
    pub name: String,
    /// How many spans were recorded at this path.
    pub count: u64,
    /// Summed wall time of those spans, nanoseconds. Sibling workers
    /// overlap in wall clock, so a parent's total can be smaller than the
    /// sum of its children.
    pub total_ns: u64,
    /// Earliest start among them (epoch-relative nanoseconds).
    pub first_start_ns: u64,
    /// Latest end among them (epoch-relative nanoseconds).
    pub last_end_ns: u64,
    /// Child nodes, ordered by first start time (ties by path).
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Mean wall time per span, nanoseconds.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns / self.count.max(1)
    }

    /// Wall-clock extent, nanoseconds: first start to last end. Equals
    /// [`SpanNode::total_ns`] for one span; parallel workers' spans
    /// overlap, so theirs is below the summed total.
    pub fn wall_ns(&self) -> u64 {
        self.last_end_ns.saturating_sub(self.first_start_ns)
    }
}

/// The process-wide span tree, aggregated by path.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    /// Top-level nodes, ordered by first start time.
    pub roots: Vec<SpanNode>,
    /// Paths whose parent path was never recorded (should be empty; a
    /// non-empty list means a worker span outlived or missed its parent).
    pub orphans: Vec<String>,
}

impl SpanTree {
    /// Aggregates raw records into the merged tree.
    pub fn build(records: &[SpanRecord]) -> SpanTree {
        let mut agg: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
        for r in records {
            let e = agg.entry(&r.path).or_insert((0, 0, u64::MAX, 0));
            e.0 += 1;
            e.1 += r.dur_ns;
            e.2 = e.2.min(r.start_ns);
            e.3 = e.3.max(r.start_ns + r.dur_ns);
        }
        let mut nodes: BTreeMap<&str, SpanNode> = agg
            .into_iter()
            .map(|(path, (count, total_ns, first_start_ns, last_end_ns))| {
                let name = path.rsplit('/').next().unwrap_or(path).to_string();
                (
                    path,
                    SpanNode {
                        path: path.to_string(),
                        name,
                        count,
                        total_ns,
                        first_start_ns,
                        last_end_ns,
                        children: Vec::new(),
                    },
                )
            })
            .collect();

        // Attach children to parents bottom-up: reverse-lexicographic
        // iteration visits every `a/b` before `a`.
        let paths: Vec<&str> = nodes.keys().rev().copied().collect();
        let mut roots = Vec::new();
        let mut orphans = Vec::new();
        for path in paths {
            let node = nodes.remove(path).expect("node exists");
            match path.rsplit_once('/') {
                None => roots.push(node),
                Some((parent, _)) => match nodes.get_mut(parent) {
                    Some(parent_node) => parent_node.children.push(node),
                    None => {
                        orphans.push(node.path.clone());
                        roots.push(node);
                    }
                },
            }
        }
        fn sort_rec(nodes: &mut Vec<SpanNode>) {
            nodes.sort_by(|a, b| {
                a.first_start_ns.cmp(&b.first_start_ns).then_with(|| a.path.cmp(&b.path))
            });
            for n in nodes {
                sort_rec(&mut n.children);
            }
        }
        sort_rec(&mut roots);
        orphans.sort();
        SpanTree { roots, orphans }
    }

    /// Every `(path, count)` pair in the tree, sorted by path — the
    /// deterministic structural fingerprint tests compare across runs.
    pub fn paths_and_counts(&self) -> Vec<(String, u64)> {
        fn walk(node: &SpanNode, out: &mut Vec<(String, u64)>) {
            out.push((node.path.clone(), node.count));
            for c in &node.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        for r in &self.roots {
            walk(r, &mut out);
        }
        out.sort();
        out
    }

    /// Renders the indented timing table (`--timings` output): per path,
    /// the span count, the wall-clock extent (`wall ms`), the summed
    /// duration (`total ms`, which exceeds the wall time under parallel
    /// workers) and the mean per span.
    pub fn render(&self) -> String {
        fn name_width(node: &SpanNode, depth: usize, w: &mut usize) {
            *w = (*w).max(2 * depth + node.name.len());
            for c in &node.children {
                name_width(c, depth + 1, w);
            }
        }
        fn walk(node: &SpanNode, depth: usize, width: usize, out: &mut String) {
            let label = format!("{:indent$}{}", "", node.name, indent = 2 * depth);
            out.push_str(&format!(
                "{label:<width$}  {:>7}  {:>12.3}  {:>12.3}  {:>12.3}\n",
                node.count,
                node.wall_ns() as f64 / 1e6,
                node.total_ns as f64 / 1e6,
                node.mean_ns() as f64 / 1e6,
            ));
            for c in &node.children {
                walk(c, depth + 1, width, out);
            }
        }
        let mut width = "span".len();
        for r in &self.roots {
            name_width(r, 0, &mut width);
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<width$}  {:>7}  {:>12}  {:>12}  {:>12}\n",
            "span", "count", "wall ms", "total ms", "mean ms"
        ));
        for r in &self.roots {
            walk(r, 0, width, &mut out);
        }
        if !self.orphans.is_empty() {
            out.push_str(&format!("orphan spans: {}\n", self.orphans.join(", ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(path: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord { path: path.into(), start_ns: start, dur_ns: dur, tid: 0 }
    }

    #[test]
    fn aggregates_counts_and_orders_children_by_start() {
        let records = vec![
            rec("run", 0, 100),
            rec("run/late", 60, 10),
            rec("run/early", 10, 20),
            rec("run/early", 35, 20),
            rec("run/early/sub", 12, 5),
        ];
        let tree = SpanTree::build(&records);
        assert!(tree.orphans.is_empty());
        assert_eq!(tree.roots.len(), 1);
        let run = &tree.roots[0];
        assert_eq!((run.name.as_str(), run.count, run.total_ns), ("run", 1, 100));
        let names: Vec<&str> = run.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["early", "late"], "children ordered by first start time");
        assert_eq!(run.children[0].count, 2);
        assert_eq!(run.children[0].total_ns, 40);
        assert_eq!(run.children[0].mean_ns(), 20);
        assert_eq!(run.children[0].children[0].name, "sub");
        let fingerprint = tree.paths_and_counts();
        assert_eq!(
            fingerprint,
            vec![
                ("run".to_string(), 1),
                ("run/early".to_string(), 2),
                ("run/early/sub".to_string(), 1),
                ("run/late".to_string(), 1),
            ]
        );
    }

    #[test]
    fn missing_parent_is_reported_as_orphan() {
        let tree = SpanTree::build(&[rec("a/b/c", 0, 1), rec("a", 0, 5)]);
        assert_eq!(tree.orphans, vec!["a/b/c".to_string()]);
        // Still rendered, attached at the root level.
        assert_eq!(tree.roots.len(), 2);
    }

    #[test]
    fn render_contains_every_name_and_header() {
        let tree = SpanTree::build(&[rec("run", 0, 2_000_000), rec("run/step", 1, 1_000_000)]);
        let table = tree.render();
        assert!(table.starts_with("span"));
        assert!(table.contains("run"));
        assert!(table.contains("  step"), "children are indented: {table}");
        assert!(table.contains("2.000"));
    }

    #[test]
    fn wall_time_spans_first_start_to_last_end() {
        // Two overlapping workers under a parent: 2 x 30 ns summed, but
        // only 40 ns of wall clock.
        let tree = SpanTree::build(&[
            rec("run", 0, 50),
            rec("run/shard", 5, 30),
            rec("run/shard", 15, 30),
        ]);
        let run = &tree.roots[0];
        assert_eq!((run.wall_ns(), run.total_ns), (50, 50));
        let shard = &run.children[0];
        assert_eq!((shard.first_start_ns, shard.last_end_ns), (5, 45));
        assert_eq!((shard.wall_ns(), shard.total_ns), (40, 60));
        let table = SpanTree::build(&[
            rec("run", 0, 5_000_000),
            rec("run/shard", 0, 4_000_000),
            rec("run/shard", 1_000_000, 4_000_000),
        ])
        .render();
        let header: Vec<&str> = table.lines().next().unwrap().split_whitespace().collect();
        assert_eq!(header, ["span", "count", "wall", "ms", "total", "ms", "mean", "ms"]);
        let shard_row: Vec<&str> =
            table.lines().find(|l| l.contains("shard")).unwrap().split_whitespace().collect();
        assert_eq!(shard_row, ["shard", "2", "5.000", "8.000", "4.000"]);
    }
}
