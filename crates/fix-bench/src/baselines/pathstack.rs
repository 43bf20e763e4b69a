//! PathStack — the holistic *linear* path matcher (Bruno, Koudas,
//! Srivastava; SIGMOD 2002, §3), the simple-path companion of TwigStack.
//!
//! Evaluates a chain `//a//b//…//z` (descendant semantics, no branching)
//! over the per-label region streams in a single merged pass with chained
//! stacks; when an element of the *last* step is pushed with a complete
//! ancestor chain on the stacks, it is a result. Unlike TwigStack there is
//! no merge phase — for linear paths the stacks alone certify matches.

use super::region::{Region, RegionIndex};
use fix_obs::{MetricsRegistry, Reportable};
use fix_xml::{Document, NodeId};
use fix_xpath::{Axis, PathExpr};

/// Work counters for one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStackStats {
    /// Stream elements consumed.
    pub scanned: usize,
    /// Elements pushed onto some stack.
    pub pushed: usize,
}

impl Reportable for PathStackStats {
    /// Adds this evaluation's work to the cumulative counters (one report
    /// per evaluation — these are per-run deltas, not levels).
    fn report(&self, registry: &MetricsRegistry) {
        registry
            .counter("fix_pathstack_scanned_total")
            .add(self.scanned as u64);
        registry
            .counter("fix_pathstack_pushed_total")
            .add(self.pushed as u64);
    }
}

/// Evaluates a *linear* path (no branching predicates) under
/// descendant-edge semantics, returning the last step's matches in
/// document order plus work counters. Unknown labels yield the empty
/// result.
///
/// # Panics
/// Panics if the path has branching predicates — PathStack is the linear
/// special case; use the twig evaluators otherwise.
pub fn eval_pathstack(
    doc: &Document,
    regions: &RegionIndex,
    labels: &fix_xml::LabelTable,
    path: &PathExpr,
) -> (Vec<NodeId>, PathStackStats) {
    assert!(
        path.steps.iter().all(|s| s.predicates.is_empty()),
        "PathStack handles linear paths only"
    );
    let mut resolved = Vec::with_capacity(path.steps.len());
    for s in &path.steps {
        match labels.lookup(&s.name) {
            Some(l) => resolved.push(l),
            None => return (Vec::new(), PathStackStats::default()),
        }
    }
    let k = resolved.len();
    let mut stats = PathStackStats::default();
    if k == 0 {
        return (Vec::new(), stats);
    }
    let streams: Vec<&[Region]> = resolved.iter().map(|&l| regions.stream(l)).collect();
    let rooted = path.steps[0].axis == Axis::Child;
    let mut pos = vec![0usize; k];
    let mut stacks: Vec<Vec<Region>> = vec![Vec::new(); k];
    let mut out = Vec::new();
    loop {
        let mut best: Option<(usize, Region)> = None;
        for (i, s) in streams.iter().enumerate() {
            if let Some(&r) = s.get(pos[i]) {
                if best.map(|(_, b)| r.start < b.start).unwrap_or(true) {
                    best = Some((i, r));
                }
            }
        }
        let Some((i, r)) = best else { break };
        pos[i] += 1;
        stats.scanned += 1;
        for st in &mut stacks {
            while let Some(top) = st.last() {
                if top.end <= r.start {
                    st.pop();
                } else {
                    break;
                }
            }
        }
        // Any surviving entry of the parent stack works; checking only the
        // top is wrong when consecutive steps share a label (the top can be
        // this very element, freshly pushed from the lower step's stream).
        let ancestor_ok = if i == 0 {
            !rooted || r.node() == doc.root()
        } else {
            stacks[i - 1].iter().any(|a| a.is_ancestor_of(&r))
        };
        if ancestor_ok {
            stacks[i].push(r);
            stats.pushed += 1;
            if i == k - 1 {
                out.push(r.node());
                stacks[i].pop();
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_xml::{parse_document, LabelTable};
    use fix_xpath::{parse_path, Predicate, Step};

    fn setup(xml: &str) -> (Document, RegionIndex, LabelTable) {
        let mut lt = LabelTable::new();
        let d = parse_document(xml, &mut lt).unwrap();
        let r = RegionIndex::build(&d);
        (d, r, lt)
    }

    /// Descendant-semantics reference via the navigational evaluator.
    fn reference(d: &Document, lt: &LabelTable, q: &str) -> Vec<u32> {
        let p = parse_path(q).unwrap();
        let desc = fix_xpath::PathExpr {
            steps: p
                .steps
                .iter()
                .map(|s| Step {
                    axis: Axis::Descendant,
                    name: s.name.clone(),
                    predicates: Vec::new(),
                })
                .collect::<Vec<Step>>(),
        };
        fix_exec::eval_path(d, lt, &desc)
            .iter()
            .map(|n| n.0)
            .collect()
    }

    #[test]
    fn linear_paths_match_navigational_descendant_semantics() {
        let xml = "<a><b><c/><a><b><c/></b></a></b><c/><b/></a>";
        let (d, r, lt) = setup(xml);
        for q in ["//a/b/c", "//a/b", "//b/c", "//a/a/b", "//c"] {
            let p = parse_path(q).unwrap();
            let (got, stats) = eval_pathstack(&d, &r, &lt, &p);
            let got: Vec<u32> = got.iter().map(|n| n.0).collect();
            assert_eq!(got, reference(&d, &lt, q), "disagreement on {q}");
            assert!(stats.pushed <= stats.scanned);
        }
    }

    #[test]
    fn rooted_linear_paths() {
        let (d, r, lt) = setup("<a><b/><a><b/></a></a>");
        let p = parse_path("/a/b").unwrap();
        let (got, _) = eval_pathstack(&d, &r, &lt, &p);
        // Rooted: only chains anchored at the document root (descendant
        // semantics below it) — both b's descend from the root a.
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn unknown_labels_yield_empty() {
        let (d, r, lt) = setup("<a><b/></a>");
        let p = parse_path("//a/zzz").unwrap();
        assert!(eval_pathstack(&d, &r, &lt, &p).0.is_empty());
    }

    #[test]
    #[should_panic(expected = "linear paths only")]
    fn branching_paths_are_rejected() {
        let (d, r, lt) = setup("<a><b/></a>");
        let mut p = parse_path("//a/b").unwrap();
        p.steps[0].predicates.push(Predicate {
            path: parse_path("//x").unwrap(),
            value: None,
        });
        let _ = eval_pathstack(&d, &r, &lt, &p);
    }
}
