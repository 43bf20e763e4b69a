//! TwigStack — the holistic twig join (Bruno, Koudas, Srivastava; SIGMOD
//! 2002), the flagship of the operator family FIX positions itself
//! against (Section 7).
//!
//! This implementation evaluates twigs under **descendant-edge semantics**
//! (every query edge is `//`), the setting in which TwigStack's guarantee
//! holds: an element is pushed iff it participates in at least one
//! root-to-leaf path solution, so the filter phase alone is optimal (no
//! useless intermediate results). The final merge is performed by
//! structural semi-joins over the surviving streams, and the filter's
//! push/scan counters are exposed so benches can show the holistic
//! pruning at work.

use super::region::{Region, RegionIndex};
use fix_obs::{MetricsRegistry, Reportable};
use fix_xml::{Document, NodeId};
use fix_xpath::TwigQuery;

use super::structjoin::{semijoin_ancestors, semijoin_descendants};
use fix_exec::value_matches;

/// Work counters of the filter phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwigStackStats {
    /// Elements read from the input streams.
    pub scanned: usize,
    /// Elements pushed (each participates in ≥ 1 path solution).
    pub pushed: usize,
}

impl Reportable for TwigStackStats {
    /// Adds this evaluation's work to the cumulative counters (one report
    /// per evaluation — these are per-run deltas, not levels).
    fn report(&self, registry: &MetricsRegistry) {
        registry
            .counter("fix_twigstack_scanned_total")
            .add(self.scanned as u64);
        registry
            .counter("fix_twigstack_pushed_total")
            .add(self.pushed as u64);
    }
}

/// A sentinel "end of stream" region.
const EOS: Region = Region {
    start: u32::MAX,
    end: u32::MAX,
    level: u32::MAX,
};

struct Machine<'a> {
    q: &'a TwigQuery,
    parent: Vec<usize>,
    streams: Vec<Vec<Region>>,
    pos: Vec<usize>,
    stacks: Vec<Vec<Region>>,
    survivors: Vec<Vec<Region>>,
    stats: TwigStackStats,
}

impl Machine<'_> {
    fn next(&self, qi: usize) -> Region {
        self.streams[qi].get(self.pos[qi]).copied().unwrap_or(EOS)
    }

    fn advance(&mut self, qi: usize) {
        self.pos[qi] += 1;
        self.stats.scanned += 1;
    }

    fn is_leaf(&self, qi: usize) -> bool {
        self.q.nodes[qi].children.is_empty()
    }

    /// The classic `getNext`: returns a query node whose head element is
    /// guaranteed to have a descendant extension (a match of its subtree
    /// among the current stream heads).
    fn get_next(&mut self, qi: usize) -> usize {
        if self.is_leaf(qi) {
            return qi;
        }
        let children = self.q.nodes[qi].children.clone();
        let mut min_child = children[0];
        let mut max_child = children[0];
        for &c in &children {
            let n = self.get_next(c);
            if n != c {
                return n;
            }
            if self.next(c).start < self.next(min_child).start {
                min_child = c;
            }
            if self.next(c).start > self.next(max_child).start {
                max_child = c;
            }
        }
        // Skip q-elements that end before max_child's head starts — they
        // cannot contain a full child set. When a child stream is
        // exhausted (head = EOS) no *new* q-solutions exist, but sibling
        // branches must keep draining so elements owed to already-stacked
        // ancestors are still pushed; the merge discards the rest.
        while self.next(qi) != EOS && self.next(qi).end <= self.next(max_child).start {
            self.advance(qi);
        }
        if self.next(qi).start < self.next(min_child).start {
            qi
        } else {
            min_child
        }
    }

    fn clean_stack(&mut self, qi: usize, next_start: u32) {
        while let Some(top) = self.stacks[qi].last() {
            if top.end <= next_start {
                self.stacks[qi].pop();
            } else {
                break;
            }
        }
    }

    fn run(&mut self) {
        let root = self.q.root();
        let qn = self.q.nodes.len();
        loop {
            let mut qi = self.get_next(root);
            if self.next(qi) == EOS {
                // `getNext` has run out of extensible heads, but sibling
                // streams may still hold elements owed to already-stacked
                // ancestors. Drain them in global document order; the push
                // condition (parent stack non-empty) keeps the no-false-
                // negative guarantee, and the merge discards the rest.
                match (0..qn)
                    .filter(|&i| self.next(i) != EOS)
                    .min_by_key(|&i| self.next(i).start)
                {
                    Some(i) => qi = i,
                    None => break,
                }
            }
            let head = self.next(qi);
            let p = self.parent[qi];
            if p != usize::MAX {
                self.clean_stack(p, head.start);
            }
            if p == usize::MAX || !self.stacks[p].is_empty() {
                self.clean_stack(qi, head.start);
                self.stacks[qi].push(head);
                self.survivors[qi].push(head);
                self.stats.pushed += 1;
                self.advance(qi);
                if self.is_leaf(qi) {
                    self.stacks[qi].pop();
                }
            } else {
                self.advance(qi);
            }
        }
    }
}

/// Runs the filter phase: per query node, the document-ordered elements
/// that participate in at least one root-to-leaf path solution.
pub fn twigstack_filter(
    doc: &Document,
    regions: &RegionIndex,
    q: &TwigQuery,
) -> (Vec<Vec<Region>>, TwigStackStats) {
    let qn = q.nodes.len();
    let mut parent = vec![usize::MAX; qn];
    for (i, node) in q.nodes.iter().enumerate() {
        for &c in &node.children {
            parent[c] = i;
        }
    }
    let streams: Vec<Vec<Region>> = q
        .nodes
        .iter()
        .map(|n| {
            let mut s: Vec<Region> = regions.stream(n.label).to_vec();
            if let Some(v) = &n.value {
                s.retain(|r| value_matches(doc, r.node(), v));
            }
            s
        })
        .collect();
    let mut m = Machine {
        q,
        parent,
        streams,
        pos: vec![0; qn],
        stacks: vec![Vec::new(); qn],
        survivors: vec![Vec::new(); qn],
        stats: TwigStackStats::default(),
    };
    m.run();
    (std::mem::take(&mut m.survivors), m.stats)
}

/// Full evaluation under descendant-edge semantics: filter, then merge the
/// surviving streams with ancestor/descendant semi-joins, returning the
/// output node's matches in document order.
pub fn eval_twigstack(doc: &Document, regions: &RegionIndex, q: &TwigQuery) -> Vec<NodeId> {
    let (survivors, _) = twigstack_filter(doc, regions, q);
    // Bottom-up: sat[qi] = survivors satisfying the whole subtree.
    let qn = q.nodes.len();
    let mut sat: Vec<Option<Vec<Region>>> = vec![None; qn];
    fn compute(
        q: &TwigQuery,
        survivors: &[Vec<Region>],
        qi: usize,
        sat: &mut Vec<Option<Vec<Region>>>,
    ) {
        if sat[qi].is_some() {
            return;
        }
        let mut cur = survivors[qi].clone();
        for &qc in &q.nodes[qi].children {
            compute(q, survivors, qc, sat);
            cur = semijoin_ancestors(&cur, sat[qc].as_ref().expect("computed"), false);
        }
        sat[qi] = Some(cur);
    }
    compute(q, &survivors, q.root(), &mut sat);

    // Top-down spine narrowing (descendant semantics).
    let spine = {
        let mut parent = vec![usize::MAX; qn];
        for (i, node) in q.nodes.iter().enumerate() {
            for &c in &node.children {
                parent[c] = i;
            }
        }
        let mut s = vec![q.output];
        let mut cur = q.output;
        while parent[cur] != usize::MAX {
            cur = parent[cur];
            s.push(cur);
        }
        s.reverse();
        s
    };
    let mut current = sat[spine[0]].clone().expect("root computed");
    for &qs in spine.iter().skip(1) {
        current = semijoin_descendants(&current, sat[qs].as_ref().expect("computed"), false);
        if current.is_empty() {
            break;
        }
    }
    current.into_iter().map(|r| r.node()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_xml::{parse_document, LabelTable};
    use fix_xpath::{parse_path, Axis, PathExpr, Predicate, Step};

    fn setup(xml: &str) -> (Document, RegionIndex, LabelTable) {
        let mut lt = LabelTable::new();
        let d = parse_document(xml, &mut lt).unwrap();
        let r = RegionIndex::build(&d);
        (d, r, lt)
    }

    /// Rewrites a child-edged twig path into its descendant-edged
    /// equivalent for the NoK cross-check (`/a/b[c]` → `//a//b[.//c]`).
    fn to_descendant(path: &PathExpr) -> PathExpr {
        fn steps(ss: &[Step]) -> Vec<Step> {
            ss.iter()
                .map(|s| Step {
                    axis: Axis::Descendant,
                    name: s.name.clone(),
                    predicates: s
                        .predicates
                        .iter()
                        .map(|p| Predicate {
                            path: PathExpr {
                                steps: steps(&p.path.steps),
                            },
                            value: p.value.clone(),
                        })
                        .collect(),
                })
                .collect()
        }
        PathExpr {
            steps: steps(&path.steps),
        }
    }

    fn check(xml: &str, queries: &[&str]) {
        let (d, r, lt) = setup(xml);
        for qs in queries {
            let p = parse_path(qs).unwrap();
            let q = match TwigQuery::from_path(&p, &lt) {
                Ok(q) => q,
                Err(_) => continue,
            };
            let got: Vec<u32> = eval_twigstack(&d, &r, &q).iter().map(|n| n.0).collect();
            let want: Vec<u32> = fix_exec::eval_path(&d, &lt, &to_descendant(&p))
                .iter()
                .map(|n| n.0)
                .collect();
            assert_eq!(got, want, "disagreement on {qs} (descendant semantics)");
        }
    }

    #[test]
    fn agrees_with_navigational_descendant_semantics() {
        check(
            "<bib>\
             <article><author><email/></author><title>X</title><ee/></article>\
             <article><author><phone/><email/></author><title>Y</title></article>\
             <book><author><phone/></author><title>Z</title></book>\
             </bib>",
            &[
                "//bib/article",
                "//author[phone][email]",
                "//article[ee]/title",
                "//article[author/phone]/title",
                "//bib/author/email",
            ],
        );
    }

    #[test]
    fn recursive_descendants() {
        check(
            "<s><s><np><pp><np/></pp></np><s><np/><vp/></s></s><vp/></s>",
            &["//s/np", "//s[np][vp]", "//s/s/np", "//np/np"],
        );
    }

    #[test]
    fn filter_is_selective() {
        // Elements that cannot participate in a solution are not pushed.
        let (d, r, lt) = setup("<a><b/><b><c/></b><x><b/></x><b><c/></b></a>");
        let p = parse_path("//a/b/c").unwrap();
        let q = TwigQuery::from_path(&p, &lt).unwrap();
        let (survivors, stats) = twigstack_filter(&d, &r, &q);
        // b-survivors: only the two b's with a c below.
        let b_idx = q
            .nodes
            .iter()
            .position(|n| n.label == lt.lookup("b").unwrap())
            .unwrap();
        assert_eq!(survivors[b_idx].len(), 2, "{survivors:?}");
        assert!(stats.pushed < stats.scanned);
    }

    #[test]
    fn value_constraints_apply() {
        let (d, r, lt) = setup("<dblp><p><pub>Springer</pub></p><p><pub>ACM</pub></p></dblp>");
        let path = parse_path(r#"//p[pub="Springer"]"#).unwrap();
        let q = TwigQuery::from_path(&path, &lt).unwrap();
        assert_eq!(eval_twigstack(&d, &r, &q).len(), 1);
    }

    #[test]
    fn empty_stream_short_circuits() {
        let (d, r, lt) = setup("<a><b/></a>");
        let mut lt2 = lt.clone();
        let path = parse_path("//a/zzz").unwrap();
        let q = TwigQuery::from_path_interning(&path, &mut lt2).unwrap();
        assert!(eval_twigstack(&d, &r, &q).is_empty());
    }
}
