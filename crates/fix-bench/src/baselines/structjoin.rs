//! Stack-based structural joins (Al-Khalifa et al., ICDE 2002) and a twig
//! evaluator composed from them.
//!
//! The binary stack-tree join merges two document-ordered region lists in
//! `O(|A| + |D| + |output|)`. Composing *pair* joins for a twig suffers
//! the intermediate-result blowup that motivated holistic twig joins
//! (Section 7's narrative); the twig evaluator here therefore composes
//! **semi-joins** bottom-up (keep the ancestor iff it has a qualifying
//! child/descendant), which keeps intermediates linear while remaining a
//! faithful member of the structural-join family.

use super::region::{Region, RegionIndex};
use fix_xml::{Document, NodeId};
use fix_xpath::{Axis, TwigQuery};

use fix_exec::value_matches;

/// Structural **semi-join**: the ancestors (in document order) that have at
/// least one qualifying descendant (or child, with `parent_only`).
pub fn semijoin_ancestors(anc: &[Region], desc: &[Region], parent_only: bool) -> Vec<Region> {
    let mut keep = vec![false; anc.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut ai = 0usize;
    for d in desc {
        while ai < anc.len() && anc[ai].start < d.start {
            while let Some(&top) = stack.last() {
                if anc[top].end <= anc[ai].start {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(ai);
            ai += 1;
        }
        while let Some(&top) = stack.last() {
            if anc[top].end <= d.start {
                stack.pop();
            } else {
                break;
            }
        }
        if parent_only {
            // The parent is the innermost enclosing ancestor with the
            // right level.
            for &i in stack.iter().rev() {
                if anc[i].level + 1 == d.level && anc[i].is_ancestor_of(d) {
                    keep[i] = true;
                    break;
                }
                if anc[i].level < d.level.saturating_sub(1) {
                    break;
                }
            }
        } else {
            for &i in &stack {
                if anc[i].is_ancestor_of(d) {
                    keep[i] = true;
                }
            }
        }
    }
    anc.iter()
        .zip(keep)
        .filter_map(|(a, k)| k.then_some(*a))
        .collect()
}

/// Structural semi-join in the other direction: the descendants that have
/// a qualifying ancestor/parent.
pub fn semijoin_descendants(anc: &[Region], desc: &[Region], parent_only: bool) -> Vec<Region> {
    let mut out = Vec::new();
    let mut stack: Vec<Region> = Vec::new();
    let mut ai = 0usize;
    for d in desc {
        while ai < anc.len() && anc[ai].start < d.start {
            while let Some(top) = stack.last() {
                if top.end <= anc[ai].start {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(anc[ai]);
            ai += 1;
        }
        while let Some(top) = stack.last() {
            if top.end <= d.start {
                stack.pop();
            } else {
                break;
            }
        }
        let hit = stack
            .iter()
            .any(|a| a.is_ancestor_of(d) && (!parent_only || a.level + 1 == d.level));
        if hit {
            out.push(*d);
        }
    }
    out
}

/// Evaluates a twig query with a bottom-up semi-join plan followed by a
/// top-down spine narrowing. Agrees with the navigational and DP
/// evaluators on all twig queries (cross-checked in tests); exposed as an
/// alternative refinement operator and baseline.
pub fn eval_structural(doc: &Document, regions: &RegionIndex, q: &TwigQuery) -> Vec<NodeId> {
    // Bottom-up: sat[qi] = document-ordered regions satisfying the query
    // subtree rooted at qi.
    let qn = q.nodes.len();
    let mut sat: Vec<Option<Vec<Region>>> = vec![None; qn];
    // Children before parents: compute by recursion.
    fn compute(
        doc: &Document,
        regions: &RegionIndex,
        q: &TwigQuery,
        qi: usize,
        sat: &mut Vec<Option<Vec<Region>>>,
    ) {
        if sat[qi].is_some() {
            return;
        }
        let qnode = &q.nodes[qi];
        let mut cur: Vec<Region> = regions.stream(qnode.label).to_vec();
        if let Some(v) = &qnode.value {
            cur.retain(|r| value_matches(doc, r.node(), v));
        }
        for &qc in &qnode.children {
            compute(doc, regions, q, qc, sat);
            let child_sat = sat[qc].as_ref().expect("computed");
            cur = semijoin_ancestors(&cur, child_sat, true);
        }
        sat[qi] = Some(cur);
    }
    compute(doc, regions, q, q.root(), &mut sat);

    // Top-down narrowing along the spine.
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
    // Make sure every spine node's sat set exists (compute() above only
    // fills the root's subtree, which includes the whole spine).
    let mut current: Vec<Region> = sat[spine[0]].clone().expect("spine root computed");
    if q.root_axis == Axis::Child {
        current.retain(|r| r.node() == doc.root());
    }
    for &qs in spine.iter().skip(1) {
        let child_sat = sat[qs].as_ref().expect("spine computed");
        current = semijoin_descendants(&current, child_sat, true);
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
    use fix_xpath::parse_path;

    fn setup(xml: &str) -> (Document, RegionIndex, LabelTable) {
        let mut lt = LabelTable::new();
        let d = parse_document(xml, &mut lt).unwrap();
        let r = RegionIndex::build(&d);
        (d, r, lt)
    }

    #[test]
    fn semijoins_match_all_pairs_projections() {
        let (_, r, lt) = setup("<a><b><c/></b><b/><a><b><c/></b></a><c/></a>");
        let a = r.stream(lt.lookup("a").unwrap());
        let b = r.stream(lt.lookup("b").unwrap());
        let c = r.stream(lt.lookup("c").unwrap());
        for parent_only in [false, true] {
            // Oracle: every (b, c) pair checked directly.
            let pairs: Vec<(Region, Region)> = b
                .iter()
                .flat_map(|x| c.iter().map(move |y| (*x, *y)))
                .filter(|(x, y)| x.is_ancestor_of(y) && (!parent_only || x.level + 1 == y.level))
                .collect();
            let mut anc: Vec<u32> = pairs.iter().map(|(x, _)| x.start).collect();
            anc.sort_unstable();
            anc.dedup();
            let semi: Vec<u32> = semijoin_ancestors(b, c, parent_only)
                .iter()
                .map(|x| x.start)
                .collect();
            assert_eq!(anc, semi, "ancestor projection, parent_only={parent_only}");
            let mut desc: Vec<u32> = pairs.iter().map(|(_, y)| y.start).collect();
            desc.sort_unstable();
            desc.dedup();
            let semi: Vec<u32> = semijoin_descendants(b, c, parent_only)
                .iter()
                .map(|x| x.start)
                .collect();
            assert_eq!(
                desc, semi,
                "descendant projection, parent_only={parent_only}"
            );
        }
        let _ = a;
    }

    #[test]
    fn structural_twig_agrees_with_nok() {
        let xml = "<bib>\
            <article><author><email/></author><title>X</title><ee/></article>\
            <article><author><phone/><email/></author><title>Y</title></article>\
            <book><author><phone/></author><title>Z</title></book>\
        </bib>";
        let (d, r, lt) = setup(xml);
        for qs in [
            "/bib/article",
            "//author[phone][email]",
            "//article[ee]/title",
            "//article[author/phone]/title",
            "//book[author]",
            "//bib/article/author/email",
        ] {
            let p = parse_path(qs).unwrap();
            let q = TwigQuery::from_path(&p, &lt).unwrap();
            let got = eval_structural(&d, &r, &q);
            let want = fix_exec::eval_path(&d, &lt, &p);
            assert_eq!(got, want, "disagreement on {qs}");
        }
    }

    #[test]
    fn recursive_labels_stress() {
        let xml = "<s><s><np><pp><np/></pp></np><s><np/><vp/></s></s><vp/></s>";
        let (d, r, lt) = setup(xml);
        for qs in ["//s/s[np]", "//s[np][vp]", "//np/pp/np", "/s[vp]/s"] {
            let p = parse_path(qs).unwrap();
            let q = TwigQuery::from_path(&p, &lt).unwrap();
            assert_eq!(
                eval_structural(&d, &r, &q),
                fix_exec::eval_path(&d, &lt, &p),
                "disagreement on {qs}"
            );
        }
    }

    #[test]
    fn value_twigs_filter_streams() {
        let xml = "<dblp><proceedings><publisher>Springer</publisher></proceedings>\
                   <proceedings><publisher>ACM</publisher></proceedings></dblp>";
        let (d, r, lt) = setup(xml);
        let p = parse_path(r#"//proceedings[publisher="Springer"]"#).unwrap();
        let q = TwigQuery::from_path(&p, &lt).unwrap();
        assert_eq!(eval_structural(&d, &r, &q).len(), 1);
    }
}
