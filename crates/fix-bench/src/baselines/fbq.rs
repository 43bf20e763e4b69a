//! Twig evaluation over the F&B bisimulation index (the clustering
//! baseline of Section 6.3).
//!
//! Because the F&B partition is stable both forward and backward, all
//! nodes of a class satisfy the same twig subtrees and share their parent's
//! class; pure structural branching-path queries are therefore answered
//! from the index graph alone (the "covering index" property), finishing
//! with an extent concatenation. Value predicates cannot be answered from
//! the index — candidates are refined per node against the document, which
//! is exactly the cost profile the paper attributes to this baseline.

use fix_xml::{Document, NodeId};
use fix_xpath::{Axis, TwigQuery};

use super::fb::{FbClassId, FbIndex};

use fix_exec::verify_output;

/// Evaluates `q` over the F&B index of `doc`, returning the output node's
/// matches in document order.
pub fn eval_fb(doc: &Document, idx: &FbIndex, q: &TwigQuery) -> Vec<NodeId> {
    let has_values = q.has_values();
    // DP over (class, query node): does the class satisfy the query
    // subtree *structurally* (values ignored — the index knows nothing
    // about values)?
    let qn = q.nodes.len();
    let nc = idx.len();
    let mut sat = vec![false; qn * nc];
    // Children classes have larger... no ordering guarantee; do memoized
    // recursion instead.
    let mut memo: Vec<Option<bool>> = vec![None; qn * nc];
    fn satisfies(
        idx: &FbIndex,
        q: &TwigQuery,
        qi: usize,
        c: FbClassId,
        memo: &mut [Option<bool>],
        qn: usize,
    ) -> bool {
        let slot = c.0 as usize * qn + qi;
        if let Some(v) = memo[slot] {
            return v;
        }
        // Tentatively false to stop (impossible on a DAG, but cheap).
        memo[slot] = Some(false);
        let qnode = &q.nodes[qi];
        let ok = idx.label(c) == qnode.label
            && qnode.children.iter().all(|&qc| {
                idx.children(c)
                    .iter()
                    .any(|&cc| satisfies(idx, q, qc, cc, memo, qn))
            });
        memo[slot] = Some(ok);
        ok
    }
    for c in idx.iter() {
        for qi in 0..qn {
            sat[c.0 as usize * qn + qi] = satisfies(idx, q, qi, c, &mut memo, qn);
        }
    }

    // Spine narrowing at class granularity.
    let spine = spine_of(q);
    let mut classes: Vec<FbClassId> = match q.root_axis {
        Axis::Child => idx
            .roots()
            .iter()
            .copied()
            .filter(|c| sat[c.0 as usize * qn])
            .collect(),
        Axis::Descendant => idx.iter().filter(|c| sat[c.0 as usize * qn]).collect(),
    };
    for &qstep in spine.iter().skip(1) {
        let mut next: Vec<FbClassId> = Vec::new();
        for &c in &classes {
            for &cc in idx.children(c) {
                if sat[cc.0 as usize * qn + qstep] {
                    next.push(cc);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        classes = next;
        if classes.is_empty() {
            break;
        }
    }

    // Concatenate extents (covering property) …
    let mut out: Vec<NodeId> = classes
        .iter()
        .flat_map(|&c| idx.extent(c).iter().copied())
        .collect();
    out.sort_unstable();
    out.dedup();
    // … and refine values per node if present (index is value-blind).
    if has_values {
        out.retain(|&n| verify_output(doc, q, n));
    }
    out
}

fn spine_of(q: &TwigQuery) -> Vec<usize> {
    let mut parent = vec![usize::MAX; q.nodes.len()];
    for (i, node) in q.nodes.iter().enumerate() {
        for &c in &node.children {
            parent[c] = i;
        }
    }
    let mut spine = vec![q.output];
    let mut cur = q.output;
    while parent[cur] != usize::MAX {
        cur = parent[cur];
        spine.push(cur);
    }
    spine.reverse();
    spine
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_xml::{parse_document, LabelTable};
    use fix_xpath::parse_path;

    const BIB: &str = "<bib>\
        <article><author><email/></author><title>X</title><ee/></article>\
        <article><author><phone/><email/></author><title>Y</title></article>\
        <book><author><phone/></author><title>Z</title></book>\
    </bib>";

    fn check_against_nok(xml: &str, queries: &[&str]) {
        let mut lt = LabelTable::new();
        let d = parse_document(xml, &mut lt).unwrap();
        let idx = FbIndex::build(&d);
        for qs in queries {
            let p = parse_path(qs).unwrap();
            let q = match TwigQuery::from_path(&p, &lt) {
                Ok(q) => q,
                Err(fix_xpath::TwigError::UnknownLabel(_)) => continue,
                Err(e) => panic!("{e}"),
            };
            let a = eval_fb(&d, &idx, &q);
            let b = fix_exec::eval_path(&d, &lt, &p);
            assert_eq!(a, b, "disagreement on {qs}");
        }
    }

    #[test]
    fn agrees_with_nok_on_structural_twigs() {
        check_against_nok(
            BIB,
            &[
                "/bib/article",
                "//author",
                "//article[ee]/title",
                "//author[phone][email]",
                "//article[author/phone]/title",
                "//book[author]",
                "/bib/book/author/phone",
            ],
        );
    }

    #[test]
    fn agrees_on_recursive_documents() {
        check_against_nok(
            "<s><s><np/><s><np/><vp/></s></s><vp/></s>",
            &["//s/s[np]", "//s[np][vp]", "//s/s/s/np", "/s[vp]/s"],
        );
    }

    #[test]
    fn value_queries_are_refined_per_node() {
        let xml = "<dblp>\
            <proceedings><publisher>Springer</publisher><title>V1</title></proceedings>\
            <proceedings><publisher>Springer</publisher><title>V2</title></proceedings>\
            <proceedings><publisher>ACM</publisher><title>V3</title></proceedings>\
        </dblp>";
        check_against_nok(
            xml,
            &[
                r#"//proceedings[publisher="Springer"][title]"#,
                r#"//proceedings[publisher="ACM"]/title"#,
                r#"//proceedings[publisher="IEEE"]/title"#,
            ],
        );
    }
}
