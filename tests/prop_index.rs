//! Property tests for the index itself: on arbitrary random collections
//! and arbitrary twig queries, FIX (both feature modes where soundness is
//! claimed) returns exactly the navigational baseline's results — the
//! no-false-negative guarantee of Theorems 3 & 5, end to end.

use proptest::prelude::*;

use fix::core::{Collection, DocId, FixIndex, FixOptions};
use fix::exec::eval_path;
use fix::xpath::{parse_path, PathExpr, XPathError, DEFAULT_MAX_QUERY_DEPTH};
use fix::{FixDatabase, FixError};

/// Random document XML over a 6-label alphabet with nesting (labels repeat
/// across levels, exercising the recursive corner cases) and occasional
/// text values drawn from a 3-value pool.
fn doc_strategy() -> impl Strategy<Value = String> {
    #[derive(Debug, Clone)]
    enum T {
        Leaf(u8),
        Text(u8, u8),
        Node(u8, Vec<T>),
    }
    fn render(t: &T, out: &mut String) {
        match t {
            T::Leaf(l) => out.push_str(&format!("<l{l}/>")),
            T::Text(l, v) => out.push_str(&format!("<l{l}>v{v}</l{l}>")),
            T::Node(l, c) => {
                out.push_str(&format!("<l{l}>"));
                for x in c {
                    render(x, out);
                }
                out.push_str(&format!("</l{l}>"));
            }
        }
    }
    let leaf = prop_oneof![
        (0u8..6).prop_map(T::Leaf),
        (0u8..6, 0u8..3).prop_map(|(l, v)| T::Text(l, v)),
    ];
    leaf.prop_recursive(5, 48, 4, |inner| {
        ((0u8..6), prop::collection::vec(inner, 1..4)).prop_map(|(l, c)| T::Node(l, c))
    })
    .prop_map(|t| {
        let mut s = String::from("<l0>");
        render(&t, &mut s);
        s.push_str("</l0>");
        s
    })
}

/// Random twig query string over the same alphabet, with occasional
/// value-equality predicates (half of which target values that exist).
fn query_strategy() -> impl Strategy<Value = String> {
    let step = (0u8..6).prop_map(|l| format!("l{l}"));
    let pred =
        (0u8..6, prop::option::of(0u8..6), prop::option::of(0u8..4)).prop_map(|(a, b, v)| {
            match (b, v) {
                (Some(b), _) => format!("[l{a}/l{b}]"),
                (None, Some(v)) => format!("[l{a}=\"v{v}\"]"),
                (None, None) => format!("[l{a}]"),
            }
        });
    (
        prop::bool::ANY,
        prop::collection::vec((step, prop::option::of(pred)), 1..4),
    )
        .prop_map(|(rooted, steps)| {
            let mut q = String::new();
            for (i, (name, pred)) in steps.iter().enumerate() {
                q.push_str(if i == 0 && !rooted { "//" } else { "/" });
                q.push_str(name);
                if let Some(p) = pred {
                    q.push_str(p);
                }
            }
            q
        })
}

/// The parser's refusal of a query past `DEFAULT_MAX_QUERY_DEPTH`.
fn too_deep(e: &XPathError) -> bool {
    e.message.starts_with("query nests deeper than")
}

/// A query of one of three shapes, with its depth in steps along the
/// deepest chain: nested predicates (deep), a long spine of `/` and `//`
/// steps, or many sibling predicates (wide). Deep and long queries
/// straddle the parser's depth bound; label `l6` occurs in no document.
fn shaped_query() -> impl Strategy<Value = (String, usize)> {
    let max = DEFAULT_MAX_QUERY_DEPTH;
    let deep = prop::collection::vec(0u8..7, 1..max + 64).prop_map(|ls| {
        let mut q = format!("//l{}", ls[0]);
        for l in &ls[1..] {
            q.push_str(&format!("[l{l}"));
        }
        q.push_str(&"]".repeat(ls.len() - 1));
        (q, ls.len())
    });
    let spine = prop::collection::vec((0u8..7, prop::bool::ANY), 1..max + 64).prop_map(|steps| {
        let q: String = steps
            .iter()
            .map(|(l, desc)| format!("{}l{l}", if *desc { "//" } else { "/" }))
            .collect();
        (q, steps.len())
    });
    let wide = (
        0u8..7,
        prop::collection::vec((0u8..7, prop::option::of(0u8..7)), 1..4 * max),
    )
        .prop_map(|(root, preds)| {
            let mut q = format!("//l{root}");
            let mut depth = 2;
            for (a, b) in &preds {
                match b {
                    Some(b) => {
                        q.push_str(&format!("[l{a}/l{b}]"));
                        depth = 3;
                    }
                    None => q.push_str(&format!("[l{a}]")),
                }
            }
            (q, depth)
        });
    prop_oneof![deep, spine, wide]
}

fn baseline(coll: &Collection, path: &PathExpr) -> Vec<(DocId, u32)> {
    let mut out = Vec::new();
    for (id, d) in coll.iter() {
        for n in eval_path(d, &coll.labels, path) {
            out.push((id, n.0));
        }
    }
    out.sort_unstable();
    out
}

fn check(docs: &[String], query: &str, opts: FixOptions) -> Result<(), TestCaseError> {
    let mut coll = Collection::new();
    for d in docs {
        coll.add_xml(d).unwrap();
    }
    let path = parse_path(query).unwrap();
    let idx = FixIndex::build(&mut coll, opts);
    let out = match idx.query_path(&coll, &path) {
        Ok(o) => o,
        Err(fix::core::QueryError::NotCovered { .. }) => return Ok(()),
        Err(e) => panic!("{e}"),
    };
    let got: Vec<(DocId, u32)> = out.results.iter().map(|&(d, n)| (d, n.0)).collect();
    let want = baseline(&coll, &path);
    prop_assert_eq!(got, want, "query {} over {} docs", query, docs.len());
    prop_assert!(out.metrics.candidates >= out.metrics.producing);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn collection_mode_has_no_false_negatives(
        docs in prop::collection::vec(doc_strategy(), 1..6),
        query in query_strategy(),
    ) {
        check(&docs, &query, FixOptions::collection())?;
    }

    #[test]
    fn large_document_mode_has_no_false_negatives(
        doc in doc_strategy(),
        query in query_strategy(),
    ) {
        check(std::slice::from_ref(&doc), &query, FixOptions::large_document(3))?;
    }

    #[test]
    fn clustered_mode_agrees(
        docs in prop::collection::vec(doc_strategy(), 1..4),
        query in query_strategy(),
    ) {
        check(&docs, &query, FixOptions::collection().clustered())?;
    }

    #[test]
    fn extended_features_stay_sound(
        doc in doc_strategy(),
        query in query_strategy(),
    ) {
        let mut opts = FixOptions::large_document(3);
        opts.extended_features = true;
        check(std::slice::from_ref(&doc), &query, opts)?;
    }

    #[test]
    fn value_index_has_no_false_negatives(
        doc in doc_strategy(),
        query in query_strategy(),
        beta in 1u32..16,
    ) {
        // Small β forces hash collisions — which may only ever add false
        // positives.
        check(
            std::slice::from_ref(&doc),
            &query,
            FixOptions::large_document(3).with_values(beta).with_edge_bloom(),
        )?;
    }

    #[test]
    fn edge_bloom_stays_sound(
        doc in doc_strategy(),
        query in query_strategy(),
    ) {
        // The edge-fingerprint filter must never lose results — it is
        // sound even for non-injective matches.
        check(
            std::slice::from_ref(&doc),
            &query,
            FixOptions::large_document(3).with_edge_bloom(),
        )?;
        check(&[doc], &query, FixOptions::collection().with_edge_bloom())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever its shape, a query string is either answered exactly or
    /// refused with a typed error: never a panic or a stack overflow.
    #[test]
    fn deep_long_and_wide_queries_are_answered_or_refused(
        docs in prop::collection::vec(doc_strategy(), 1..4),
        (query, depth) in shaped_query(),
    ) {
        let mut db = FixDatabase::in_memory();
        for d in &docs {
            db.add_xml(d).unwrap();
        }
        db.build(FixOptions::collection()).unwrap();
        let parsed = parse_path(&query);
        let answered = db.query(&query);
        if depth > DEFAULT_MAX_QUERY_DEPTH {
            prop_assert!(too_deep(&parsed.unwrap_err()));
            prop_assert!(
                matches!(&answered, Err(FixError::BadQuery(e)) if too_deep(e)),
                "depth {} answered {:?}",
                depth,
                answered.map(|o| o.results.len())
            );
        } else {
            let path = parsed.unwrap();
            let got: Vec<(DocId, u32)> = answered
                .unwrap()
                .results
                .iter()
                .map(|&(d, n)| (d, n.0))
                .collect();
            prop_assert_eq!(got, baseline(db.collection(), &path), "query {}", query);
        }
    }
}
