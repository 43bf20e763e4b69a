//! Cross-evaluator property tests: the navigational evaluator, the
//! bottom-up DP matcher, the structural-join plan, the F&B index
//! evaluator, and TwigStack must agree on arbitrary documents and twig
//! queries (each under its own edge semantics).

use proptest::prelude::*;

use fix::exec::{eval_path, eval_twig};
use fix::xml::{parse_document, Document, LabelTable};
use fix::xpath::{parse_path, Axis, PathExpr, Predicate, Step, TwigQuery};
use fix_bench::baselines::{eval_fb, eval_structural, eval_twigstack, FbIndex, RegionIndex};

fn doc_strategy() -> impl Strategy<Value = String> {
    #[derive(Debug, Clone)]
    enum T {
        Leaf(u8),
        Node(u8, Vec<T>),
    }
    fn render(t: &T, out: &mut String) {
        match t {
            T::Leaf(l) => out.push_str(&format!("<e{l}/>")),
            T::Node(l, c) => {
                out.push_str(&format!("<e{l}>"));
                for x in c {
                    render(x, out);
                }
                out.push_str(&format!("</e{l}>"));
            }
        }
    }
    let leaf = (0u8..5).prop_map(T::Leaf);
    leaf.prop_recursive(5, 48, 4, |inner| {
        ((0u8..5), prop::collection::vec(inner, 1..4)).prop_map(|(l, c)| T::Node(l, c))
    })
    .prop_map(|t| {
        let mut s = String::from("<e0>");
        render(&t, &mut s);
        s.push_str("</e0>");
        s
    })
}

fn query_strategy() -> impl Strategy<Value = String> {
    let step = (0u8..5).prop_map(|l| format!("e{l}"));
    let pred = (0u8..5, prop::option::of(0u8..5)).prop_map(|(a, b)| match b {
        Some(b) => format!("[e{a}/e{b}]"),
        None => format!("[e{a}]"),
    });
    prop::collection::vec((step, prop::option::of(pred)), 1..4).prop_map(|steps| {
        let mut q = String::new();
        for (i, (name, pred)) in steps.iter().enumerate() {
            q.push_str(if i == 0 { "//" } else { "/" });
            q.push_str(name);
            if let Some(p) = pred {
                q.push_str(p);
            }
        }
        q
    })
}

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

fn parse(xml: &str) -> (Document, LabelTable) {
    let mut lt = LabelTable::new();
    let d = parse_document(xml, &mut lt).unwrap();
    (d, lt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn five_evaluators_agree(xml in doc_strategy(), qs in query_strategy()) {
        let (d, lt) = parse(&xml);
        let path = parse_path(&qs).unwrap();
        let twig = match TwigQuery::from_path(&path, &lt) {
            Ok(t) => t,
            Err(_) => return Ok(()), // label not in this document
        };
        let regions = RegionIndex::build(&d);
        let fb = FbIndex::build(&d);

        let nok: Vec<u32> = eval_path(&d, &lt, &path).iter().map(|n| n.0).collect();
        let dp: Vec<u32> = eval_twig(&d, &twig).iter().map(|n| n.0).collect();
        let sj: Vec<u32> = eval_structural(&d, &regions, &twig).iter().map(|n| n.0).collect();
        let fbr: Vec<u32> = eval_fb(&d, &fb, &twig).iter().map(|n| n.0).collect();
        prop_assert_eq!(&nok, &dp, "nok vs DP on {}", qs);
        prop_assert_eq!(&nok, &sj, "nok vs structural join on {}", qs);
        prop_assert_eq!(&nok, &fbr, "nok vs F&B on {}", qs);

        // TwigStack evaluates descendant semantics; compare against the
        // navigational evaluator on the descendant-rewritten query.
        let ts: Vec<u32> = eval_twigstack(&d, &regions, &twig).iter().map(|n| n.0).collect();
        let nok_desc: Vec<u32> = eval_path(&d, &lt, &to_descendant(&path))
            .iter()
            .map(|n| n.0)
            .collect();
        prop_assert_eq!(&ts, &nok_desc, "twigstack vs nok// on {}", qs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Normalization must preserve semantics on every evaluator.
    #[test]
    fn normalization_preserves_results(xml in doc_strategy(), qs in query_strategy()) {
        use fix::xpath::normalize;
        let (d, lt) = parse(&xml);
        let path = parse_path(&qs).unwrap();
        let normalized = normalize(&path);
        let a: Vec<u32> = eval_path(&d, &lt, &path).iter().map(|n| n.0).collect();
        let b: Vec<u32> = eval_path(&d, &lt, &normalized).iter().map(|n| n.0).collect();
        prop_assert_eq!(a, b, "normalize changed {} -> {}", qs, normalized);
        // Idempotence.
        prop_assert_eq!(normalize(&normalized), normalized);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// PathStack (linear, descendant semantics) agrees with the
    /// navigational evaluator on descendant-rewritten linear paths.
    #[test]
    fn pathstack_agrees_on_linear_paths(
        xml in doc_strategy(),
        labels in prop::collection::vec(0u8..5, 1..4),
        rooted in prop::bool::ANY,
    ) {
        use fix_bench::baselines::eval_pathstack;
        let (d, lt) = parse(&xml);
        let mut q = String::new();
        for (i, l) in labels.iter().enumerate() {
            q.push_str(if i == 0 && !rooted { "//" } else { "/" });
            q.push_str(&format!("e{l}"));
        }
        let path = parse_path(&q).unwrap();
        let regions = RegionIndex::build(&d);
        let (got, stats) = eval_pathstack(&d, &regions, &lt, &path);
        let got: Vec<u32> = got.iter().map(|n| n.0).collect();
        // Reference: descendant-rewritten (keep the leading axis).
        let mut reference = to_descendant(&path);
        if rooted {
            reference.steps[0].axis = Axis::Child;
        }
        let want: Vec<u32> = eval_path(&d, &lt, &reference).iter().map(|n| n.0).collect();
        prop_assert_eq!(got, want, "pathstack vs nok on {}", q);
        prop_assert!(stats.pushed <= stats.scanned);
    }
}
