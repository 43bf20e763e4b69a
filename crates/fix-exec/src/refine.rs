//! A refinement entry point over shared (`&`-only) state.
//!
//! The index's refinement phase validates each candidate by evaluating the
//! query from the candidate's anchor with the NoK-style navigator
//! ([`eval_path`], [`eval_path_from`]) — the paper's refinement operator.
//! The navigator is a pure function over borrowed data; [`Refiner`]
//! packages the per-query part — the path and the rooted-anchor rule —
//! into an immutable, `Send + Sync` value, so any number of worker threads
//! can validate candidates concurrently against the same instance.

use fix_xml::{Document, LabelTable, NodeId};
use fix_xpath::{Axis, PathExpr};

use crate::nok::{eval_path, eval_path_from};

/// A per-query refinement context: the (already normalized) path and the
/// anchoring rules. All state is immutable after construction — share it
/// by `&` across as many threads as candidates warrant.
pub struct Refiner<'a> {
    labels: &'a LabelTable,
    path: PathExpr,
    /// The index's subpattern depth limit (`0` = whole-document units).
    depth_limit: usize,
    /// True if the query is rooted (`/a/...`): anchors other than the
    /// document root are false positives by construction.
    rooted: bool,
}

impl<'a> Refiner<'a> {
    /// Builds the refinement context for one query.
    pub fn new(labels: &'a LabelTable, path: &PathExpr, depth_limit: usize) -> Self {
        Self {
            labels,
            path: path.clone(),
            depth_limit,
            rooted: path.steps.first().map(|s| s.axis) == Some(Axis::Child),
        }
    }

    /// The path this refiner validates against.
    pub fn path(&self) -> &PathExpr {
        &self.path
    }

    /// Validates one candidate: evaluates the query over `doc`, anchored at
    /// `anchor` in large-document mode, and returns the matched output
    /// nodes (empty = false positive).
    pub fn matches_at(&self, doc: &Document, anchor: NodeId) -> Vec<NodeId> {
        if self.depth_limit == 0 {
            eval_path(doc, self.labels, &self.path)
        } else if self.rooted && anchor != doc.root() {
            // A rooted query can only anchor at the document root; any
            // other entry in the partition is a false positive.
            Vec::new()
        } else {
            eval_path_from(doc, self.labels, &self.path, anchor)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_xml::parse_document;
    use fix_xpath::parse_path;

    fn setup(xml: &str) -> (Document, LabelTable) {
        let mut lt = LabelTable::new();
        let d = parse_document(xml, &mut lt).unwrap();
        (d, lt)
    }

    #[test]
    fn refiner_is_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Refiner<'_>>();
    }

    #[test]
    fn whole_unit_refinement_agrees_with_the_twig_oracle() {
        let (d, lt) = setup("<bib><article><author/><ee/></article><book><author/></book></bib>");
        let path = parse_path("//article[author]/ee").unwrap();
        let twig = fix_xpath::TwigQuery::from_path(&path, &lt).unwrap();
        let got = Refiner::new(&lt, &path, 0).matches_at(&d, d.root());
        assert_eq!(got, crate::twig::eval_twig(&d, &twig));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn rooted_queries_reject_non_root_anchors() {
        let (d, lt) = setup("<a><b><c/></b></a>");
        let path = parse_path("/a/b/c").unwrap();
        let r = Refiner::new(&lt, &path, 3);
        assert_eq!(r.matches_at(&d, d.root()).len(), 1);
        let b = d.first_child(d.root()).unwrap();
        assert!(r.matches_at(&d, b).is_empty());
    }

    #[test]
    fn anchored_evaluation_scopes_to_the_subtree() {
        let (d, lt) = setup("<a><b><c/></b><b/></a>");
        let path = parse_path("//b/c").unwrap();
        let r = Refiner::new(&lt, &path, 2);
        let first_b = d.first_child(d.root()).unwrap();
        assert_eq!(r.matches_at(&d, first_b).len(), 1);
    }

    #[test]
    fn concurrent_refinement_matches_serial() {
        let (d, lt) = setup("<bib><article><author/><ee/></article></bib>");
        let path = parse_path("//article/author").unwrap();
        let r = Refiner::new(&lt, &path, 0);
        let serial = r.matches_at(&d, d.root());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = &r;
                let d = &d;
                let serial = &serial;
                s.spawn(move || {
                    for _ in 0..25 {
                        assert_eq!(&r.matches_at(d, d.root()), serial);
                    }
                });
            }
        });
    }
}
