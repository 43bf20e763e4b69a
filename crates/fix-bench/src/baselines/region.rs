//! Region encoding (a.k.a. interval or Dietz encoding): each element is
//! `(start, end, level)` with `start`/`end` delimiting its subtree in
//! document order. The containment test `a.start < d.start ∧ d.end ≤
//! a.end` decides ancestorship in O(1) — the foundation of the structural
//! join and holistic twig join operator families FIX is positioned
//! against (Section 7's XB-tree/XR-tree/TwigStack line of work).
//!
//! Our arena already *is* region-encoded (node id = preorder rank,
//! `subtree_end` = end), so this module only materializes the per-label
//! streams those operators consume.

use std::collections::HashMap;

use fix_xml::{Document, LabelId, NodeId, NodeKind};

/// One region-encoded element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Preorder start (= node id).
    pub start: u32,
    /// One past the last descendant.
    pub end: u32,
    /// Depth (root = 1).
    pub level: u32,
}

impl Region {
    /// True if `self` is a proper ancestor of `other`.
    #[inline]
    pub fn is_ancestor_of(&self, other: &Region) -> bool {
        self.start < other.start && other.end <= self.end
    }

    /// True if `self` is the parent of `other`.
    #[inline]
    pub fn is_parent_of(&self, other: &Region) -> bool {
        self.is_ancestor_of(other) && self.level + 1 == other.level
    }

    /// The element's node id.
    #[inline]
    pub fn node(&self) -> NodeId {
        NodeId(self.start)
    }
}

/// Per-label element streams in document order — the `T_q` input lists of
/// the TwigStack family.
#[derive(Debug, Default)]
pub struct RegionIndex {
    streams: HashMap<LabelId, Vec<Region>>,
}

impl RegionIndex {
    /// Builds the streams for one document in a single pass.
    pub fn build(doc: &Document) -> Self {
        let mut streams: HashMap<LabelId, Vec<Region>> = HashMap::new();
        let mut level = 0u32;
        let mut stack: Vec<u32> = Vec::new();
        for i in 0..doc.len() as u32 {
            while let Some(&end) = stack.last() {
                if end <= i {
                    stack.pop();
                    level -= 1;
                } else {
                    break;
                }
            }
            let id = NodeId(i);
            if let NodeKind::Element(l) = doc.kind(id) {
                level += 1;
                let end = doc.subtree_end(id).0;
                streams.entry(l).or_default().push(Region {
                    start: i,
                    end,
                    level,
                });
                stack.push(end);
            }
        }
        Self { streams }
    }

    /// The document-ordered stream of elements labeled `l` (empty slice if
    /// the label never occurs).
    pub fn stream(&self, l: LabelId) -> &[Region] {
        self.streams.get(&l).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct labels with at least one element.
    pub fn label_count(&self) -> usize {
        self.streams.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fix_xml::{parse_document, LabelTable};

    fn build(xml: &str) -> (Document, RegionIndex, LabelTable) {
        let mut lt = LabelTable::new();
        let d = parse_document(xml, &mut lt).unwrap();
        let idx = RegionIndex::build(&d);
        (d, idx, lt)
    }

    #[test]
    fn streams_are_document_ordered_and_complete() {
        let (d, idx, lt) = build("<a><b><c/></b><b/>t<c/></a>");
        let b = lt.lookup("b").unwrap();
        let bs = idx.stream(b);
        assert_eq!(bs.len(), 2);
        assert!(bs[0].start < bs[1].start);
        let total: usize = [lt.lookup("a"), Some(b), lt.lookup("c")]
            .iter()
            .flatten()
            .map(|&l| idx.stream(l).len())
            .sum();
        // Element count (text node excluded).
        let elements = d
            .descendants_or_self(d.root())
            .filter(|&n| d.label(n).is_some())
            .count();
        assert_eq!(total, elements);
    }

    #[test]
    fn containment_tests() {
        let (_, idx, lt) = build("<a><b><c/></b><c/></a>");
        let a = idx.stream(lt.lookup("a").unwrap())[0];
        let b = idx.stream(lt.lookup("b").unwrap())[0];
        let cs = idx.stream(lt.lookup("c").unwrap());
        assert!(a.is_ancestor_of(&b));
        assert!(a.is_parent_of(&b));
        assert!(b.is_ancestor_of(&cs[0]));
        assert!(!b.is_ancestor_of(&cs[1]));
        assert!(a.is_ancestor_of(&cs[1]));
        assert!(!a.is_parent_of(&cs[0]), "c0 is a grandchild");
        assert!(a.is_parent_of(&cs[1]));
    }

    #[test]
    fn levels_match_depth() {
        let (d, idx, lt) = build("<a><b><c><e/></c></b></a>");
        let e = idx.stream(lt.lookup("e").unwrap())[0];
        assert_eq!(e.level, 4);
        assert_eq!(d.depth(e.node()), 4);
    }

    #[test]
    fn missing_label_is_empty() {
        let (_, idx, _) = build("<a/>");
        assert!(idx.stream(LabelId(999)).is_empty());
    }
}
