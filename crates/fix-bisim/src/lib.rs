//! Bisimulation graphs for XML trees (Sections 2.2, 4.3–4.4 of the paper).
//!
//! The heart of FIX's indexable-unit generation:
//!
//! * [`BisimGraph`] — a hash-consed minimal bisimulation DAG. Two XML nodes
//!   share a vertex iff their subtrees are structurally equivalent
//!   (Definition 3 — *downward* bisimilarity, coarser than F&B).
//! * [`BisimBuilder`] — the paper's single-pass `CONSTRUCT-ENTRIES`
//!   streaming construction over open/close events.
//! * [`Traveler`] — the depth-limited DFS event generator
//!   (`BISIM-TRAVELER`) used by `GEN-SUBPATTERN` to enumerate depth-`k`
//!   subpatterns of a large document.
//! * [`query_pattern`] — twig query → twig pattern (its bisimulation graph).
//!
//! The forward-&-backward partition of the F&B index baseline lives in
//! `fix-bench`'s `baselines` module, outside the engine.

pub mod construct;
pub mod graph;
pub mod query;
pub mod traveler;

pub use construct::{build_document_graph, BisimBuilder, UnitInfo};
pub use graph::{BisimGraph, VertexId};
pub use query::query_pattern;
pub use query::query_pattern_with_values;
pub use traveler::{subpattern, SubpatternForest, Traveler};
