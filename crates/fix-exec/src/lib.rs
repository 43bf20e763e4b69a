//! Query processors: the refinement operator FIX plugs into and the
//! oracle it is checked against.
//!
//! * [`nok`] — a navigational twig/path evaluator in the style of the NoK
//!   operator [Zhang, Kacholia, Özsu; ICDE 2004]: document-order
//!   navigation over the primary storage, full `//` support. It is both
//!   the no-index baseline and FIX's refinement processor.
//! * [`twig`] — a bottom-up structural matcher over the region-encoded
//!   document (one postorder pass, `O(|doc| · |query|)`); an independent
//!   implementation used as the correctness oracle in tests.
//! * [`merge`] — k-way merges of key-ordered candidate streams.
//!
//! The Section 6 baselines (F&B, structural joins, PathStack, TwigStack)
//! live in `fix-bench`'s `baselines` module, outside the engine.
//!
//! All evaluators agree on semantics: the result of a query is the set of
//! document nodes matched by the *output* step (the last step of the main
//! spine), in document order. A value predicate `[x = "v"]` matches an
//! element that has a direct text child exactly equal to `"v"` — the same
//! convention the value-hashing index uses, so index pruning and
//! refinement can never disagree.

pub mod cancel;
pub mod merge;
pub mod nok;
pub mod refine;
pub mod twig;

pub use cancel::CancelToken;
pub use merge::{merge_k_sorted, merge_sorted};
pub use nok::{anchors, eval_path, eval_path_from, path_matches, value_matches};
pub use refine::Refiner;
pub use twig::{eval_twig, node_satisfies, twig_matches, verify_output};
