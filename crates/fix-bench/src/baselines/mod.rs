//! The evaluators FIX is compared against in Section 6 — harness code,
//! not engine code. Nothing here is linked by `fix-core`, `fix-server`
//! or `fixd`; the engine's only query path is the spectral probe plus
//! NoK refinement.
//!
//! * [`fb`] + [`fbq`] — the forward-&-backward bisimulation partition and
//!   query evaluation over it: the disk-based F&B clustering-index
//!   baseline of Figures 6 and 7 (covering for branching path queries).
//! * [`region`] — `(start, end, level)` region encoding with per-label
//!   streams, the input of the structural-join family.
//! * [`structjoin`] — binary stack-based structural joins
//!   (Stack-Tree-Desc style) composed bottom-up over a twig.
//! * [`pathstack`] + [`twigstack`] — the holistic path and twig joins
//!   [Bruno, Koudas, Srivastava; SIGMOD 2002].
//! * [`rtree`] + [`spatial`] — the paper's future-work probe structure:
//!   feature keys as 2-D points in a bulk-loaded R-tree per root-label
//!   partition (ablation section 6).
//!
//! All of them agree with `fix_exec::eval_twig` and the NoK navigator on
//! every query (the root package's `prop_operators` suite).

pub mod fb;
pub mod fbq;
pub mod pathstack;
pub mod region;
pub mod rtree;
pub mod spatial;
pub mod structjoin;
pub mod twigstack;

pub use fb::{FbClassId, FbIndex};
pub use fbq::eval_fb;
pub use pathstack::{eval_pathstack, PathStackStats};
pub use region::{Region, RegionIndex};
pub use rtree::{Point, RTree, RTreeProbeStats};
pub use spatial::SpatialIndex;
pub use structjoin::{eval_structural, semijoin_ancestors, semijoin_descendants};
pub use twigstack::{eval_twigstack, twigstack_filter, TwigStackStats};
