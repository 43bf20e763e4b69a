//! Path expressions and twig queries (Section 2.1 of the paper).
//!
//! A *path expression* is a list of steps, each with an axis (`/` child or
//! `//` descendant), a NameTest, and zero or more branching predicates;
//! predicates are recursively path expressions, optionally ending in a
//! value-equality comparison (`[year = "1998"]`).
//!
//! A *twig query* (Definition 1) is a path expression whose axes are all
//! `/` except possibly the leading one, with no KindTests and no value
//! comparisons. Twig queries are the unit the FIX index understands; general
//! expressions with interior `//`-axes are decomposed into twig blocks
//! (Section 5), and value comparisons are folded into the structure by the
//! value-hashing extension (Section 4.6).

pub mod ast;
pub mod decompose;
pub mod normalize;
pub mod parser;
pub mod twig;

pub use ast::{Axis, PathExpr, Predicate, QueryBuilder, Step};
pub use decompose::decompose;
pub use normalize::{implies, normalize};
pub use parser::{parse_path, XPathError, DEFAULT_MAX_QUERY_DEPTH};
pub use twig::{QueryNode, TwigError, TwigQuery};
