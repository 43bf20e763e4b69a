//! Recursive-descent parser for the XPath fragment.
//!
//! Grammar (whitespace permitted around tokens):
//!
//! ```text
//! path      := step+
//! step      := ("/" | "//") name predicate*
//! predicate := "[" relpath ( "=" string )? "]"
//! relpath   := ( ".//" | "" ) name predicate* ( "/" name predicate* )*
//! string    := '"' chars '"' | "'" chars "'"
//! name      := NCName (optionally prefixed `@` for materialized attributes)
//! ```
//!
//! `predicates` and `relpath` recurse into each other, and every later
//! pass over the AST (normalize, decompose, twig conversion, display)
//! recurses along its steps. So the parser bounds the query tree's depth
//! at [`DEFAULT_MAX_QUERY_DEPTH`] and refuses a deeper query with an
//! [`XPathError`] before it descends any further.

use std::fmt;

use crate::ast::{Axis, PathExpr, Predicate, Step};

/// Deepest query tree [`parse_path`] accepts, counted in steps along any
/// chain: spine steps plus the steps of nested predicates. Real twig
/// queries are a few steps deep; the bound exists so that one query
/// string cannot overflow the stack of the thread that parses or
/// evaluates it.
pub const DEFAULT_MAX_QUERY_DEPTH: usize = 256;

/// A parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    /// Byte offset in the query string.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XPathError {}

struct P<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, m: impl Into<String>) -> Result<T, XPathError> {
        Err(XPathError {
            offset: self.pos,
            message: m.into(),
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn name(&mut self) -> Result<String, XPathError> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'@') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') || c >= 0x80 {
                // `.` only mid-name; a lone `.` is the self step handled by
                // the caller.
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start || (self.pos == start + 1 && self.s[start] == b'@') {
            return self.err("expected a name");
        }
        if self.s[start] == b'*' {
            return self.err("wildcard NameTests are not in the twig fragment");
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn string_literal(&mut self) -> Result<String, XPathError> {
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected a string literal"),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let v = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
                self.pos += 1;
                return Ok(v);
            }
            self.pos += 1;
        }
        self.err("unterminated string literal")
    }

    /// Parses predicates attached to the step just read, which sits at
    /// `depth` in the query tree (1 = the first spine step). A step past
    /// the bound is refused here, before anything below it is parsed.
    fn predicates(&mut self, depth: usize) -> Result<Vec<Predicate>, XPathError> {
        if depth > DEFAULT_MAX_QUERY_DEPTH {
            return self.err(format!(
                "query nests deeper than {DEFAULT_MAX_QUERY_DEPTH} steps"
            ));
        }
        let mut preds = Vec::new();
        loop {
            self.skip_ws();
            if !self.eat(b'[') {
                return Ok(preds);
            }
            let path = self.rel_path(depth)?;
            self.skip_ws();
            let value = if self.eat(b'=') {
                Some(self.string_literal()?)
            } else {
                None
            };
            self.skip_ws();
            if !self.eat(b']') {
                return self.err("expected `]`");
            }
            preds.push(Predicate { path, value });
        }
    }

    /// Relative path inside a predicate: `a/b`, `.//a/b`. `depth` is the
    /// depth of the step the predicate is attached to.
    fn rel_path(&mut self, mut depth: usize) -> Result<PathExpr, XPathError> {
        self.skip_ws();
        let mut steps = Vec::new();
        // Optional leading `.//` (or plain `.` which we reject as a bare
        // self step — the twig fragment has no use for it).
        let first_axis = if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.eat(b'/') && self.eat(b'/') {
                Axis::Descendant
            } else {
                return self.err("expected `.//` in predicate path");
            }
        } else {
            Axis::Child
        };
        let name = self.name()?;
        depth += 1;
        let predicates = self.predicates(depth)?;
        steps.push(Step {
            axis: first_axis,
            name,
            predicates,
        });
        loop {
            self.skip_ws();
            if self.peek() == Some(b'/') {
                self.pos += 1;
                let axis = if self.eat(b'/') {
                    Axis::Descendant
                } else {
                    Axis::Child
                };
                let name = self.name()?;
                depth += 1;
                let predicates = self.predicates(depth)?;
                steps.push(Step {
                    axis,
                    name,
                    predicates,
                });
            } else {
                return Ok(PathExpr { steps });
            }
        }
    }

    fn absolute_path(&mut self) -> Result<PathExpr, XPathError> {
        let mut steps = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() != Some(b'/') {
                if steps.is_empty() {
                    return self.err("a path must start with `/` or `//`");
                }
                return Ok(PathExpr { steps });
            }
            self.pos += 1;
            let axis = if self.eat(b'/') {
                Axis::Descendant
            } else {
                Axis::Child
            };
            let name = self.name()?;
            let predicates = self.predicates(steps.len() + 1)?;
            steps.push(Step {
                axis,
                name,
                predicates,
            });
        }
    }
}

/// Parses an absolute path expression like
/// `//article[author]/ee` or `//inproceedings[year="1998"][title]/author`.
pub fn parse_path(input: &str) -> Result<PathExpr, XPathError> {
    let mut p = P {
        s: input.as_bytes(),
        pos: 0,
    };
    let path = p.absolute_path()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return p.err("trailing input after path expression");
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_paths() {
        let q = parse_path("//a/b/c").unwrap();
        assert_eq!(q.steps.len(), 3);
        assert_eq!(q.steps[0].axis, Axis::Descendant);
        assert_eq!(q.steps[1].axis, Axis::Child);
        assert_eq!(q.steps[2].name, "c");
        assert_eq!(q.to_string(), "//a/b/c");
    }

    #[test]
    fn paper_queries_parse_and_print() {
        // Every representative query listed in Section 6 must round-trip.
        for q in [
            "/article/epilog[acknoledgements]/references/a_id",
            "/article/prolog[keywords]/authors/author/contact[phone]",
            "/article[epilog]/prolog/authors/author",
            "//proceedings[booktitle]/title[sup][i]",
            "//article[number]/author",
            "//inproceedings[url]/title",
            "//category/description[parlist]/parlist/listitem/text",
            "//closed_auction/annotation/description/text",
            "//open_auction[seller]/annotation/description/text",
            "//EMPTY/S/NP[PP]/NP",
            "//S[VP]/NP/NP/PP/NP",
            "//EMPTY/S[VP]/NP",
            "//item[name]/mailbox/mail[to]/text[bold]/emph/bold",
            "//item[payment][quantity][shipping][mailbox/mail/text]/description/parlist",
            "//inproceedings[url]/title[sub][i]",
        ] {
            let parsed = parse_path(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            assert_eq!(parsed.to_string(), q, "round-trip failed");
        }
    }

    #[test]
    fn value_predicates() {
        let q = parse_path(r#"//proceedings[publisher="Springer"][title]"#).unwrap();
        assert_eq!(q.steps[0].predicates.len(), 2);
        assert_eq!(q.steps[0].predicates[0].value.as_deref(), Some("Springer"));
        assert!(q.has_value_predicates());
        assert_eq!(
            q.to_string(),
            r#"//proceedings[publisher="Springer"][title]"#
        );
    }

    #[test]
    fn nested_predicates_and_descendant_predicates() {
        let q = parse_path("//open_auction[.//bidder[name][email]]/price").unwrap();
        let pred = &q.steps[0].predicates[0];
        assert_eq!(pred.path.steps[0].axis, Axis::Descendant);
        assert_eq!(pred.path.steps[0].predicates.len(), 2);
        assert!(!q.is_twig());
        assert_eq!(
            q.to_string(),
            "//open_auction[.//bidder[name][email]]/price"
        );
    }

    #[test]
    fn attribute_names() {
        let q = parse_path("//item[@id]/name").unwrap();
        assert_eq!(q.steps[0].predicates[0].path.steps[0].name, "@id");
    }

    #[test]
    fn whitespace_tolerated() {
        let q = parse_path(r#" //a [ b = "x" ] / c "#).unwrap();
        assert_eq!(q.steps.len(), 2);
        assert_eq!(q.steps[0].predicates[0].value.as_deref(), Some("x"));
    }

    #[test]
    fn errors() {
        assert!(parse_path("").is_err());
        assert!(parse_path("a/b").is_err());
        assert!(parse_path("//a[").is_err());
        assert!(parse_path("//a[b").is_err());
        assert!(parse_path("//a[b=]").is_err());
        assert!(parse_path(r#"//a[b="x]"#).is_err());
        assert!(parse_path("//a]").is_err());
        assert!(parse_path("///a").is_err());
        assert!(parse_path("//*").is_err());
        assert!(!too_deep(&parse_path("//a[").unwrap_err()));
    }

    fn too_deep(e: &XPathError) -> bool {
        e.message.starts_with("query nests deeper than")
    }

    /// `//a` then `n - 1` levels of `[a` … `]`: a chain of `n` steps.
    fn nested(n: usize) -> String {
        format!("//a{}{}", "[a".repeat(n - 1), "]".repeat(n - 1))
    }

    #[test]
    fn depth_bound_counts_spine_and_predicate_steps() {
        let max = DEFAULT_MAX_QUERY_DEPTH;
        assert!(parse_path(&nested(max)).is_ok());
        assert!(parse_path(&"/a".repeat(max)).is_ok());
        // Spine steps and predicate nesting add up along one chain.
        let mixed = format!("{}{}", "/a".repeat(max / 2), &nested(max - max / 2)[1..]);
        assert!(parse_path(&mixed).is_ok());
        for q in [
            nested(max + 1),
            "/a".repeat(max + 1),
            format!(
                "{}{}",
                "/a".repeat(max / 2),
                &nested(max - max / 2 + 1)[1..]
            ),
            format!("//a[{}]", vec!["b"; max].join("/")),
        ] {
            assert!(too_deep(&parse_path(&q).unwrap_err()), "{q}");
        }
        // Width is not depth: many sibling predicates stay one level deep.
        assert!(parse_path(&format!("//a{}", "[b]".repeat(4 * max))).is_ok());
    }

    #[test]
    fn over_deep_query_is_refused_before_the_stack_is() {
        // Far past any stack: a 36 KB nested query fails fast instead.
        let e = parse_path(&nested(6000)).unwrap_err();
        assert!(too_deep(&e), "{e}");
        assert!(e.offset < 4 * DEFAULT_MAX_QUERY_DEPTH, "{e}");
    }
}
