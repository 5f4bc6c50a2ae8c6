//! A small s-expression reader used to verify generated EDIF.
//!
//! JHDL's netlister API is open so users can build importers for their
//! own flows; this reader plays that role in tests and in the applet's
//! netlist-window previewer.

use std::fmt;

use crate::error::NetlistError;

/// Deepest list nesting [`SExpr::parse`] accepts. Generated EDIF nests
/// about a dozen levels; the cap keeps hostile input from exhausting
/// the stack of the recursive parser (and of the tree's drop).
const MAX_DEPTH: usize = 256;

/// One node of an s-expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SExpr {
    /// A bare token.
    Atom(String),
    /// A quoted string literal.
    Str(String),
    /// A parenthesized list.
    List(Vec<SExpr>),
}

impl SExpr {
    /// Parses a complete s-expression document (one top-level form).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ParseEdif`] on malformed input: unmatched
    /// parentheses, unterminated strings, trailing garbage, or lists
    /// nested more than 256 deep.
    pub fn parse(text: &str) -> Result<SExpr, NetlistError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let expr = parser.parse_expr()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing input after top-level form"));
        }
        Ok(expr)
    }

    /// The head symbol of a list, e.g. `cell` for `(cell foo ...)`.
    #[must_use]
    pub fn head(&self) -> Option<&str> {
        match self {
            SExpr::List(items) => match items.first() {
                Some(SExpr::Atom(a)) => Some(a),
                _ => None,
            },
            _ => None,
        }
    }

    /// The list elements (empty for atoms).
    #[must_use]
    pub fn items(&self) -> &[SExpr] {
        match self {
            SExpr::List(items) => items,
            _ => &[],
        }
    }

    /// The atom or string payload.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            SExpr::Atom(s) | SExpr::Str(s) => Some(s),
            SExpr::List(_) => None,
        }
    }

    /// Recursively collects every list whose head symbol is `head`.
    #[must_use]
    pub fn find_all(&self, head: &str) -> Vec<&SExpr> {
        let mut out = Vec::new();
        self.walk(&mut |node| {
            if node.head() == Some(head) {
                out.push(node);
            }
        });
        out
    }

    /// The first direct child list with the given head symbol.
    #[must_use]
    pub fn child(&self, head: &str) -> Option<&SExpr> {
        self.items().iter().find(|n| n.head() == Some(head))
    }

    /// The *name* of a named EDIF construct: either the bare atom after
    /// the head, or the first element of a `(rename legal "orig")`.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        match self.items().get(1)? {
            SExpr::Atom(a) => Some(a),
            SExpr::List(items) => match (items.first(), items.get(1)) {
                (Some(SExpr::Atom(h)), Some(SExpr::Atom(n))) if h == "rename" => Some(n),
                _ => None,
            },
            SExpr::Str(_) => None,
        }
    }

    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a SExpr)) {
        f(self);
        if let SExpr::List(items) = self {
            for item in items {
                item.walk(f);
            }
        }
    }
}

impl fmt::Display for SExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SExpr::Atom(a) => f.write_str(a),
            SExpr::Str(s) => write!(f, "\"{s}\""),
            SExpr::List(items) => {
                f.write_str("(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(")")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Lists currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> NetlistError {
        NetlistError::ParseEdif {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn parse_expr(&mut self) -> Result<SExpr, NetlistError> {
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'(') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error("lists nested too deeply"));
                }
                self.depth += 1;
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        None => return Err(self.error("unclosed list")),
                        Some(b')') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(SExpr::List(items));
                        }
                        Some(_) => items.push(self.parse_expr()?),
                    }
                }
            }
            Some(b')') => Err(self.error("unexpected closing parenthesis")),
            Some(b'"') => {
                self.pos += 1;
                let start = self.pos;
                while let Some(&b) = self.bytes.get(self.pos) {
                    if b == b'"' {
                        let s = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.error("invalid UTF-8 in string"))?
                            .to_owned();
                        self.pos += 1;
                        return Ok(SExpr::Str(s));
                    }
                    self.pos += 1;
                }
                Err(self.error("unterminated string literal"))
            }
            Some(_) => {
                let start = self.pos;
                while let Some(&b) = self.bytes.get(self.pos) {
                    if b.is_ascii_whitespace() || b == b'(' || b == b')' || b == b'"' {
                        break;
                    }
                    self.pos += 1;
                }
                let atom = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in atom"))?
                    .to_owned();
                Ok(SExpr::Atom(atom))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_capped() {
        let at_cap = format!("{}{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert!(SExpr::parse(&at_cap).is_ok());
        let hostile = "(".repeat(200_000);
        let err = SExpr::parse(&hostile).expect_err("too deep");
        assert!(
            matches!(err, NetlistError::ParseEdif { offset, .. } if offset == MAX_DEPTH),
            "{err}"
        );
    }

    #[test]
    fn parses_nested_lists() {
        let e = SExpr::parse("(a (b c) \"d e\")").expect("parse");
        assert_eq!(e.head(), Some("a"));
        assert_eq!(e.items().len(), 3);
        assert_eq!(e.items()[2].as_str(), Some("d e"));
    }

    #[test]
    fn round_trip_display() {
        let text = "(edif top (edifVersion 2 0 0))";
        let e = SExpr::parse(text).expect("parse");
        assert_eq!(e.to_string(), text);
    }

    #[test]
    fn find_all_recurses() {
        let e =
            SExpr::parse("(a (cell x) (b (cell y) (cell (rename z_1 \"z[1]\"))))").expect("parse");
        let cells = e.find_all("cell");
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[2].name(), Some("z_1"));
        assert_eq!(cells[0].name(), Some("x"));
    }

    #[test]
    fn errors_are_located() {
        assert!(matches!(
            SExpr::parse("(a (b)"),
            Err(NetlistError::ParseEdif { .. })
        ));
        assert!(matches!(
            SExpr::parse("(a) junk"),
            Err(NetlistError::ParseEdif { .. })
        ));
        assert!(matches!(
            SExpr::parse("\"unterminated"),
            Err(NetlistError::ParseEdif { .. })
        ));
        assert!(matches!(
            SExpr::parse(")"),
            Err(NetlistError::ParseEdif { .. })
        ));
    }
}
