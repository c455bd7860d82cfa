//! RDF terms: IRIs, literals and blank nodes.

use std::fmt;

/// An RDF literal: a lexical form optionally qualified by a language tag or
/// a datatype IRI.
///
/// Following the RDF 1.0 abstract syntax used by the paper, a literal is
/// *plain* (no tag, no datatype), *language-tagged* (`"chat"@fr`) or *typed*
/// (`"1"^^xsd:integer`). The three kinds are distinct terms even when their
/// lexical forms coincide.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Box<str>,
    kind: LiteralKind,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum LiteralKind {
    Plain,
    LanguageTagged(Box<str>),
    Typed(Box<str>),
}

impl Literal {
    /// Creates a plain literal such as `"hello"`.
    pub fn plain(lexical: impl Into<Box<str>>) -> Self {
        Literal {
            lexical: lexical.into(),
            kind: LiteralKind::Plain,
        }
    }

    /// Creates a language-tagged literal such as `"chat"@fr`.
    ///
    /// Language tags are case-insensitive per BCP 47; they are normalised to
    /// lowercase so that `"x"@EN` and `"x"@en` denote the same term.
    pub fn lang(lexical: impl Into<Box<str>>, tag: &str) -> Self {
        Literal {
            lexical: lexical.into(),
            kind: LiteralKind::LanguageTagged(tag.to_ascii_lowercase().into()),
        }
    }

    /// Creates a typed literal such as `"1"^^<http://www.w3.org/2001/XMLSchema#integer>`.
    pub fn typed(lexical: impl Into<Box<str>>, datatype: impl Into<Box<str>>) -> Self {
        Literal {
            lexical: lexical.into(),
            kind: LiteralKind::Typed(datatype.into()),
        }
    }

    /// The lexical form, without quotes or escapes.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The language tag, if this is a language-tagged literal.
    pub fn language(&self) -> Option<&str> {
        match &self.kind {
            LiteralKind::LanguageTagged(t) => Some(t),
            _ => None,
        }
    }

    /// The datatype IRI, if this is a typed literal.
    pub fn datatype(&self) -> Option<&str> {
        match &self.kind {
            LiteralKind::Typed(d) => Some(d),
            _ => None,
        }
    }
}

/// An RDF term: the subject, property or object of a triple.
///
/// Terms order as `Iri < Literal < BlankNode` (then lexicographically),
/// giving all containers of terms a deterministic order, which the test
/// suite and the bench harness rely on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A uniform/international resource identifier, stored in full.
    Iri(Box<str>),
    /// A literal constant.
    Literal(Literal),
    /// A blank node (an unknown IRI or literal), identified by a local label.
    BlankNode(Box<str>),
}

impl Term {
    /// Creates an IRI term.
    pub fn iri(iri: impl Into<Box<str>>) -> Self {
        Term::Iri(iri.into())
    }

    /// Creates a plain literal term.
    pub fn literal(lexical: impl Into<Box<str>>) -> Self {
        Term::Literal(Literal::plain(lexical))
    }

    /// Creates a blank node term with the given label (no `_:` prefix).
    pub fn blank(label: impl Into<Box<str>>) -> Self {
        Term::BlankNode(label.into())
    }

    /// Returns the IRI string if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    /// Returns the literal if this term is a literal.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// Returns the blank node label if this term is a blank node.
    pub fn as_blank(&self) -> Option<&str> {
        match self {
            Term::BlankNode(b) => Some(b),
            _ => None,
        }
    }

    /// True for IRI terms.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True for literal terms.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// True for blank node terms.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::BlankNode(_))
    }
}

/// Escapes a string for inclusion in an N-Triples quoted literal,
/// copying runs that need no escape as one slice.
fn escape_literal(s: &str, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'\\' => "\\\\",
            b'"' => "\\\"",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            _ => continue,
        };
        out.write_str(&s[start..i])?;
        out.write_str(escape)?;
        start = i + 1;
    }
    out.write_str(&s[start..])
}

impl fmt::Display for Literal {
    /// Formats the literal in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        escape_literal(&self.lexical, f)?;
        f.write_str("\"")?;
        match &self.kind {
            LiteralKind::Plain => Ok(()),
            LiteralKind::LanguageTagged(t) => {
                f.write_str("@")?;
                f.write_str(t)
            }
            LiteralKind::Typed(d) => {
                f.write_str("^^<")?;
                f.write_str(d)?;
                f.write_str(">")
            }
        }
    }
}

impl fmt::Display for Term {
    /// Formats the term in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => {
                f.write_str("<")?;
                f.write_str(i)?;
                f.write_str(">")
            }
            Term::Literal(l) => fmt::Display::fmt(l, f),
            Term::BlankNode(b) => {
                f.write_str("_:")?;
                f.write_str(b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_kinds_are_distinct_terms() {
        let plain = Term::Literal(Literal::plain("1"));
        let typed = Term::Literal(Literal::typed(
            "1",
            "http://www.w3.org/2001/XMLSchema#integer",
        ));
        let tagged = Term::Literal(Literal::lang("1", "en"));
        assert_ne!(plain, typed);
        assert_ne!(plain, tagged);
        assert_ne!(typed, tagged);
    }

    #[test]
    fn language_tags_normalise_to_lowercase() {
        assert_eq!(Literal::lang("x", "EN-GB"), Literal::lang("x", "en-gb"));
        assert_eq!(Literal::lang("x", "EN").language(), Some("en"));
    }

    #[test]
    fn accessors() {
        let i = Term::iri("http://a");
        assert_eq!(i.as_iri(), Some("http://a"));
        assert!(i.is_iri() && !i.is_literal() && !i.is_blank());

        let b = Term::blank("b0");
        assert_eq!(b.as_blank(), Some("b0"));
        assert!(b.is_blank());

        let l = Term::literal("v");
        assert_eq!(l.as_literal().unwrap().lexical(), "v");
        assert_eq!(l.as_literal().unwrap().language(), None);
        assert_eq!(l.as_literal().unwrap().datatype(), None);
    }

    #[test]
    fn display_ntriples_forms() {
        assert_eq!(Term::iri("http://a#x").to_string(), "<http://a#x>");
        assert_eq!(Term::blank("n1").to_string(), "_:n1");
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
        assert_eq!(
            Term::Literal(Literal::lang("hi", "en")).to_string(),
            "\"hi\"@en"
        );
        assert_eq!(
            Term::Literal(Literal::typed("1", "http://t")).to_string(),
            "\"1\"^^<http://t>"
        );
    }

    #[test]
    fn display_escapes_specials() {
        let l = Term::literal("a\"b\\c\nd\te\rf");
        assert_eq!(l.to_string(), "\"a\\\"b\\\\c\\nd\\te\\rf\"");
        // Escapes at either end, between multi-byte characters.
        let l = Term::literal("\"é\\𝄞\n");
        assert_eq!(l.to_string(), "\"\\\"é\\\\𝄞\\n\"");
    }

    #[test]
    fn term_ordering_is_iri_literal_blank() {
        let mut v = [Term::blank("z"), Term::literal("a"), Term::iri("m")];
        v.sort();
        assert!(v[0].is_iri());
        assert!(v[1].is_literal());
        assert!(v[2].is_blank());
    }
}
