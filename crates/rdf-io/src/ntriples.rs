//! N-Triples reader and writer.
//!
//! One triple per line, terms in full: `<iri>`, `_:label`, or a quoted
//! literal with optional `@lang` / `^^<datatype>`. Comment lines start with
//! `#`. This is the format the paper's "well-formed RDF triples" (§II-A)
//! are exchanged in between RDF endpoints.

use crate::error::ParseError;
use rdf_model::{Dictionary, Graph, Literal, Term, TermId, Triple};
use std::borrow::Cow;

/// A term as it stands on the line. IRIs and blank labels borrow from the
/// line, so interning an IRI the dictionary already holds copies nothing;
/// an IRI is copied only when it carries a `\u`/`\U` escape.
enum Raw<'a> {
    Iri(Cow<'a, str>),
    Blank(&'a str),
    Literal(Literal),
}

impl Raw<'_> {
    fn into_term(self) -> Term {
        match self {
            Raw::Iri(iri) => Term::Iri(iri.into()),
            Raw::Blank(label) => Term::blank(label),
            Raw::Literal(lit) => Term::Literal(lit),
        }
    }

    /// Interns the term; an IRI the dictionary already holds allocates
    /// nothing.
    fn encode(self, dict: &mut Dictionary) -> TermId {
        match self {
            Raw::Iri(iri) => dict.encode_iri(&iri),
            other => dict.encode(&other.into_term()),
        }
    }
}

/// A cursor over one line of N-Triples input.
struct Cursor<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.line, msg)
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start_matches([' ', '\t']);
    }

    fn peek(&self) -> Option<char> {
        self.rest.chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.rest.chars().next()?;
        self.rest = &self.rest[c.len_utf8()..];
        Some(c)
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}'")))
        }
    }

    /// Splits the rest at the first byte `is_stop` accepts, an ASCII one,
    /// consuming the stop byte. Returns the text before it and the stop,
    /// or `None` (consuming nothing) when no stop byte follows.
    fn scan_to(&mut self, is_stop: impl Fn(u8) -> bool) -> Option<(&'a str, u8)> {
        let at = self.rest.bytes().position(is_stop)?;
        let (chunk, rest) = self.rest.split_at(at);
        let stop = rest.as_bytes()[0];
        debug_assert!(stop.is_ascii(), "a stop byte is ASCII");
        // An ASCII stop is one byte, so `1` is a char boundary.
        self.rest = &rest[1..];
        Some((chunk, stop))
    }

    /// Parses the body of an IRIREF after the opening `<`.
    fn iri_body(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.delimited(
            |b| matches!(b, b'>' | b'\\' | b' ' | b'<' | b'"'),
            b'>',
            "IRI",
            Self::unicode_escape,
        )
    }

    /// Parses a body up to its `close` byte: scanned to each stop byte
    /// and borrowed from the line, copied only once an escape (`\`,
    /// decoded by `escape`) appears. Any other stop byte is not allowed in
    /// the body, which is named `what` in errors.
    fn delimited(
        &mut self,
        is_stop: impl Fn(u8) -> bool,
        close: u8,
        what: &str,
        escape: fn(&mut Self) -> Result<char, ParseError>,
    ) -> Result<Cow<'a, str>, ParseError> {
        let mut owned: Option<String> = None;
        loop {
            let Some((chunk, stop)) = self.scan_to(&is_stop) else {
                return Err(self.err(format!("unterminated {what}")));
            };
            if stop == close {
                return Ok(match owned {
                    None => Cow::Borrowed(chunk),
                    Some(mut out) => {
                        out.push_str(chunk);
                        Cow::Owned(out)
                    }
                });
            }
            if stop != b'\\' {
                let c = char::from(stop);
                return Err(self.err(format!("character '{c}' not allowed in {what}")));
            }
            let out = owned.get_or_insert_with(String::new);
            out.push_str(chunk);
            out.push(escape(self)?);
        }
    }

    /// Parses `\uXXXX` or `\UXXXXXXXX` after the backslash.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let (kind, n) = match self.bump() {
            Some('u') => ('u', 4),
            Some('U') => ('U', 8),
            other => return Err(self.err(format!("invalid IRI escape {other:?}"))),
        };
        self.hex_char(kind, n)
    }

    fn hex_char(&mut self, kind: char, n: usize) -> Result<char, ParseError> {
        if self.rest.len() < n || !self.rest.is_char_boundary(n) {
            return Err(self.err(format!("truncated \\{kind} escape")));
        }
        let (hex, rest) = self.rest.split_at(n);
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| self.err(format!("invalid hex in \\{kind} escape: {hex:?}")))?;
        self.rest = rest;
        char::from_u32(code)
            .ok_or_else(|| self.err(format!("\\{kind} escape U+{code:X} is not a scalar value")))
    }

    /// Parses a blank node label after `_:`.
    fn blank_label(&mut self) -> Result<&'a str, ParseError> {
        let end = self
            .rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-' || c == '.'))
            .unwrap_or(self.rest.len());
        // A trailing '.' terminates the statement, not the label.
        let label = self.rest[..end].trim_end_matches('.');
        if label.is_empty() {
            return Err(self.err("empty blank node label"));
        }
        self.rest = &self.rest[label.len()..];
        Ok(label)
    }

    /// Parses the body of a quoted string after the opening `"`.
    fn string_body(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.delimited(
            |b| matches!(b, b'"' | b'\\'),
            b'"',
            "string literal",
            Self::string_escape,
        )
    }

    /// Parses a string escape after the backslash.
    fn string_escape(&mut self) -> Result<char, ParseError> {
        Ok(match self.bump() {
            Some('t') => '\t',
            Some('b') => '\u{8}',
            Some('n') => '\n',
            Some('r') => '\r',
            Some('f') => '\u{c}',
            Some('"') => '"',
            Some('\'') => '\'',
            Some('\\') => '\\',
            Some('u') => self.hex_char('u', 4)?,
            Some('U') => self.hex_char('U', 8)?,
            other => return Err(self.err(format!("invalid string escape {other:?}"))),
        })
    }

    /// Parses a full term at the cursor.
    fn term(&mut self) -> Result<Raw<'a>, ParseError> {
        self.skip_ws();
        match self.rest.as_bytes().first() {
            Some(b'<') => {
                self.rest = &self.rest[1..];
                Ok(Raw::Iri(self.iri_body()?))
            }
            Some(b'_') => {
                self.rest = &self.rest[1..];
                self.expect(':')?;
                Ok(Raw::Blank(self.blank_label()?))
            }
            Some(b'"') => {
                self.rest = &self.rest[1..];
                let lexical = self.string_body()?;
                match self.rest.as_bytes().first() {
                    Some(b'@') => {
                        self.rest = &self.rest[1..];
                        let end = self
                            .rest
                            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                            .unwrap_or(self.rest.len());
                        if end == 0 {
                            return Err(self.err("empty language tag"));
                        }
                        let tag = &self.rest[..end];
                        self.rest = &self.rest[end..];
                        Ok(Raw::Literal(Literal::lang(lexical, tag)))
                    }
                    Some(b'^') => {
                        self.rest = &self.rest[1..];
                        self.expect('^')?;
                        self.skip_ws();
                        self.expect('<')?;
                        let dt = self.iri_body()?;
                        Ok(Raw::Literal(Literal::typed(lexical, dt)))
                    }
                    _ => Ok(Raw::Literal(Literal::plain(lexical))),
                }
            }
            _ => Err(self.err(format!("expected a term, found {:?}", self.peek()))),
        }
    }

    /// Parses one statement line: `None` for a blank or comment line.
    fn statement(mut self) -> Result<Option<[Raw<'a>; 3]>, ParseError> {
        self.skip_ws();
        if self.rest.is_empty() || self.rest.starts_with('#') {
            return Ok(None);
        }
        let s = self.term()?;
        if matches!(s, Raw::Literal(_)) {
            return Err(self.err("literal not allowed in subject position"));
        }
        self.skip_ws();
        let p = self.term()?;
        if !matches!(p, Raw::Iri(_)) {
            return Err(self.err("property must be an IRI"));
        }
        let o = self.term()?;
        self.skip_ws();
        self.expect('.')?;
        self.skip_ws();
        if !(self.rest.is_empty() || self.rest.starts_with('#')) {
            return Err(self.err("trailing content after '.'"));
        }
        Ok(Some([s, p, o]))
    }
}

/// Parses one N-Triples line, numbered `line` in error messages: its three
/// terms, or `None` for a blank or comment line. This is the statement
/// parser [`parse_ntriples`] runs on every line of a document.
pub fn parse_statement(text: &str, line: usize) -> Result<Option<[Term; 3]>, ParseError> {
    let cursor = Cursor { rest: text, line };
    Ok(cursor.statement()?.map(|terms| terms.map(Raw::into_term)))
}

/// Parses an N-Triples document, interning terms into `dict` and inserting
/// the triples into `graph`. Returns the number of triples parsed (including
/// any already present in `graph`).
pub fn parse_ntriples(
    input: &str,
    dict: &mut Dictionary,
    graph: &mut Graph,
) -> Result<usize, ParseError> {
    let mut parsed = 0;
    for (idx, text) in input.lines().enumerate() {
        let cursor = Cursor {
            rest: text,
            line: idx + 1,
        };
        if let Some([s, p, o]) = cursor.statement()? {
            graph.insert(Triple::new(s.encode(dict), p.encode(dict), o.encode(dict)));
            parsed += 1;
        }
    }
    Ok(parsed)
}

/// Serialises `triples` as N-Triples, in iteration order. A `&Graph` is
/// an iterator of its triples.
pub fn write_ntriples(triples: impl IntoIterator<Item = Triple>, dict: &Dictionary) -> String {
    let mut out = String::new();
    for t in triples {
        push_line(&mut out, &t, dict);
    }
    out
}

/// Serialises `triples` as N-Triples with lines sorted lexicographically —
/// deterministic output for golden tests and diffing, whatever the
/// iteration order.
pub fn write_ntriples_sorted(
    triples: impl IntoIterator<Item = Triple>,
    dict: &Dictionary,
) -> String {
    let mut lines: Vec<String> = triples
        .into_iter()
        .map(|t| {
            let mut s = String::new();
            push_line(&mut s, &t, dict);
            s
        })
        .collect();
    lines.sort();
    lines.concat()
}

fn push_line(out: &mut String, t: &Triple, dict: &Dictionary) {
    use std::fmt::Write as _;
    let term = |id| dict.decode(id).expect("triple references unknown term id");
    let _ = writeln!(out, "{} {} {} .", term(t.s), term(t.p), term(t.o));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Pattern;

    fn parse(input: &str) -> Result<(Dictionary, Graph, usize), ParseError> {
        let mut d = Dictionary::new();
        let mut g = Graph::new();
        let n = parse_ntriples(input, &mut d, &mut g)?;
        Ok((d, g, n))
    }

    #[test]
    fn parses_basic_triples() {
        let (d, g, n) = parse(
            "<http://a> <http://p> <http://b> .\n\
             <http://a> <http://p> \"lit\" .\n",
        )
        .unwrap();
        assert_eq!(n, 2);
        assert_eq!(g.len(), 2);
        let a = d.get_iri_id("http://a").unwrap();
        assert_eq!(g.count(&Pattern::new(Some(a), None, None)), 2);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let (_, g, n) =
            parse("# a comment\n\n   \n<http://a> <http://p> <http://b> . # trailing\n").unwrap();
        assert_eq!(n, 1);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn parses_blank_nodes() {
        let (d, g, _) = parse("_:x <http://p> _:y .\n").unwrap();
        let x = d.get_id(&Term::blank("x")).unwrap();
        let y = d.get_id(&Term::blank("y")).unwrap();
        assert_eq!(g.matches(&Pattern::new(Some(x), None, Some(y))).len(), 1);
    }

    #[test]
    fn parses_literal_forms() {
        let (d, _, _) = parse(
            "<http://a> <http://p> \"plain\" .\n\
             <http://a> <http://p> \"tagged\"@en-GB .\n\
             <http://a> <http://p> \"7\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
        )
        .unwrap();
        assert!(d.get_id(&Term::Literal(Literal::plain("plain"))).is_some());
        assert!(d
            .get_id(&Term::Literal(Literal::lang("tagged", "en-gb")))
            .is_some());
        assert!(d
            .get_id(&Term::Literal(Literal::typed(
                "7",
                "http://www.w3.org/2001/XMLSchema#integer"
            )))
            .is_some());
    }

    #[test]
    fn parses_string_escapes() {
        let (d, _, _) = parse(r#"<http://a> <http://p> "a\"b\\c\ndA\U0001F600" ."#).unwrap();
        assert!(d
            .get_id(&Term::Literal(Literal::plain("a\"b\\c\ndA\u{1F600}")))
            .is_some());
    }

    #[test]
    fn parses_iri_unicode_escapes() {
        let (d, _, _) = parse(r#"<http://a/é> <http://p> <http://b> ."#).unwrap();
        assert!(d.get_iri_id("http://a/é").is_some());
    }

    #[test]
    fn rejects_malformed_input() {
        let cases = [
            ("<http://a> <http://p> <http://b>", "missing dot"),
            ("<http://a> <http://p> .", "missing object"),
            ("\"lit\" <http://p> <http://b> .", "literal subject"),
            ("<http://a> _:p <http://b> .", "blank predicate"),
            ("<http://a> \"p\" <http://b> .", "literal predicate"),
            (
                "<http://a> <http://p> \"unterminated .",
                "unterminated string",
            ),
            ("<http://a> <http://p> <http://b> . extra", "trailing junk"),
            ("<http://a <http://p> <http://b> .", "bad iri"),
            (r#"<http://a> <http://p> "x"@ ."#, "empty lang tag"),
            (r#"<http://a> <http://p> "x"^^bad ."#, "bad datatype"),
        ];
        for (input, why) in cases {
            assert!(parse(input).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn error_reports_line_number() {
        let err = parse("<http://a> <http://p> <http://b> .\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn duplicate_triples_counted_but_stored_once() {
        let (_, g, n) =
            parse("<http://a> <http://p> <http://b> .\n<http://a> <http://p> <http://b> .\n")
                .unwrap();
        assert_eq!(n, 2);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn round_trip_write_then_parse() {
        let src = "<http://a> <http://p> <http://b> .\n\
                   _:n0 <http://p> \"l1\"@en .\n\
                   <http://a> <http://q> \"esc\\\"aped\\n\" .\n\
                   <http://b> <http://q> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
        let (d1, g1, _) = parse(src).unwrap();
        let out = write_ntriples_sorted(&g1, &d1);
        let (d2, g2, _) = parse(&out).unwrap();
        // Same triple set modulo re-encoding: compare decoded sorted dumps.
        assert_eq!(
            write_ntriples_sorted(&g1, &d1),
            write_ntriples_sorted(&g2, &d2)
        );
        assert_eq!(g1.len(), g2.len());
    }

    #[test]
    fn sorted_writer_is_deterministic() {
        let (d, g, _) =
            parse("<http://c> <http://p> <http://d> .\n<http://a> <http://p> <http://b> .\n")
                .unwrap();
        let out = write_ntriples_sorted(&g, &d);
        let lines: Vec<_> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0] < lines[1]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_term() -> impl Strategy<Value = Term> {
            prop_oneof![
                "[a-z0-9:/#._-]{1,24}".prop_map(Term::iri),
                "\\PC{0,16}".prop_map(Term::literal),
                ("\\PC{0,12}", "[a-z]{1,4}").prop_map(|(l, t)| Term::Literal(Literal::lang(l, &t))),
                ("\\PC{0,12}", "[a-z:/#]{1,16}")
                    .prop_map(|(l, dt)| Term::Literal(Literal::typed(l, dt))),
                "[A-Za-z][A-Za-z0-9_]{0,8}".prop_map(Term::blank),
            ]
        }

        fn arb_subject() -> impl Strategy<Value = Term> {
            prop_oneof![
                "[a-z0-9:/#._-]{1,24}".prop_map(Term::iri),
                "[A-Za-z][A-Za-z0-9_]{0,8}".prop_map(Term::blank),
            ]
        }

        proptest! {
            /// The parser never panics, whatever bytes arrive.
            #[test]
            fn parser_total_on_arbitrary_input(input in "\\PC{0,200}") {
                let mut d = Dictionary::new();
                let mut g = Graph::new();
                let _ = parse_ntriples(&input, &mut d, &mut g);
            }

            /// …including inputs that start like valid triples.
            #[test]
            fn parser_total_on_triple_like_input(
                prefix in "<[a-z:/]{0,10}",
                middle in "\\PC{0,30}",
            ) {
                let mut d = Dictionary::new();
                let mut g = Graph::new();
                let _ = parse_ntriples(&format!("{prefix}> {middle} ."), &mut d, &mut g);
            }

            /// serialise ∘ parse = identity on the triple set.
            #[test]
            fn write_parse_round_trip(
                triples in proptest::collection::vec(
                    (arb_subject(), "[a-z0-9:/#._-]{1,24}".prop_map(Term::iri), arb_term()),
                    0..24,
                )
            ) {
                let mut d = Dictionary::new();
                let mut g = Graph::new();
                for (s, p, o) in &triples {
                    let t = Triple::new(d.encode(s), d.encode(p), d.encode(o));
                    g.insert(t);
                }
                let out = write_ntriples_sorted(&g, &d);
                let mut d2 = Dictionary::new();
                let mut g2 = Graph::new();
                parse_ntriples(&out, &mut d2, &mut g2).unwrap();
                prop_assert_eq!(g.len(), g2.len());
                prop_assert_eq!(out, write_ntriples_sorted(&g2, &d2));
            }
        }
    }
}
