//! The N-Triples parser the update decoder used to run: a char-by-char
//! cursor, one line at a time. `proto`'s differential test decodes through
//! it as the oracle for `rdf_io::parse_statement`.

use rdf_model::{Dictionary, Graph, Literal, Term, Triple};

/// A parse error at a 1-based line, displayed as the parser displayed it.
pub(super) struct ParseError {
    line: usize,
    message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

/// A cursor over one line of N-Triples input.
struct Cursor<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(line_text: &'a str, line: usize) -> Self {
        Cursor {
            rest: line_text,
            line,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: msg.into(),
        }
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

    /// Parses the body of an IRIREF after the opening `<`.
    fn iri_body(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('>') => return Ok(out),
                Some('\\') => out.push(self.unicode_escape()?),
                Some(c) if c == ' ' || c == '<' || c == '"' => {
                    return Err(self.err(format!("character '{c}' not allowed in IRI")));
                }
                Some(c) => out.push(c),
                None => return Err(self.err("unterminated IRI")),
            }
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
    fn blank_label(&mut self) -> Result<String, ParseError> {
        let end = self
            .rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-' || c == '.'))
            .unwrap_or(self.rest.len());
        // A trailing '.' terminates the statement, not the label.
        let mut label = &self.rest[..end];
        while label.ends_with('.') {
            label = &label[..label.len() - 1];
        }
        if label.is_empty() {
            return Err(self.err("empty blank node label"));
        }
        self.rest = &self.rest[label.len()..];
        Ok(label.to_owned())
    }

    /// Parses the body of a quoted string after the opening `"`.
    fn string_body(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('f') => out.push('\u{c}'),
                    Some('"') => out.push('"'),
                    Some('\'') => out.push('\''),
                    Some('\\') => out.push('\\'),
                    Some('u') => out.push(self.hex_char('u', 4)?),
                    Some('U') => out.push(self.hex_char('U', 8)?),
                    other => return Err(self.err(format!("invalid string escape {other:?}"))),
                },
                Some(c) => out.push(c),
                None => return Err(self.err("unterminated string literal")),
            }
        }
    }

    /// Parses a full term at the cursor.
    fn term(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => {
                self.bump();
                Ok(Term::Iri(self.iri_body()?.into()))
            }
            Some('_') => {
                self.bump();
                self.expect(':')?;
                Ok(Term::BlankNode(self.blank_label()?.into()))
            }
            Some('"') => {
                self.bump();
                let lexical = self.string_body()?;
                match self.peek() {
                    Some('@') => {
                        self.bump();
                        let end = self
                            .rest
                            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                            .unwrap_or(self.rest.len());
                        if end == 0 {
                            return Err(self.err("empty language tag"));
                        }
                        let tag = &self.rest[..end];
                        self.rest = &self.rest[end..];
                        Ok(Term::Literal(Literal::lang(lexical, tag)))
                    }
                    Some('^') => {
                        self.bump();
                        self.expect('^')?;
                        self.skip_ws();
                        self.expect('<')?;
                        let dt = self.iri_body()?;
                        Ok(Term::Literal(Literal::typed(lexical, dt)))
                    }
                    _ => Ok(Term::Literal(Literal::plain(lexical))),
                }
            }
            other => Err(self.err(format!("expected a term, found {other:?}"))),
        }
    }
}

/// Parses an N-Triples document, interning terms into `dict` and inserting
/// the triples into `graph`. Returns the number of triples parsed (including
/// any already present in `graph`).
pub(super) fn parse_ntriples(
    input: &str,
    dict: &mut Dictionary,
    graph: &mut Graph,
) -> Result<usize, ParseError> {
    let mut parsed = 0;
    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let mut cur = Cursor::new(raw, line_no);
        cur.skip_ws();
        if cur.rest.is_empty() || cur.rest.starts_with('#') {
            continue;
        }
        let s = cur.term()?;
        if s.is_literal() {
            return Err(cur.err("literal not allowed in subject position"));
        }
        cur.skip_ws();
        let p = cur.term()?;
        if !p.is_iri() {
            return Err(cur.err("property must be an IRI"));
        }
        let o = cur.term()?;
        cur.skip_ws();
        cur.expect('.')?;
        cur.skip_ws();
        if !(cur.rest.is_empty() || cur.rest.starts_with('#')) {
            return Err(cur.err("trailing content after '.'"));
        }
        let t = Triple::new(dict.encode(&s), dict.encode(&p), dict.encode(&o));
        graph.insert(t);
        parsed += 1;
    }
    Ok(parsed)
}
