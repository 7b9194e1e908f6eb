//! Indentation-aware lexer for the minipy source language.
//!
//! Produces the token stream consumed by [`crate::parser`]. Follows Python's
//! logical-line rules: indentation becomes `Indent`/`Dedent` tokens, newlines
//! inside brackets are ignored, and a trailing backslash joins lines.

use crate::error::{ErrKind, PyErr};
use crate::token::{Kw, Op, Tok, Token};

/// Tokenize minipy source text.
///
/// # Errors
///
/// Returns a [`PyErr`] with [`ErrKind::Syntax`] on malformed input:
/// inconsistent dedents, unterminated strings, bad numeric literals, tabs in
/// indentation mixed inconsistently, or unknown characters.
pub fn tokenize(src: &str) -> Result<Vec<Token>, PyErr> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    indents: Vec<usize>,
    paren_depth: usize,
    tokens: Vec<Token>,
    at_line_start: bool,
    src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            indents: vec![0],
            paren_depth: 0,
            tokens: Vec::new(),
            at_line_start: true,
            src,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn peek3(&self) -> Option<char> {
        self.chars.get(self.pos + 2).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn push(&mut self, kind: Tok) {
        self.tokens.push(Token {
            kind,
            line: self.line,
        });
    }

    fn err(&self, msg: impl Into<String>) -> PyErr {
        PyErr::at(ErrKind::Syntax, msg, self.line)
    }

    fn run(mut self) -> Result<Vec<Token>, PyErr> {
        let _ = self.src;
        while self.pos < self.chars.len() {
            if self.at_line_start && self.paren_depth == 0 {
                self.handle_indentation()?;
                if self.pos >= self.chars.len() {
                    break;
                }
            }
            let c = match self.peek() {
                Some(c) => c,
                None => break,
            };
            match c {
                ' ' | '\t' => {
                    self.pos += 1;
                }
                '#' => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                '\\' if self.peek2() == Some('\n') => {
                    // Explicit line joining.
                    self.pos += 2;
                    self.line += 1;
                }
                '\r' => {
                    self.pos += 1;
                }
                '\n' => {
                    self.pos += 1;
                    if self.paren_depth == 0 {
                        // Suppress blank-line newlines: only emit if the last
                        // token on this logical line was meaningful.
                        if matches!(
                            self.tokens.last().map(|t| &t.kind),
                            Some(Tok::Newline) | Some(Tok::Indent) | Some(Tok::Dedent) | None
                        ) {
                            // blank line: no token
                        } else {
                            self.push(Tok::Newline);
                        }
                        self.at_line_start = true;
                    }
                    self.line += 1;
                }
                '\'' | '"' => self.lex_string()?,
                c if c.is_ascii_digit() => self.lex_number()?,
                '.' if self.peek2().is_some_and(|c| c.is_ascii_digit()) => self.lex_number()?,
                c if c.is_alphabetic() || c == '_' => self.lex_ident(),
                _ => self.lex_operator()?,
            }
        }
        // Terminate the last logical line.
        if !matches!(
            self.tokens.last().map(|t| &t.kind),
            Some(Tok::Newline) | None
        ) {
            self.push(Tok::Newline);
        }
        while self.indents.len() > 1 {
            self.indents.pop();
            self.push(Tok::Dedent);
        }
        self.push(Tok::Eof);
        Ok(self.tokens)
    }

    /// Measure leading whitespace of a fresh logical line and emit
    /// Indent/Dedent tokens. Skips blank/comment-only lines entirely.
    fn handle_indentation(&mut self) -> Result<(), PyErr> {
        loop {
            let line_start = self.pos;
            let mut width = 0usize;
            while let Some(c) = self.peek() {
                match c {
                    ' ' => {
                        width += 1;
                        self.pos += 1;
                    }
                    '\t' => {
                        // Tabs advance to the next multiple of 8, like CPython.
                        width = (width / 8 + 1) * 8;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            match self.peek() {
                // Blank or comment-only line: consume and retry.
                Some('\n') => {
                    self.pos += 1;
                    self.line += 1;
                    continue;
                }
                Some('\r') => {
                    self.pos += 1;
                    continue;
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                    continue;
                }
                None => {
                    self.pos = line_start;
                    self.pos = self.chars.len();
                    self.at_line_start = false;
                    return Ok(());
                }
                Some(_) => {
                    let current = *self.indents.last().expect("indent stack never empty");
                    if width > current {
                        self.indents.push(width);
                        self.push(Tok::Indent);
                    } else if width < current {
                        while *self.indents.last().expect("indent stack never empty") > width {
                            self.indents.pop();
                            self.push(Tok::Dedent);
                        }
                        if *self.indents.last().expect("indent stack never empty") != width {
                            return Err(
                                self.err("unindent does not match any outer indentation level")
                            );
                        }
                    }
                    self.at_line_start = false;
                    return Ok(());
                }
            }
        }
    }

    fn lex_string(&mut self) -> Result<(), PyErr> {
        let quote = self.bump().expect("caller checked quote");
        // Triple-quoted?
        let triple = self.peek() == Some(quote) && self.peek2() == Some(quote);
        if triple {
            self.pos += 2;
        }
        let mut out = String::new();
        loop {
            let c = match self.bump() {
                Some(c) => c,
                None => return Err(self.err("unterminated string literal")),
            };
            if c == quote {
                if !triple {
                    break;
                }
                if self.peek() == Some(quote) && self.peek2() == Some(quote) {
                    self.pos += 2;
                    break;
                }
                out.push(c);
                continue;
            }
            if c == '\n' {
                if !triple {
                    return Err(self.err("unterminated string literal"));
                }
                self.line += 1;
                out.push(c);
                continue;
            }
            if c == '\\' {
                let esc = match self.bump() {
                    Some(e) => e,
                    None => return Err(self.err("unterminated escape sequence")),
                };
                match esc {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'a' => out.push('\u{07}'),
                    'b' => out.push('\u{08}'),
                    'f' => out.push('\u{0c}'),
                    'v' => out.push('\u{0b}'),
                    '\\' => out.push('\\'),
                    '\'' => out.push('\''),
                    '"' => out.push('"'),
                    '0'..='7' => {
                        // One to three octal digits, this one included.
                        self.pos -= 1;
                        let (code, _) = self.escape_digits(8, 3);
                        out.push(char::from_u32(code).expect("`\\777` is U+01FF at most"));
                    }
                    'x' => out.push(self.hex_escape(2, "\\xXX")?),
                    'u' => out.push(self.hex_escape(4, "\\uXXXX")?),
                    'U' => out.push(self.hex_escape(8, "\\UXXXXXXXX")?),
                    '\n' => {
                        self.line += 1;
                    }
                    other => {
                        // Unknown escapes (and `\N{...}`, which needs the
                        // Unicode name table) are kept verbatim, like Python
                        // keeps unknown ones (with a warning).
                        out.push('\\');
                        out.push(other);
                    }
                }
                continue;
            }
            out.push(c);
        }
        self.push(Tok::Str(out));
        Ok(())
    }

    /// Up to `max` digits in `radix`: their value and how many there were.
    fn escape_digits(&mut self, radix: u32, max: usize) -> (u32, usize) {
        let mut code = 0;
        let mut n = 0;
        while n < max {
            match self.peek().and_then(|c| c.to_digit(radix)) {
                Some(d) => code = code * radix + d,
                None => break,
            }
            self.pos += 1;
            n += 1;
        }
        (code, n)
    }

    /// The character of a `\x`, `\u` or `\U` escape: exactly `digits` hex
    /// digits naming a Unicode scalar value.
    fn hex_escape(&mut self, digits: usize, form: &str) -> Result<char, PyErr> {
        let (code, n) = self.escape_digits(16, digits);
        if n < digits {
            return Err(self.err(format!("truncated {form} escape")));
        }
        // Surrogates are valid in a Python `str` but not in a Rust one.
        char::from_u32(code).ok_or_else(|| self.err(format!("illegal Unicode character {code:#x}")))
    }

    fn lex_number(&mut self) -> Result<(), PyErr> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some('0') && matches!(self.peek2(), Some('x') | Some('X')) {
            self.pos += 2;
            let hex_start = self.pos;
            while self
                .peek()
                .is_some_and(|c| c.is_ascii_hexdigit() || c == '_')
            {
                self.pos += 1;
            }
            let text: String = self.chars[hex_start..self.pos]
                .iter()
                .filter(|&&c| c != '_')
                .collect();
            let v = i64::from_str_radix(&text, 16)
                .map_err(|_| self.err("invalid hexadecimal literal"))?;
            self.push(Tok::Int(v));
            return Ok(());
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit() || c == '_') {
            self.pos += 1;
        }
        if self.peek() == Some('.') && self.peek2() != Some('.') {
            // Not a method call on an int literal: only treat as float when a
            // digit or end-of-number follows.
            let after = self.peek2();
            if after.is_none()
                || after.is_some_and(|c| c.is_ascii_digit() || !(c.is_alphabetic() || c == '_'))
                || matches!((after, self.peek3()), (Some('e') | Some('E'), Some(c)) if c.is_ascii_digit())
            {
                is_float = true;
                self.pos += 1;
                while self.peek().is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    self.pos += 1;
                }
            }
        }
        if matches!(self.peek(), Some('e') | Some('E')) {
            let save = self.pos;
            self.pos += 1;
            if matches!(self.peek(), Some('+') | Some('-')) {
                self.pos += 1;
            }
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            } else {
                self.pos = save;
            }
        }
        let text: String = self.chars[start..self.pos]
            .iter()
            .filter(|&&c| c != '_')
            .collect();
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| self.err("invalid float literal"))?;
            self.push(Tok::Float(v));
        } else {
            let v: i64 = text
                .parse()
                .map_err(|_| self.err("invalid integer literal"))?;
            self.push(Tok::Int(v));
        }
        Ok(())
    }

    fn lex_ident(&mut self) {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_alphanumeric() || c == '_') {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        match Kw::from_ident(&text) {
            Some(kw) => self.push(Tok::Keyword(kw)),
            None => self.push(Tok::Ident(text)),
        }
    }

    fn lex_operator(&mut self) -> Result<(), PyErr> {
        let c = self.bump().expect("caller checked char");
        let next = self.peek();
        let next2 = self.peek2();
        let op = match c {
            '+' => self.maybe_eq(Op::Plus, Op::PlusEq),
            '-' => {
                if next == Some('>') {
                    self.pos += 1;
                    Op::Arrow
                } else {
                    self.maybe_eq(Op::Minus, Op::MinusEq)
                }
            }
            '*' => {
                if next == Some('*') {
                    self.pos += 1;
                    self.maybe_eq(Op::DoubleStar, Op::DoubleStarEq)
                } else {
                    self.maybe_eq(Op::Star, Op::StarEq)
                }
            }
            '/' => {
                if next == Some('/') {
                    self.pos += 1;
                    self.maybe_eq(Op::DoubleSlash, Op::DoubleSlashEq)
                } else {
                    self.maybe_eq(Op::Slash, Op::SlashEq)
                }
            }
            '%' => self.maybe_eq(Op::Percent, Op::PercentEq),
            '=' => self.maybe_eq(Op::Eq, Op::EqEq),
            '!' => {
                if next == Some('=') {
                    self.pos += 1;
                    Op::NotEq
                } else {
                    return Err(self.err("unexpected character '!'"));
                }
            }
            '<' => {
                if next == Some('<') {
                    self.pos += 1;
                    self.maybe_eq(Op::Shl, Op::ShlEq)
                } else {
                    self.maybe_eq(Op::Lt, Op::Le)
                }
            }
            '>' => {
                if next == Some('>') {
                    self.pos += 1;
                    self.maybe_eq(Op::Shr, Op::ShrEq)
                } else {
                    self.maybe_eq(Op::Gt, Op::Ge)
                }
            }
            '&' => self.maybe_eq(Op::Amp, Op::AmpEq),
            '|' => self.maybe_eq(Op::Pipe, Op::PipeEq),
            '^' => self.maybe_eq(Op::Caret, Op::CaretEq),
            '~' => Op::Tilde,
            '(' => {
                self.paren_depth += 1;
                Op::LParen
            }
            ')' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                Op::RParen
            }
            '[' => {
                self.paren_depth += 1;
                Op::LBracket
            }
            ']' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                Op::RBracket
            }
            '{' => {
                self.paren_depth += 1;
                Op::LBrace
            }
            '}' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                Op::RBrace
            }
            ',' => Op::Comma,
            ':' => Op::Colon,
            ';' => Op::Semicolon,
            '.' => Op::Dot,
            '@' => Op::At,
            other => return Err(self.err(format!("unexpected character {other:?}"))),
        };
        let _ = next2;
        self.push(Tok::Op(op));
        Ok(())
    }

    fn maybe_eq(&mut self, plain: Op, with_eq: Op) -> Op {
        if self.peek() == Some('=') {
            self.pos += 1;
            with_eq
        } else {
            plain
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_assignment() {
        assert_eq!(
            kinds("x = 1\n"),
            vec![
                Tok::Ident("x".into()),
                Tok::Op(Op::Eq),
                Tok::Int(1),
                Tok::Newline,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn indentation_blocks() {
        let toks = kinds("if x:\n    y = 1\nz = 2\n");
        assert!(toks.contains(&Tok::Indent));
        assert!(toks.contains(&Tok::Dedent));
    }

    #[test]
    fn nested_dedents() {
        let toks = kinds("def f():\n    if x:\n        y = 1\n");
        let dedents = toks.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(dedents, 2);
    }

    #[test]
    fn blank_lines_ignored() {
        let toks = kinds("x = 1\n\n\ny = 2\n");
        let newlines = toks.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 2);
    }

    #[test]
    fn comments_ignored() {
        let toks = kinds("x = 1  # set x\n# whole line\ny = 2\n");
        assert!(!toks.iter().any(|t| matches!(t, Tok::Str(_))));
        let newlines = toks.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 2);
    }

    #[test]
    fn float_literals() {
        assert_eq!(kinds("1.5\n")[0], Tok::Float(1.5));
        assert_eq!(kinds("1e3\n")[0], Tok::Float(1000.0));
        assert_eq!(kinds("2.5e-1\n")[0], Tok::Float(0.25));
        assert_eq!(kinds(".5\n")[0], Tok::Float(0.5));
        assert_eq!(kinds("1.\n")[0], Tok::Float(1.0));
    }

    #[test]
    fn int_literals() {
        assert_eq!(kinds("42\n")[0], Tok::Int(42));
        assert_eq!(kinds("0xff\n")[0], Tok::Int(255));
        assert_eq!(kinds("1_000_000\n")[0], Tok::Int(1_000_000));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(kinds("'a\\nb'\n")[0], Tok::Str("a\nb".into()));
        assert_eq!(kinds("\"q\\\"q\"\n")[0], Tok::Str("q\"q".into()));
    }

    #[test]
    fn python_escapes_decode() {
        let lit = |src: &str| match &kinds(&format!("'{src}'\n"))[0] {
            Tok::Str(s) => s.clone(),
            other => panic!("{src}: {other:?}"),
        };
        assert_eq!(lit("\\x41"), "A");
        assert_eq!(lit("x\\xe9y"), "xéy");
        assert_eq!(lit("\\u20ac\\U0001F600"), "€😀");
        assert_eq!(lit("\\a\\b\\f\\v"), "\u{07}\u{08}\u{0c}\u{0b}");
        assert_eq!(lit("a\\vb").chars().count(), 3);
        // Octal: up to three digits, and `\0` is octal too.
        assert_eq!(lit("\\012"), "\n");
        assert_eq!(lit("\\0"), "\0");
        assert_eq!(lit("\\08"), "\08");
        assert_eq!(lit("\\1234"), "S4");
        assert_eq!(lit("\\777"), "\u{1ff}");
        // Unknown escapes stay verbatim.
        assert_eq!(lit("\\q\\N{DASH}"), "\\q\\N{DASH}");
    }

    #[test]
    fn malformed_escapes_are_syntax_errors() {
        for src in ["'\\x4'\n", "'\\xg0'\n", "'\\u12'\n", "'\\U0011000'\n"] {
            let err = tokenize(src).unwrap_err();
            assert_eq!(err.kind, ErrKind::Syntax, "{src}");
            assert!(err.msg.contains("truncated"), "{src}: {err}");
        }
        // Beyond U+10FFFF, and a surrogate Rust strings cannot hold.
        for src in ["'\\U00110000'\n", "'\\ud800'\n"] {
            let err = tokenize(src).unwrap_err();
            assert!(
                err.msg.contains("illegal Unicode character"),
                "{src}: {err}"
            );
        }
    }

    #[test]
    fn triple_quoted_string() {
        assert_eq!(
            kinds("'''line1\nline2'''\n")[0],
            Tok::Str("line1\nline2".into())
        );
    }

    #[test]
    fn newlines_suppressed_in_brackets() {
        let toks = kinds("f(1,\n  2)\n");
        let newlines = toks.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 1);
    }

    #[test]
    fn backslash_continuation() {
        let toks = kinds("x = 1 + \\\n    2\n");
        let newlines = toks.iter().filter(|t| **t == Tok::Newline).count();
        assert_eq!(newlines, 1);
    }

    #[test]
    fn operators() {
        assert_eq!(kinds("a //= 2\n")[1], Tok::Op(Op::DoubleSlashEq));
        assert_eq!(kinds("a ** b\n")[1], Tok::Op(Op::DoubleStar));
        assert_eq!(kinds("a != b\n")[1], Tok::Op(Op::NotEq));
        assert_eq!(kinds("a <= b\n")[1], Tok::Op(Op::Le));
        assert_eq!(kinds("a << b\n")[1], Tok::Op(Op::Shl));
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(kinds("for\n")[0], Tok::Keyword(Kw::For));
        assert_eq!(kinds("fort\n")[0], Tok::Ident("fort".into()));
    }

    #[test]
    fn bad_dedent_is_error() {
        assert!(tokenize("if x:\n    y = 1\n  z = 2\n").is_err());
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'abc\n").is_err());
    }

    #[test]
    fn method_call_on_int_attribute_not_float() {
        // `1 .bit_length()` style is rare; but `x.5` invalid. Check `1.5.is_integer` lexes float then dot.
        let toks = kinds("(1.5).foo\n");
        assert!(toks.contains(&Tok::Float(1.5)));
        assert!(toks.contains(&Tok::Op(Op::Dot)));
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = tokenize("x = 1\ny = 2\n").unwrap();
        let y_tok = toks
            .iter()
            .find(|t| t.kind == Tok::Ident("y".into()))
            .unwrap();
        assert_eq!(y_tok.line, 2);
    }

    #[test]
    fn final_line_without_newline() {
        let toks = kinds("x = 1");
        assert_eq!(toks.last(), Some(&Tok::Eof));
        assert!(toks.contains(&Tok::Newline));
    }

    #[test]
    fn decorator_tokens() {
        let toks = kinds("@omp\ndef f():\n    pass\n");
        assert_eq!(toks[0], Tok::Op(Op::At));
        assert_eq!(toks[1], Tok::Ident("omp".into()));
    }
}
