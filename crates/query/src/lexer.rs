//! Tokenizer for the aggregation description language.
//!
//! The language is line-agnostic: newlines are whitespace, and a `\` at
//! the end of a line (as in the paper's multi-line examples) is likewise
//! treated as whitespace. Attribute labels may contain `.`, `#`, `:` and
//! `-` (e.g. `iteration#mainloop`, `advec-mom`), so the lexer accepts
//! those inside identifiers; anything else can be single- or
//! double-quoted.

use std::fmt;

/// A token with its byte span in the query text (for error messages
/// and semantic diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the first character.
    pub pos: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier / attribute label / keyword.
    Ident(String),
    /// Quoted string literal.
    Str(String),
    /// Numeric literal (kept as text; the parser decides int vs float).
    Number(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `*`
    Star,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "'{s}'"),
            TokenKind::Str(s) => write!(f, "\"{s}\""),
            TokenKind::Number(s) => write!(f, "{s}"),
            TokenKind::LParen => f.write_str("'('"),
            TokenKind::RParen => f.write_str("')'"),
            TokenKind::Comma => f.write_str("','"),
            TokenKind::Eq => f.write_str("'='"),
            TokenKind::Ne => f.write_str("'!='"),
            TokenKind::Lt => f.write_str("'<'"),
            TokenKind::Le => f.write_str("'<='"),
            TokenKind::Gt => f.write_str("'>'"),
            TokenKind::Ge => f.write_str("'>='"),
            TokenKind::Star => f.write_str("'*'"),
        }
    }
}

/// Lexer error: unexpected character or unterminated string.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Byte offset of the problem.
    pub pos: usize,
    /// Byte offset one past the offending text.
    pub end: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}", self.message, self.pos)
    }
}

impl std::error::Error for LexError {}

fn is_ident_start(ch: char) -> bool {
    ch.is_alphabetic() || ch == '_'
}

fn is_ident_continue(ch: char) -> bool {
    ch.is_alphanumeric() || matches!(ch, '_' | '.' | '#' | ':' | '-' | '/')
}

/// Tokenize a query string. Every token carries its precise byte span
/// (`pos..end`), which the parser threads through to diagnostics.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    let bytes: Vec<(usize, char)> = input.char_indices().collect();
    // Byte offset of the i-th character (input length at end of text):
    // after a branch advances `i` past a token's characters, `off(i)` is
    // the token's end offset.
    let off = |i: usize| bytes.get(i).map(|&(p, _)| p).unwrap_or(input.len());
    let mut i = 0;
    while i < bytes.len() {
        let (pos, ch) = bytes[i];
        match ch {
            c if c.is_whitespace() => i += 1,
            // Line continuation and stray backslashes are whitespace.
            '\\' => i += 1,
            '(' => {
                i += 1;
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    pos,
                    end: off(i),
                });
            }
            ')' => {
                i += 1;
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    pos,
                    end: off(i),
                });
            }
            ',' => {
                i += 1;
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    pos,
                    end: off(i),
                });
            }
            '*' => {
                i += 1;
                tokens.push(Token {
                    kind: TokenKind::Star,
                    pos,
                    end: off(i),
                });
            }
            '=' => {
                // Accept both `=` and `==`.
                i += 1;
                if i < bytes.len() && bytes[i].1 == '=' {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    pos,
                    end: off(i),
                });
            }
            '!' => {
                i += 1;
                if i < bytes.len() && bytes[i].1 == '=' {
                    i += 1;
                    tokens.push(Token {
                        kind: TokenKind::Ne,
                        pos,
                        end: off(i),
                    });
                } else {
                    return Err(LexError {
                        pos,
                        end: off(i),
                        message: "expected '=' after '!'".into(),
                    });
                }
            }
            '<' => {
                i += 1;
                if i < bytes.len() && bytes[i].1 == '=' {
                    i += 1;
                    tokens.push(Token {
                        kind: TokenKind::Le,
                        pos,
                        end: off(i),
                    });
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        pos,
                        end: off(i),
                    });
                }
            }
            '>' => {
                i += 1;
                if i < bytes.len() && bytes[i].1 == '=' {
                    i += 1;
                    tokens.push(Token {
                        kind: TokenKind::Ge,
                        pos,
                        end: off(i),
                    });
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        pos,
                        end: off(i),
                    });
                }
            }
            quote @ ('"' | '\'') => {
                let mut text = String::new();
                i += 1;
                let mut closed = false;
                while i < bytes.len() {
                    let (_, c) = bytes[i];
                    if c == quote {
                        closed = true;
                        i += 1;
                        break;
                    }
                    if c == '\\' && i + 1 < bytes.len() {
                        i += 1;
                        text.push(bytes[i].1);
                    } else {
                        text.push(c);
                    }
                    i += 1;
                }
                if !closed {
                    return Err(LexError {
                        pos,
                        end: input.len(),
                        message: "unterminated string literal".into(),
                    });
                }
                tokens.push(Token {
                    kind: TokenKind::Str(text),
                    pos,
                    end: off(i),
                });
            }
            c if c.is_ascii_digit()
                || (c == '-' && i + 1 < bytes.len() && bytes[i + 1].1.is_ascii_digit()) =>
            {
                let mut text = String::new();
                text.push(c);
                i += 1;
                let mut seen_dot = false;
                while i < bytes.len() {
                    let (_, c) = bytes[i];
                    if c.is_ascii_digit() {
                        text.push(c);
                        i += 1;
                    } else if c == '.' && !seen_dot {
                        seen_dot = true;
                        text.push(c);
                        i += 1;
                    } else if c == 'e' || c == 'E' {
                        // scientific notation: e[+-]?digits
                        let mut j = i + 1;
                        if j < bytes.len() && matches!(bytes[j].1, '+' | '-') {
                            j += 1;
                        }
                        if j < bytes.len() && bytes[j].1.is_ascii_digit() {
                            text.extend(bytes[i..=j].iter().map(|&(_, c)| c));
                            i = j + 1;
                            while i < bytes.len() && bytes[i].1.is_ascii_digit() {
                                text.push(bytes[i].1);
                                i += 1;
                            }
                            break;
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Number(text),
                    pos,
                    end: off(i),
                });
            }
            c if is_ident_start(c) => {
                let mut text = String::new();
                text.push(c);
                i += 1;
                while i < bytes.len() && is_ident_continue(bytes[i].1) {
                    text.push(bytes[i].1);
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(text),
                    pos,
                    end: off(i),
                });
            }
            other => {
                return Err(LexError {
                    pos,
                    end: pos + other.len_utf8(),
                    message: format!("unexpected character '{other}'"),
                })
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn tokenizes_paper_example() {
        let toks = kinds("AGGREGATE count, sum(time)\nGROUP BY function, loop.iteration");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("AGGREGATE".into()),
                TokenKind::Ident("count".into()),
                TokenKind::Comma,
                TokenKind::Ident("sum".into()),
                TokenKind::LParen,
                TokenKind::Ident("time".into()),
                TokenKind::RParen,
                TokenKind::Ident("GROUP".into()),
                TokenKind::Ident("BY".into()),
                TokenKind::Ident("function".into()),
                TokenKind::Comma,
                TokenKind::Ident("loop.iteration".into()),
            ]
        );
    }

    #[test]
    fn labels_with_hash_and_continuation() {
        // The paper's AMR query uses iteration#mainloop and a `\` line
        // continuation.
        let toks = kinds("GROUP BY amr.level,\\\niteration#mainloop");
        assert_eq!(
            toks.last(),
            Some(&TokenKind::Ident("iteration#mainloop".into()))
        );
        assert_eq!(toks.len(), 5);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("a=1 b!=2 c<3 d<=4 e>5 f>=6 g==7"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Eq,
                TokenKind::Number("1".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ne,
                TokenKind::Number("2".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Lt,
                TokenKind::Number("3".into()),
                TokenKind::Ident("d".into()),
                TokenKind::Le,
                TokenKind::Number("4".into()),
                TokenKind::Ident("e".into()),
                TokenKind::Gt,
                TokenKind::Number("5".into()),
                TokenKind::Ident("f".into()),
                TokenKind::Ge,
                TokenKind::Number("6".into()),
                TokenKind::Ident("g".into()),
                TokenKind::Eq,
                TokenKind::Number("7".into()),
            ]
        );
    }

    #[test]
    fn numbers_and_negatives() {
        assert_eq!(
            kinds("1 -2 3.5 -4.25 1e3 2.5e-2"),
            vec![
                TokenKind::Number("1".into()),
                TokenKind::Number("-2".into()),
                TokenKind::Number("3.5".into()),
                TokenKind::Number("-4.25".into()),
                TokenKind::Number("1e3".into()),
                TokenKind::Number("2.5e-2".into()),
            ]
        );
    }

    #[test]
    fn quoted_strings_with_escapes() {
        assert_eq!(
            kinds("where kernel = \"advec cell\""),
            vec![
                TokenKind::Ident("where".into()),
                TokenKind::Ident("kernel".into()),
                TokenKind::Eq,
                TokenKind::Str("advec cell".into()),
            ]
        );
        assert_eq!(
            kinds(r#"'it''s' "a\"b""#),
            vec![
                TokenKind::Str("it".into()),
                TokenKind::Str("s".into()),
                TokenKind::Str("a\"b".into()),
            ]
        );
    }

    #[test]
    fn errors_carry_positions() {
        let err = tokenize("abc @").unwrap_err();
        assert_eq!(err.pos, 4);
        assert_eq!(err.end, 5);
        assert!(tokenize("\"unterminated").is_err());
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn tokens_carry_byte_spans() {
        let toks = tokenize("sum(time.duration) >= 2.5").unwrap();
        let spans: Vec<(usize, usize)> = toks.iter().map(|t| (t.pos, t.end)).collect();
        assert_eq!(
            spans,
            vec![(0, 3), (3, 4), (4, 17), (17, 18), (19, 21), (22, 25)]
        );
        // quoted strings span the quotes, multi-byte chars span bytes
        let toks = tokenize("\"a b\" é").unwrap();
        assert_eq!((toks[0].pos, toks[0].end), (0, 5));
        assert_eq!((toks[1].pos, toks[1].end), (6, 8));
    }

    #[test]
    fn hyphenated_idents() {
        assert_eq!(
            kinds("advec-mom"),
            vec![TokenKind::Ident("advec-mom".into())]
        );
        // but a leading '-' before a digit is a number
        assert_eq!(kinds("-5"), vec![TokenKind::Number("-5".into())]);
    }
}
