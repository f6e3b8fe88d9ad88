//! Escaping rules of the `.cali` line encoding.
//!
//! The stream is line-oriented; fields are separated by `,` and keys from
//! values by `=`. Values may contain any of these characters, so they are
//! escaped with `\`. Newlines are encoded as `\n` (backslash + 'n') so a
//! record always occupies exactly one physical line.

use std::borrow::Cow;

/// Escape a value string for embedding in a `.cali` line.
pub fn escape(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    escape_into(input, &mut out);
    out
}

/// Escape `input`, appending to `out`. Avoids allocation when the caller
/// builds a whole line in one buffer, and copies the stretches between
/// escaped characters — for most values, the whole input — in one piece.
pub fn escape_into(input: &str, out: &mut String) {
    let mut rest = input;
    // Every escaped character is ASCII, so cutting around its byte
    // never splits a multi-byte character.
    while let Some(at) = rest.bytes().position(|b| ESCAPED[b as usize]) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'\\' => "\\\\",
            b',' => "\\,",
            b'=' => "\\=",
            b'\n' => "\\n",
            _ => "\\r",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// A membership table over byte values.
const fn byte_set(members: &[u8]) -> [bool; 256] {
    let mut set = [false; 256];
    let mut i = 0;
    while i < members.len() {
        set[members[i] as usize] = true;
        i += 1;
    }
    set
}

/// The bytes [`escape_into`] escapes: `,` `=` `\\` and the line breaks.
static ESCAPED: [bool; 256] = byte_set(b",=\\\n\r");

/// Reverse [`escape`]. Unknown escape sequences keep the escaped
/// character (lenient, so streams from newer writers stay readable).
pub fn unescape(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    let mut chars = input.chars();
    while let Some(ch) = chars.next() {
        if ch == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(ch);
        }
    }
    out
}

/// `raw` with its escapes resolved: borrowed as it stands unless it
/// holds a backslash.
fn unescaped(raw: &str, has_escape: bool) -> Cow<'_, str> {
    if has_escape {
        Cow::Owned(unescape(raw))
    } else {
        Cow::Borrowed(raw)
    }
}

/// The `(key, value)` fields of a `.cali` line: split on unescaped
/// commas and the first unescaped `=` of each field, escapes resolved as
/// [`unescape`] does. A field without `=` has an empty value; a field
/// with neither key nor `=` (`,,`) is not a field. Keys and values
/// borrow from the line and allocate only when they hold a backslash.
///
/// This is the one tokenizer every text line goes through — the reader's
/// `attr`, `node`, `ctx` and `globals` records and the lines of a saved
/// schema file.
pub fn fields(line: &str) -> Fields<'_> {
    Fields { rest: line }
}

/// Iterator returned by [`fields`].
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    rest: &'a str,
}

/// The bytes the tokenizer stops at: `,` `=` and `\\`.
static SPECIAL: [bool; 256] = byte_set(b",=\\");

/// The index of the first unescaped `,` of `bytes[from..]` — or, with
/// `in_key`, `=` — (`bytes.len()` if none), and whether a backslash was
/// passed on the way. All delimiters are ASCII, so no byte of a
/// multi-byte character is mistaken for one, and the byte after a
/// backslash can be skipped whatever it starts.
fn scan_to(bytes: &[u8], from: usize, in_key: bool) -> (usize, bool) {
    let (mut i, mut escaped) = (from, false);
    while let Some(offset) = bytes[i..].iter().position(|&b| SPECIAL[b as usize]) {
        i += offset;
        match bytes[i] {
            b'\\' => {
                escaped = true;
                i = (i + 2).min(bytes.len());
            }
            b'=' if !in_key => i += 1,
            _ => return (i, escaped),
        }
    }
    (bytes.len(), escaped)
}

impl<'a> Iterator for Fields<'a> {
    type Item = (Cow<'a, str>, Cow<'a, str>);

    fn next(&mut self) -> Option<Self::Item> {
        while !self.rest.is_empty() {
            let (line, bytes) = (self.rest, self.rest.as_bytes());
            let (key_end, key_escape) = scan_to(bytes, 0, true);
            let key = unescaped(&line[..key_end], key_escape);
            if bytes.get(key_end) != Some(&b'=') {
                self.rest = line.get(key_end + 1..).unwrap_or("");
                if key_end > 0 {
                    return Some((key, Cow::Borrowed("")));
                }
                continue;
            }
            let (end, value_escape) = scan_to(bytes, key_end + 1, false);
            self.rest = line.get(end + 1..).unwrap_or("");
            return Some((key, unescaped(&line[key_end + 1..end], value_escape)));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_plain() {
        assert_eq!(unescape(&escape("hello world")), "hello world");
    }

    #[test]
    fn roundtrip_special_chars() {
        let nasty = "a,b=c\\d\ne\rf";
        assert_eq!(unescape(&escape(nasty)), nasty);
        // escaped form has no raw separators or newlines
        let esc = escape(nasty);
        assert!(!esc.contains('\n'));
        for (i, ch) in esc.char_indices() {
            if ch == ',' || ch == '=' {
                assert_eq!(&esc[i - 1..i], "\\");
            }
        }
    }

    fn owned(line: &str) -> Vec<(String, String)> {
        fields(line)
            .map(|(k, v)| (k.into_owned(), v.into_owned()))
            .collect()
    }

    fn pairs(expected: &[(&str, &str)]) -> Vec<(String, String)> {
        expected
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn fields_basic() {
        assert_eq!(
            owned("__rec=node,id=5,data=foo"),
            pairs(&[("__rec", "node"), ("id", "5"), ("data", "foo")])
        );
    }

    #[test]
    fn fields_handle_escapes_and_equals_in_value() {
        assert_eq!(
            owned("data=a\\,b\\=c,attr=x=y"),
            pairs(&[("data", "a,b=c"), ("attr", "x=y")])
        );
        // Escaped separators in a key, an escaped backslash before a
        // real separator, and the newline escapes.
        assert_eq!(
            owned("k\\=1\\,2=v\\\\,n=a\\nb\\rc"),
            pairs(&[("k=1,2", "v\\"), ("n", "a\nb\rc")])
        );
        // A lone trailing backslash stays a backslash; an unknown escape
        // keeps the escaped character.
        assert_eq!(owned("a=b\\"), pairs(&[("a", "b\\")]));
        assert_eq!(
            owned("a=\\x\u{e9}\\\u{e9}"),
            pairs(&[("a", "x\u{e9}\u{e9}")])
        );
    }

    #[test]
    fn fields_empty_value_and_flag_fields() {
        assert_eq!(owned("a=,b"), pairs(&[("a", ""), ("b", "")]));
        assert_eq!(owned("=v,,x=1,"), pairs(&[("", "v"), ("x", "1")]));
        assert!(owned("").is_empty());
        assert!(owned(",,,").is_empty());
    }

    #[test]
    fn fields_borrow_unless_escaped() {
        let mut it = fields("plain=value,esc\\,aped=v\\=w");
        let (k, v) = it.next().unwrap();
        assert!(matches!(
            (k, v),
            (Cow::Borrowed("plain"), Cow::Borrowed("value"))
        ));
        let (k, v) = it.next().unwrap();
        assert!(matches!((&k, &v), (Cow::Owned(_), Cow::Owned(_))));
        assert_eq!((k.as_ref(), v.as_ref()), ("esc,aped", "v=w"));
        assert!(it.next().is_none());
    }
}
