//! A minimal, panic-free JSON parser.
//!
//! The workspace is dependency-free by policy (see DESIGN.md §1), so the
//! Chrome-trace validator cannot lean on `serde_json`. This recursive-
//! descent parser covers the full JSON grammar (objects, arrays, strings
//! with escapes, numbers, booleans, null) with a recursion-depth cap. It is
//! the workspace's one JSON reader: [`crate::validate_chrome_trace`], the
//! CLI's `trace-check` and `profile` commands, and `cordoba-lint`'s
//! baseline file all parse with it. Writers emit their JSON directly and
//! escape strings with [`crate::chrome::escape_json`].

use std::fmt;

/// Maximum nesting depth accepted before the parser gives up; deep enough
/// for any trace file, shallow enough to never overflow the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like browsers do).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number inside a [`Json::Num`].
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string inside a [`Json::Str`].
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of a [`Json::Arr`].
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses `text` as a single JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first syntax error, trailing
/// garbage, or nesting beyond the depth cap.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.fail("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `literal` if it is next in the input.
    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting deeper than the supported maximum"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.fail("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.fail("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.fail("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.fail("dangling escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(self.fail("unknown escape")),
                    }
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.fail("unescaped control character in string"));
                }
                Some(_) => {
                    // Copy one UTF-8 character verbatim; the input came
                    // from a `&str`, so boundaries are always valid.
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]).min(rest.len());
                    match std::str::from_utf8(&rest[..len]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.fail("invalid UTF-8 in string")),
                    }
                    self.pos += len;
                }
            }
        }
    }

    /// Decodes `\uXXXX` (with surrogate-pair handling) after the `\u` has
    /// been consumed.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&high) {
            // A high surrogate must be followed by `\uXXXX` low surrogate.
            if self.eat("\\u") {
                let low = self.hex4()?;
                if (0xDC00..=0xDFFF).contains(&low) {
                    let combined =
                        0x10000 + ((u32::from(high) - 0xD800) << 10) + (u32::from(low) - 0xDC00);
                    return char::from_u32(combined).ok_or_else(|| self.fail("invalid surrogate"));
                }
            }
            return Err(self.fail("unpaired surrogate escape"));
        }
        char::from_u32(u32::from(high)).ok_or_else(|| self.fail("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut value: u16 = 0;
        for _ in 0..4 {
            let byte = self
                .peek()
                .ok_or_else(|| self.fail("truncated \\u escape"))?;
            let digit = match byte {
                b'0'..=b'9' => byte - b'0',
                b'a'..=b'f' => byte - b'a' + 10,
                b'A'..=b'F' => byte - b'A' + 10,
                _ => return Err(self.fail("non-hex digit in \\u escape")),
            };
            value = (value << 4) | u16::from(digit);
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.fail("malformed number"))
    }
}

/// Length in bytes of the UTF-8 character starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Json::Str("a\nbA".into())
        );
        let doc = parse("{\"xs\": [1, 2, {\"k\": \"v\"}], \"ok\": false}").unwrap();
        let xs = doc.get("xs").unwrap().as_array().unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].get("k").unwrap().as_str(), Some("v"));
        assert_eq!(doc.get("ok").unwrap(), &Json::Bool(false));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn decodes_utf8_and_surrogate_pairs() {
        assert_eq!(parse("\"héllo\"").unwrap(), Json::Str("héllo".into()));
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "01x",
            "nul",
            "[1] extra",
            "\"\\q\"",
            "\"\\ud800\"",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "accepted 200-deep nesting");
    }
}
