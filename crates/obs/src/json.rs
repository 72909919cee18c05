//! The one place JSON is written or read: Chrome traces, flight and
//! metrics-history dumps and analysis reports are built by `object`
//! and read back by [`parse_json`] and [`Json`]'s typed accessors, which
//! share one vocabulary (`u64`, `str`, `u64s`, `u64_map`, `obj`, `arr`).
//! The writer places every comma and escapes every key and string; field
//! order is call order. The parser refuses nesting deeper than
//! `MAX_DEPTH`: a dump named on the command line is outside input.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::ArgValue;

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// The elements of one object or array written so far.
struct Seq<'a> {
    out: &'a mut String,
    first: bool,
}

impl Seq<'_> {
    /// The buffer, with the comma the next element needs placed.
    fn next(&mut self) -> &mut String {
        if !std::mem::replace(&mut self.first, false) {
            self.out.push(',');
        }
        self.out
    }
}

/// A JSON object being written.
pub(crate) struct Obj<'a>(Seq<'a>);

/// A JSON array being written.
pub(crate) struct Arr<'a>(Seq<'a>);

impl Obj<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.0.next();
        string(out, key);
        out.push(':');
        out
    }

    pub(crate) fn u64(&mut self, key: &str, n: u64) -> &mut Self {
        let _ = write!(self.key(key), "{n}");
        self
    }

    pub(crate) fn str(&mut self, key: &str, s: &str) -> &mut Self {
        string(self.key(key), s);
        self
    }

    pub(crate) fn arg(&mut self, key: &str, value: &ArgValue) -> &mut Self {
        match value {
            ArgValue::Str(s) => self.str(key, s),
            ArgValue::Int(n) => self.u64(key, *n),
            ArgValue::Bool(b) => {
                let _ = write!(self.key(key), "{b}");
                self
            }
        }
    }

    pub(crate) fn u64s(&mut self, key: &str, values: &[u64]) -> &mut Self {
        self.arr(key, |a| {
            for n in values {
                let _ = write!(a.0.next(), "{n}");
            }
        })
    }

    pub(crate) fn u64_map(&mut self, key: &str, map: &BTreeMap<String, u64>) -> &mut Self {
        self.obj(key, |o| {
            for (k, n) in map {
                o.u64(k, *n);
            }
        })
    }

    pub(crate) fn obj(&mut self, key: &str, body: impl FnOnce(&mut Obj)) -> &mut Self {
        object_into(self.key(key), body);
        self
    }

    pub(crate) fn arr(&mut self, key: &str, body: impl FnOnce(&mut Arr)) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        body(&mut Arr(Seq { out, first: true }));
        out.push(']');
        self
    }
}

impl Arr<'_> {
    /// Append the object `body` writes.
    pub(crate) fn obj(&mut self, body: impl FnOnce(&mut Obj)) -> &mut Self {
        object_into(self.0.next(), body);
        self
    }
}

fn object_into(out: &mut String, body: impl FnOnce(&mut Obj)) {
    out.push('{');
    body(&mut Obj(Seq { out, first: true }));
    out.push('}');
}

/// A document: the object `body` writes.
pub(crate) fn object(body: impl FnOnce(&mut Obj)) -> String {
    let mut out = String::new();
    object_into(&mut out, body);
    out
}

/// What a ring page carries after its host, in order (see
/// [`crate::Ring::page`]). Flight dumps and metrics-history dumps open
/// with this header.
const PAGE_FIELDS: [&str; 5] = ["start_seq", "next_seq", "total", "dropped", "epoch_unix_ms"];

/// Write a ring-page header: `host`, then the [`PAGE_FIELDS`].
pub(crate) fn write_page(o: &mut Obj, host: &str, counts: [u64; 5]) {
    o.str("host", host);
    for (key, n) in PAGE_FIELDS.into_iter().zip(counts) {
        o.u64(key, n);
    }
}

/// Read back what [`write_page`] wrote.
pub(crate) fn read_page(doc: &Json) -> Result<(String, [u64; 5]), String> {
    let mut counts = [0; 5];
    for (n, key) in counts.iter_mut().zip(PAGE_FIELDS) {
        *n = doc.u64(key)?;
    }
    Ok((doc.str("host")?.to_string(), counts))
}

/// Deepest nesting of arrays and objects [`parse_json`] accepts. The
/// documents this crate writes nest at most 5 deep; the bound keeps a
/// hostile file from overflowing the parser's stack.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, preserving textual key order.
    Obj(Vec<(String, Json)>),
}

/// The typed accessors read member `key` of an object. A failure says
/// where: `` `events`: [3] `host`: expected a string ``.
impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Member `key`, read by `read`.
    pub(crate) fn field<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Result<T, String>,
    ) -> Result<T, String> {
        let value = self.get(key).ok_or_else(|| "missing".to_string());
        value.and_then(read).map_err(|e| format!("`{key}`: {e}"))
    }

    fn number(&self) -> Result<u64, String> {
        let n = self.as_num().ok_or("expected a number")?;
        Ok(n as u64)
    }

    /// Member `key` as a whole number.
    pub(crate) fn u64(&self, key: &str) -> Result<u64, String> {
        self.field(key, Json::number)
    }

    /// Member `key` as a string.
    pub(crate) fn str(&self, key: &str) -> Result<&str, String> {
        self.field(key, |v| {
            v.as_str().ok_or_else(|| "expected a string".into())
        })
    }

    /// Member `key` as an array, each element read by `read`.
    pub(crate) fn arr<T>(
        &self,
        key: &str,
        read: impl Fn(&Json) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.field(key, |v| match v {
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| read(item).map_err(|e| format!("[{i}] {e}")))
                .collect(),
            _ => Err("expected an array".into()),
        })
    }

    /// Member `key` as an object, each member's value read by `read`,
    /// in textual order.
    pub(crate) fn obj<T>(
        &self,
        key: &str,
        read: impl Fn(&Json) -> Result<T, String>,
    ) -> Result<Vec<(String, T)>, String> {
        self.field(key, |v| match v {
            Json::Obj(members) => members
                .iter()
                .map(|(k, m)| Ok((k.clone(), read(m).map_err(|e| format!("`{k}`: {e}"))?)))
                .collect(),
            _ => Err("expected an object".into()),
        })
    }

    /// Member `key` as an array of whole numbers.
    pub(crate) fn u64s(&self, key: &str) -> Result<Vec<u64>, String> {
        self.arr(key, Json::number)
    }

    /// Member `key` as an object of whole numbers.
    pub(crate) fn u64_map(&self, key: &str) -> Result<BTreeMap<String, u64>, String> {
        Ok(self.obj(key, Json::number)?.into_iter().collect())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nested deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u at byte {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through intact.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| format!("bad utf-8 at byte {}", self.pos))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']' got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                other => return Err(format!("expected ',' or '}}' got {other:?}")),
            }
        }
    }
}

/// Parse a JSON document (rejecting trailing garbage and nesting
/// deeper than `MAX_DEPTH`, 32 levels).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_writer_places_commas_and_escapes_keys_and_strings() {
        let mut counts = BTreeMap::new();
        counts.insert("a\"b".to_string(), 2u64);
        let doc = object(|o| {
            o.u64("n", 1)
                .str("s", "q\"\\\n\u{1}")
                .arg("t", &ArgValue::Bool(true))
                .u64s("empty", &[])
                .u64s("ns", &[1, 2])
                .u64_map("map", &counts)
                .arr("list", |a| {
                    a.obj(|_| {}).obj(|o| {
                        o.obj("deeper", |_| {});
                    });
                });
        });
        assert_eq!(
            doc,
            r#"{"n":1,"s":"q\"\\\n\u0001","t":true,"empty":[],"ns":[1,2],"map":{"a\"b":2},"list":[{},{"deeper":{}}]}"#
        );
        let back = parse_json(&doc).unwrap();
        assert_eq!(back.str("s").unwrap(), "q\"\\\n\u{1}");
        assert_eq!(back.u64s("ns").unwrap(), [1, 2]);
        assert_eq!(back.u64_map("map").unwrap(), counts);
    }

    #[test]
    fn accessors_word_every_failure_alike() {
        let doc = parse_json(r#"{"n":"x","m":{"k":true},"l":[1,"2"]}"#).unwrap();
        assert_eq!(doc.u64("n").unwrap_err(), "`n`: expected a number");
        assert_eq!(doc.str("gone").unwrap_err(), "`gone`: missing");
        assert_eq!(doc.u64_map("m").unwrap_err(), "`m`: `k`: expected a number");
        assert_eq!(doc.u64s("l").unwrap_err(), "`l`: [1] expected a number");
        assert_eq!(doc.u64s("m").unwrap_err(), "`m`: expected an array");
        assert_eq!(doc.u64_map("l").unwrap_err(), "`l`: expected an object");
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        assert!(parse_json(&"[".repeat(100_000)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(100_000)).is_err());
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse_json(&deepest).is_ok());
        let deeper = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse_json(&deeper).is_err());
    }

    #[test]
    fn page_headers_round_trip() {
        let doc = object(|o| write_page(o, "n\"1", [1, 2, 3, 4, 5]));
        assert_eq!(
            doc,
            r#"{"host":"n\"1","start_seq":1,"next_seq":2,"total":3,"dropped":4,"epoch_unix_ms":5}"#
        );
        let back = read_page(&parse_json(&doc).unwrap()).unwrap();
        assert_eq!(back, ("n\"1".to_string(), [1, 2, 3, 4, 5]));
    }
}
