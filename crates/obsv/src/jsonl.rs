//! A minimal JSON reader for the telemetry export dialect.
//!
//! The telemetry crate hand-writes its JSONL (no serde in the
//! workspace), and this module is the matching hand-written reader: a
//! recursive-descent parser over the full JSON grammar, plus the
//! accessors the analyzers need. Being a *reader of our own writer* it
//! favors clear errors over leniency — any malformed line aborts the
//! analysis rather than silently skewing it. Whatever file it is given,
//! it returns `Ok` or a typed [`ParseError`]: nesting deeper than 128
//! levels is refused rather than recursed into, and strings are scanned
//! in one pass.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (all are read as `f64`, like JavaScript).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved via first-wins de-duplication
    /// into a map for lookup.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a float, if numeric.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if numeric and integral.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// This value as a boolean.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Float member `key`, a convenience for the common case.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Integer member `key`.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// String member `key`.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Boolean member `key`.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Json::as_bool)
    }
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// The deepest array/object nesting the reader accepts. The export
/// dialect nests a few levels; the bound keeps a hostile line from
/// exhausting the stack.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Parses every non-empty line of `text` as a JSON object.
pub fn parse_lines(text: &str) -> Result<Vec<Json>, ParseError> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse)
        .collect()
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.entry(key).or_insert(val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            // Four ASCII hex digits and nothing else:
                            // `from_str_radix` would also take a sign.
                            let code = Some(hex)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u hex"))?;
                            self.pos += 4;
                            // Surrogates never appear in our own exports;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one
                    // step: the input is already UTF-8, and every byte
                    // the scan stops at is ASCII, so `pos` stays on a
                    // character boundary.
                    let rest = self.input.get(self.pos..).unwrap_or_default();
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_check::check;
    use rand::Rng;

    #[test]
    fn parses_a_trace_line() {
        let v = parse(r#"{"t":1.5,"kind":"dispatch","label":"tick","queue":3,"id":7,"parent":2}"#)
            .unwrap();
        assert_eq!(v.str_field("kind"), Some("dispatch"));
        assert_eq!(v.u64_field("id"), Some(7));
        assert_eq!(v.u64_field("parent"), Some(2));
        assert_eq!(v.f64_field("t"), Some(1.5));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_nested_arrays_and_nulls() {
        let v = parse(r#"{"points":[[0.5,1.0],[2.5,null]],"ok":true}"#).unwrap();
        let pts = v.get("points").unwrap().as_arr().unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].as_arr().unwrap()[1].as_f64(), Some(1.0));
        assert_eq!(pts[1].as_arr().unwrap()[1], Json::Null);
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parses_escapes_and_negative_exponents() {
        let v = parse(r#"{"s":"a\"b\nc","x":-1.5e-3}"#).unwrap();
        assert_eq!(v.str_field("s"), Some("a\"b\nc"));
        assert!((v.f64_field("x").unwrap() + 0.0015).abs() < 1e-12);
        assert_eq!(parse(r#""\u0041""#), Ok(Json::Str("A".to_string())));
        let signed = parse(r#""\u+041""#).expect_err("a sign is not a hex digit");
        assert_eq!(signed.msg, "bad \\u hex");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parse_lines_skips_blank_lines() {
        let lines = parse_lines("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let line = "[".repeat(1 << 20);
        let err = parse(&line).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        assert!(parse(&format!("[{ok}]")).is_err());
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        let body = "é".repeat(128 * 1024);
        let v = parse(&format!(r#"{{"label":"{body}\n"}}"#)).unwrap();
        let label = v.str_field("label").unwrap();
        assert_eq!(label.len(), 256 * 1024 + 1);
        assert!(label.ends_with("é\n"));
    }

    /// Real lines of the three dialects the reader meets: a kernel
    /// trace, a metrics export and a `/watch` pulse.
    const REAL_LINES: [&str; 6] = [
        r#"{"t":0.0,"kind":"schedule","label":"join","fire_at":108.26739201943644,"id":0}"#,
        r#"{"t":0.0,"kind":"span_enter","label":"sequential/job"}"#,
        r#"{"kind":"manifest","schema":1,"model":"p2p.swarm","seed":"15310819316158845671","config_digest":"022b59fc85f90803","events_scheduled":9882,"events_dispatched":9881,"sim_time":80000.0,"trace_records":19763,"trace_dropped":0,"fingerprint":"25abcb9e315dee00","wall_ms":18.762291}"#,
        r#"{"kind":"counter","name":"swarm.completions","value":940}"#,
        r#"{"kind":"tally","name":"scale.task_wait_s","count":96,"mean":23.267349137955637,"min":0.0,"p50":9.291804796186113,"p95":70.28801382905333,"p99":72.85785551377506,"max":77.71046806173479}"#,
        r#"{"kind":"pulse","t_ms":1500.0,"window_ms":1000.0,"requests":42,"rps":42.0,"hit_rate":0.5,"shed_rate":0.0,"errors":0,"queue_depth":3,"p50_ms":1.2,"p99_ms":9.5,"stages":{"run":{"p50_us":12.5}},"slo":{"state":"ok","healthy":true},"slowest":null,"note":"caf\u00e9 \"x\""}"#,
    ];

    /// Truncated, spliced and bracket-flooded real lines only ever
    /// return `Ok` or `Err`.
    #[test]
    fn prop_mangled_lines_never_panic() {
        for line in REAL_LINES {
            assert!(parse(line).is_ok(), "{line}");
        }
        const SPLICE: [&str; 10] = ["[", "{", "]", "}", "\"", "\\", "\\u", ":", ",", "é"];
        check("prop_mangled_lines_never_panic", 512, |rng| {
            let mut line: Vec<char> = REAL_LINES[rng.gen_range(0..REAL_LINES.len())]
                .chars()
                .collect();
            for _ in 0..rng.gen_range(0..4) {
                let at = rng.gen_range(0..=line.len());
                match rng.gen_range(0..3) {
                    0 => line.truncate(at),
                    1 => {
                        let piece = SPLICE[rng.gen_range(0..SPLICE.len())];
                        line.splice(at..at, piece.chars());
                    }
                    _ => {
                        let bracket = if rng.gen_range(0..2) == 0 { '[' } else { '{' };
                        let n = rng.gen_range(1..400);
                        line.splice(at..at, std::iter::repeat_n(bracket, n));
                    }
                }
            }
            let text: String = line.into_iter().collect();
            let _typed: Result<Json, ParseError> = parse(&text);
            let _lines = parse_lines(&format!("{text}\n{text}"));
        });
    }
}
