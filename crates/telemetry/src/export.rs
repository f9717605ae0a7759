//! Hand-rolled JSON/JSONL encoding.
//!
//! The workspace deliberately avoids serialization dependencies; traces and
//! metrics are flat records, so the encoder is a page of code. Only the
//! subset of JSON the exporters emit is supported: objects of string,
//! number, and string-escaped values, one object per line (JSONL).
//!
//! There is one writer: it appends to a `String` the caller owns, so a
//! renderer fills one buffer instead of allocating a string per key,
//! value and escape. [`object_into`] opens an object whose fields an
//! [`ObjectWriter`] appends in call order, through the module's one
//! escaper (`escape_into`) and one float formatter (`f64_into`). The
//! allocating helpers ([`json_escape`], [`json_str`], [`json_f64`],
//! [`json_object`]) are calls into the same writer, kept for renderers
//! off the hot paths.

use std::fmt::Write as _;

/// Appends `s` to `out`, escaped for inclusion inside JSON double quotes:
/// `\"`, `\\`, `\n`, `\r`, `\t`, and `\u00xx` (lowercase hex) for every
/// other byte below 0x20. Each run of bytes that needs no escape is
/// copied with one `push_str`.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every escaped byte is ASCII, so `i` and `i + 1` are char
        // boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
fn str_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `x` to `out` as a JSON value: the shortest round-trip decimal
/// for finite numbers, `null` for NaN and infinities (which JSON cannot
/// carry).
fn f64_into(out: &mut String, x: f64) {
    if x.is_finite() {
        write!(out, "{x:?}").expect("a String takes any text");
    } else {
        out.push_str("null");
    }
}

/// Appends one JSON object to `out`: `{`, the fields `fill` writes in
/// call order, `}`.
///
/// # Examples
///
/// ```
/// use atlarge_telemetry::export::object_into;
///
/// let mut out = String::new();
/// object_into(&mut out, |o| {
///     o.str("kind", "span").u64("n", 2).object("at", |at| {
///         at.f64("t", 1.5);
///     });
/// });
/// assert_eq!(out, r#"{"kind":"span","n":2,"at":{"t":1.5}}"#);
/// ```
pub fn object_into(out: &mut String, fill: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    fill(&mut ObjectWriter { out, first: true });
    out.push('}');
}

/// An open JSON object at the end of a caller's `String`. Each method
/// appends one `"key":value` field (the key escaped like any string)
/// and returns the writer, so fields chain. Made by [`object_into`] and
/// [`ObjectWriter::object`], which close the object.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ObjectWriter<'_> {
    /// Appends the separator and `"key":`, and hands back the buffer
    /// for the value.
    fn key(&mut self, key: &str) -> &mut String {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
        str_into(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        str_into(self.key(key), value);
        self
    }

    /// A number field, `null` when `value` is not finite.
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        f64_into(self.key(key), value);
        self
    }

    /// An integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        write!(self.key(key), "{value}").expect("a String takes any text");
        self
    }

    /// A field whose value is already-rendered JSON, copied verbatim.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key).push_str(json);
        self
    }

    /// A nested object field whose fields `fill` writes.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        object_into(self.key(key), fill);
        self
    }
}

/// Escapes a string for inclusion inside JSON double quotes: `\"`,
/// `\\`, `\n`, `\r`, `\t`, and `\u00xx` (lowercase hex) for every
/// other byte below 0x20.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Renders an `f64` as a JSON value: the shortest round-trip decimal
/// for finite numbers, `null` for NaN and infinities.
pub fn json_f64(x: f64) -> String {
    let mut out = String::new();
    f64_into(&mut out, x);
    out
}

/// Renders a `(key, value)` list as one JSON object. Values are emitted
/// verbatim — pass them through [`json_f64`], [`json_str`], or integer
/// formatting first.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let mut out = String::new();
    object_into(&mut out, |o| {
        for (key, value) in fields {
            o.raw(key, value);
        }
    });
    out
}

/// A quoted, escaped JSON string value.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    str_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_check::{check, vec_of};
    use rand::Rng;

    /// The char-by-char escaper the writer replaced: the reference
    /// every escape is checked against.
    fn reference_escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("\u{1f}\u{7f}é"), "\\u001f\u{7f}é");
        assert_eq!(json_escape(""), "");
    }

    #[test]
    fn prop_escaping_equals_the_char_by_char_reference() {
        // Quotes, backslashes, every byte below 0x20, DEL, plain ASCII,
        // and two-, three- and four-byte UTF-8.
        let mut pool: Vec<char> = (0u8..0x20).map(char::from).collect();
        pool.extend(['"', '\\', '\u{7f}', 'a', 'Z', '0', ' ', '/', '~']);
        pool.extend(['é', 'ß', '€', '中', '😀', '\u{10ffff}']);
        check("export_escape_reference", 512, |rng| {
            let s: String = vec_of(rng, 0..48, |rng| {
                if rng.gen_bool(0.2) {
                    // Any scalar value, surrogates excluded.
                    char::from_u32(rng.gen_range(0u32..0x11_0000)).unwrap_or('x')
                } else {
                    pool[rng.gen_range(0..pool.len())]
                }
            })
            .into_iter()
            .collect();
            let mut appended = String::from("prefix");
            escape_into(&mut appended, &s);
            assert_eq!(appended, format!("prefix{}", reference_escape(&s)), "{s:?}");
            assert_eq!(json_escape(&s), reference_escape(&s), "{s:?}");
            assert_eq!(json_str(&s), format!("\"{}\"", reference_escape(&s)));
        });
    }

    fn reference_f64(x: f64) -> String {
        if x.is_finite() {
            format!("{x:?}")
        } else {
            "null".to_string()
        }
    }

    #[test]
    fn floats_round_trip_or_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        for x in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -5e-324,
            1e-7,
            1e16,
            1e15,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(json_f64(x), reference_f64(x), "{x:e}");
        }
        assert_eq!(json_f64(-0.0), "-0.0");
        assert_eq!(json_f64(1e16), "1e16");
        assert_eq!(json_f64(1e-7), "1e-7");
    }

    #[test]
    fn prop_floats_equal_debug_or_null() {
        check("export_f64_reference", 2048, |rng| {
            let x = f64::from_bits(rng.gen::<u64>());
            let mut out = String::from("[");
            f64_into(&mut out, x);
            assert_eq!(out, format!("[{}", reference_f64(x)), "{:#x}", x.to_bits());
        });
    }

    #[test]
    fn objects_assemble() {
        let o = json_object(&[
            ("t", json_f64(1.0)),
            ("label", json_str("a\"b")),
            ("n", 3.to_string()),
        ]);
        assert_eq!(o, "{\"t\":1.0,\"label\":\"a\\\"b\",\"n\":3}");
        assert_eq!(json_object(&[]), "{}");
    }

    #[test]
    fn object_writer_matches_json_object() {
        let mut out = String::from("x");
        object_into(&mut out, |o| {
            o.f64("t", 1.0)
                .str("label", "a\"b")
                .u64("n", u64::MAX)
                .raw("pre", "[1,2]")
                .object("empty", |_| {})
                .object("k\ney", |inner| {
                    inner.f64("nan", f64::NAN);
                });
        });
        let expected = json_object(&[
            ("t", json_f64(1.0)),
            ("label", json_str("a\"b")),
            ("n", u64::MAX.to_string()),
            ("pre", "[1,2]".to_string()),
            ("empty", json_object(&[])),
            ("k\ney", json_object(&[("nan", json_f64(f64::NAN))])),
        ]);
        assert_eq!(out, format!("x{expected}"));
        assert!(out.contains("\"k\\ney\":{\"nan\":null}"), "{out}");
    }
}
