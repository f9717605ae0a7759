//! A minimal HTTP/1.1 dialect — exactly the subset the exploration
//! server speaks, written against `std` only.
//!
//! Requests are `GET` with a path and query string; responses are
//! either fixed bodies (`Content-Length`) or live streams
//! (`Transfer-Encoding: chunked`, via `ChunkedWriter`). Parsing is
//! deliberately strict: a malformed request line or an oversized
//! header block is a `400`, never a guess — the server's determinism
//! story starts with refusing ambiguous input.

use std::borrow::Cow;
use std::io::{BufRead, Read, Write};

/// Upper bound on the request line plus headers, to keep a misbehaving
/// client from growing server memory. Enforced while reading: no more
/// than one byte past it is ever taken from the stream.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request head (this dialect has no request bodies),
/// borrowing the buffer [`read_request`] read it into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request<'h> {
    /// Method as sent, e.g. `GET`.
    pub method: &'h str,
    /// Path without the query string, e.g. `/run`.
    pub path: &'h str,
    /// The query string after `?`, still percent-encoded; empty when
    /// the target has none. [`Request::query_pairs`] decodes it.
    pub query: &'h str,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl<'h> Request<'h> {
    /// The decoded `key=value` pairs of the query string, in wire
    /// order, as [`parse_query`] decodes them; a half is copied only
    /// when it has something to decode.
    pub fn query_pairs(&self) -> Vec<(Cow<'h, str>, Cow<'h, str>)> {
        decode_pairs(self.query).collect()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before a request line arrived.
    Closed,
    /// Transport failure mid-request.
    Io(std::io::Error),
    /// Syntactically invalid request — answer 400 and hang up.
    Malformed(String),
}

/// Reads one request head from `reader` into `head`, which is cleared
/// first and which the caller reuses from request to request, and
/// parses it in place.
pub fn read_request<'h, R: BufRead>(
    reader: &mut R,
    head: &'h mut Vec<u8>,
) -> Result<Request<'h>, ReadError> {
    head.clear();
    if read_head_line(reader, head)? == 0 {
        return Err(ReadError::Closed);
    }
    let line = utf8(head)?;
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Err(ReadError::Malformed(format!("bad request line: {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    let mut keep_alive = version == "HTTP/1.1";
    // Where the method and target sit in `head`: reading the headers
    // appends to it, so the request line is sliced again at the end.
    let offset = |part: &str| part.as_ptr() as usize - line.as_ptr() as usize;
    let method = offset(method)..offset(method) + method.len();
    let target = offset(target)..offset(target) + target.len();
    let line_len = line.len();

    // Headers: we only act on Connection; everything else is skipped.
    loop {
        let start = head.len();
        if read_head_line(reader, head)? == 0 {
            return Err(ReadError::Malformed("eof inside headers".to_string()));
        }
        let header = utf8(&head[start..])?.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        } else {
            return Err(ReadError::Malformed(format!("bad header: {header:?}")));
        }
    }

    let line = utf8(&head[..line_len])?;
    let target = &line[target];
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Ok(Request {
        method: &line[method],
        path,
        query,
        keep_alive,
    })
}

/// Appends one line of the head, through its `\n`, to `head`, taking
/// at most one byte past [`MAX_HEAD_BYTES`] from `reader`. Returns the
/// bytes read: zero at end of stream.
fn read_head_line<R: BufRead>(reader: &mut R, head: &mut Vec<u8>) -> Result<usize, ReadError> {
    let budget = (MAX_HEAD_BYTES + 1).saturating_sub(head.len()) as u64;
    let n = reader
        .take(budget)
        .read_until(b'\n', head)
        .map_err(ReadError::Io)?;
    if head.len() > MAX_HEAD_BYTES {
        return Err(ReadError::Malformed("request head too large".to_string()));
    }
    Ok(n)
}

/// The head's bytes as text; invalid UTF-8 is a transport error, as
/// `BufRead::read_line` reports it.
fn utf8(bytes: &[u8]) -> Result<&str, ReadError> {
    std::str::from_utf8(bytes).map_err(|_| {
        ReadError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })
}

/// Decodes a query string into `key=value` pairs, applying `%XX` and
/// `+` decoding to both halves. Keys without `=` get an empty value.
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    decode_pairs(q)
        .map(|(key, value)| (key.into_owned(), value.into_owned()))
        .collect()
}

fn decode_pairs(q: &str) -> impl Iterator<Item = (Cow<'_, str>, Cow<'_, str>)> {
    q.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), Cow::Borrowed("")),
        })
}

/// Decodes `%XX` escapes and `+`-as-space; invalid escapes pass
/// through literally, which keeps decoding total (no error path).
/// Text with neither is returned as it is, uncopied.
pub(crate) fn percent_decode(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(|b| b == b'%' || b == b'+') {
        return Cow::Borrowed(s);
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // Two ASCII hex digits and nothing else: `from_str_radix`
                // would also take a sign, decoding `%+1` as byte 1.
                let hex = bytes
                    .get(i + 1..i + 3)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit));
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    Cow::Owned(String::from_utf8_lossy(&out).into_owned())
}

/// The reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response. `extra_headers` are
/// emitted verbatim after the standard ones.
pub(crate) fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    )?;
    write_headers(w, extra_headers)?;
    w.write_all(body)?;
    w.flush()
}

/// Writes `extra_headers` verbatim, then the blank line ending the head.
fn write_headers<W: Write>(w: &mut W, extra_headers: &[(&str, &str)]) -> std::io::Result<()> {
    for (name, value) in extra_headers {
        w.write_all(name.as_bytes())?;
        w.write_all(b": ")?;
        w.write_all(value.as_bytes())?;
        w.write_all(b"\r\n")?;
    }
    w.write_all(b"\r\n")
}

/// Writes the head of a chunked streaming response in one write; follow
/// with a [`ChunkedWriter`] over the same stream.
pub(crate) fn write_chunked_head<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut head = Vec::with_capacity(256);
    write!(
        head,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
        reason(status)
    )?;
    write_headers(&mut head, extra_headers)?;
    w.write_all(&head)?;
    w.flush()
}

/// A `Transfer-Encoding: chunked` body encoder: every `write` becomes
/// one chunk, framed in one buffer and passed to the inner writer in
/// one `write_all`, so each flushed trace line reaches the client
/// framed and parseable immediately, in one send on a raw socket.
pub(crate) struct ChunkedWriter<W: Write> {
    inner: W,
    /// The chunk being framed, reused from write to write.
    frame: Vec<u8>,
}

impl<W: Write> ChunkedWriter<W> {
    /// Wraps `inner`, which must already carry the chunked head.
    pub fn new(inner: W) -> Self {
        ChunkedWriter {
            inner,
            frame: Vec::new(),
        }
    }

    /// Writes the terminating zero-length chunk.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.inner.write_all(b"0\r\n\r\n")?;
        self.inner.flush()
    }
}

impl<W: Write> Write for ChunkedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.frame.clear();
        write!(self.frame, "{:x}\r\n", buf.len())?;
        self.frame.extend_from_slice(buf);
        self.frame.extend_from_slice(b"\r\n");
        self.inner.write_all(&self.frame)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse<'h>(raw: &str, head: &'h mut Vec<u8>) -> Result<Request<'h>, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()), head)
    }

    fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parses_a_full_request() {
        let mut head = Vec::new();
        let r = parse(
            "GET /run?domain=graph&n=400 HTTP/1.1\r\nHost: x\r\n\r\n",
            &mut head,
        )
        .expect("parses");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/run");
        assert_eq!(r.query, "domain=graph&n=400");
        assert_eq!(
            r.query_pairs(),
            vec![
                (Cow::Borrowed("domain"), Cow::Borrowed("graph")),
                (Cow::Borrowed("n"), Cow::Borrowed("400"))
            ]
        );
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn query_pairs_decode_like_parse_query_and_copy_only_escapes() {
        let mut head = Vec::new();
        let r = parse(
            "GET /run?domain=%67raph&a+b=c&flag&=v HTTP/1.1\r\n\r\n",
            &mut head,
        )
        .expect("parses");
        let pairs = r.query_pairs();
        let decoded: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        assert_eq!(decoded, parse_query(r.query));
        assert_eq!(
            decoded,
            owned(&[("domain", "graph"), ("a b", "c"), ("flag", ""), ("", "v")])
        );
        assert!(matches!(pairs[0].0, Cow::Borrowed(_)));
        assert!(matches!(pairs[0].1, Cow::Owned(_)));
        assert!(matches!(pairs[1].1, Cow::Borrowed(_)));
    }

    #[test]
    fn one_buffer_reads_pipelined_requests() {
        let raw =
            "GET /a?x=1 HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let mut head = Vec::new();
        let first = read_request(&mut reader, &mut head).expect("first");
        assert_eq!(
            (first.path, first.query, first.keep_alive),
            ("/a", "x=1", true)
        );
        let second = read_request(&mut reader, &mut head).expect("second");
        assert_eq!(
            (second.path, second.query, second.keep_alive),
            ("/b", "", false)
        );
        assert!(matches!(
            read_request(&mut reader, &mut head),
            Err(ReadError::Closed)
        ));
    }

    #[test]
    fn connection_close_is_honored() {
        let mut head = Vec::new();
        let r = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", &mut head).expect("parses");
        assert!(!r.keep_alive);
        let r = parse("GET / HTTP/1.0\r\n\r\n", &mut head).expect("parses");
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn malformed_heads_are_rejected() {
        let mut head = Vec::new();
        assert!(matches!(
            parse("GARBAGE\r\n\r\n", &mut head),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(parse("", &mut head), Err(ReadError::Closed)));
        assert!(matches!(
            parse("GET / SPDY/9\r\n\r\n", &mut head),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nnocolonhere\r\n\r\n", &mut head),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nHost: x\r\n", &mut head),
            Err(ReadError::Malformed(m)) if m == "eof inside headers"
        ));
    }

    fn too_large(result: Result<Request<'_>, ReadError>) -> bool {
        matches!(result, Err(ReadError::Malformed(m)) if m == "request head too large")
    }

    #[test]
    fn head_limit_is_enforced_while_reading() {
        // A 1 MiB request line, with and without its newline: refused
        // after at most the budget plus one buffer fill of the reader.
        for tail in ["", " HTTP/1.1\r\n\r\n"] {
            let raw = format!("GET /run?pad={}{tail}", "a".repeat(1 << 20));
            let mut reader = BufReader::new(raw.as_bytes());
            let mut head = Vec::new();
            assert!(too_large(read_request(&mut reader, &mut head)));
            let consumed = raw.len() - reader.get_ref().len();
            assert!(
                consumed <= MAX_HEAD_BYTES + reader.capacity(),
                "read {consumed} bytes of a {}-byte head",
                raw.len()
            );
            assert!(head.len() <= MAX_HEAD_BYTES + 1);
        }
        // Headers count toward the same budget.
        let raw = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "b".repeat(20_000));
        assert!(too_large(parse(&raw, &mut Vec::new())));
    }

    #[test]
    fn a_head_of_exactly_the_limit_is_accepted() {
        let line = "GET / HTTP/1.1\r\n";
        let end = "\r\n";
        let fill = MAX_HEAD_BYTES - line.len() - end.len() - "X: \r\n".len();
        let raw = format!("{line}X: {}\r\n{end}", "c".repeat(fill));
        assert_eq!(raw.len(), MAX_HEAD_BYTES);
        assert!(parse(&raw, &mut Vec::new()).is_ok());
        let over = format!("{line}X: {}\r\n{end}", "c".repeat(fill + 1));
        assert!(too_large(parse(&over, &mut Vec::new())));
    }

    #[test]
    fn percent_decoding_round_trips() {
        assert!(matches!(percent_decode("plain"), Cow::Borrowed("plain")));
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%5B114%5D"), "[114]");
        assert_eq!(percent_decode("100%"), "100%", "dangling escape is literal");
        assert_eq!(percent_decode("%zz"), "%zz", "bad hex is literal");
        assert_eq!(percent_decode("%+1"), "% 1", "a sign is not a hex digit");
    }

    #[test]
    fn chunked_writer_frames_every_write() {
        let mut buf = Vec::new();
        {
            let mut w = ChunkedWriter::new(&mut buf);
            w.write_all(b"hello\n").unwrap();
            w.write_all(b"world").unwrap();
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "6\r\nhello\n\r\n5\r\nworld\r\n0\r\n\r\n");
    }

    /// A writer that records each `write` call's bytes apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn heads_and_chunks_each_reach_the_stream_in_one_write() {
        let mut writes = Writes::default();
        write_chunked_head(
            &mut writes,
            200,
            "application/jsonl",
            &[("X-Atlarge-Key", "k"), ("X-Atlarge-Request", "7")],
        )
        .unwrap();
        let mut w = ChunkedWriter::new(writes);
        w.write_all(b"{\"a\":1}\n").unwrap();
        w.write_all(b"{\"b\":2}\n").unwrap();
        let writes = std::mem::take(&mut w.inner);
        w.finish().unwrap();
        let writes: Vec<String> = writes
            .0
            .into_iter()
            .map(|bytes| String::from_utf8(bytes).unwrap())
            .collect();
        assert_eq!(
            writes,
            [
                "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\n\
                 Transfer-Encoding: chunked\r\nConnection: close\r\n\
                 X-Atlarge-Key: k\r\nX-Atlarge-Request: 7\r\n\r\n",
                "8\r\n{\"a\":1}\n\r\n",
                "8\r\n{\"b\":2}\n\r\n",
            ]
        );
    }

    #[test]
    fn responses_carry_length_and_extra_headers() {
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            200,
            "application/json",
            &[("X-Atlarge-Cache", "hit")],
            b"{}",
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("X-Atlarge-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
