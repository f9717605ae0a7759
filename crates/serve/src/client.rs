//! A small blocking HTTP client for the server's dialect — used by the
//! integration tests, the load bench, and the `observatory_client`
//! example, so none of them need an external HTTP dependency.
//!
//! Supports exactly what the server emits: fixed `Content-Length`
//! bodies and `Transfer-Encoding: chunked` streams (decoded fully
//! before returning). One-shot [`get`] opens a fresh connection;
//! [`ClientConn`] keeps one open for keep-alive request sequences.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// A fully read response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code of the response line.
    pub status: u16,
    /// Header `(name, value)` pairs in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The decoded body (de-chunked when the transfer was chunked).
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn bad_data(context: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, context.to_string())
}

/// A response head: status, headers (names lowercased), and how the
/// body is framed.
struct Head {
    status: u16,
    headers: Vec<(String, String)>,
    /// `None` for a chunked body, else the `Content-Length`.
    fixed_length: Option<usize>,
}

/// Reads a response head. A body that is not chunked needs a valid
/// `Content-Length`.
fn read_head<R: BufRead>(reader: &mut R) -> std::io::Result<Head> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(bad_data("connection closed before status line"));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad_data("malformed status line"))?;

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad_data("connection closed inside headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad_data("malformed header"))?;
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().ok();
        }
        if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        }
        headers.push((name, value));
    }
    let fixed_length = match (chunked, content_length) {
        (true, _) => None,
        (false, Some(length)) => Some(length),
        (false, None) => return Err(bad_data("response without length")),
    };
    Ok(Head {
        status,
        headers,
        fixed_length,
    })
}

fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<HttpResponse> {
    let head = read_head(reader)?;
    let body = match head.fixed_length {
        None => read_chunked(reader)?,
        Some(length) => {
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body)?;
            body
        }
    };
    Ok(HttpResponse {
        status: head.status,
        headers: head.headers,
        body,
    })
}

fn read_chunked<R: BufRead>(reader: &mut R) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::new();
    while read_chunk(reader, &mut body)? {}
    Ok(body)
}

/// Reads one chunk of a chunked body and appends its data to `out`.
/// Returns `false` once the terminating zero-length chunk is read.
fn read_chunk<R: BufRead>(reader: &mut R, out: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut size_line = String::new();
    if reader.read_line(&mut size_line)? == 0 {
        return Err(bad_data("connection closed inside chunked body"));
    }
    // Hex digits and nothing else: `from_str_radix` would also take a
    // sign, reading `+5` as 5.
    let digits = size_line.trim();
    let size = Some(digits)
        .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(|d| usize::from_str_radix(d, 16).ok())
        .ok_or_else(|| bad_data("malformed chunk size"))?;
    if size == 0 {
        let mut trailer = String::new();
        reader.read_line(&mut trailer)?; // the final CRLF
        return Ok(false);
    }
    let start = out.len();
    out.resize(start + size, 0);
    reader.read_exact(&mut out[start..])?;
    let mut crlf = [0u8; 2];
    reader.read_exact(&mut crlf)?;
    if &crlf != b"\r\n" {
        return Err(bad_data("chunk not terminated by CRLF"));
    }
    Ok(true)
}

/// A response whose body is consumed incrementally, line by line — the
/// client side of the server's streaming endpoints (`/trace`,
/// `/watch`). Dropping it mid-stream closes the connection, which the
/// server observes as a hangup on its next write.
pub struct StreamingResponse {
    /// Status code of the response line.
    pub status: u16,
    /// Header `(name, value)` pairs in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    reader: BufReader<TcpStream>,
    /// `None` for a chunked body, else the fixed body's length.
    fixed_length: Option<usize>,
    done: bool,
    pending: Vec<u8>,
}

impl StreamingResponse {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The next decoded body line (without its trailing newline), or
    /// `None` once the stream's terminating chunk has been read.
    /// Blocks until the server emits the next line.
    pub fn next_line(&mut self) -> std::io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                line.pop(); // the newline
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            if self.done {
                if self.pending.is_empty() {
                    return Ok(None);
                }
                let line = std::mem::take(&mut self.pending);
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            self.fill()?;
        }
    }

    /// Reads one more chunk (or the whole fixed body) into `pending`.
    fn fill(&mut self) -> std::io::Result<()> {
        match self.fixed_length {
            None => self.done = !read_chunk(&mut self.reader, &mut self.pending)?,
            Some(length) => {
                let start = self.pending.len();
                self.pending.resize(start + length, 0);
                self.reader.read_exact(&mut self.pending[start..])?;
                self.done = true;
            }
        }
        Ok(())
    }
}

/// Opens a fresh connection and returns once the response head is in,
/// leaving the body to be consumed line by line — for the streaming
/// endpoints, where reading the whole body first would defeat the
/// point. Non-chunked (error) responses also work: their fixed body
/// comes back through [`StreamingResponse::next_line`] the same way.
pub fn get_stream(addr: &str, path_and_query: &str) -> std::io::Result<StreamingResponse> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let head =
        format!("GET {path_and_query} HTTP/1.1\r\nHost: atlarge\r\nConnection: close\r\n\r\n");
    writer.write_all(head.as_bytes())?;
    writer.flush()?;

    let head = read_head(&mut reader)?;
    Ok(StreamingResponse {
        status: head.status,
        headers: head.headers,
        reader,
        fixed_length: head.fixed_length,
        done: false,
        pending: Vec::new(),
    })
}

/// One request over a fresh connection (`Connection: close`).
pub fn get(addr: &str, path_and_query: &str) -> std::io::Result<HttpResponse> {
    let stream = TcpStream::connect(addr)?;
    // One `write_all` per request head, and no Nagle: a head split
    // across small writes interacts with delayed ACKs for a flat
    // ~40 ms per round-trip on loopback.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let head =
        format!("GET {path_and_query} HTTP/1.1\r\nHost: atlarge\r\nConnection: close\r\n\r\n");
    writer.write_all(head.as_bytes())?;
    writer.flush()?;
    read_response(&mut reader)
}

/// A keep-alive connection for request sequences (benches hammer the
/// server through these to measure the server, not the TCP handshake).
pub struct ClientConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ClientConn {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> std::io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(ClientConn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Issues one keep-alive GET and reads the full response.
    pub fn get(&mut self, path_and_query: &str) -> std::io::Result<HttpResponse> {
        let head = format!("GET {path_and_query} HTTP/1.1\r\nHost: atlarge\r\n\r\n");
        self.writer.write_all(head.as_bytes())?;
        self.writer.flush()?;
        read_response(&mut self.reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_fixed_length_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4\r\nX-Atlarge-Cache: hit\r\n\r\nbody";
        let r = read_response(&mut BufReader::new(&raw[..])).expect("parses");
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-atlarge-cache"), Some("hit"));
        assert_eq!(r.header("X-Atlarge-Cache"), Some("hit"), "case-insensitive");
        assert_eq!(r.body, b"body");
    }

    #[test]
    fn decodes_a_chunked_response() {
        let raw =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nhello\n\r\n5\r\nworld\r\n0\r\n\r\n";
        let r = read_response(&mut BufReader::new(&raw[..])).expect("parses");
        assert_eq!(r.body_str(), "hello\nworld");
    }

    #[test]
    fn chunk_sizes_take_hex_digits_only() {
        for size in ["+5", "-5", "", " ", "0x5", "5;x"] {
            let raw = format!(
                "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{size}\r\nhello\r\n0\r\n\r\n"
            );
            let err = read_response(&mut BufReader::new(raw.as_bytes()))
                .expect_err(&format!("size line {size:?}"));
            assert_eq!(
                err.to_string(),
                "malformed chunk size",
                "size line {size:?}"
            );
        }
        let raw =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nA\r\n0123456789\r\n0\r\n\r\n";
        let r = read_response(&mut BufReader::new(&raw[..])).expect("uppercase hex");
        assert_eq!(r.body, b"0123456789");
    }

    #[test]
    fn a_stream_without_a_valid_length_is_refused() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound").to_string();
        let heads = ["Content-Length: 5x\r\n", ""];
        let server = std::thread::spawn(move || {
            for head in heads {
                let (conn, _) = listener.accept().expect("accepts");
                let mut request = BufReader::new(&conn);
                let mut line = String::new();
                while request.read_line(&mut line).expect("reads") > 2 {
                    line.clear();
                }
                let answer = format!("HTTP/1.1 200 OK\r\n{head}\r\nhello");
                (&conn).write_all(answer.as_bytes()).expect("answers");
            }
        });
        for head in heads {
            match get_stream(&addr, "/watch") {
                Ok(_) => panic!("{head:?}: a body with no valid length was accepted"),
                Err(e) => assert_eq!(e.to_string(), "response without length", "{head:?}"),
            }
        }
        server.join().expect("server thread");
    }

    #[test]
    fn truncated_responses_are_errors_not_hangs() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        assert!(read_response(&mut BufReader::new(&raw[..])).is_err());
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nff\r\nnope";
        assert!(read_response(&mut BufReader::new(&raw[..])).is_err());
    }
}
