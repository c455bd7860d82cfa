//! The one keep-alive HTTP/1.1 connection the benchmark drives the server
//! over: blocking, `TCP_NODELAY`, `Content-Length` and chunked replies.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bench_ops::traffic::http_request;

/// A reply larger than this is a server bug, not something to buffer.
const MAX_REPLY_BYTES: usize = 256 << 20;

pub struct Client {
    stream: TcpStream,
    /// Bytes read off the socket but not yet consumed.
    buf: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Far above any op here (the slowest takes well under a second):
        // a hung server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Sends one request and reads the whole reply into `body`. Returns
    /// the status code.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        payload: &[u8],
        body: &mut Vec<u8>,
    ) -> io::Result<u16> {
        self.stream
            .write_all(&http_request(method, path, payload))?;

        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = None;
        let mut chunked = false;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = Some(value.parse::<usize>().map_err(|_| bad("bad length"))?);
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value.eq_ignore_ascii_case("chunked");
                }
            }
        }
        self.buf.drain(..head_end);

        body.clear();
        if chunked {
            loop {
                let line_end = loop {
                    if let Some(i) = find(&self.buf, b"\r\n") {
                        break i;
                    }
                    self.fill()?;
                };
                let size = std::str::from_utf8(&self.buf[..line_end])
                    .ok()
                    .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
                    .filter(|&n| body.len() + n <= MAX_REPLY_BYTES)
                    .ok_or_else(|| bad("bad chunk size"))?;
                self.buf.drain(..line_end + 2);
                self.take(size + 2, body)?;
                body.truncate(body.len() - 2); // the chunk's trailing CRLF
                if size == 0 {
                    break;
                }
            }
        } else {
            let n = content_length.ok_or_else(|| bad("reply without a length"))?;
            if n > MAX_REPLY_BYTES {
                return Err(bad("reply too large"));
            }
            self.take(n, body)?;
        }
        Ok(status)
    }

    /// Moves exactly `n` bytes from the connection onto the end of `out`.
    fn take(&mut self, n: usize, out: &mut Vec<u8>) -> io::Result<()> {
        let buffered = n.min(self.buf.len());
        out.extend_from_slice(&self.buf[..buffered]);
        self.buf.drain(..buffered);
        let start = out.len();
        out.resize(start + (n - buffered), 0);
        self.stream.read_exact(&mut out[start..])
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Counts the rows of a `POST /query` reply without building a tree: the
/// arrays directly inside `"rows":[ … ]`. `None` when the body does not
/// have that shape. Bodies reach megabytes, so this is one linear scan
/// that only tracks string state and bracket depth.
pub fn count_rows(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"rows\":[";
    let start = find(body, KEY)? + KEY.len();
    let (mut depth, mut rows) = (1u32, 0u64);
    let mut i = start;
    while i < body.len() {
        match body[i] {
            b'"' => {
                i += 1;
                while *body.get(i)? != b'"' {
                    i += if body[i] == b'\\' { 2 } else { 1 };
                }
            }
            b'[' => {
                depth += 1;
                if depth == 2 {
                    rows += 1;
                }
            }
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rows);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::count_rows;

    #[test]
    fn counts_rows_past_brackets_inside_strings() {
        let body = br#"{"vars":["x","y"],"rows":[["<a>","\"],[\\\"]"],["<b>","<c>"]],"epoch":3,"stats":null}"#;
        assert_eq!(count_rows(body), Some(2));
        assert_eq!(
            count_rows(br#"{"vars":["x"],"rows":[],"epoch":1}"#),
            Some(0)
        );
        assert_eq!(count_rows(br#"{"rows":[["<a>"]"#), None);
        assert_eq!(count_rows(br#"{"error":"bad_query"}"#), None);
    }
}
