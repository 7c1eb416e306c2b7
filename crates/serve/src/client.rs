//! Minimal blocking HTTP/1.1 client for tests and benchmarks: GET with
//! keep-alive, `Content-Length` framing, nothing else.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The most a `Content-Length` header may make the client allocate ahead
/// of the bytes themselves.
const MAX_RESERVE: usize = 1 << 20;

/// One-shot GET: connect, request, read the full response, close.
///
/// # Errors
/// Propagates connect/read/write failures and malformed responses.
pub fn get(addr: SocketAddr, target: &str) -> io::Result<(u16, String)> {
    HttpClient::connect(addr)?.get(target)
}

/// A keep-alive client pinned to one server address. Reconnects
/// transparently when the server closed the previous connection.
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl HttpClient {
    /// Connects to `addr`.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(HttpClient {
            addr,
            stream: Some(Self::dial(addr)?),
        })
    }

    fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(stream)
    }

    /// Issues `GET {target}` and returns `(status, body)`. Reuses the
    /// connection when the server allows; retries once on a fresh
    /// connection when a reused one turns out dead.
    ///
    /// # Errors
    /// Propagates I/O failures and malformed responses.
    pub fn get(&mut self, target: &str) -> io::Result<(u16, String)> {
        self.send("GET", target)
    }

    /// Issues `POST {target}` (empty body) and returns `(status, body)`.
    ///
    /// # Errors
    /// Propagates I/O failures and malformed responses.
    pub fn post(&mut self, target: &str) -> io::Result<(u16, String)> {
        self.send("POST", target)
    }

    fn send(&mut self, method: &str, target: &str) -> io::Result<(u16, String)> {
        let reused = self.stream.is_some();
        if self.stream.is_none() {
            self.stream = Some(Self::dial(self.addr)?);
        }
        let mut received_any = false;
        match self.request(method, target, &mut received_any) {
            Ok(out) => Ok(out),
            Err(_) if reused && !received_any => {
                // The server may have closed the idle connection between
                // requests; one fresh attempt is the keep-alive contract.
                // Retry ONLY when no response byte ever arrived — a
                // failure mid-response (truncation) must surface to the
                // caller, not be papered over by a redial. The retry's
                // error is the one reported: it reflects the server's
                // current state, not the stale connection's.
                self.stream = Some(Self::dial(self.addr)?);
                let mut retry_received = false;
                let out = self.request(method, target, &mut retry_received);
                if out.is_err() {
                    self.stream = None;
                }
                out
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn request(
        &mut self,
        method: &str,
        target: &str,
        received_any: &mut bool,
    ) -> io::Result<(u16, String)> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no connection"))?;
        let req = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n",
            self.addr
        );
        stream.write_all(req.as_bytes())?;

        // Read the response head, resuming the terminator scan where the
        // last read left it (less the three bytes a split `\r\n\r\n`
        // may have left behind).
        let mut buf: Vec<u8> = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let mut scanned = 0usize;
        let head_end = loop {
            let from = scanned.saturating_sub(3);
            if let Some(p) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + p + 4;
            }
            scanned = buf.len();
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before response head",
                ));
            }
            *received_any = true;
            buf.extend_from_slice(&chunk[..n]);
        };
        // Parsed in place: borrowed unless the head is not UTF-8.
        let (status, content_length, close) = {
            let head = String::from_utf8_lossy(&buf[..head_end]);
            let mut lines = head.split("\r\n");
            let status_line = lines.next().unwrap_or("");
            let status: u16 = status_line
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad status line `{status_line}`"),
                    )
                })?;
            let mut content_length = 0usize;
            let mut close = false;
            for line in lines {
                let Some((name, value)) = line.split_once(':') else {
                    continue;
                };
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                } else if name.eq_ignore_ascii_case("connection")
                    && value.trim().eq_ignore_ascii_case("close")
                {
                    close = true;
                }
            }
            (status, content_length, close)
        };

        // Read the body (part of it may already be buffered) into the
        // same buffer, then cut the head off its front.
        let response_end = head_end.checked_add(content_length).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "Content-Length overflows")
        })?;
        // Reserved once — up to a bound: the length is the server's word,
        // and a body larger than that grows the buffer as it arrives.
        buf.reserve(response_end.saturating_sub(buf.len()).min(MAX_RESERVE));
        while buf.len() < response_end {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        buf.truncate(response_end);
        buf.drain(..head_end);
        if close {
            self.stream = None;
        }
        String::from_utf8(buf)
            .map(|b| (status, b))
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))
    }
}
