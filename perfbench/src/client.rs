//! A keep-alive HTTP/1.1 client over loopback, and the request encoders.
//! Requests are sent as pre-built bytes so the timed path does no
//! formatting.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    body: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            reader: BufReader::with_capacity(64 << 10, stream.try_clone()?),
            writer: stream,
            line: String::new(),
            body: Vec::new(),
        })
    }

    pub fn send(&mut self, raw: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(raw)
    }

    /// Reads one response; returns its status. The body stays readable via
    /// [`Conn::body`] until the next call.
    pub fn recv(&mut self) -> std::io::Result<u16> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed inside headers"));
            }
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| bad("bad length"))?;
                }
            }
        }
        self.body.resize(content_length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }

    pub fn request(&mut self, raw: &[u8]) -> std::io::Result<u16> {
        self.send(raw)?;
        self.recv()
    }

    pub fn body(&self) -> &[u8] {
        &self.body
    }
}

/// `{"items":[..]}` — the `POST /ingest` body.
pub fn ingest_body(items: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(items.len() * 8 + 16);
    out.extend_from_slice(b"{\"items\":[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write!(out, "{item}").expect("writing to a Vec cannot fail");
    }
    out.extend_from_slice(b"]}");
    out
}

pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}
