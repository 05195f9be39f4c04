//! A daemon connection that acknowledges every frame it reads.
//!
//! `eqpd` writes replies and verdict events on sockets without
//! `TCP_NODELAY`, so a small write waits (Nagle) until the client has
//! acknowledged the previous one, and a client with nothing to send
//! delays that acknowledgement. A reply then leaves only when the
//! client's next request carries the ACK: an open loop measured this way
//! reads one or two inter-arrival times, whatever the daemon does. This
//! connection writes an empty line, which the daemon skips, after every
//! frame it reads, so the ACK leaves at once and the measured latency is
//! the daemon's own.

use eqpd::json::{obj, s, Json};
use eqpd::proto::{self, Frame};
use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One line-protocol connection.
pub struct Conn {
    writer: Arc<Mutex<TcpStream>>,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Events read while waiting for a response.
    pending: VecDeque<Json>,
}

/// Writes one whole line under the writer's lock, so lines from two
/// threads never interleave.
pub fn send(writer: &Mutex<TcpStream>, line: &[u8]) -> io::Result<()> {
    writer
        .lock()
        .map_err(|_| io::Error::other("writer lock poisoned"))?
        .write_all(line)
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a 60 s read timeout.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: Arc::new(Mutex::new(stream.try_clone()?)),
            reader: BufReader::new(stream),
            next_id: 1,
            pending: VecDeque::new(),
        })
    }

    /// The write half, for a sender on another thread.
    pub fn writer(&self) -> Arc<Mutex<TcpStream>> {
        Arc::clone(&self.writer)
    }

    /// Reads the next JSON frame and acknowledges it.
    pub fn read(&mut self) -> io::Result<Json> {
        loop {
            let line = match proto::read_frame(&mut self.reader)? {
                Frame::Line(line) => line,
                Frame::Oversized { .. } => continue,
                Frame::Eof => return Err(io::ErrorKind::UnexpectedEof.into()),
            };
            send(&self.writer, b"\n")?;
            if let Ok(doc) = Json::parse(&line) {
                return Ok(doc);
            }
        }
    }

    /// Sends a request and waits for its response; events read meanwhile
    /// are kept for [`Conn::next_event`]. An error response is `Err`.
    pub fn call(&mut self, method: &str, params: Json) -> io::Result<Result<Json, String>> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = obj([
            ("id", Json::UInt(id)),
            ("method", s(method)),
            ("params", params),
        ])
        .to_line();
        line.push('\n');
        send(&self.writer, line.as_bytes())?;
        loop {
            let doc = self.read()?;
            if doc.get("event").is_some() {
                self.pending.push_back(doc);
            } else if doc.get("id").and_then(Json::as_u64) == Some(id) {
                return Ok(match (doc.get("result"), doc.get("error")) {
                    (Some(r), None) => Ok(r.clone()),
                    (_, e) => Err(format!("{method}: {e:?}")),
                });
            }
        }
    }

    /// The next streamed event.
    pub fn next_event(&mut self) -> io::Result<Json> {
        if let Some(ev) = self.pending.pop_front() {
            return Ok(ev);
        }
        loop {
            let doc = self.read()?;
            if doc.get("event").is_some() {
                return Ok(doc);
            }
        }
    }
}
