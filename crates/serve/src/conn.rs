//! Per-connection state for the event-driven TCP front: a nonblocking
//! socket plus explicit read/write buffers and the newline framer.
//!
//! All I/O here is partial by design. [`Conn::fill`] reads at most a
//! fixed budget per tick so one chatty connection cannot starve its
//! shard; [`Conn::flush`] writes until the kernel pushes back. The
//! [`Framer`] yields complete, trimmed, non-empty lines and leaves any
//! partial tail buffered for the next read. Lines longer than the cap,
//! and lines that are not UTF-8, end the connection's read half — the
//! caller decides what (if anything) to answer first. The router's
//! client-facing loop frames with the same [`Framer`] and the same
//! [`MAX_LINE_BYTES`], so a line means the same thing on every front.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};

use crate::protocol::{RejectKind, Response};
use crate::reactor::Interest;

/// How many bytes one readiness event may pull off a socket before the
/// shard moves on to the next connection. Level-triggered polling
/// re-reports the fd while data remains, so fairness costs nothing.
pub(crate) const READ_BUDGET: usize = 64 * 1024;

/// The cap on one request line (1 MiB): the default of
/// `TcpTuning::max_line_bytes`, and what the router's front enforces.
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// How the framer left the connection after a read pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameEnd {
    /// All complete lines were yielded; any partial tail stays buffered.
    Clean,
    /// A line exceeded the cap. The buffer was discarded; stop reading.
    TooLong { limit: usize },
    /// A complete line was not UTF-8. Buffer discarded; stop reading.
    BadUtf8,
}

impl FrameEnd {
    /// What a front answers a framing violation with before it stops
    /// reading: an over-long line gets one `protocol` rejection; a
    /// non-UTF-8 stream ends the reader without a response.
    pub fn rejection(self) -> Option<Response> {
        match self {
            FrameEnd::TooLong { limit } => Some(Response::reject(
                None,
                RejectKind::Protocol,
                format!("request line exceeds {limit} bytes"),
            )),
            FrameEnd::Clean | FrameEnd::BadUtf8 => None,
        }
    }
}

/// The newline framer: inbound bytes in, complete lines out.
#[derive(Debug, Default)]
pub(crate) struct Framer {
    /// Unconsumed inbound bytes; complete lines are carved off the
    /// front, a partial line may remain at the tail.
    read_buf: Vec<u8>,
    /// Where the newline scan resumes (everything before it was already
    /// scanned without finding a delimiter).
    scan_from: usize,
}

impl Framer {
    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.read_buf.extend_from_slice(bytes);
    }

    /// Bytes buffered and not yet carved into lines.
    #[cfg(test)]
    pub fn buffered(&self) -> usize {
        self.read_buf.len()
    }

    /// Carves every complete line out of the read buffer, passing each
    /// trimmed non-empty line to `sink`, and compacts the buffer down
    /// to the partial tail. On a framing violation the buffer is
    /// discarded and the violation returned; the caller must stop
    /// reading this connection.
    pub fn extract_lines(&mut self, max_line: usize, sink: &mut dyn FnMut(&str)) -> FrameEnd {
        let mut consumed = 0;
        let end = loop {
            let rel = self.read_buf[self.scan_from..]
                .iter()
                .position(|&b| b == b'\n');
            let Some(rel) = rel else {
                // No delimiter: an over-long partial line is already a
                // violation — without this, a peer that never sends a
                // newline grows the buffer without bound.
                if self.read_buf.len() - consumed > max_line {
                    break FrameEnd::TooLong { limit: max_line };
                }
                self.scan_from = self.read_buf.len();
                break FrameEnd::Clean;
            };
            let nl = self.scan_from + rel;
            if nl - consumed > max_line {
                break FrameEnd::TooLong { limit: max_line };
            }
            let Ok(line) = std::str::from_utf8(&self.read_buf[consumed..nl]) else {
                break FrameEnd::BadUtf8;
            };
            let line = line.trim();
            if !line.is_empty() {
                sink(line);
            }
            consumed = nl + 1;
            self.scan_from = consumed;
        };
        if matches!(end, FrameEnd::Clean) {
            if consumed > 0 {
                self.read_buf.drain(..consumed);
                self.scan_from -= consumed;
            }
        } else {
            self.read_buf.clear();
            self.scan_from = 0;
        }
        end
    }
}

#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    /// Inbound bytes and the line framer over them.
    pub read: Framer,
    /// Outbound bytes not yet accepted by the kernel.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    write_pos: usize,
    /// Requests handed to the engine whose responses have not yet been
    /// queued on this connection.
    pub inflight: usize,
    /// No more reads: peer EOF, framing violation, or server drain.
    pub read_closed: bool,
    /// Reads suspended by write backpressure (write_buf over the high
    /// water mark).
    pub paused: bool,
    /// The interest currently registered with the poller.
    pub registered: Interest,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read: Framer::default(),
            write_buf: Vec::new(),
            write_pos: 0,
            inflight: 0,
            read_closed: false,
            paused: false,
            registered: Interest {
                read: false,
                write: false,
            },
        }
    }

    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Reads up to [`READ_BUDGET`] bytes into the read buffer.
    /// Returns `true` on EOF.
    ///
    /// # Errors
    ///
    /// Propagates hard socket errors (connection reset and the like);
    /// `WouldBlock` just ends the pass.
    pub fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 8 * 1024];
        let mut taken = 0;
        while taken < READ_BUDGET {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.read.push(&chunk[..n]);
                    taken += n;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Queues bytes for writing (no I/O; call [`Conn::flush`] after).
    pub fn queue_write(&mut self, bytes: &[u8]) {
        self.write_buf.extend_from_slice(bytes);
    }

    /// Bytes queued but not yet accepted by the kernel.
    pub fn write_pending(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Writes until the buffer empties or the kernel pushes back.
    ///
    /// # Errors
    ///
    /// Propagates hard socket errors; `WouldBlock` ends the pass with
    /// the remainder still buffered.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > 32 * 1024 {
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        accepted.set_nonblocking(true).expect("nonblocking");
        (client, Conn::new(accepted))
    }

    fn collect_lines(conn: &mut Conn, max_line: usize) -> (Vec<String>, FrameEnd) {
        let mut lines = Vec::new();
        let end = conn
            .read
            .extract_lines(max_line, &mut |l| lines.push(l.to_string()));
        (lines, end)
    }

    #[test]
    fn partial_lines_stay_buffered_until_the_delimiter_lands() {
        let (mut client, mut conn) = pair();
        client.write_all(b"hel").expect("write");
        client.flush().unwrap();
        while !conn.fill().unwrap() && conn.read.buffered() == 0 {}
        let (lines, end) = collect_lines(&mut conn, 1024);
        assert!(lines.is_empty());
        assert_eq!(end, FrameEnd::Clean);

        client.write_all(b"lo\nwor").expect("write");
        loop {
            conn.fill().unwrap();
            if conn.read.buffered() >= 9 {
                break;
            }
        }
        let (lines, end) = collect_lines(&mut conn, 1024);
        assert_eq!(lines, vec!["hello".to_string()]);
        assert_eq!(end, FrameEnd::Clean);

        client.write_all(b"ld\n").expect("write");
        loop {
            conn.fill().unwrap();
            let (lines, _) = collect_lines(&mut conn, 1024);
            if !lines.is_empty() {
                assert_eq!(lines, vec!["world".to_string()]);
                break;
            }
        }
    }

    #[test]
    fn coalesced_lines_all_come_out_of_one_read() {
        let (mut client, mut conn) = pair();
        client
            .write_all(b"one\n\n  \ntwo\r\nthree\n")
            .expect("write");
        loop {
            conn.fill().unwrap();
            if conn.read.buffered() >= 18 {
                break;
            }
        }
        let (lines, end) = collect_lines(&mut conn, 1024);
        // Blank lines are skipped, CR is trimmed with the rest of the
        // whitespace — same as the old BufReader front.
        assert_eq!(lines, vec!["one", "two", "three"]);
        assert_eq!(end, FrameEnd::Clean);
    }

    #[test]
    fn oversize_lines_kill_the_frame() {
        let (mut client, mut conn) = pair();
        client.write_all(&[b'x'; 64]).expect("write");
        client.write_all(b"\n").expect("write");
        loop {
            conn.fill().unwrap();
            if conn.read.buffered() >= 65 {
                break;
            }
        }
        let (lines, end) = collect_lines(&mut conn, 16);
        assert!(lines.is_empty());
        assert_eq!(end, FrameEnd::TooLong { limit: 16 });
        assert_eq!(conn.read.buffered(), 0, "violating buffer is discarded");

        // A headless over-long partial (no newline yet) is also caught.
        let (mut client, mut conn) = pair();
        client.write_all(&[b'y'; 64]).expect("write");
        loop {
            conn.fill().unwrap();
            if conn.read.buffered() >= 64 {
                break;
            }
        }
        let (lines, end) = collect_lines(&mut conn, 16);
        assert!(lines.is_empty());
        assert_eq!(end, FrameEnd::TooLong { limit: 16 });
    }

    #[test]
    fn non_utf8_lines_kill_the_frame() {
        let (mut client, mut conn) = pair();
        client.write_all(b"ok\n\xff\xfe\n").expect("write");
        loop {
            conn.fill().unwrap();
            if conn.read.buffered() >= 6 {
                break;
            }
        }
        let (lines, end) = collect_lines(&mut conn, 1024);
        assert_eq!(lines, vec!["ok"]);
        assert_eq!(end, FrameEnd::BadUtf8);
    }

    #[test]
    fn flush_tracks_pending_bytes() {
        let (mut client, mut conn) = pair();
        conn.queue_write(b"abc\n");
        assert_eq!(conn.write_pending(), 4);
        conn.flush().expect("flush");
        assert_eq!(conn.write_pending(), 0);
        let mut buf = [0u8; 4];
        client.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"abc\n");
    }
}
