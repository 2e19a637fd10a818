//! The TCP front that [`crate::TcpServer`] and [`crate::Router`] both
//! serve through: an accept thread, and per connection one **reader**
//! thread and one **writer** thread.
//!
//! The reader frames lines with the [`Framer`] under [`MAX_LINE_BYTES`],
//! decodes each on `m3d-json`'s borrowed zero-copy path and hands the
//! request to the front's [`Service`] — the server admits it to the
//! engine, the router relays it to a backend. Every line of the answer
//! goes into the connection's [`Outbox`], already rendered, and the
//! writer sends the lines in order; the thread that renders a line never
//! touches the socket, so a peer that stops reading stalls its own writer
//! and nothing else. Malformed lines are answered in-line with a
//! `protocol` rejection; a line longer than the cap gets one, and a
//! non-UTF-8 line none, before the reader stops.
//!
//! The outbox counts its queued bytes. Past
//! [`crate::TcpTuning::write_high_water`] the reader stops reading until
//! the writer has drained them to half the mark, so TCP pushes back on a
//! client that sends faster than it reads instead of the server buffering
//! without bound (`serve/read_paused`, `serve/write_buffer_peak`).
//!
//! [`Front::drain`] stops the accept thread, closes every connection's
//! read half (an idle client sees EOF) and waits until each writer has
//! sent what was in flight. A read or write error ends the connection and
//! calls [`Service::abort`], which cancels the server's queued sweep
//! points for it.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::raw::c_int;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::protocol::{decode_or_reject, encode_line, RejectKind, Response};
use crate::server::TcpTuning;
use m3d_flow::FlowRequest;
use m3d_obs::Obs;

/// The cap on one request line (1 MiB), on every front.
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// The stack of each connection thread. Nothing on one recurses deeper
/// than the JSON parser, which `m3d_json::MAX_DEPTH` bounds, so a
/// thousand idle connections cost a thousand small stacks.
const CONN_STACK_BYTES: usize = 256 << 10;

/// Bytes one `read` may pull off a socket.
const READ_CHUNK: usize = 8 << 10;

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

/// What a front does with its connections' requests — the one thing the
/// server's front and the router's do differently.
pub(crate) trait Service: Send + Sync + 'static {
    /// What one connection's reader keeps between requests.
    type Conn: Send;

    /// The state of a freshly accepted connection.
    fn open(&self) -> Self::Conn;

    /// Answers one decoded request, whose text is `line`, sending every
    /// line of the answer through `out`.
    fn request(&self, conn: &mut Self::Conn, line: &str, request: FlowRequest, out: &Outbox);

    /// Counts one `protocol` rejection the front answered in-line.
    fn rejected(&self);

    /// A read or write error ended the connection early.
    fn abort(&self, _conn: &Self::Conn) {}
}

/// One connection's outbound lines, in order. Cloned into every route
/// that answers on the connection; its writer thread ends once the
/// reader and every clone are gone and it has sent what they queued.
#[derive(Clone)]
pub(crate) struct Outbox {
    tx: Sender<String>,
    queue: Arc<Queue>,
}

impl Outbox {
    /// Queues one rendered line for the writer. Never blocks: a full
    /// outbox stops the connection's reader, not the sender.
    pub fn send(&self, line: String) {
        self.queue.queued(line.len());
        // A dead writer (the peer is gone) discards the line.
        let _ = self.tx.send(line);
    }
}

/// The byte count shared by a connection's reader, writer and outboxes.
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled when a paused reader may read again.
    room: Condvar,
    high_water: usize,
    obs: Obs,
}

#[derive(Default)]
struct QueueState {
    /// Bytes queued and not yet written.
    bytes: usize,
    /// The reader waits for `bytes` to fall to half the high-water mark.
    paused: bool,
    /// The writer has stopped; nothing queued will drain.
    closed: bool,
}

impl Queue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("outbox poisoned")
    }

    fn queued(&self, len: usize) {
        let mut q = self.lock();
        q.bytes += len;
        self.obs
            .gauge_max("serve/write_buffer_peak", q.bytes as f64);
    }

    fn written(&self, len: usize) {
        let mut q = self.lock();
        q.bytes -= len;
        if q.paused && q.bytes <= self.high_water / 2 {
            q.paused = false;
            self.room.notify_one();
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.room.notify_one();
    }

    /// Blocks while more than the high-water mark is queued, until the
    /// writer has drained it to half. `false` once the writer stopped.
    fn wait_for_room(&self) -> bool {
        let mut q = self.lock();
        if q.bytes > self.high_water && !q.closed {
            q.paused = true;
            self.obs.perf_add("serve/read_paused", 1);
            while q.paused && !q.closed {
                q = self.room.wait(q).expect("outbox poisoned");
            }
        }
        !q.closed
    }
}

/// A listening front: its accept thread and its open connections.
pub(crate) struct Front {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

struct Shared {
    tuning: TcpTuning,
    obs: Obs,
    draining: AtomicBool,
    /// Open connections by id, so drain can close their read halves.
    open: Mutex<HashMap<u64, Arc<TcpStream>>>,
    /// Signalled whenever a connection closes.
    closed: Condvar,
}

/// A connection's entry in the front's open map. Dropping it — also
/// when its reader unwinds — removes the entry, which closes the socket
/// once the connection's threads are gone, and wakes a waiting drain.
struct OpenConn {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for OpenConn {
    fn drop(&mut self) {
        if let Ok(mut open) = self.shared.open.lock() {
            open.remove(&self.id);
        }
        self.shared.closed.notify_all();
    }
}

impl Front {
    /// Starts accepting on `listener`, answering through `service`.
    ///
    /// # Errors
    ///
    /// Propagates a failure to read the listener's address.
    pub fn serve<S: Service>(
        listener: TcpListener,
        service: S,
        tuning: TcpTuning,
        obs: Obs,
    ) -> io::Result<Front> {
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            tuning,
            obs,
            draining: AtomicBool::new(false),
            open: Mutex::new(HashMap::new()),
            closed: Condvar::new(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &Arc::new(service), &shared))
        };
        Ok(Front {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, closes every connection's read half and waits
    /// until each connection has sent what was in flight and closed.
    pub fn drain(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        self.join();
        let mut open = self.shared.open.lock().expect("front poisoned");
        for stream in open.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        while !open.is_empty() {
            open = self.shared.closed.wait(open).expect("front poisoned");
        }
    }

    /// Blocks until the accept thread ends: forever, unless drained.
    pub fn join(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn conn_thread() -> std::thread::Builder {
    std::thread::Builder::new().stack_size(CONN_STACK_BYTES)
}

fn accept_loop<S: Service>(listener: &TcpListener, service: &Arc<S>, shared: &Arc<Shared>) {
    for (id, accepted) in (0u64..).zip(listener.incoming()) {
        if shared.draining.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = accepted else { continue };
        let _ = stream.set_nodelay(true);
        let stream = Arc::new(stream);
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState::default()),
            room: Condvar::new(),
            high_water: shared.tuning.write_high_water,
            obs: shared.obs.clone(),
        });
        let (tx, rx) = channel();
        let writer = {
            let (stream, queue) = (Arc::clone(&stream), Arc::clone(&queue));
            conn_thread().spawn(move || write_lines(&stream, &rx, &queue))
        };
        let Ok(writer) = writer else { continue };
        let out = Outbox { tx, queue };
        shared
            .open
            .lock()
            .expect("front poisoned")
            .insert(id, Arc::clone(&stream));
        let open = OpenConn {
            shared: Arc::clone(shared),
            id,
        };
        let service = Arc::clone(service);
        let _ = conn_thread().spawn(move || {
            let obs = open.shared.obs.clone();
            obs.perf_add("serve/conns_accepted", 1);
            serve_conn(&*service, &open.shared, &stream, out, writer);
            // The front's handle is then the last: leaving the open map
            // closes the socket.
            drop(stream);
            drop(open);
            obs.perf_add("serve/conns_closed", 1);
        });
    }
}

/// One connection, on its reader thread: reads until EOF, a framing
/// violation, an error or drain, then waits for the writer to send what
/// is in flight.
fn serve_conn<S: Service>(
    service: &S,
    shared: &Shared,
    stream: &TcpStream,
    out: Outbox,
    writer: JoinHandle<io::Result<()>>,
) {
    let mut conn = service.open();
    let read = read_lines(service, &mut conn, shared, stream, &out);
    if read.is_err() {
        // Nothing sent on a broken socket can arrive.
        let _ = stream.shutdown(Shutdown::Both);
        service.abort(&conn);
    }
    drop(out);
    let wrote_all = writer.join().is_ok_and(|sent| sent.is_ok());
    if read.is_ok() && !wrote_all {
        service.abort(&conn);
    }
}

fn read_lines<S: Service>(
    service: &S,
    conn: &mut S::Conn,
    shared: &Shared,
    mut stream: &TcpStream,
    out: &Outbox,
) -> io::Result<()> {
    let reject = |rejection: Response| {
        service.rejected();
        out.send(encode_line(&rejection));
    };
    let mut framer = Framer::default();
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        if !out.queue.wait_for_room() || shared.draining.load(Ordering::Acquire) {
            return Ok(());
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Drain closed the read half: whatever was still buffered is
        // not a request.
        if shared.draining.load(Ordering::Acquire) {
            return Ok(());
        }
        framer.push(&chunk[..n]);
        let end = framer.extract_lines(MAX_LINE_BYTES, &mut |line| match decode_or_reject(line) {
            Ok(request) => service.request(conn, line, request, out),
            Err(rejection) => reject(rejection),
        });
        if end != FrameEnd::Clean {
            if let Some(rejection) = end.rejection() {
                reject(rejection);
            }
            return Ok(());
        }
    }
}

/// The writer thread: sends each line as it arrives. A write error
/// shuts the socket, which also ends the reader.
fn write_lines(stream: &TcpStream, rx: &Receiver<String>, queue: &Queue) -> io::Result<()> {
    let mut writer = stream;
    let sent = rx.iter().try_for_each(|line| {
        let written = writer.write_all(line.as_bytes());
        queue.written(line.len());
        written
    });
    if sent.is_err() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    queue.close();
    sent
}

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: c_int = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: c_int = 8;

#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

/// Raises the process's open-file-descriptor soft limit toward `want`
/// (clamped to the hard limit) and returns the resulting soft limit.
/// Whatever opens 1000+ sockets calls this first — the connection-scaling
/// bench, the idle-drain test; on failure the current limit is returned
/// unchanged and the caller decides whether that is enough.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a live, exclusively borrowed `RLimit` whose
    // `#[repr(C)]` pair of `u64`s is `struct rlimit` on the 64-bit targets
    // this crate builds for; the kernel writes within it and keeps no
    // pointer past the call.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.rlim_cur >= want {
        return lim.rlim_cur;
    }
    let target = want.min(lim.rlim_max);
    let new = RLimit {
        rlim_cur: target,
        rlim_max: lim.rlim_max,
    };
    // SAFETY: `new` is a live `RLimit` (same layout argument as above)
    // that the kernel only reads for the duration of the call.
    if unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
        target
    } else {
        lim.rlim_cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_lines(framer: &mut Framer, max_line: usize) -> (Vec<String>, FrameEnd) {
        let mut lines = Vec::new();
        let end = framer.extract_lines(max_line, &mut |l| lines.push(l.to_string()));
        (lines, end)
    }

    #[test]
    fn partial_lines_stay_buffered_until_the_delimiter_lands() {
        let mut framer = Framer::default();
        framer.push(b"hel");
        let (lines, end) = collect_lines(&mut framer, 1024);
        assert!(lines.is_empty());
        assert_eq!(end, FrameEnd::Clean);

        framer.push(b"lo\nwor");
        let (lines, end) = collect_lines(&mut framer, 1024);
        assert_eq!(lines, vec!["hello".to_string()]);
        assert_eq!(end, FrameEnd::Clean);
        assert_eq!(framer.buffered(), 3, "the partial tail stays");

        framer.push(b"ld\n");
        let (lines, _) = collect_lines(&mut framer, 1024);
        assert_eq!(lines, vec!["world".to_string()]);
        assert_eq!(framer.buffered(), 0);
    }

    #[test]
    fn coalesced_lines_all_come_out_of_one_read() {
        let mut framer = Framer::default();
        framer.push(b"one\n\n  \ntwo\r\nthree\n");
        let (lines, end) = collect_lines(&mut framer, 1024);
        // Blank lines are skipped, CR is trimmed with the rest of the
        // whitespace.
        assert_eq!(lines, vec!["one", "two", "three"]);
        assert_eq!(end, FrameEnd::Clean);
    }

    #[test]
    fn oversize_lines_kill_the_frame() {
        let mut framer = Framer::default();
        framer.push(&[b'x'; 64]);
        framer.push(b"\n");
        let (lines, end) = collect_lines(&mut framer, 16);
        assert!(lines.is_empty());
        assert_eq!(end, FrameEnd::TooLong { limit: 16 });
        assert_eq!(framer.buffered(), 0, "violating buffer is discarded");

        // A headless over-long partial (no newline yet) is also caught.
        let mut framer = Framer::default();
        framer.push(&[b'y'; 64]);
        let (lines, end) = collect_lines(&mut framer, 16);
        assert!(lines.is_empty());
        assert_eq!(end, FrameEnd::TooLong { limit: 16 });
    }

    #[test]
    fn non_utf8_lines_kill_the_frame() {
        let mut framer = Framer::default();
        framer.push(b"ok\n\xff\xfe\n");
        let (lines, end) = collect_lines(&mut framer, 1024);
        assert_eq!(lines, vec!["ok"]);
        assert_eq!(end, FrameEnd::BadUtf8);
    }

    #[test]
    fn nofile_limit_is_reported_and_monotone() {
        let now = raise_nofile_limit(64);
        assert!(now >= 64, "soft limit should already exceed the floor");
        let bumped = raise_nofile_limit(now);
        assert!(bumped >= now);
    }
}
