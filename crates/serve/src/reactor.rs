//! The readiness reactor: a vendored, zero-dependency poller that the
//! TCP front's shard threads block on.
//!
//! Two backends share one `Poller` surface. On Linux the default is
//! **epoll** — O(ready) wakeups, which is what lets one shard thread
//! hold thousands of mostly-idle connections for the price of the few
//! that are active. Everywhere (including Linux, for testability) there
//! is a **poll(2)** fallback that scans the registered set per wakeup —
//! O(registered), portable to any Unix. The backend is chosen by
//! [`ReactorKind`]: `Auto` picks epoll on Linux unless the
//! `M3D_REACTOR=poll` environment variable forces the fallback, so CI
//! can run the same suite over both.
//!
//! Both backends are level-triggered: an event repeats while the
//! condition holds, so connection handling may read/write *partially*
//! (bounded work per tick, for cross-connection fairness) and rely on
//! the next wakeup to continue. The syscalls are declared directly
//! against the C ABI — no `libc` crate; `std` already links the
//! platform C library.
//!
//! The `Waker` is a self-pipe: worker threads finishing flow jobs write
//! one byte to wake the owning shard out of its `wait`, which then
//! drains its message queue. Writes to a full pipe fail with `EAGAIN`
//! and are ignored — a wakeup is already pending.

use std::io;
use std::net::TcpStream;
use std::os::raw::{c_int, c_ulong, c_void};
use std::os::unix::io::{AsRawFd, RawFd};

/// Which poller backend the reactor should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactorKind {
    /// epoll on Linux (unless `M3D_REACTOR=poll` is set), poll(2)
    /// elsewhere.
    Auto,
    /// The portable poll(2) backend, everywhere.
    Poll,
}

/// What a socket is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub read: bool,
    pub write: bool,
}

/// One readiness event, translated out of the backend's encoding.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Error/hangup: the peer is gone or the socket is dead. Handled as
    /// a hard close — nothing sent on such a socket can arrive.
    pub error: bool,
}

// ---------------------------------------------------------------------
// shared syscalls
// ---------------------------------------------------------------------

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn pipe(fds: *mut c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
}

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0x800;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x4;

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: c_int = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: c_int = 8;

#[cfg(target_os = "linux")]
const SOL_SOCKET: c_int = 1;
#[cfg(not(target_os = "linux"))]
const SOL_SOCKET: c_int = 0xffff;
#[cfg(target_os = "linux")]
const SO_SNDBUF: c_int = 7;
#[cfg(not(target_os = "linux"))]
const SO_SNDBUF: c_int = 0x1001;

#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

fn last_err() -> io::Error {
    io::Error::last_os_error()
}

/// Raises the process's open-file-descriptor soft limit toward `want`
/// (clamped to the hard limit) and returns the resulting soft limit.
/// The connection-scaling bench calls this before opening 1000+
/// sockets; on failure the current limit is returned unchanged — the
/// caller decides whether that is enough.
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

/// Shrinks a socket's kernel send buffer (`SO_SNDBUF`). Test-only in
/// spirit: a small send buffer makes write-backpressure reachable with
/// modest data volumes, so the slow-reader test can prove the server
/// pauses reads instead of buffering without a multi-megabyte exchange.
pub fn set_send_buffer(stream: &TcpStream, bytes: usize) -> io::Result<()> {
    let val = bytes as c_int;
    // SAFETY: the fd is borrowed from `stream`, which outlives the call,
    // so it names an open socket; the value pointer and length describe
    // the live local `val`, which the kernel copies before returning.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_SNDBUF,
            std::ptr::addr_of!(val).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(last_err())
    }
}

// ---------------------------------------------------------------------
// waker (self-pipe)
// ---------------------------------------------------------------------

/// The write end of a shard's self-pipe. Cloned (behind `Arc`) into
/// every reply handle; `wake` is async-signal-simple: one nonblocking
/// one-byte write, errors ignored (a full pipe already wakes).
#[derive(Debug)]
pub(crate) struct Waker {
    write_fd: RawFd,
}

impl Waker {
    pub fn wake(&self) {
        let byte = [1u8];
        // SAFETY: `write_fd` is open — this `Waker` owns it and closes it
        // only in `Drop` — and the buffer is one live byte, the length
        // passed. The fd is nonblocking, so the call cannot park a thread.
        let _ = unsafe { write(self.write_fd, byte.as_ptr().cast(), 1) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: `write_fd` came from `pipe` in `wake_pair` and belongs
        // to this `Waker` alone (the type is not `Clone`; sharing is by
        // `Arc`), so it is closed exactly once, after its last use.
        let _ = unsafe { close(self.write_fd) };
    }
}

/// The read end of a shard's self-pipe, registered in the shard's
/// poller.
#[derive(Debug)]
pub(crate) struct WakeReader {
    read_fd: RawFd,
}

impl WakeReader {
    pub fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// Consumes pending wake bytes. Leftovers merely cause a spurious
    /// wakeup, so one pass is enough.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: `read_fd` is open — owned by this `WakeReader`,
            // closed only in `Drop` — and the pointer and length describe
            // the live, exclusively borrowed `buf`; the kernel writes at
            // most `buf.len()` bytes. Nonblocking, so an empty pipe
            // returns instead of parking the shard.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n < buf.len() as isize {
                break;
            }
        }
    }
}

impl Drop for WakeReader {
    fn drop(&mut self) {
        // SAFETY: `read_fd` came from `pipe` in `wake_pair` and belongs to
        // this `WakeReader` alone (not `Clone`), so it is closed exactly
        // once, after its last use.
        let _ = unsafe { close(self.read_fd) };
    }
}

/// Creates a nonblocking self-pipe pair.
pub(crate) fn wake_pair() -> io::Result<(Waker, WakeReader)> {
    let mut fds: [c_int; 2] = [0; 2];
    // SAFETY: `fds` is a live array of exactly the two `c_int`s pipe(2)
    // writes.
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        return Err(last_err());
    }
    for fd in fds {
        // SAFETY: `fd` was just returned by `pipe` and nothing has closed
        // it; `F_GETFL` takes no pointer argument.
        let flags = unsafe { fcntl(fd, F_GETFL, 0) };
        // SAFETY: same open `fd`; `F_SETFL` takes its flags by value.
        let set = flags >= 0 && unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } >= 0;
        if !set {
            let err = last_err();
            // SAFETY: both fds are open and still unowned — no `Waker` or
            // `WakeReader` wraps them on this path — so this is their one
            // close and nothing uses them afterwards.
            let _ = unsafe { (close(fds[0]), close(fds[1])) };
            return Err(err);
        }
    }
    Ok((Waker { write_fd: fds[1] }, WakeReader { read_fd: fds[0] }))
}

// ---------------------------------------------------------------------
// epoll backend (Linux)
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys_epoll {
    use super::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0x80000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;

    /// `struct epoll_event`. Packed on x86 — the kernel ABI really is
    /// unaligned there; naturally aligned everywhere else.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

#[cfg(target_os = "linux")]
pub(crate) struct Epoll {
    epfd: RawFd,
    buf: Vec<sys_epoll::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: no pointer arguments; the returned fd is checked below
        // and owned by the `Epoll` built from it.
        let epfd = unsafe { sys_epoll::epoll_create1(sys_epoll::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_err());
        }
        Ok(Epoll {
            epfd,
            buf: vec![sys_epoll::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.read {
            m |= sys_epoll::EPOLLIN;
        }
        if interest.write {
            m |= sys_epoll::EPOLLOUT;
        }
        m
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = sys_epoll::EpollEvent {
            events: Self::mask(interest),
            data: token,
        };
        // SAFETY: `epfd` is open for as long as `self` lives (closed only
        // in `Drop`); `ev` is a live `EpollEvent` in the kernel's layout,
        // copied during the call. A stale `fd` is an `EBADF` error, not
        // undefined behaviour.
        if unsafe { sys_epoll::epoll_ctl(self.epfd, op, fd, &mut ev) } == 0 {
            Ok(())
        } else {
            Err(last_err())
        }
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: c_int) -> io::Result<()> {
        loop {
            // SAFETY: `epfd` is open (see `ctl`); the pointer and length
            // describe the live, exclusively borrowed `self.buf`, whose
            // element type has the kernel's `struct epoll_event` layout
            // (packed on x86), and the kernel writes at most `maxevents`
            // of them.
            let n = unsafe {
                sys_epoll::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                for ev in &self.buf[..n as usize] {
                    // Copy out of the (possibly packed) struct before use.
                    let bits = ev.events;
                    let token = ev.data;
                    out.push(Event {
                        token,
                        readable: bits & sys_epoll::EPOLLIN != 0,
                        writable: bits & sys_epoll::EPOLLOUT != 0,
                        error: bits & (sys_epoll::EPOLLERR | sys_epoll::EPOLLHUP) != 0,
                    });
                }
                return Ok(());
            }
            let err = last_err();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from `epoll_create1` and belongs to this
        // `Epoll` alone, so it is closed exactly once, after its last use.
        let _ = unsafe { close(self.epfd) };
    }
}

// ---------------------------------------------------------------------
// poll(2) backend (portable fallback)
// ---------------------------------------------------------------------

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;
const POLLNVAL: i16 = 0x20;

pub(crate) struct PollSet {
    /// Registered fds with their tokens and interests; order is the
    /// scan order.
    entries: Vec<(RawFd, u64, Interest)>,
    scratch: Vec<PollFd>,
}

impl PollSet {
    fn new() -> PollSet {
        PollSet {
            entries: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn mask(interest: Interest) -> i16 {
        let mut m = 0;
        if interest.read {
            m |= POLLIN;
        }
        if interest.write {
            m |= POLLOUT;
        }
        m
    }

    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) {
        self.entries.push((fd, token, interest));
    }

    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        for entry in &mut self.entries {
            if entry.0 == fd && entry.1 == token {
                entry.2 = interest;
                return Ok(());
            }
        }
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            "reregister of an unregistered fd",
        ))
    }

    fn deregister(&mut self, fd: RawFd, token: u64) {
        self.entries.retain(|e| !(e.0 == fd && e.1 == token));
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: c_int) -> io::Result<()> {
        self.scratch.clear();
        self.scratch
            .extend(self.entries.iter().map(|&(fd, _, i)| PollFd {
                fd,
                events: Self::mask(i),
                revents: 0,
            }));
        loop {
            // SAFETY: the pointer and length describe the live, exclusively
            // borrowed `self.scratch`, whose `#[repr(C)]` element is
            // `struct pollfd`; the kernel writes only the `revents` of
            // those `nfds` entries.
            let n = unsafe {
                poll(
                    self.scratch.as_mut_ptr(),
                    self.scratch.len() as c_ulong,
                    timeout_ms,
                )
            };
            if n >= 0 {
                for (pfd, &(_, token, _)) in self.scratch.iter().zip(&self.entries) {
                    let bits = pfd.revents;
                    if bits == 0 {
                        continue;
                    }
                    out.push(Event {
                        token,
                        readable: bits & POLLIN != 0,
                        writable: bits & POLLOUT != 0,
                        error: bits & (POLLERR | POLLHUP | POLLNVAL) != 0,
                    });
                }
                return Ok(());
            }
            let err = last_err();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

// ---------------------------------------------------------------------
// the unified poller
// ---------------------------------------------------------------------

/// The backend-erased readiness poller a shard owns.
pub(crate) enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    Poll(PollSet),
}

impl Poller {
    /// Opens a poller of the requested kind. `Auto` resolves to epoll
    /// on Linux unless `M3D_REACTOR=poll` is set in the environment.
    pub fn new(kind: ReactorKind) -> io::Result<Poller> {
        let force_poll =
            kind == ReactorKind::Poll || std::env::var("M3D_REACTOR").is_ok_and(|v| v == "poll");
        #[cfg(target_os = "linux")]
        {
            if !force_poll {
                return Ok(Poller::Epoll(Epoll::new()?));
            }
        }
        let _ = force_poll;
        Ok(Poller::Poll(PollSet::new()))
    }

    pub fn backend_name(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            Poller::Poll(_) => "poll",
        }
    }

    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.ctl(sys_epoll::EPOLL_CTL_ADD, fd, token, interest),
            Poller::Poll(p) => {
                p.register(fd, token, interest);
                Ok(())
            }
        }
    }

    pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.ctl(sys_epoll::EPOLL_CTL_MOD, fd, token, interest),
            Poller::Poll(p) => p.reregister(fd, token, interest),
        }
    }

    pub fn deregister(&mut self, fd: RawFd, token: u64) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => {
                let _ = e.ctl(
                    sys_epoll::EPOLL_CTL_DEL,
                    fd,
                    token,
                    Interest {
                        read: false,
                        write: false,
                    },
                );
            }
            Poller::Poll(p) => p.deregister(fd, token),
        }
    }

    /// Blocks until at least one registered fd is ready (or
    /// `timeout_ms` elapses; -1 blocks indefinitely), appending the
    /// translated events to `out`. `EINTR` is retried internally.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(e) => e.wait(out, timeout_ms),
            Poller::Poll(p) => p.wait(out, timeout_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};

    fn backend_smoke(kind: ReactorKind) {
        let mut poller = Poller::new(kind).expect("poller");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        poller
            .register(
                listener.as_raw_fd(),
                7,
                Interest {
                    read: true,
                    write: false,
                },
            )
            .expect("register");

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let mut events = Vec::new();
        poller.wait(&mut events, 5_000).expect("wait");
        assert!(
            events.iter().any(|e| e.token == 7 && e.readable),
            "listener must report readable on a pending connection ({})",
            poller.backend_name()
        );

        let (mut accepted, _) = listener.accept().expect("accept");
        accepted.set_nonblocking(true).expect("nonblocking");
        poller
            .register(
                accepted.as_raw_fd(),
                9,
                Interest {
                    read: true,
                    write: true,
                },
            )
            .expect("register conn");
        client.write_all(b"ping").expect("write");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        'outer: loop {
            assert!(std::time::Instant::now() < deadline, "no readable event");
            events.clear();
            poller.wait(&mut events, 1_000).expect("wait");
            for e in &events {
                if e.token == 9 && e.readable {
                    break 'outer;
                }
            }
        }
        let mut buf = [0u8; 8];
        let n = accepted.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");

        // Interest changes stick: drop read interest, a second send must
        // not surface token 9 as readable.
        poller
            .reregister(
                accepted.as_raw_fd(),
                9,
                Interest {
                    read: false,
                    write: false,
                },
            )
            .expect("reregister");
        client.write_all(b"more").expect("write");
        events.clear();
        poller.wait(&mut events, 200).expect("wait");
        assert!(
            !events.iter().any(|e| e.token == 9 && e.readable),
            "paused fd must not report readable ({})",
            poller.backend_name()
        );
        poller.deregister(accepted.as_raw_fd(), 9);
    }

    #[test]
    fn auto_backend_accepts_and_reads() {
        backend_smoke(ReactorKind::Auto);
    }

    #[test]
    fn poll_fallback_accepts_and_reads() {
        backend_smoke(ReactorKind::Poll);
    }

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let mut poller = Poller::new(ReactorKind::Auto).expect("poller");
        let (waker, reader) = wake_pair().expect("pipe");
        poller
            .register(
                reader.fd(),
                1,
                Interest {
                    read: true,
                    write: false,
                },
            )
            .expect("register");
        let waker = std::sync::Arc::new(waker);
        let remote = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            remote.wake();
        });
        let mut events = Vec::new();
        poller.wait(&mut events, 5_000).expect("wait");
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        reader.drain();
        // Drained pipe: a short wait now times out with no events.
        events.clear();
        poller.wait(&mut events, 100).expect("wait");
        assert!(!events.iter().any(|e| e.token == 1 && e.readable));
        t.join().unwrap();
    }

    #[test]
    fn nofile_limit_is_reported_and_monotone() {
        let now = raise_nofile_limit(64);
        assert!(now >= 64, "soft limit should already exceed the floor");
        let bumped = raise_nofile_limit(now);
        assert!(bumped >= now);
    }
}
