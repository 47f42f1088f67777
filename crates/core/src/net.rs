//! Dependency-free readiness I/O: a thin, audited wrapper over Linux
//! `epoll(7)`, `eventfd(2)`, and `getrlimit(2)`.
//!
//! The serving stack's connection plane (`wmlp-serve`'s event loops)
//! and the load generator's client both need readiness notification,
//! but the workspace policy is "no external crates". std already links
//! glibc on Linux, so this module declares the syscall wrappers it
//! needs via `extern "C"` and exposes a safe, minimal surface:
//!
//! * [`Reactor`] — an `epoll` instance: `register`/`reregister`/
//!   `deregister` file descriptors with an [`Interest`] and a caller
//!   [`Token`], then [`Reactor::wait`] for [`Event`]s. Level-triggered
//!   (the default epoll mode): a fd stays ready until drained, so a
//!   handler that stops early is re-notified rather than wedged.
//! * [`EventFd`] — a kernel counter usable as a cross-thread doorbell:
//!   any thread may [`EventFd::ring`]; the owning reactor sees the fd
//!   readable and [`EventFd::drain`]s it. Because the kernel counts
//!   rings, a ring between two waits is never lost.
//! * [`rlimit_nofile`] — the soft open-file limit via `getrlimit`, so
//!   callers can fail fast before a high-fan-in run hits `EMFILE`
//!   mid-flight. Sockets are made non-blocking with std's own
//!   `set_nonblocking`.
//!
//! **Unsafe audit surface.** Every `unsafe` block in the workspace lives
//! in this module (enforced by the `wmlp-lint` U1 rule) and carries a
//! reasoned U1 allow comment stating why the call is sound.
//! The invariants are uniform: all pointers passed to the kernel are
//! derived from live Rust references with the correct length, every
//! return value is errno-checked, and file descriptors are closed exactly
//! once (in `Drop`).

use std::io;
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::RawFd;

/// Raw glibc declarations and the constants this module needs. Values
/// are the Linux generic ABI ones (x86_64/aarch64); they are asserted
/// against `std`'s own behavior in the unit tests below.
mod sys {
    use super::{c_int, c_uint, c_void};

    /// `struct epoll_event`. glibc packs this on x86_64 so the layout
    /// matches the kernel's (which has no padding between the 32-bit
    /// mask and the 64-bit payload).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    /// `struct rlimit` with `rlim_t = unsigned long` (64-bit on Linux
    /// LP64 targets).
    #[repr(C)]
    pub struct Rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    pub const RLIMIT_NOFILE: c_int = 7;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    }
}

/// Map a `-1`-on-error syscall return to `io::Result`, capturing errno.
fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Caller-chosen identifier attached to a registered fd and echoed back
/// in every [`Event`] for it. The reactor never interprets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub u64);

/// Which readiness classes a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither direction; the fd stays registered but silent (useful for
    /// backpressure: park a connection without an `epoll_ctl` DEL/ADD
    /// round trip).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn mask(self) -> u32 {
        let mut m = sys::EPOLLRDHUP;
        if self.readable {
            m |= sys::EPOLLIN;
        }
        if self.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }
}

/// One readiness notification from [`Reactor::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token supplied at registration.
    pub token: Token,
    /// Readable — includes error/hang-up states, so a handler that reads
    /// on `readable` observes the EOF or socket error through the normal
    /// `read` path.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// The peer closed or the fd errored (`EPOLLERR`/`EPOLLHUP`/
    /// `EPOLLRDHUP`). Advisory: the authoritative signal is the next
    /// read/write result.
    pub closed: bool,
}

/// A level-triggered `epoll` instance owning its kernel fd.
///
/// Thread model: one reactor per event-loop thread. `epoll` itself is
/// thread-safe, but this wrapper is designed for single-owner use; it is
/// `Send` (moves into its loop thread) and not shared.
#[derive(Debug)]
pub struct Reactor {
    epfd: RawFd,
}

impl Reactor {
    /// Create a new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Reactor> {
        // lint:allow(U1): epoll_create1 takes no pointers; the returned fd
        // is errno-checked by cvt and owned (closed once) by the Reactor.
        let epfd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Reactor { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: interest.mask(),
            data: token.0,
        };
        // lint:allow(U1): &mut ev points at a live stack value for the
        // duration of the call; the kernel copies it before returning, and
        // the return code is errno-checked by cvt.
        cvt(unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with the given token and interest.
    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interest (and/or token) of an already registered fd.
    pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Remove `fd` from the reactor. Safe to call on an fd about to be
    /// closed (closing also deregisters, but explicit is clearer).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, Token(0), Interest::NONE)
    }

    /// Block until at least one registered fd is ready (or `timeout_ms`
    /// elapses; `-1` blocks indefinitely), appending decoded events to
    /// `events` (which is cleared first). Returns the number of events.
    /// `EINTR` is retried transparently.
    pub fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        events.clear();
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 64];
        let n = loop {
            // lint:allow(U1): buf is a live stack array and maxevents is
            // its exact length, so the kernel never writes out of bounds;
            // the return (count or -1) is errno-checked by cvt.
            let rc = unsafe {
                sys::epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms)
            };
            match cvt(rc) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for raw in buf.iter().take(n) {
            // Copy out of the (possibly packed) struct before use.
            let mask = raw.events;
            let data = raw.data;
            let closed = mask & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
            events.push(Event {
                token: Token(data),
                readable: mask & sys::EPOLLIN != 0 || closed,
                writable: mask & sys::EPOLLOUT != 0,
                closed,
            });
        }
        Ok(n)
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        // lint:allow(U1): the fd is owned by this struct and closed
        // exactly once; close cannot touch memory.
        unsafe { sys::close(self.epfd) };
    }
}

/// A kernel event counter used as a cross-thread doorbell.
///
/// Producers call [`ring`](EventFd::ring) (cheap, non-blocking, any
/// thread); the consuming event loop registers [`fd`](EventFd::fd) for
/// readability and calls [`drain`](EventFd::drain) when it fires. The
/// kernel accumulates rings into a counter, so a ring that lands between
/// two `epoll_wait` calls is delivered by the next one — the lost-wakeup
/// window of a naive flag + condvar handshake does not exist here (the
/// model-checked analogue lives in `wmlp-serve`'s `notify` module).
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Create a non-blocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        // lint:allow(U1): eventfd takes no pointers; the returned fd is
        // errno-checked by cvt and owned (closed once) by the EventFd.
        let fd = cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw fd, for registration with a [`Reactor`].
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Ring the doorbell: add 1 to the kernel counter, waking any reactor
    /// the fd is registered with. If the counter is saturated (`EAGAIN`),
    /// a wakeup is already pending and the ring is a no-op by design.
    pub fn ring(&self) -> io::Result<()> {
        let one: u64 = 1;
        loop {
            // lint:allow(U1): the buffer is a live 8-byte local and
            // eventfd writes require exactly 8 bytes; the result is
            // errno-checked below.
            let rc = unsafe { sys::write(self.fd, (&one as *const u64).cast::<c_void>(), 8) };
            if rc == 8 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            match err.kind() {
                io::ErrorKind::Interrupted => continue,
                // Counter saturated: a wakeup is already pending.
                io::ErrorKind::WouldBlock => return Ok(()),
                _ => return Err(err),
            }
        }
    }

    /// Consume all pending rings, resetting the counter to 0. Returns the
    /// number of rings consumed (0 if none were pending).
    pub fn drain(&self) -> io::Result<u64> {
        let mut count: u64 = 0;
        loop {
            // lint:allow(U1): the buffer is a live 8-byte local and
            // eventfd reads deliver exactly 8 bytes; the result is
            // errno-checked below.
            let rc = unsafe { sys::read(self.fd, (&mut count as *mut u64).cast::<c_void>(), 8) };
            if rc == 8 {
                return Ok(count);
            }
            let err = io::Error::last_os_error();
            match err.kind() {
                io::ErrorKind::Interrupted => continue,
                // Counter already 0: nothing was pending.
                io::ErrorKind::WouldBlock => return Ok(0),
                _ => return Err(err),
            }
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // lint:allow(U1): the fd is owned by this struct and closed
        // exactly once; close cannot touch memory.
        unsafe { sys::close(self.fd) };
    }
}

/// The soft `RLIMIT_NOFILE` limit: how many fds this process may have
/// open. High-fan-in callers check this up front and fail with a clear
/// message instead of collapsing mid-run on `EMFILE`.
pub fn rlimit_nofile() -> io::Result<u64> {
    let mut lim = sys::Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // lint:allow(U1): &mut lim points at a live stack struct of the exact
    // ABI layout; the kernel fills it before returning, errno-checked by
    // cvt.
    cvt(unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) })?;
    Ok(lim.rlim_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_rings_accumulate_and_drain_resets() {
        let efd = EventFd::new().unwrap();
        assert_eq!(efd.drain().unwrap(), 0, "fresh eventfd has no rings");
        efd.ring().unwrap();
        efd.ring().unwrap();
        efd.ring().unwrap();
        assert_eq!(efd.drain().unwrap(), 3, "rings accumulate in the counter");
        assert_eq!(efd.drain().unwrap(), 0, "drain resets to zero");
    }

    #[test]
    fn reactor_sees_eventfd_ring_and_times_out_without_one() {
        let r = Reactor::new().unwrap();
        let efd = EventFd::new().unwrap();
        r.register(efd.fd(), Token(7), Interest::READABLE).unwrap();
        let mut events = Vec::new();
        assert_eq!(r.wait(&mut events, 0).unwrap(), 0, "no ring yet");
        efd.ring().unwrap();
        assert_eq!(r.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable);
        assert!(!events[0].writable);
        // Level-triggered: still readable until drained.
        assert_eq!(r.wait(&mut events, 0).unwrap(), 1);
        efd.drain().unwrap();
        assert_eq!(r.wait(&mut events, 0).unwrap(), 0, "drained: quiet again");
    }

    #[test]
    fn reactor_drives_a_loopback_socket_through_accept_read_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let r = Reactor::new().unwrap();
        r.register(listener.as_raw_fd(), Token(0), Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        assert_eq!(r.wait(&mut events, 0).unwrap(), 0, "no pending connection");

        let mut client = TcpStream::connect(addr).unwrap();
        assert!(r.wait(&mut events, 2000).unwrap() >= 1);
        assert_eq!(events[0].token, Token(0));
        let (mut server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        r.register(server_side.as_raw_fd(), Token(1), Interest::BOTH)
            .unwrap();

        // A fresh socket with nothing to read reports writable only.
        assert!(r.wait(&mut events, 2000).unwrap() >= 1);
        let ev = events.iter().find(|e| e.token == Token(1)).unwrap();
        assert!(ev.writable && !ev.readable);

        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let got = loop {
            r.wait(&mut events, 2000).unwrap();
            if let Some(ev) = events.iter().find(|e| e.token == Token(1) && e.readable) {
                break *ev;
            }
        };
        assert!(got.readable);
        let mut buf = [0u8; 8];
        let n = server_side.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // Peer hang-up surfaces as readable (+ closed) so the handler
        // observes EOF through its normal read path.
        drop(client);
        let got = loop {
            r.wait(&mut events, 2000).unwrap();
            if let Some(ev) = events.iter().find(|e| e.token == Token(1) && e.closed) {
                break *ev;
            }
        };
        assert!(got.readable);
        assert_eq!(server_side.read(&mut buf).unwrap(), 0, "clean EOF");

        r.deregister(server_side.as_raw_fd()).unwrap();
        r.deregister(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn interest_none_parks_a_registration() {
        let r = Reactor::new().unwrap();
        let efd = EventFd::new().unwrap();
        r.register(efd.fd(), Token(3), Interest::NONE).unwrap();
        efd.ring().unwrap();
        let mut events = Vec::new();
        assert_eq!(r.wait(&mut events, 0).unwrap(), 0, "parked fd stays quiet");
        r.reregister(efd.fd(), Token(3), Interest::READABLE)
            .unwrap();
        assert_eq!(r.wait(&mut events, 1000).unwrap(), 1, "unparked: delivered");
    }

    #[test]
    fn rlimit_nofile_reports_a_sane_limit() {
        let lim = rlimit_nofile().unwrap();
        // POSIX guarantees at least _POSIX_OPEN_MAX (20); any real system
        // is far above that. This mostly checks the struct layout: a
        // garbage read would be absurdly small or huge.
        assert!(lim >= 20, "soft NOFILE limit {lim} is implausible");
    }
}
