//! A minimal readiness poller for the event-loop server.
//!
//! The offline build environment has no `mio`/`libc` crates, so this is a
//! thin wrapper over raw `epoll` FFI on Linux (the platform every deploy
//! and CI runner uses) with a portable degraded fallback elsewhere. The
//! API is deliberately tiny — register/reregister/deregister file
//! descriptors with a `usize` token and level-triggered read/write
//! interest, then [`Poller::wait`] for [`Event`]s.
//!
//! Cross-thread wake-ups go through a [`Waker`]: a nonblocking
//! `UnixStream` pair whose read end is registered under
//! [`WAKE_TOKEN`]. Writing one byte makes `wait` return; the event loop
//! drains the pipe and checks its queues.
//!
//! The non-Linux fallback reports every registered descriptor as ready
//! for its declared interest on each `wait` (bounded by a short sleep).
//! That is correct — all sockets are nonblocking, so spurious readiness
//! just costs a `WouldBlock` — but busy; it exists so the crate still
//! builds and tests on other platforms, not to serve production traffic.

/// Token reserved for the in-process [`Waker`]; never assign it to a
/// connection.
pub const WAKE_TOKEN: usize = usize::MAX;

/// What a registered descriptor wants to be woken for (level-triggered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: usize,
    pub readable: bool,
    pub writable: bool,
    /// Error/hang-up on the descriptor; the owner should close it (after
    /// a final read to collect any queued bytes).
    pub error: bool,
}

/// Soft limit on open file descriptors, for sizing connection fan-out
/// (benches cap their simulated-client counts with this).
pub fn max_open_files() -> Option<u64> {
    #[cfg(unix)]
    {
        #[repr(C)]
        struct Rlimit {
            cur: u64,
            max: u64,
        }
        extern "C" {
            fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        }
        #[cfg(target_os = "macos")]
        const RLIMIT_NOFILE: i32 = 8;
        #[cfg(not(target_os = "macos"))]
        const RLIMIT_NOFILE: i32 = 7;
        let mut lim = Rlimit { cur: 0, max: 0 };
        // SAFETY: getrlimit writes into the provided struct on success and
        // touches nothing else.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } == 0 {
            return Some(lim.cur);
        }
        None
    }
    #[cfg(not(unix))]
    {
        None
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{Event, Interest, WAKE_TOKEN};
    use std::io::{self, Read, Write};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Duration;

    // The kernel ABI directly; no libc crate in the build environment.
    // `struct epoll_event` is packed on x86_64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    fn interest_bits(interest: Interest) -> u32 {
        let mut bits = EPOLLRDHUP;
        if interest.readable {
            bits |= EPOLLIN;
        }
        if interest.writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    pub struct Poller {
        epfd: OwnedFd,
        wake_rx: UnixStream,
        wake_tx: Arc<UnixStream>,
        buf: Vec<EpollEvent>,
    }

    #[derive(Clone)]
    pub struct Waker {
        tx: Arc<UnixStream>,
    }

    impl Waker {
        pub fn wake(&self) {
            // One pending byte is enough to pop the next wait; a full pipe
            // (WouldBlock) already guarantees that.
            let _ = (&*self.tx).write(&[1]);
        }
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall; a valid fd (or -1) comes back.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: epfd is a freshly created, owned descriptor.
            let epfd = unsafe { OwnedFd::from_raw_fd(epfd) };
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_rx.set_nonblocking(true)?;
            wake_tx.set_nonblocking(true)?;
            let poller = Poller {
                epfd,
                wake_rx,
                wake_tx: Arc::new(wake_tx),
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            };
            poller.ctl(
                EPOLL_CTL_ADD,
                poller.wake_rx.as_raw_fd(),
                WAKE_TOKEN as u64,
                EPOLLIN,
            )?;
            Ok(poller)
        }

        pub fn waker(&self) -> Waker {
            Waker {
                tx: self.wake_tx.clone(),
            }
        }

        fn ctl(&self, op: i32, fd: RawFd, data: u64, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent { events, data };
            // SAFETY: epfd and fd are valid descriptors; ev outlives the call.
            if unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token as u64, interest_bits(interest))
        }

        pub fn reregister(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token as u64, interest_bits(interest))
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Block up to `timeout` for readiness; `events` is cleared and
        /// refilled. A [`WAKE_TOKEN`] event has already had the wake pipe
        /// drained — callers just check their queues.
        pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            events.clear();
            // Rounded up, so a wait never ends early for lack of resolution.
            let millis = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
            // SAFETY: buf is a live, correctly sized allocation for maxevents.
            let n = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    millis,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for i in 0..n as usize {
                let ev = self.buf[i];
                let bits = ev.events;
                let token = ev.data as usize;
                if token == WAKE_TOKEN {
                    let mut sink = [0u8; 64];
                    while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                }
                events.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            if n as usize == self.buf.len() {
                // Saturated: grow so a big shard never starves late tokens.
                self.buf
                    .resize(self.buf.len() * 2, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, Interest, WAKE_TOKEN};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Degraded portable poller: every registered fd is reported ready for
    /// its declared interest on each wait tick. Spurious readiness is
    /// harmless against nonblocking sockets; see the module docs.
    pub struct Poller {
        registered: Arc<Mutex<HashMap<RawFd, (usize, Interest)>>>,
        woken: Arc<AtomicBool>,
    }

    #[derive(Clone)]
    pub struct Waker {
        woken: Arc<AtomicBool>,
    }

    impl Waker {
        pub fn wake(&self) {
            self.woken.store(true, Ordering::SeqCst);
        }
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Arc::new(Mutex::new(HashMap::new())),
                woken: Arc::new(AtomicBool::new(false)),
            })
        }

        pub fn waker(&self) -> Waker {
            Waker {
                woken: self.woken.clone(),
            }
        }

        pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.registered
                .lock()
                .unwrap()
                .insert(fd, (token, interest));
            Ok(())
        }

        pub fn reregister(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.register(fd, token, interest)
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().unwrap().remove(&fd);
            Ok(())
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            events.clear();
            std::thread::sleep(timeout.min(Duration::from_millis(5)));
            if self.woken.swap(false, Ordering::SeqCst) {
                events.push(Event {
                    token: WAKE_TOKEN,
                    readable: true,
                    writable: false,
                    error: false,
                });
            }
            for (&_fd, &(token, interest)) in self.registered.lock().unwrap().iter() {
                events.push(Event {
                    token,
                    readable: interest.readable,
                    writable: interest.writable,
                    error: false,
                });
            }
            Ok(())
        }
    }
}

pub use imp::{Poller, Waker};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    #[cfg(unix)]
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[test]
    fn waker_pops_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        let t0 = std::time::Instant::now();
        // Far below the 5s timeout: the wake must pop the wait early.
        loop {
            poller.wait(&mut events, Duration::from_secs(5)).unwrap();
            if events.iter().any(|e| e.token == WAKE_TOKEN) {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(5), "wake never arrived");
        }
        assert!(t0.elapsed() < Duration::from_secs(4));
        t.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn readable_socket_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server_side.as_raw_fd(), 7, Interest::READ)
            .unwrap();
        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        let t0 = std::time::Instant::now();
        loop {
            poller
                .wait(&mut events, Duration::from_millis(500))
                .unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "readable event never arrived"
            );
        }
        let mut buf = [0u8; 8];
        let n = (&server_side).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        poller.deregister(server_side.as_raw_fd()).unwrap();
    }

    #[test]
    fn fd_limit_is_detectable_on_unix() {
        #[cfg(unix)]
        assert!(max_open_files().unwrap() > 0);
        #[cfg(not(unix))]
        assert!(max_open_files().is_none());
    }
}
