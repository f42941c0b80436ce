//! Minimal `extern "C"` bindings to the Linux primitives the event-driven
//! socket reactor needs: `epoll(7)` for readiness, `pipe2(2)` for the
//! self-pipe wakeup, and `writev(2)` for flushing queued frames with
//! partial-write resume. std already links libc, so no new crates are
//! involved; everything here is a thin safe wrapper with `EINTR` retry and
//! `WouldBlock` mapping, and the reactor's unsafe surface is confined to this
//! module.
//! Linux only, on purpose: CI and every documented deployment are Linux, and
//! a second readiness path would be code that nothing tests.

#[cfg(not(target_os = "linux"))]
compile_error!("rfl-core's socket reactor waits on Linux's epoll(7), its one readiness path");

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_void};

/// `struct epoll_event`: readiness bits ([`EPOLLIN`], …) and the token the
/// descriptor was registered with; x86-64 packs it (12 bytes).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    pub(crate) events: u32,
    pub(crate) token: u64,
}

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const O_CLOEXEC: c_int = 0o2000000;
const O_NONBLOCK: c_int = 0o4000;

/// `struct iovec` of `writev(2)`.
#[repr(C)]
struct IoVec {
    base: *const c_void,
    len: usize,
}

/// Keep gather lists well under `IOV_MAX` (1024 on Linux).
pub(crate) const MAX_IOV: usize = 64;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
}

fn retry_on_eintr<F: FnMut() -> isize>(mut f: F) -> io::Result<usize> {
    loop {
        let r = f();
        if r >= 0 {
            return Ok(r as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One level-triggered `epoll(7)` instance; closing it drops every
/// registration it holds.
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: `epoll_create1` takes no pointers.
        let fd = retry_on_eintr(|| unsafe { epoll_create1(O_CLOEXEC) as isize })?;
        // SAFETY: on success the descriptor is fresh and owned by no other
        // handle, so transferring ownership to OwnedFd is sound.
        let fd = unsafe { OwnedFd::from_raw_fd(fd as RawFd) };
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events, token };
        // SAFETY: `event` is a live `#[repr(C)]` record the kernel only
        // reads (and ignores for `EPOLL_CTL_DEL`).
        retry_on_eintr(|| unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut event) as isize })
            .map(drop)
    }

    /// Registers `fd` for `events`; [`wait`](Epoll::wait) reports it with
    /// `token`.
    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Replaces a registered `fd`'s interest set and token.
    pub(crate) fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Drops `fd`'s registration. Closing `fd` alone does not when another
    /// descriptor (a `dup`) still refers to the same open socket.
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until a registered descriptor is ready or `timeout_ms` passes
    /// (`-1` waits forever) and fills the front of `events`; returns how
    /// many it filled. Retries `EINTR`.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = events.len().min(c_int::MAX as usize) as c_int;
        // SAFETY: `events` is a live, exclusively borrowed slice of
        // `#[repr(C)]` records; the kernel writes at most `max` of them.
        retry_on_eintr(|| unsafe {
            epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms) as isize
        })
    }
}

/// One nonblocking `read(2)`: `Ok(0)` is EOF, `WouldBlock` means no bytes
/// are ready.
pub(crate) fn read_fd(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a live, exclusively borrowed byte slice; the kernel
    // writes at most `buf.len()` bytes into it.
    retry_on_eintr(|| unsafe { read(fd, buf.as_mut_ptr().cast::<c_void>(), buf.len()) })
}

/// One nonblocking `write(2)`; returns the bytes accepted.
pub(crate) fn write_fd(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a live byte slice the kernel only reads from.
    retry_on_eintr(|| unsafe { write(fd, buf.as_ptr().cast::<c_void>(), buf.len()) })
}

/// Vectored write of up to [`MAX_IOV`] slices in one syscall; returns the
/// bytes accepted (possibly a partial prefix — the caller resumes).
pub(crate) fn writev_fd(fd: RawFd, slices: &[&[u8]]) -> io::Result<usize> {
    let iovs: Vec<IoVec> = slices
        .iter()
        .take(MAX_IOV)
        .map(|s| IoVec {
            base: s.as_ptr().cast::<c_void>(),
            len: s.len(),
        })
        .collect();
    // SAFETY: every iovec points into a live borrowed slice, `iovcnt`
    // matches the array length, and the kernel only reads the buffers.
    retry_on_eintr(|| unsafe { writev(fd, iovs.as_ptr(), iovs.len() as c_int) })
}

/// A nonblocking self-pipe: `(read_end, write_end)`. Writing a byte to the
/// write end wakes a reactor blocked in [`Epoll::wait`]; the read end is
/// drained on every wakeup.
pub(crate) fn pipe_nonblocking() -> io::Result<(OwnedFd, OwnedFd)> {
    let mut fds: [c_int; 2] = [-1, -1];
    // SAFETY: `fds` is a live 2-element array `pipe2(2)` fills on success.
    if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: on success both descriptors are freshly created and owned by
    // no other handle, so transferring ownership to OwnedFd is sound.
    Ok(unsafe { (OwnedFd::from_raw_fd(fds[0]), OwnedFd::from_raw_fd(fds[1])) })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(token, events)` of everything a wait of `timeout_ms` reports.
    fn ready(epoll: &Epoll, timeout_ms: i32) -> Vec<(u64, u32)> {
        let mut events = [EpollEvent::default(); 8];
        let n = epoll.wait(&mut events, timeout_ms).expect("epoll_wait");
        events[..n].iter().map(|e| (e.token, e.events)).collect()
    }

    #[test]
    fn epoll_reports_a_ready_pipe_once_with_its_token() {
        let (rx, tx) = pipe_nonblocking().expect("pipe");
        let epoll = Epoll::new().expect("epoll");
        epoll.add(rx.as_raw_fd(), EPOLLIN, 42).expect("add");
        // Nothing pending: nothing is reported.
        assert_eq!(ready(&epoll, 0), vec![]);
        // A wake byte makes the read end readable: one event, its token;
        // level-triggered, again at the next wait.
        assert_eq!(write_fd(tx.as_raw_fd(), &[1]).unwrap(), 1);
        assert_eq!(ready(&epoll, 1000), vec![(42, EPOLLIN)]);
        assert_eq!(ready(&epoll, 0), vec![(42, EPOLLIN)]);
        // Drain; the next read would block instead of returning garbage,
        // and nothing is reported.
        let mut buf = [0u8; 16];
        assert_eq!(read_fd(rx.as_raw_fd(), &mut buf).unwrap(), 1);
        assert_eq!(
            read_fd(rx.as_raw_fd(), &mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        assert_eq!(ready(&epoll, 0), vec![]);
    }

    #[test]
    fn after_del_a_ready_pipe_is_not_reported() {
        let (rx, tx) = pipe_nonblocking().expect("pipe");
        let epoll = Epoll::new().expect("epoll");
        epoll.add(rx.as_raw_fd(), EPOLLIN, 1).expect("add");
        assert_eq!(write_fd(tx.as_raw_fd(), &[1]).unwrap(), 1);
        assert_eq!(ready(&epoll, 0), vec![(1, EPOLLIN)]);
        epoll.delete(rx.as_raw_fd()).expect("del");
        assert_eq!(ready(&epoll, 0), vec![]);
        // Gone: a second `DEL` finds nothing to drop (`ENOENT`).
        let again = epoll.delete(rx.as_raw_fd()).unwrap_err();
        assert_eq!(again.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn mod_adds_and_removes_epollout() {
        let (_rx, tx) = pipe_nonblocking().expect("pipe");
        let epoll = Epoll::new().expect("epoll");
        // A pipe's write end with room is writable, never readable.
        epoll.add(tx.as_raw_fd(), EPOLLIN, 5).expect("add");
        assert_eq!(ready(&epoll, 0), vec![]);
        epoll
            .modify(tx.as_raw_fd(), EPOLLIN | EPOLLOUT, 6)
            .expect("mod");
        assert_eq!(ready(&epoll, 0), vec![(6, EPOLLOUT)]);
        epoll.modify(tx.as_raw_fd(), EPOLLIN, 6).expect("mod");
        assert_eq!(ready(&epoll, 0), vec![]);
    }

    #[test]
    fn writev_gathers_in_order() {
        let (rx, tx) = pipe_nonblocking().expect("pipe");
        let n = writev_fd(tx.as_raw_fd(), &[b"ab", b"", b"cde"]).unwrap();
        assert_eq!(n, 5);
        let mut buf = [0u8; 16];
        let got = read_fd(rx.as_raw_fd(), &mut buf).unwrap();
        assert_eq!(&buf[..got], b"abcde");
    }
}
