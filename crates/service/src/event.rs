//! Raw `epoll(7)` and `eventfd(2)` bindings for the event-driven
//! transport.
//!
//! Same no-new-deps approach as the `signal(2)` binding in
//! [`crate::server`]: the handful of syscalls the event loop needs are
//! declared `extern "C"` against the platform libc instead of pulling in
//! a crate. Everything here is Linux-only and the module is compiled out
//! elsewhere, where `serve --stdin` is the portable mode.
//!
//! Three primitives:
//!
//! * [`Epoll`] — an `epoll_create1` instance with `add`/`modify`/`delete`
//!   interest management and a blocking [`Epoll::wait`].
//! * [`EventFd`] — a nonblocking `eventfd` used as the loop's wakeup
//!   channel: worker threads [`Notify::notify`] it when a completion is
//!   ready, and [`notify_raw`] is async-signal-safe so the SIGINT handler
//!   can wake the loop too.
//! * [`EpollEvent`] — the kernel's event record (packed on x86-64,
//!   matching the C ABI).

use std::io;
use std::os::unix::io::RawFd;

use crate::queue::Notify;

/// The fd is readable.
pub const EPOLLIN: u32 = 0x001;
/// The fd is writable.
pub const EPOLLOUT: u32 = 0x004;
/// An error condition is pending on the fd.
pub const EPOLLERR: u32 = 0x008;
/// The peer hung up.
pub const EPOLLHUP: u32 = 0x010;
/// The peer shut down its writing half (half-close visibility).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// One readiness record, ABI-compatible with the kernel's
/// `struct epoll_event` (which is `__attribute__((packed))` on x86-64).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// The caller-chosen token registered with the fd.
    pub data: u64,
}

impl EpollEvent {
    /// An empty record, for pre-sizing the wait buffer.
    pub fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// An epoll instance: a kernel-side interest set plus a ready queue.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let arg = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        if unsafe { epoll_ctl(self.fd, op, fd, arg) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given interest mask; readiness for it is
    /// reported with `token` in [`EpollEvent::data`].
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Replaces the interest mask of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Removes `fd` from the interest set.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered fd is ready or `timeout_ms`
    /// elapses (`-1` = wait forever, `0` = poll). Returns how many
    /// entries of `events` were filled; a signal-interrupted wait returns
    /// `Ok(0)` so the caller re-checks its shutdown flags.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len().min(i32::MAX as usize) as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

/// A nonblocking `eventfd(2)`: an 8-byte kernel counter usable as a
/// level-triggered wakeup channel in an epoll set.
#[derive(Debug)]
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter 0.
    pub fn new() -> io::Result<EventFd> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd { fd })
    }

    /// The underlying fd, for epoll registration.
    pub fn as_raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Clears the counter so a level-triggered epoll stops reporting the
    /// fd readable. Nonblocking: a zero counter is a no-op.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe {
            // One read clears the whole counter (non-semaphore mode); the
            // EAGAIN from an already-clear counter is expected.
            let _ = read(self.fd, buf.as_mut_ptr(), buf.len());
        }
    }

    /// Releases ownership of the fd without closing it; the caller keeps
    /// it alive for the rest of the process (the SIGINT wakeup fd).
    pub fn into_raw(self) -> RawFd {
        let fd = self.fd;
        std::mem::forget(self);
        fd
    }
}

/// Adds 1 to an eventfd counter. Only calls `write(2)`, so it is
/// async-signal-safe and usable from a signal handler. A full counter
/// (`EAGAIN`) already guarantees a pending wakeup, so errors are ignored.
pub fn notify_raw(fd: RawFd) {
    let one: u64 = 1;
    unsafe {
        let _ = write(fd, (&one as *const u64).cast(), 8);
    }
}

impl Notify for EventFd {
    fn notify(&self) {
        notify_raw(self.fd);
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let epoll = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        epoll.add(efd.as_raw_fd(), 42, EPOLLIN).unwrap();

        // Nothing pending: a zero-timeout wait reports no events.
        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        efd.notify();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let EpollEvent { events: mask, data } = events[0];
        assert_eq!(data, 42);
        assert_ne!(mask & EPOLLIN, 0);

        // Level-triggered: still readable until drained.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 1);
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn interest_can_be_modified_and_deleted() {
        let epoll = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        epoll.add(efd.as_raw_fd(), 7, EPOLLIN).unwrap();
        efd.notify();

        // Masking out EPOLLIN silences the fd without deregistering it.
        epoll.modify(efd.as_raw_fd(), 7, EPOLLOUT).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = epoll.wait(&mut events, 0).unwrap();
        // An eventfd is always writable, so EPOLLOUT reports immediately;
        // the token must survive the modify.
        assert_eq!(n, 1);
        let EpollEvent { data, .. } = events[0];
        assert_eq!(data, 7);

        epoll.delete(efd.as_raw_fd()).unwrap();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        // Double-delete is an error, not UB.
        assert!(epoll.delete(efd.as_raw_fd()).is_err());
    }

    #[test]
    fn notify_raw_is_equivalent_to_notify() {
        let epoll = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        epoll.add(efd.as_raw_fd(), 1, EPOLLIN).unwrap();
        notify_raw(efd.as_raw_fd());
        let mut events = [EpollEvent::zeroed(); 1];
        assert_eq!(epoll.wait(&mut events, 1000).unwrap(), 1);
    }
}
