//! The `poll(2)` binding the event loop waits on.
//!
//! `std` has no readiness API and the workspace takes no external crates,
//! so the one call is declared here against the C library `std` already
//! links. This is the only module of the crate that may use `unsafe`.
//!
//! Off unix there is no binding: [`wait`] naps for at most 1 ms and the
//! caller re-sweeps, a short sleep-and-sweep instead of a readiness wait.

use std::ffi::{c_int, c_short};
use std::time::Duration;

/// Interest in (and readiness for) reading; on a listener, a pending accept.
pub(crate) const POLLIN: c_short = 0x001;
/// Interest in (and readiness for) writing.
pub(crate) const POLLOUT: c_short = 0x004;

/// One `struct pollfd`: a descriptor, the events asked for, and the events
/// the kernel reported.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `source` for `events` (`POLLIN`, `POLLOUT`).
    #[cfg(unix)]
    pub(crate) fn new(source: &impl std::os::fd::AsRawFd, events: c_short) -> PollFd {
        PollFd {
            fd: source.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// Without a binding the descriptor is never looked at.
    #[cfg(not(unix))]
    pub(crate) fn new<S>(_source: &S, events: c_short) -> PollFd {
        PollFd {
            fd: -1,
            events,
            revents: 0,
        }
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::ffi::c_ulong;
#[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
type Nfds = std::ffi::c_uint;

#[cfg(unix)]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Block until one of `fds` is ready or `timeout` (rounded up to whole
/// milliseconds, so a deadline is never woken for early) has passed.
///
/// The caller re-examines every descriptor after a wake, so the count of
/// ready descriptors is not returned, and a failed wait (`EINTR`) is
/// treated as an early wake.
#[cfg(unix)]
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ms = timeout
        .as_nanos()
        .div_ceil(1_000_000)
        .min(c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]` records
    // laid out as `struct pollfd`, and `nfds` is its length, so the kernel
    // reads and writes (`revents`) only inside the slice, and only for the
    // duration of the call.
    unsafe {
        poll(fds.as_mut_ptr(), fds.len() as Nfds, ms);
    }
}

/// Nap for at most 1 ms; the caller re-sweeps.
#[cfg(not(unix))]
pub(crate) fn wait(_fds: &mut [PollFd], timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_millis(1)));
}
