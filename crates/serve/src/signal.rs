//! Minimal SIGTERM/SIGINT handling without a signal crate: the handler
//! flips one atomic flag the daemon's ticker polls, which is the entirety
//! of what graceful shutdown needs. Registered via the libc `signal`
//! symbol std already links against — no new dependency.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATED: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT has been delivered (always false on
/// non-unix platforms, where nothing is registered).
pub fn termination_requested() -> bool {
    TERMINATED.load(Ordering::SeqCst)
}

/// Used by tests to exercise the shutdown path without raising a real
/// signal.
pub fn request_termination() {
    TERMINATED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
mod imp {
    use super::*;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_sig: i32) {
        // A relaxed store of one atomic is async-signal-safe.
        TERMINATED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Install the flag-setting handler for SIGTERM and SIGINT.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No-op on platforms without POSIX signals; the daemon still shuts
    /// down via the SHUTDOWN command.
    pub fn install() {}
}

pub use imp::install;
