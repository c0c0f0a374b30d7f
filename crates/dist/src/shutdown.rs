//! Graceful-shutdown signal handling without a signal-handling crate.
//!
//! The workspace is dependency-free by policy, and `std` exposes no way to
//! catch SIGTERM, so this module installs handlers through the C runtime's
//! `signal(2)` directly. The handler body is as small as async-signal
//! safety demands: a single relaxed store into a static flag, which the
//! serving loops poll between accept rounds. The first SIGTERM or SIGINT
//! therefore *requests* a drain (finish in-flight leases, write a final
//! checkpoint); a second one falls back to the runtime default and kills
//! the process, so an operator is never locked out of a hard stop.
//!
//! On non-Unix targets [`install`] is a no-op and [`requested`] only ever
//! reports `false` — Ctrl-C then terminates the process the default way.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set from the signal handler; polled by serving loops.
static REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
#[expect(
    unsafe_code,
    reason = "the crate denies `unsafe_code`; this module is the one sanctioned exception — \
              `signal(2)` has no safe std equivalent, and the handler body is a single \
              relaxed atomic store"
)]
mod imp {
    use super::*;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    /// `SIG_DFL` — restore default disposition.
    const SIG_DFL: usize = 0;

    unsafe extern "C" {
        /// `signal(2)` from the C runtime. Returns the previous handler.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Async-signal-safe by construction: one atomic store, then re-arms
    /// the default disposition so the *next* signal terminates.
    extern "C" fn on_signal(signum: i32) {
        REQUESTED.store(true, Ordering::Relaxed);
        unsafe {
            signal(signum, SIG_DFL);
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs SIGINT/SIGTERM handlers that flip the drain flag. Idempotent;
/// call once near the top of a long-running command.
pub fn install() {
    imp::install();
}

/// True once a shutdown signal has arrived.
pub fn requested() -> bool {
    REQUESTED.load(Ordering::Relaxed)
}

/// Sets the flag programmatically — lets tests (and in-process callers)
/// exercise the drain path without delivering a real signal.
pub fn request() {
    REQUESTED.store(true, Ordering::Relaxed);
}

/// Clears the flag. Tests only; a real process shuts down once.
pub fn reset() {
    REQUESTED.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trip() {
        reset();
        assert!(!requested());
        request();
        assert!(requested());
        reset();
        assert!(!requested());
    }

    #[cfg(unix)]
    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }
}
