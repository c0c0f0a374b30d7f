//! Ranked locks: one declared acquisition order, checked on every
//! acquisition the program makes.
//!
//! Every mutex outside tests is a [`Ranked`], and every [`Rank`] sits in
//! one total order, its declaration order below. A thread may only take a
//! lock ranked strictly above every lock it already holds, so no two
//! threads can wait on each other in a cycle, and re-entering a lock —
//! which would self-deadlock a `std::sync::Mutex` — breaks the rule too.
//! Every blocking primitive the program owns (frame reads and writes,
//! checkpoint commits, HTTP responses, [`sleep`]) first calls
//! [`blocking`], which refuses while a guard is held on a lock that does
//! not exist to serialise I/O: a thread that blocks there stalls every
//! other thread contending the lock.
//!
//! Under `debug_assertions` — every test run — each thread keeps its held
//! ranks on a stack and a violation panics with both ranks named. Release
//! builds compile the bookkeeping out. A run-time check sees only the
//! paths that run: a path no test reaches is not checked.

#![expect(
    clippy::disallowed_types,
    reason = "`Ranked` is the raw mutex plus its rank; everything else locks through it"
)]

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The locks of the program, in the one order a thread may take them:
/// each only while holding nothing ranked at or above it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// The `dx-dist` daemon's books, whether it serves one campaign or
    /// many.
    DaemonState,
    /// The in-process pool's coverage union, shared by its workers.
    PoolUnion,
    /// The checkpoint writer's record of the last snapshot per campaign.
    /// It serialises checkpoint I/O.
    CheckpointGate,
    /// The metrics registry's families; taken under a daemon's state when
    /// it folds worker telemetry in.
    Registry,
    /// The event trace file. It serialises the trace appends.
    TraceFile,
}

impl Rank {
    /// Whether the lock exists to serialise I/O, so that blocking under
    /// it is its purpose rather than a stall.
    pub const fn serialises_io(self) -> bool {
        matches!(self, Rank::CheckpointGate | Rank::TraceFile)
    }
}

thread_local! {
    /// The ranks this thread holds, strictly rising (debug builds only).
    static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
}

/// A mutex with a [`Rank`]. [`lock`](Self::lock) tolerates poison: a
/// thread that panicked while holding it must not wedge the others, and
/// every holder keeps its updates small and re-checked.
pub struct Ranked<T> {
    rank: Rank,
    inner: Mutex<T>,
}

impl<T> Ranked<T> {
    /// `value` behind a lock of rank `rank`.
    pub const fn new(rank: Rank, value: T) -> Self {
        Self { rank, inner: Mutex::new(value) }
    }

    /// Takes the lock.
    ///
    /// # Panics
    ///
    /// In debug builds, if this thread already holds a lock ranked at or
    /// above this one — a re-entry or an out-of-order acquisition.
    pub fn lock(&self) -> RankedGuard<'_, T> {
        if cfg!(debug_assertions) {
            acquire(self.rank);
        }
        RankedGuard {
            rank: self.rank,
            guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// The value, poison or not.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A held [`Ranked`] lock; dropping it releases the lock and its rank.
pub struct RankedGuard<'a, T> {
    rank: Rank,
    guard: MutexGuard<'a, T>,
}

impl<T> Deref for RankedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            let rank = self.rank;
            // The stack rises strictly, so the rank is there exactly once.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(at) = held.iter().rposition(|&r| r == rank) {
                    held.remove(at);
                }
            });
        }
    }
}

fn acquire(rank: Rank) {
    let top = HELD.try_with(|held| {
        let mut held = held.borrow_mut();
        let top = held.last().copied().filter(|&top| top >= rank);
        if top.is_none() {
            held.push(rank);
        }
        top
    });
    if let Ok(Some(top)) = top {
        panic!("lock rank violation: taking {rank:?} while holding {top:?} (ranks must rise)");
    }
}

/// Asserts that this thread may block in `what`: it holds no guard on a
/// lock that does not serialise I/O.
///
/// # Panics
///
/// In debug builds, if such a guard is held.
pub fn blocking(what: &str) {
    if !cfg!(debug_assertions) {
        return;
    }
    let held = HELD.try_with(|held| held.borrow().iter().copied().find(|r| !r.serialises_io()));
    if let Ok(Some(rank)) = held {
        panic!("blocking in {what} while holding {rank:?}: every thread contending it stalls");
    }
}

/// `std::thread::sleep`, after [`blocking`]: the program's one sleep.
pub fn sleep(d: Duration) {
    blocking("sleep");
    std::thread::sleep(d);
}

#[cfg(test)]
/// Each pattern a whitebox lock analysis must catch, as a lock discipline
/// violation that panics when run, with a clean twin. The checks they trip
/// exist only with debug assertions.
#[cfg(debug_assertions)]
mod tests {

    use super::*;

    const TICK: Duration = Duration::from_millis(1);

    /// Two locks, `corpus` ranked below `stats`, and a third.
    struct Mesh {
        corpus: Ranked<Vec<u32>>,
        stats: Ranked<u32>,
        journal: Ranked<String>,
    }

    fn mesh() -> Mesh {
        Mesh {
            corpus: Ranked::new(Rank::PoolUnion, Vec::new()),
            stats: Ranked::new(Rank::Registry, 0),
            journal: Ranked::new(Rank::DaemonState, String::new()),
        }
    }

    #[test]
    fn locks_taken_in_rank_order_pass() {
        let m = mesh();
        let j = m.journal.lock();
        let c = m.corpus.lock();
        let s = m.stats.lock();
        drop((s, c, j));
        // Released out of order, then taken again: the stack stays sound.
        let c = m.corpus.lock();
        let s = m.stats.lock();
        drop(c);
        drop(s);
        let s = m.stats.lock();
        drop(s);
        let c = m.corpus.lock();
        drop(c);
    }

    #[test]
    #[should_panic(expected = "taking PoolUnion while holding Registry")]
    fn a_two_lock_cycle_panics_on_its_reversed_half() {
        let m = mesh();
        let s = m.stats.lock();
        let c = m.corpus.lock();
        drop((c, s));
    }

    #[test]
    fn a_guard_dropped_before_the_next_acquisition_orders_nothing() {
        let m = mesh();
        let s = m.stats.lock();
        drop(s);
        let c = m.corpus.lock();
        drop(c);
    }

    #[test]
    #[should_panic(expected = "taking DaemonState while holding DaemonState")]
    fn re_entry_panics_instead_of_deadlocking() {
        let m = mesh();
        let first = m.journal.lock();
        let second = m.journal.lock();
        drop((second, first));
    }

    #[test]
    #[should_panic(expected = "taking DaemonState while holding DaemonState")]
    fn two_locks_of_one_rank_never_nest() {
        let coordinator = Ranked::new(Rank::DaemonState, ());
        let service = Ranked::new(Rank::DaemonState, ());
        let c = coordinator.lock();
        let s = service.lock();
        drop((s, c));
    }

    #[test]
    fn a_panic_under_a_guard_releases_its_rank_and_the_poison_is_tolerated() {
        let state = Ranked::new(Rank::DaemonState, 1u32);
        std::thread::scope(|scope| {
            let panicked = scope.spawn(|| {
                let _st = state.lock();
                panic!("holder dies");
            });
            assert!(panicked.join().is_err());
        });
        let mut st = state.lock();
        *st += 1;
        drop(st);
        assert_eq!(state.into_inner(), 2);
    }

    /// Books locked only through a guard-returning wrapper.
    struct Books {
        entries: Ranked<Vec<u32>>,
        audit: Ranked<u32>,
    }

    impl Books {
        fn new() -> Self {
            Self {
                entries: Ranked::new(Rank::DaemonState, Vec::new()),
                audit: Ranked::new(Rank::Registry, 0),
            }
        }

        fn lock(&self) -> RankedGuard<'_, Vec<u32>> {
            self.entries.lock()
        }
    }

    #[test]
    fn a_wrapper_guard_dropped_before_the_next_call_and_one_order_pass() {
        let b = Books::new();
        let books = b.lock();
        drop(books);
        let again = b.lock();
        let audit = b.audit.lock();
        drop((audit, again));
    }

    #[test]
    #[should_panic(expected = "taking DaemonState while holding DaemonState")]
    fn re_entry_through_a_guard_returning_wrapper_panics() {
        let b = Books::new();
        let books = b.lock();
        let again = b.lock();
        drop((again, books));
    }

    #[test]
    #[should_panic(expected = "taking DaemonState while holding Registry")]
    fn a_cycle_through_a_guard_returning_wrapper_panics() {
        let b = Books::new();
        let audit = b.audit.lock();
        let books = b.lock();
        drop((books, audit));
    }

    /// A pipeline's contended state and its checkpoint writer's lock.
    struct Pipeline {
        state: Ranked<usize>,
        ckpt_io: Ranked<()>,
    }

    fn pipeline() -> Pipeline {
        Pipeline {
            state: Ranked::new(Rank::DaemonState, 0),
            ckpt_io: Ranked::new(Rank::CheckpointGate, ()),
        }
    }

    impl Pipeline {
        /// Drops the guard on one arm only, then sleeps.
        fn backoff(&self, slow: bool) {
            let st = self.state.lock();
            if slow {
                drop(st);
            }
            sleep(TICK);
        }

        /// Computes under the state lock, then blocks only under the lock
        /// that serialises the I/O.
        fn checkpoint(&self) -> usize {
            let pending = *self.state.lock();
            let _io = self.ckpt_io.lock();
            blocking("checkpoint write");
            pending
        }
    }

    #[test]
    #[should_panic(expected = "blocking in sleep while holding DaemonState")]
    fn a_sleep_under_a_lock_panics() {
        let p = pipeline();
        let mut st = p.state.lock();
        *st += 1;
        sleep(TICK);
    }

    #[test]
    fn a_guard_dropped_on_the_taken_arm_may_sleep() {
        pipeline().backoff(true);
    }

    #[test]
    #[should_panic(expected = "blocking in sleep while holding DaemonState")]
    fn a_guard_still_held_on_the_other_arm_panics() {
        pipeline().backoff(false);
    }

    #[test]
    fn blocking_under_an_io_serialising_lock_passes() {
        assert_eq!(pipeline().checkpoint(), 0);
    }

    #[test]
    #[should_panic(expected = "blocking in checkpoint write while holding DaemonState")]
    fn an_io_lock_does_not_cover_a_contended_lock_beneath_it() {
        let p = pipeline();
        let _st = p.state.lock();
        let _io = p.ckpt_io.lock();
        blocking("checkpoint write");
    }
}
