//! Seeded allow-hygiene violations around lock-order findings. Never
//! compiled — lexed by the fixture-regression test.

use std::sync::Mutex;

pub struct Ledger {
    tally: Mutex<u32>,
}

impl Ledger {
    /// A stale allow: nothing below it takes a lock twice.
    pub fn quiet(&self) -> u32 {
        // analysis: allow(lock-order): left over from a removed second lock
        7
    }

    /// An allow with no justification does not suppress its finding.
    pub fn unjustified(&self) {
        let first = self.tally.lock().unwrap();
        // analysis: allow(lock-order)
        let second = self.tally.lock().unwrap();
        drop(second);
        drop(first);
    }

    /// An allow naming a check that does not exist.
    pub fn misspelled(&self) -> u32 {
        // analysis: allow(lock-ordering): the check id is `lock-order`
        11
    }
}
