//! Seeded lock-order violations through a guard wrapper: the books are
//! only ever locked through `Books::lock`, and a wrapper call is an
//! acquisition like any direct `.lock()`.

use std::sync::{Mutex, MutexGuard};

pub struct Books {
    entries: Mutex<Vec<u32>>,
    audit: Mutex<u32>,
}

impl Books {
    fn lock(&self) -> MutexGuard<'_, Vec<u32>> {
        self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Re-enters the wrapper while its first guard is still held.
    pub fn settle(&self) {
        let books = self.lock();
        let again = self.lock();
        drop(again);
        drop(books);
    }

    /// Takes `entries` (through the wrapper) then `audit`.
    pub fn post(&self) {
        let books = self.lock();
        let audit = self.audit.lock().unwrap();
        drop(audit);
        drop(books);
    }

    /// Takes `audit` then `entries` (through the wrapper): the opposite
    /// order.
    pub fn review(&self) {
        let audit = self.audit.lock().unwrap();
        let books = self.lock();
        drop(books);
        drop(audit);
    }
}
