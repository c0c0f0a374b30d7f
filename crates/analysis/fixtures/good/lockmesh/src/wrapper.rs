//! A guard wrapper used right: one wrapper guard at a time, and
//! `entries` before `audit` everywhere.

use std::sync::{Mutex, MutexGuard};

pub struct Books {
    entries: Mutex<Vec<u32>>,
    audit: Mutex<u32>,
}

impl Books {
    fn lock(&self) -> MutexGuard<'_, Vec<u32>> {
        self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The first wrapper guard is dropped before the second call.
    pub fn settle(&self) {
        let books = self.lock();
        drop(books);
        let again = self.lock();
        drop(again);
    }

    pub fn post(&self) {
        let books = self.lock();
        let audit = self.audit.lock().unwrap();
        drop(audit);
        drop(books);
    }

    /// Same order as `post`.
    pub fn review(&self) {
        let books = self.lock();
        let audit = self.audit.lock().unwrap();
        drop(audit);
        drop(books);
    }
}
