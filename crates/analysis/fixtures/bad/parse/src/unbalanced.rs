//! A seeded parse failure: `open` never closes its body, so the syntax
//! layer cannot place anything after it.

pub fn open(n: u32) -> u32 {
    n + 1

pub fn after() {}
