//! Seeded frame-constant drift: the admission module grew its own
//! copies of the wire constants instead of sharing the ones `conn.rs`
//! declares.

pub const MAX_FRAME: usize = 1 << 28;
pub const HELLO_FRAME_CAP: usize = 1 << 20;

pub struct FrameReader {
    pub cap: usize,
}

impl FrameReader {
    pub fn with_cap(cap: usize) -> Self {
        Self { cap }
    }

    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
    }
}
