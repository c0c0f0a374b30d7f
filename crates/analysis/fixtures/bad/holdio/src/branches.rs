//! Seeded branch-drop violations: a guard dropped inside one arm is
//! still held on every path that skips the arm.

impl Pipeline {
    /// The early-return arm drops the guard; the path that falls
    /// through still holds it at the frame write.
    pub fn evict(&self, stream: &mut std::net::TcpStream, bad: bool) {
        let st = self.state.lock().unwrap();
        if bad {
            drop(st);
            return;
        }
        write_frame(stream, "evicted");
    }

    /// The arm drops the guard and falls through; the path that skips
    /// it still holds the guard at the sleep.
    pub fn backoff(&self, slow: bool) {
        let st = self.state.lock().unwrap();
        if slow {
            drop(st);
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}
