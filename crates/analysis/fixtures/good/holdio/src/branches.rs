//! Guards dropped inside branches, done right: every path that reaches
//! the blocking call has dropped the guard.

impl Pipeline {
    /// Both the early return and the fall-through drop the guard.
    pub fn evict(&self, stream: &mut std::net::TcpStream, bad: bool) {
        let st = self.state.lock().unwrap();
        if bad {
            drop(st);
            return;
        }
        drop(st);
        write_frame(stream, "evicted");
    }

    /// Every arm drops the guard before the sleep.
    pub fn backoff(&self) {
        let st = self.state.lock().unwrap();
        match st.pending {
            0 => {
                drop(st);
                return;
            }
            _ => drop(st),
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}
