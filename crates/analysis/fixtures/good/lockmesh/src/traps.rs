//! Lock-shaped text the lexer must not mistake for code, and a used,
//! justified allow. Never compiled — lexed by the fixture-regression test.

use std::sync::Mutex;

pub struct Journal {
    lines: Mutex<Vec<String>>,
}

impl Journal {
    /// The justified allow suppresses the reentrant acquisition below,
    /// so neither that finding nor a stale-allow finding is reported.
    pub fn justified(&self) {
        let first = self.lines.lock().unwrap();
        // analysis: allow(lock-order): a fixture of a used, justified allow
        let second = self.lines.lock().unwrap();
        drop(second);
        drop(first);
    }

    /// While `lines` is held, a second `.lock()` appears only in
    /// strings, raw strings and comments.
    pub fn strings(&self) -> String {
        let held = self.lines.lock().unwrap();
        let plain = "self.lines.lock() inside a string";
        let raw = r#"self.lines.lock() inside a raw string"#;
        let hashed = r##"even r#"nested"# raw strings: self.lines.lock()"##;
        /* self.lines.lock() in a /* nested */ block comment */
        format!("{plain}{raw}{hashed}{}", held.len())
    }

    /// Lifetimes vs chars, raw identifiers, and brackets in patterns.
    pub fn edges<'a>(r#match: &'a [u8; 4]) -> u8 {
        let [a, _b, _c, _d] = r#match;
        let tick = '\'';
        let brace = '{';
        if tick == brace { 0 } else { *a }
    }
}

#[cfg(test)]
mod tests {
    /// Test code is not analysed.
    fn twice(j: &super::Journal) {
        let a = j.lines.lock().unwrap();
        let b = j.lines.lock().unwrap();
        drop((a, b));
    }
}
