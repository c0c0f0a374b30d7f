//! In-memory span recorder for the traced run.
//!
//! One [`Span`] per call into a layer: name, start, end, the span that
//! caused it, and the counts taken at the same boundary (iterations,
//! bytes, flops, ...). Spans stay in memory and are written as JSONL
//! when the probe ends. A span's *self time* is its duration minus the
//! part its direct children cover.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index into the tracer's span list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// `layer.operation`, e.g. `campaign.step`.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while still open.
    pub end_ns: u64,
    /// Counts taken at this boundary.
    pub counts: Vec<(String, f64)>,
}

impl Span {
    /// Wall time covered, in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// A count recorded on this span.
    pub fn count(&self, key: &str) -> Option<f64> {
        self.counts.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Records nested spans for one workload.
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    /// A recording tracer.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer whose `span` calls run the closure and record nothing —
    /// the untraced arm of the trace-overhead measurement.
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::new("") }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::exit`]. Returns the span id (0 when disabled).
    pub fn enter(&mut self, name: &str) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span (which must be `id`) and attaches
    /// its counts.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not the innermost open span — spans nest.
    pub fn exit(&mut self, id: usize, counts: &[(&str, f64)]) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.counts = counts.iter().map(|(k, v)| ((*k).to_string(), *v)).collect();
    }

    /// Runs `f` inside a span named `name`; `f` returns its result plus
    /// the counts to attach.
    pub fn span<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Self) -> (T, Vec<(&'static str, f64)>),
    ) -> T {
        let id = self.enter(name);
        let (out, counts) = f(self);
        self.exit(id, &counts);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All closed spans with this name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name && s.end_ns != 0)
    }

    /// Durations of all closed spans with this name, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_ns).sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Writes one JSON object per span:
    /// `{id, parent, workload, name, start_ns, end_ns, self_ns, counts}`.
    ///
    /// # Errors
    ///
    /// Any I/O failure creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let counts = s.counts.iter().map(|(k, v)| (k.as_str(), Json::num(*v))).collect();
            let line = Json::obj(vec![
                ("id", Json::Num(s.id as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("workload", Json::str(&self.workload)),
                ("name", Json::str(&s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self.self_ns(s.id) as f64)),
                ("counts", Json::obj(counts)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer with hand-set times: root 0–100, children 10–30
    /// and 40–90, grandchild 50–60 under the second child.
    fn fixture() -> Tracer {
        let mut t = Tracer::new("w");
        let root = t.enter("workload");
        let a = t.enter("campaign.step");
        t.exit(a, &[("seeds", 4.0)]);
        let b = t.enter("campaign.step");
        let g = t.enter("campaign.checkpoint");
        t.exit(g, &[("bytes", 1024.0)]);
        t.exit(b, &[("seeds", 4.0)]);
        t.exit(root, &[]);
        for (id, (s, e)) in [(0, 100), (10, 30), (40, 90), (50, 60)].into_iter().enumerate() {
            t.spans[id].start_ns = s;
            t.spans[id].end_ns = e;
        }
        t
    }

    #[test]
    fn parents_follow_nesting() {
        let t = fixture();
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert_eq!(t.spans()[3].count("bytes"), Some(1024.0));
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = fixture();
        // Root: 100 − (20 + 50); the grandchild is not subtracted twice.
        assert_eq!(t.self_ns(0), 30);
        assert_eq!(t.self_ns(1), 20);
        assert_eq!(t.self_ns(2), 40);
        assert_eq!(t.self_ns(3), 10);
        // Self times of a tree sum to the root's duration.
        let total: u64 = (0..4).map(|id| t.self_ns(id)).sum();
        assert_eq!(total, t.spans()[0].duration_ns());
        assert_eq!(t.durations_us("campaign.step"), [0.02, 0.05]);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_work() {
        let mut t = Tracer::disabled();
        let out = t.span("x", |_| (7, vec![("n", 1.0)]));
        assert_eq!(out, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let t = fixture();
        let dir = std::env::temp_dir().join(format!("dx-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().map(|l| crate::json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[3].get("parent").unwrap().as_u64(), Some(2));
        assert_eq!(lines[0].get("self_ns").unwrap().as_u64(), Some(30));
        assert_eq!(lines[1].get("workload").unwrap().as_str(), Some("w"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
