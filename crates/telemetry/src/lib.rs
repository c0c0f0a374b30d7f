//! Dependency-free telemetry: a metrics registry, scoped timers, a
//! structured event sink, and a Prometheus-text scrape endpoint.
//!
//! The crate is deliberately self-contained (like the `crates/compat`
//! shims, it must build with no registry access) and sits below every
//! other workspace crate, so the generator hot path, the campaign
//! scheduler, and the dist plane can all report into one
//! [`MetricsRegistry`] without dependency cycles.
//!
//! Three layers:
//!
//! - **Metrics** ([`MetricsRegistry`], [`Counter`], [`Gauge`],
//!   [`Histogram`]): named families of labeled series backed by atomics.
//!   Handles are `Arc`s — fetch once, update lock-free forever. A
//!   process-wide registry is available via [`global()`]; library code
//!   takes an injected registry so tests stay isolated.
//! - **Timing** ([`phase::PhaseAccum`], [`phase_timer!`], [`Span`]): the
//!   generator's per-iterate phases are timed into plain (non-atomic)
//!   per-worker accumulators and folded into registry histograms at epoch
//!   or lease boundaries, keeping the hot loop contention-free. A global
//!   kill switch ([`phase::set_timing_enabled`]) turns the `Instant`
//!   reads themselves off for overhead measurement.
//! - **Events** ([`events`]): leveled JSONL diagnostics on stderr plus an
//!   optional trace file, replacing scattered `eprintln!` calls with
//!   machine-parseable records.
//!
//! Below all three sit [`sync`] (ranked locks, the blocking assertion, the
//! one sleep) and [`json`] (the workspace's one JSON codec).

#![forbid(unsafe_code)]

pub mod events;
pub mod http;
pub mod json;
pub mod names;
pub mod phase;
pub mod sync;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use phase::LocalHist;
use sync::{Rank, Ranked};

/// A monotonically increasing integer metric.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Adds `n`.
    pub fn inc_by(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A floating-point metric that can go up and down (stored as f64 bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: one atomic per bucket plus an overflow
/// bucket, an atomic count, and a CAS-maintained f64 sum.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; the last one catches values above
    /// every bound (rendered as `+Inf`).
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: bounds.to_vec(),
            buckets,
            sum: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// The upper bounds this histogram was created with.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let i = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_sum(v);
    }

    /// Folds a locally accumulated delta in (bucket counts must match
    /// this histogram's layout; mismatched deltas are ignored since they
    /// carry advisory data from a peer, not local truth).
    pub fn merge_local(&self, delta: &LocalHist) {
        if delta.counts.len() != self.buckets.len() {
            return;
        }
        for (bucket, &n) in self.buckets.iter().zip(&delta.counts) {
            bucket.fetch_add(n, Ordering::Relaxed);
        }
        self.count.fetch_add(delta.count, Ordering::Relaxed);
        self.add_sum(delta.sum);
    }

    fn add_sum(&self, v: f64) {
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum.load(Ordering::Relaxed))
    }

    /// Per-bucket (non-cumulative) counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

type Labels = Vec<(String, String)>;

struct Family {
    kind: Kind,
    series: BTreeMap<Labels, Series>,
}

/// A named collection of metric families. Cloning shares the underlying
/// storage; [`MetricsRegistry::default`] creates a fresh private registry
/// (so config structs embedding one stay isolated under parallel tests),
/// while [`global()`] hands out the process-wide one the CLI exposes over
/// HTTP. A family's `# HELP` text comes from its [`names`] catalog entry.
#[derive(Clone)]
pub struct MetricsRegistry {
    families: Arc<Ranked<BTreeMap<String, Family>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self { families: Arc::new(Ranked::new(Rank::Registry, BTreeMap::new())) }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock();
        f.debug_struct("MetricsRegistry").field("families", &families.len()).finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetches (creating on first use) the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// If `name` already exists with a different metric kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.series_of(name, labels, Kind::Counter, &[]) {
            Series::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Fetches (creating on first use) the gauge `name{labels}`.
    ///
    /// # Panics
    ///
    /// If `name` already exists with a different metric kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.series_of(name, labels, Kind::Gauge, &[]) {
            Series::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Fetches (creating on first use) the histogram `name{labels}` with
    /// the given bucket upper bounds. Bounds are fixed at family creation;
    /// later calls reuse the first set.
    ///
    /// # Panics
    ///
    /// If `name` already exists with a different metric kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Arc<Histogram> {
        match self.series_of(name, labels, Kind::Histogram, bounds) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    fn series_of(&self, name: &str, labels: &[(&str, &str)], kind: Kind, bounds: &[f64]) -> Series {
        let key: Labels = labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        let mut families = self.families.lock();
        let family = families
            .entry(name.to_string())
            .or_insert_with(|| Family { kind, series: BTreeMap::new() });
        assert!(
            family.kind == kind,
            "metric {name} is a {}, requested as a {}",
            family.kind.name(),
            kind.name()
        );
        family
            .series
            .entry(key)
            .or_insert_with(|| match kind {
                Kind::Counter => Series::Counter(Arc::new(Counter::default())),
                Kind::Gauge => Series::Gauge(Arc::new(Gauge::default())),
                Kind::Histogram => Series::Histogram(Arc::new(Histogram::new(bounds))),
            })
            .clone()
    }

    /// Renders every family in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` (catalogued families) / `# TYPE`
    /// headers, escaped label values, and cumulative histogram buckets
    /// ending in `+Inf` plus `_sum` / `_count` series.
    pub fn render_prometheus(&self) -> String {
        self.render_prometheus_labeled(&[])
    }

    /// Like [`render_prometheus`](Self::render_prometheus), but injects
    /// `extra` as constant labels at the front of every series' label
    /// block — how a per-tenant registry surfaces `tenant="..."` on the
    /// daemon's shared `/metrics` endpoint without every call site
    /// threading the tenant name through.
    pub fn render_prometheus_labeled(&self, extra: &[(&str, &str)]) -> String {
        let extra: Labels = extra.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let families = self.families.lock();
        let mut out = String::new();
        for (name, family) in families.iter() {
            if let Some(metric) = names::lookup(name) {
                let _ = writeln!(out, "# HELP {name} {}", metric.help);
            }
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.name());
            for (labels, series) in &family.series {
                let mut merged = extra.clone();
                merged.extend(labels.iter().cloned());
                let labels = &merged;
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", label_block(labels, None), c.get());
                    }
                    Series::Gauge(g) => {
                        let _ =
                            writeln!(out, "{name}{} {}", label_block(labels, None), num(g.get()));
                    }
                    Series::Histogram(h) => render_histogram(&mut out, name, labels, h),
                }
            }
        }
        out
    }
}

/// Concatenates several rendered expositions into one legal document by
/// dropping repeated `# HELP` / `# TYPE` header lines (the text format
/// allows each at most once per metric name). Used by the service
/// daemon to serve the global registry plus one registry per tenant
/// from a single `/metrics` endpoint.
pub fn merge_renders(parts: &[String]) -> String {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = String::new();
    for part in parts {
        for line in part.lines() {
            if line.starts_with("# ") && !seen.insert(line.to_string()) {
                continue;
            }
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn render_histogram(out: &mut String, name: &str, labels: &Labels, h: &Histogram) {
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (bound, n) in h.bounds().iter().zip(&counts) {
        cumulative += n;
        let le = num(*bound);
        let _ = writeln!(out, "{name}_bucket{} {cumulative}", label_block(labels, Some(&le)));
    }
    cumulative += counts.last().copied().unwrap_or(0);
    let _ = writeln!(out, "{name}_bucket{} {cumulative}", label_block(labels, Some("+Inf")));
    let _ = writeln!(out, "{name}_sum{} {}", label_block(labels, None), num(h.sum()));
    let _ = writeln!(out, "{name}_count{} {}", label_block(labels, None), h.count());
}

/// Formats the `{k="v",...}` block (empty string when there are no
/// labels), with `le` appended last when rendering a histogram bucket.
fn label_block(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Renders an f64 the way Prometheus expects (plain decimal; `{}` on f64
/// never produces exponents for our value ranges).
fn num(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// The process-wide registry: what `--metrics-addr` serves and what the
/// wire layer's frame/byte counters always use.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// An RAII timer that records its lifetime into a histogram on drop.
/// Honors the global [`phase::set_timing_enabled`] switch.
pub struct Span {
    hist: Arc<Histogram>,
    started: Option<std::time::Instant>,
}

impl Span {
    /// Starts timing into `hist`.
    pub fn new(hist: Arc<Histogram>) -> Self {
        let started = phase::timing_enabled().then(std::time::Instant::now);
        Self { hist, started }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t) = self.started {
            self.hist.observe(t.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("dx_seeds_total", &[]);
        c.inc();
        c.inc_by(4);
        assert_eq!(reg.counter("dx_seeds_total", &[]).get(), 5);
        let g = reg.gauge("dx_corpus_size", &[]);
        g.set(17.5);
        assert_eq!(reg.gauge("dx_corpus_size", &[]).get(), 17.5);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let reg = MetricsRegistry::new();
        reg.counter("dx_spot_checks_total", &[("slot", "0"), ("verdict", "ok")]).inc_by(3);
        reg.counter("dx_spot_checks_total", &[("slot", "0"), ("verdict", "bad")]).inc();
        assert_eq!(
            reg.counter("dx_spot_checks_total", &[("slot", "0"), ("verdict", "ok")]).get(),
            3
        );
        assert_eq!(
            reg.counter("dx_spot_checks_total", &[("slot", "0"), ("verdict", "bad")]).get(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "is a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("dx_thing", &[]).inc();
        let _ = reg.gauge("dx_thing", &[]);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("dx_t", &[], &[0.1, 1.0]);
        h.observe(0.05); // bucket 0
        h.observe(0.5); // bucket 1
        h.observe(0.1); // le is inclusive: bucket 0
        h.observe(5.0); // overflow
        assert_eq!(h.bucket_counts(), vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 5.65).abs() < 1e-9);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_escaped() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("dx_t", &[("phase", "forward")], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(7.0);
        reg.counter("dx_odd_total", &[("name", "a\\b\"c\nd")]).inc();
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE dx_t histogram\n"), "{text}");
        assert!(text.contains("dx_t_bucket{phase=\"forward\",le=\"0.1\"} 1\n"), "{text}");
        assert!(text.contains("dx_t_bucket{phase=\"forward\",le=\"1\"} 2\n"), "{text}");
        assert!(text.contains("dx_t_bucket{phase=\"forward\",le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("dx_t_count{phase=\"forward\"} 3\n"), "{text}");
        assert!(text.contains("dx_t_sum{phase=\"forward\"} 7.55"), "{text}");
        assert!(text.contains("dx_odd_total{name=\"a\\\\b\\\"c\\nd\"} 1\n"), "{text}");
    }

    #[test]
    fn help_and_type_headers_render() {
        let reg = MetricsRegistry::new();
        reg.counter(names::SEEDS_TOTAL.name, &[]).inc();
        reg.histogram("dx_t", &[], &[1.0]).observe(0.5);
        let text = reg.render_prometheus();
        let help = format!("# HELP dx_seeds_total {}\n", names::SEEDS_TOTAL.help);
        assert!(text.contains(&help), "{text}");
        assert!(text.contains("# TYPE dx_seeds_total counter\n"), "{text}");
        assert!(text.contains("dx_seeds_total 1\n"), "{text}");
        // A family outside the catalog renders its type but no help.
        assert!(text.contains("# TYPE dx_t histogram\n"), "{text}");
        assert!(!text.contains("# HELP dx_t "), "{text}");
    }

    #[test]
    fn labeled_render_injects_constant_labels() {
        let reg = MetricsRegistry::new();
        reg.counter("dx_seeds_total", &[]).inc_by(7);
        reg.counter("dx_new_units_total", &[("component", "neuron")]).inc_by(3);
        reg.histogram("dx_t", &[], &[1.0]).observe(0.5);
        let text = reg.render_prometheus_labeled(&[("tenant", "acme")]);
        assert!(text.contains("dx_seeds_total{tenant=\"acme\"} 7\n"), "{text}");
        assert!(
            text.contains("dx_new_units_total{tenant=\"acme\",component=\"neuron\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("dx_t_bucket{tenant=\"acme\",le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("dx_t_count{tenant=\"acme\"} 1\n"), "{text}");
    }

    #[test]
    fn merge_renders_dedupes_headers() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        for reg in [&a, &b] {
            reg.counter("dx_seeds_total", &[]).inc();
        }
        let merged = merge_renders(&[
            a.render_prometheus_labeled(&[("tenant", "a")]),
            b.render_prometheus_labeled(&[("tenant", "b")]),
        ]);
        assert_eq!(merged.matches("# TYPE dx_seeds_total counter").count(), 1, "{merged}");
        assert_eq!(merged.matches("# HELP dx_seeds_total").count(), 1, "{merged}");
        assert!(merged.contains("dx_seeds_total{tenant=\"a\"} 1\n"), "{merged}");
        assert!(merged.contains("dx_seeds_total{tenant=\"b\"} 1\n"), "{merged}");
    }

    #[test]
    fn concurrent_updates_sum_correctly() {
        let reg = MetricsRegistry::new();
        let threads = 8;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = reg.counter("dx_seeds_total", &[]);
                let h = reg.histogram("dx_t", &[], &[0.5]);
                s.spawn(move || {
                    for i in 0..per {
                        c.inc();
                        h.observe(if i % 2 == 0 { 0.25 } else { 0.75 });
                    }
                });
            }
        });
        assert_eq!(reg.counter("dx_seeds_total", &[]).get(), threads * per);
        let h = reg.histogram("dx_t", &[], &[0.5]);
        assert_eq!(h.count(), threads * per);
        assert_eq!(h.bucket_counts(), vec![threads * per / 2, threads * per / 2]);
        let expected = (threads * per) as f64 * 0.5;
        assert!((h.sum() - expected).abs() < 1e-6, "{} vs {expected}", h.sum());
    }

    #[test]
    fn span_records_on_drop() {
        let _guard = phase::test_timing_lock();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("dx_epoch_seconds", &[], &[10.0]);
        {
            let _span = Span::new(h.clone());
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() < 10.0);
    }
}
