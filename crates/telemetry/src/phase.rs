//! Contention-free hot-path timing.
//!
//! The generator's per-iterate loop runs tens of thousands of times per
//! campaign, so it must not touch atomics or locks. Each worker owns a
//! plain [`PhaseAccum`]; the [`crate::phase_timer!`] macro wraps one phase of an
//! iterate and records into it. At epoch (pool) or lease (dist)
//! boundaries the accumulated deltas are taken with
//! [`PhaseAccum::take`] and folded into shared registry histograms —
//! or shipped over the wire, which is why [`LocalHist`] is a plain
//! serializable triple of `(bucket counts, sum, count)`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Upper bounds (seconds) shared by every latency histogram in the
/// workspace: 25µs to 1s in a 1 / 2.5 / 5 per-decade ladder, with the
/// implicit `+Inf` overflow bucket above. One shared layout keeps
/// worker-shipped deltas mergeable into any coordinator histogram.
pub const TIME_BUCKETS: [f64; 15] = [
    0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0,
];

/// The four instrumented stages of one generator iterate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// All models' forward passes on the current input.
    Forward,
    /// The joint-objective gradient (Algorithm 1's ascent direction).
    Gradient,
    /// Domain-constraint projection of the perturbation.
    Constraint,
    /// Coverage tracker updates from the fresh activations.
    Coverage,
}

impl Phase {
    /// Every phase, in iterate order.
    pub const ALL: [Phase; 4] =
        [Phase::Forward, Phase::Gradient, Phase::Constraint, Phase::Coverage];

    /// The label value used for `dx_phase_seconds{phase=...}`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Forward => "forward",
            Phase::Gradient => "gradient",
            Phase::Constraint => "constraint",
            Phase::Coverage => "coverage",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Forward => 0,
            Phase::Gradient => 1,
            Phase::Constraint => 2,
            Phase::Coverage => 3,
        }
    }
}

/// A non-atomic histogram delta over the [`TIME_BUCKETS`] layout:
/// per-bucket counts (overflow last, so `TIME_BUCKETS.len() + 1`
/// entries), the sum of observations, and their count. Cheap to merge
/// into a registry [`crate::Histogram`] and cheap to serialize.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalHist {
    /// Per-bucket counts, overflow bucket last.
    pub counts: Vec<u64>,
    /// Sum of observed values (seconds).
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Default for LocalHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHist {
    /// An empty delta with the shared bucket layout.
    pub fn new() -> Self {
        Self { counts: vec![0; TIME_BUCKETS.len() + 1], sum: 0.0, count: 0 }
    }

    /// Records one observation (seconds).
    pub fn record(&mut self, secs: f64) {
        let i = TIME_BUCKETS.iter().position(|&b| secs <= b).unwrap_or(TIME_BUCKETS.len());
        self.counts[i] += 1;
        self.sum += secs;
        self.count += 1;
    }

    /// Folds another delta in (layouts must match; a foreign layout is
    /// ignored, as with [`crate::Histogram::merge_local`]).
    pub fn merge(&mut self, other: &LocalHist) {
        if other.counts.len() != self.counts.len() {
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Per-worker accumulator of one [`LocalHist`] per [`Phase`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseAccum {
    hists: [LocalHist; 4],
}

impl PhaseAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a finished [`PhaseTimer`] under `phase`. A timer started
    /// while timing was disabled records nothing.
    pub fn record(&mut self, phase: Phase, timer: PhaseTimer) {
        if let Some(started) = timer.started {
            self.hists[phase.index()].record(started.elapsed().as_secs_f64());
        }
    }

    /// The accumulated delta for one phase.
    pub fn get(&self, phase: Phase) -> &LocalHist {
        &self.hists[phase.index()]
    }

    /// Drains the accumulator, returning the delta since the last take.
    pub fn take(&mut self) -> PhaseAccum {
        std::mem::take(self)
    }

    /// Folds another accumulator in.
    pub fn merge(&mut self, other: &PhaseAccum) {
        for phase in Phase::ALL {
            self.hists[phase.index()].merge(other.get(phase));
        }
    }

    /// True when no phase has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(LocalHist::is_empty)
    }
}

static TIMING: AtomicBool = AtomicBool::new(true);

/// Turns hot-path timing on or off process-wide. Off means
/// [`PhaseTimer::start`] skips the `Instant::now()` call entirely — the
/// benchmark's probe uses this to measure instrumentation overhead in the
/// same run.
pub fn set_timing_enabled(on: bool) {
    TIMING.store(on, Ordering::Relaxed);
}

/// Whether hot-path timing is currently enabled (default: yes).
pub fn timing_enabled() -> bool {
    TIMING.load(Ordering::Relaxed)
}

/// Serializes tests that read or flip the global timing flag.
#[cfg(test)]
pub(crate) fn test_timing_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A started (or disabled) phase clock; see [`crate::phase_timer!`].
pub struct PhaseTimer {
    started: Option<Instant>,
}

impl PhaseTimer {
    /// Reads the clock now, unless timing is disabled.
    pub fn start() -> Self {
        Self { started: timing_enabled().then(Instant::now) }
    }
}

/// Times one expression into a [`PhaseAccum`]:
///
/// ```
/// use dx_telemetry::phase::{Phase, PhaseAccum};
/// use dx_telemetry::phase_timer;
///
/// let mut accum = PhaseAccum::new();
/// let y = phase_timer!(accum, Phase::Forward, 2 + 2);
/// assert_eq!(y, 4);
/// assert_eq!(accum.get(Phase::Forward).count, 1);
/// ```
///
/// The accumulator expression is only borrowed *after* the body runs, so
/// the body may itself borrow the struct that owns the accumulator.
#[macro_export]
macro_rules! phase_timer {
    ($accum:expr, $phase:expr, $body:expr) => {{
        let __timer = $crate::phase::PhaseTimer::start();
        let __result = $body;
        $accum.record($phase, __timer);
        __result
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_hist_buckets_observations() {
        let mut h = LocalHist::new();
        h.record(0.00001); // first bucket (le 25µs)
        h.record(0.003); // le 5ms bucket
        h.record(30.0); // overflow
        assert_eq!(h.count, 3);
        assert_eq!(h.counts.iter().sum::<u64>(), 3);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[TIME_BUCKETS.len()], 1);
        assert!((h.sum - 30.00301).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_and_rejects_foreign_layouts() {
        let mut a = LocalHist::new();
        a.record(0.1);
        let mut b = LocalHist::new();
        b.record(0.2);
        a.merge(&b);
        assert_eq!(a.count, 2);
        let foreign = LocalHist { counts: vec![9; 3], sum: 1.0, count: 9 };
        a.merge(&foreign);
        assert_eq!(a.count, 2, "foreign layout must be ignored");
    }

    #[test]
    fn accum_take_drains() {
        let _guard = test_timing_lock();
        let mut accum = PhaseAccum::new();
        let y = phase_timer!(accum, Phase::Gradient, 40 + 2);
        assert_eq!(y, 42);
        assert_eq!(accum.get(Phase::Gradient).count, 1);
        let taken = accum.take();
        assert!(accum.is_empty());
        assert_eq!(taken.get(Phase::Gradient).count, 1);
    }

    #[test]
    fn disabled_timing_records_nothing() {
        let _guard = test_timing_lock();
        set_timing_enabled(false);
        let mut accum = PhaseAccum::new();
        let _ = phase_timer!(accum, Phase::Forward, 1 + 1);
        set_timing_enabled(true);
        assert!(accum.is_empty());
    }

    #[test]
    fn registry_merge_matches_local_totals() {
        let reg = crate::MetricsRegistry::new();
        let mut local = LocalHist::new();
        local.record(0.0001);
        local.record(0.5);
        let h = reg.histogram("dx_phase_seconds", &[("phase", "forward")], &TIME_BUCKETS);
        h.merge_local(&local);
        h.merge_local(&local);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 1.0002).abs() < 1e-9);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 4);
    }
}
