//! The probe's result: every per-layer metric, measured or `n/a`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use dx_benchmark::json::Json;
use dx_benchmark::spec::PER_LAYER;
use dx_benchmark::stats;

/// Per-layer metric values by name. A metric nobody sets stays `None`
/// (`null` in `probe.json`, `n/a` in the table): the layer does not run
/// in this workload. Zero is a measurement; `n/a` is not.
pub struct Out {
    values: BTreeMap<&'static str, (Option<f64>, usize)>,
    /// Failed checks of the replay (it diverged from the CLI run, ...).
    pub errors: Vec<String>,
}

impl Out {
    /// All metrics of `BENCHMARK.json`'s `per_layer`, unset.
    pub fn new() -> Self {
        Self { values: PER_LAYER.iter().map(|m| (m.name, (None, 0))).collect(), errors: Vec::new() }
    }

    /// Sets a metric from `n` underlying samples.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not in the benchmark's metric table — a
    /// typo must not silently leave a metric `n/a`.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        *slot = (value.is_finite().then_some(value), n);
    }

    /// Sets a metric to the median of `samples` (left `n/a` when empty).
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        if let Some(m) = stats::median(samples) {
            self.set(name, m, samples.len());
        }
    }

    /// Sets a tail percentile — only when the sample count supports it
    /// (ten samples beyond the percentile), else the metric stays `n/a`.
    pub fn set_tail(&mut self, name: &str, samples: &[f64], p: f64) {
        if let Some(v) = stats::tail(samples, p) {
            self.set(name, v, samples.len());
        }
    }

    /// A metric's current value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).and_then(|(v, _)| *v)
    }

    /// Writes `probe.json`: `{metrics: {name: value|null}, n: {name:
    /// samples}, errors: [...]}`.
    ///
    /// # Errors
    ///
    /// When the file cannot be written.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let metrics = PER_LAYER.iter().map(|m| (m.name, Json::opt(self.get(m.name)))).collect();
        let n =
            PER_LAYER.iter().map(|m| (m.name, Json::Num(self.values[m.name].1 as f64))).collect();
        let doc = Json::obj(vec![
            ("metrics", Json::obj(metrics)),
            ("n", Json::obj(n)),
            ("errors", Json::Arr(self.errors.iter().map(|e| Json::str(e)).collect())),
        ]);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Calls `op` back to back for about `slice` (at least `min` times) and
/// returns each call's duration in microseconds.
pub fn sample_us(slice: Duration, min: usize, mut op: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || started.elapsed() < slice {
        let t = Instant::now();
        op();
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    samples
}

/// Median of [`sample_us`], plus the sample count.
pub fn median_us(slice: Duration, min: usize, op: impl FnMut()) -> (f64, usize) {
    let samples = sample_us(slice, min, op);
    (stats::median(&samples).unwrap_or(f64::NAN), samples.len())
}
