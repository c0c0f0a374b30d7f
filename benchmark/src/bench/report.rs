//! Results: one run's metrics, how they print, and how they are stored.

use dx_benchmark::json::Json;
use dx_benchmark::stats;

/// One metric of one run: the reported value plus the samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value; `None` when the layer does not run in this
    /// workload (printed as `n/a`).
    pub value: Option<f64>,
    /// How many samples the value summarises.
    pub n: usize,
    /// Smallest and largest per-repetition sample, where the run has
    /// them (the probe reports summaries only).
    pub range: Option<(f64, f64)>,
}

impl Metric {
    /// A metric with its value and the per-repetition samples whose count
    /// and range are shown beside it.
    pub fn new(name: &str, unit: &str, value: Option<f64>, samples: &[f64]) -> Self {
        let range = stats::min_max(samples);
        Self { name: name.into(), unit: unit.into(), value, n: samples.len(), range }
    }

    fn to_json(&self) -> Json {
        let (min, max) = self.range.unzip();
        Json::obj(vec![
            ("unit", Json::str(&self.unit)),
            ("value", Json::opt(self.value)),
            ("n", Json::Num(self.n as f64)),
            ("min", Json::opt(min)),
            ("max", Json::opt(max)),
        ])
    }
}

/// Everything one `--workload` run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// The run's `--seed`.
    pub seed: u64,
    /// Whether this was the traced (per-layer) run.
    pub traced: bool,
    /// Seed-steps budgeted across all repetitions.
    pub attempted: u64,
    /// Seed-steps not absorbed, or belonging to a repetition that failed
    /// a check, plus recorded diffs that did not reproduce.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Per distinct sub-seed: `(rng, steps, diffs, iters, digest)` — what
    /// two runs of one commit at one seed must agree on exactly.
    pub outputs: Vec<(u64, u64, u64, u64, String)>,
}

impl RunResult {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The human-readable block: one line per metric, by name, with unit,
    /// sample count, value and min/max.
    pub fn print_table(&self) {
        let kind = if self.traced { "per-layer (traced)" } else { "end-to-end" };
        println!("workload {} seed {}: {kind}", self.workload, self.seed);
        println!(
            "  {:<36} {:>14} {:<13} {:>4} {:>14} {:>14}",
            "metric", "value", "unit", "n", "min", "max"
        );
        let cell = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4}"));
        for m in &self.metrics {
            let (min, max) = m.range.unzip();
            println!(
                "  {:<36} {:>14} {:<13} {:>4} {:>14} {:>14}",
                m.name,
                cell(m.value),
                m.unit,
                m.n,
                cell(min),
                cell(max)
            );
        }
        println!(
            "  operations: {} attempted, {} failed; outputs {}",
            self.attempted,
            self.failed,
            if self.correct() { "correct" } else { "INCORRECT" }
        );
        for e in &self.errors {
            println!("  failed check: {e}");
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (every metric a number with its unit). A
    /// layer that does not run in this workload has nothing to measure;
    /// the contract wants a number, so it reads 0 here — the table above
    /// and the stored result say `n/a`/`null`.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::num(m.value.unwrap_or(0.0));
                (m.name.as_str(), Json::obj(vec![("value", value), ("unit", Json::str(&m.unit))]))
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }

    /// Per sub-seed `{rng, steps, diffs, iters, sha256}`.
    pub fn outputs_json(&self) -> Json {
        let one = |(rng, steps, diffs, iters, digest): &(u64, u64, u64, u64, String)| {
            Json::obj(vec![
                ("rng", Json::str(&rng.to_string())),
                ("steps", Json::Num(*steps as f64)),
                ("diffs", Json::Num(*diffs as f64)),
                ("iters", Json::Num(*iters as f64)),
                ("sha256", Json::str(digest)),
            ])
        };
        Json::Arr(self.outputs.iter().map(one).collect())
    }

    /// The stored form (a superset of the contract line).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("seed", Json::str(&self.seed.to_string())),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("errors", Json::Arr(self.errors.iter().map(|e| Json::str(e)).collect())),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| (m.name.as_str(), m.to_json())).collect()),
            ),
            ("outputs", self.outputs_json()),
        ])
    }
}
