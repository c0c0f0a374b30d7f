//! The model suite and seeds of a workload, built exactly as the CLI
//! builds them (`crates/cli/src/commands.rs`: `build_suite`,
//! `initial_seeds`), so the probe's replay runs the computation the
//! end-to-end run ran.

use std::path::Path;

use deepxplore::generator::TaskKind;
use deepxplore::{Constraint, Hyperparams};
use dx_benchmark::trace::Tracer;
use dx_campaign::ModelSuite;
use dx_coverage::{CoverageConfig, MetricSpec, SignalSpec};
use dx_datasets::Dataset;
use dx_models::{DatasetKind, Scale, Zoo, ZooConfig};
use dx_nn::util::gather_rows;
use dx_tensor::{rng, Tensor};

/// Training inputs replayed to prime multisection/boundary profiles —
/// the CLI's `PROFILE_INPUTS`.
const PROFILE_INPUTS: usize = 128;

/// A workload's models, data and generation setup.
pub struct Bench {
    /// The suite a campaign/coordinator/worker runs on.
    pub suite: ModelSuite,
    /// The dataset the seeds are drawn from.
    pub ds: Dataset,
    /// The fleet label (`<dataset>@test`), part of the dist fingerprint.
    pub label: String,
}

fn kind_of(dataset: &str) -> Result<DatasetKind, String> {
    match dataset {
        "mnist" => Ok(DatasetKind::Mnist),
        "pdf" => Ok(DatasetKind::Pdf),
        other => Err(format!("the benchmark has no workload on dataset `{other}`")),
    }
}

/// Loads the trio from the weight cache and builds the suite, under
/// `models.load`, `datasets.synth` and (for profile-based metrics)
/// `coverage.prime` spans.
///
/// # Errors
///
/// On an unknown dataset or a metric spec that does not parse.
pub fn build(
    dataset: &str,
    metric: Option<&str>,
    cache: &Path,
    t: &mut Tracer,
) -> Result<Bench, String> {
    let kind = kind_of(dataset)?;
    let mut config = ZooConfig::new(Scale::Test);
    config.cache_dir = cache.to_path_buf();
    let mut zoo = Zoo::new(config);
    let models = t.span("models.load", |_| {
        let models = zoo.trio(kind);
        let params: usize = models.iter().map(dx_nn::Network::param_count).sum();
        (models, vec![("models", 3.0), ("params", params as f64)])
    });
    let ds = t.span("datasets.synth", |_| {
        let ds = zoo.dataset(kind).clone();
        let rows = (ds.train_len() + ds.test_len()) as f64;
        (ds, vec![("rows", rows)])
    });
    let metric: MetricSpec =
        metric.unwrap_or("neuron").parse().map_err(|e: String| format!("metric: {e}"))?;
    let mut signal = SignalSpec::of(CoverageConfig::scaled(0.25), metric.clone(), Vec::new());
    if metric.needs_profiles() {
        let n = PROFILE_INPUTS.min(ds.train_x.shape()[0]);
        signal = t.span("coverage.prime", |_| {
            (signal.primed(&models, &ds.train_x, n), vec![("inputs", n as f64)])
        });
    }
    let (hp, constraint) = match kind {
        DatasetKind::Pdf => (
            Hyperparams::pdf_defaults(),
            Constraint::PdfFeatures {
                scale: ds
                    .feature_scale
                    .as_ref()
                    .ok_or("pdf dataset without scales")?
                    .data()
                    .to_vec(),
            },
        ),
        _ => (Hyperparams::image_defaults(), Constraint::Lighting),
    };
    let suite = ModelSuite { models, kind: TaskKind::Classification, hp, constraint, signal };
    Ok(Bench { suite, ds, label: format!("{}@test", kind.id()) })
}

/// The CLI's `--seeds n --rng seed` draw from the test set.
pub fn initial_seeds(ds: &Dataset, n: usize, seed: u64) -> Tensor {
    let mut r = rng::rng(seed ^ 0x5eed);
    let picks = rng::sample_without_replacement(&mut r, ds.test_len(), n.min(ds.test_len()));
    gather_rows(&ds.test_x, &picks)
}
