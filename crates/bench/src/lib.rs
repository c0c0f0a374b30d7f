//! Shared support for the table/figure bench harnesses.
//!
//! Every bench target regenerates one table or figure of the paper. They
//! are `harness = false` binaries because their product is a printed table
//! (and a copy under `bench_results/`), not a timing curve. Throughput,
//! end to end and per layer, is measured by `dx-bench` under `benchmark/`.
//!
//! Scale: the paper uses 2,000 seeds per experiment and minutes of GPU
//! time per cell; the defaults here are scaled so the whole suite finishes
//! on a laptop CPU. Set `DX_SEEDS=<n>` to raise the seed count and
//! `DX_SCALE=test` to run everything at smoke-test size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;

use deepxplore::generator::TaskKind;
use deepxplore::{Constraint, Hyperparams};
use dx_datasets::driving::STEER_DIRECTION_THRESHOLD;
use dx_datasets::Dataset;
use dx_models::{DatasetKind, Scale, Zoo, ZooConfig};

/// Tees bench output to stdout and `bench_results/<name>.txt`.
pub struct BenchOut {
    file: File,
}

impl BenchOut {
    /// Opens the output file for a bench target.
    pub fn new(name: &str) -> Self {
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("creating bench_results/");
        let file =
            File::create(dir.join(format!("{name}.txt"))).expect("creating bench result file");
        Self { file }
    }

    /// Writes one line to both sinks.
    pub fn line(&mut self, s: impl AsRef<str>) {
        println!("{}", s.as_ref());
        writeln!(self.file, "{}", s.as_ref()).expect("writing bench result line");
    }
}

/// The directory bench results are written to (`bench_results/` at the
/// workspace root, next to `Cargo.toml`).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("bench_results")
}

/// Number of seeds for generation experiments: `DX_SEEDS` or the given
/// default (the paper's counterpart is 2,000).
pub fn seed_count(default: usize) -> usize {
    std::env::var("DX_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The bench zoo: full scale unless `DX_SCALE=test`.
pub fn bench_zoo() -> Zoo {
    Zoo::new(ZooConfig::new(Scale::from_env()))
}

/// Per-dataset experiment configuration mirroring the paper's Table 2.
pub struct Setup {
    /// Dataset kind.
    pub kind: DatasetKind,
    /// Classification or steering regression.
    pub task: TaskKind,
    /// Table 2 hyperparameters (step sizes translated to `[0, 1]` pixels).
    pub hp: Hyperparams,
    /// The dataset's default domain constraint.
    pub constraint: Constraint,
}

/// Builds the Table 2 setup for a dataset (the constraint needs dataset
/// metadata — feature scales and the manifest mask).
pub fn setup_for(kind: DatasetKind, ds: &Dataset) -> Setup {
    let (task, hp, constraint) = match kind {
        DatasetKind::Mnist | DatasetKind::Imagenet => {
            (TaskKind::Classification, Hyperparams::image_defaults(), Constraint::Lighting)
        }
        DatasetKind::Driving => (
            TaskKind::Regression { direction_threshold: STEER_DIRECTION_THRESHOLD },
            Hyperparams::image_defaults(),
            Constraint::Lighting,
        ),
        DatasetKind::Pdf => (
            TaskKind::Classification,
            Hyperparams::pdf_defaults(),
            Constraint::PdfFeatures {
                scale: ds
                    .feature_scale
                    .as_ref()
                    .expect("pdf dataset carries feature scales")
                    .data()
                    .to_vec(),
            },
        ),
        DatasetKind::Drebin => (
            TaskKind::Classification,
            Hyperparams::drebin_defaults(),
            Constraint::DrebinManifest {
                manifest_mask: ds
                    .manifest_mask
                    .clone()
                    .expect("drebin dataset carries a manifest mask"),
            },
        ),
    };
    Setup { kind, task, hp, constraint }
}

/// The three model ids of a dataset, in Table 1 order.
pub fn trio_ids(kind: DatasetKind) -> [&'static str; 3] {
    match kind {
        DatasetKind::Mnist => ["MNI_C1", "MNI_C2", "MNI_C3"],
        DatasetKind::Imagenet => ["IMG_C1", "IMG_C2", "IMG_C3"],
        DatasetKind::Driving => ["DRV_C1", "DRV_C2", "DRV_C3"],
        DatasetKind::Pdf => ["PDF_C1", "PDF_C2", "PDF_C3"],
        DatasetKind::Drebin => ["APP_C1", "APP_C2", "APP_C3"],
    }
}

/// Mean wall-clock time (seconds) and iterations to the *first*
/// difference-inducing input, averaged over `runs` independent runs — the
/// measurement behind Tables 9, 10 and 11.
///
/// Each run draws its own seed sample and processes up to 12 seeds until
/// the first difference appears; runs that find none are excluded (as the
/// paper's timeouts are). Returns `None` if every run timed out.
pub fn time_to_first_difference(
    zoo: &mut Zoo,
    kind: DatasetKind,
    hp: Hyperparams,
    constraint_override: Option<Constraint>,
    runs: usize,
) -> Option<(f32, f32)> {
    use deepxplore::generator::Generator;
    use dx_coverage::CoverageConfig;
    use dx_nn::util::gather_rows;
    use dx_tensor::rng;

    let models = zoo.trio(kind);
    let ds = zoo.dataset(kind).clone();
    let setup = setup_for(kind, &ds);
    let constraint = constraint_override.unwrap_or(setup.constraint);
    let mut total_secs = 0.0f32;
    let mut total_iters = 0.0f32;
    let mut succeeded = 0usize;
    for run in 0..runs {
        let mut gen = Generator::new(
            models.clone(),
            setup.task,
            hp,
            constraint.clone(),
            CoverageConfig::default(),
            0x0009_0000 + run as u64,
        );
        let mut r = rng::rng(0x000A_0000 + run as u64);
        let picks = rng::sample_without_replacement(&mut r, ds.test_len(), 12.min(ds.test_len()));
        let t0 = std::time::Instant::now();
        for (i, &p) in picks.iter().enumerate() {
            let seed = gather_rows(&ds.test_x, &[p]);
            if let Some(test) = gen.generate_from_seed(i, &seed) {
                total_secs += t0.elapsed().as_secs_f32();
                total_iters += test.iterations as f32;
                succeeded += 1;
                break;
            }
        }
    }
    if succeeded == 0 {
        None
    } else {
        Some((total_secs / succeeded as f32, total_iters / succeeded as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_count_default_applies() {
        if std::env::var("DX_SEEDS").is_err() {
            assert_eq!(seed_count(123), 123);
        }
    }

    #[test]
    fn trio_ids_cover_all_kinds() {
        for kind in DatasetKind::ALL {
            assert_eq!(trio_ids(kind).len(), 3);
        }
    }
}
