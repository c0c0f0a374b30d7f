//! Train-once model zoo with a disk-backed weight cache.
//!
//! The paper fixes fifteen pre-trained checkpoints; every experiment then
//! treats them as read-only oracles. [`Zoo`] reproduces that workflow:
//! the first request for a model trains it on the synthetic dataset and
//! writes the weights to the cache directory; later requests (including
//! across processes — every bench target shares the cache) deserialize in
//! milliseconds. Datasets are regenerated deterministically and memoized
//! in memory.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dx_datasets::{drebin, driving, imagenet, mnist, pdf, Dataset};
use dx_nn::network::Network;
use dx_nn::serialize;
use dx_nn::train::{
    evaluate_classifier, evaluate_regressor, train_classifier, train_regressor, TrainConfig,
};
use dx_nn::Optimizer;
use dx_tensor::rng;

use crate::arch::{build, DatasetKind, ModelSpec, SPECS};

/// Experiment scale: `Test` keeps everything small enough for `cargo test`;
/// `Full` is the bench default.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Small datasets, short training — for unit/integration tests.
    Test,
    /// Bench-scale datasets and training.
    Full,
}

impl Scale {
    /// Reads the scale from the `DX_SCALE` environment variable
    /// (`"test"`/`"full"`), defaulting to `Full`.
    pub fn from_env() -> Self {
        match std::env::var("DX_SCALE").as_deref() {
            Ok("test") => Scale::Test,
            _ => Scale::Full,
        }
    }

    fn id(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Full => "full",
        }
    }
}

/// Zoo configuration.
#[derive(Clone, Debug)]
pub struct ZooConfig {
    /// Experiment scale.
    pub scale: Scale,
    /// Weight-cache directory; defaults to `DX_CACHE_DIR` or
    /// `<workspace>/.dx-cache`.
    pub cache_dir: PathBuf,
    /// Master seed; model `i` trains with stream `i` derived from it.
    pub seed: u64,
}

impl ZooConfig {
    /// The standard configuration at a given scale.
    pub fn new(scale: Scale) -> Self {
        let cache_dir = std::env::var("DX_CACHE_DIR").map(PathBuf::from).unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(".dx-cache")
        });
        Self { scale, cache_dir, seed: 0x000D_5EED }
    }
}

/// The model zoo: datasets plus trained models, lazily materialized.
pub struct Zoo {
    config: ZooConfig,
    datasets: BTreeMap<DatasetKind, Dataset>,
    models: BTreeMap<&'static str, Network>,
}

impl Zoo {
    /// Creates a zoo with the given configuration.
    pub fn new(config: ZooConfig) -> Self {
        std::fs::create_dir_all(&config.cache_dir).ok();
        Self { config, datasets: BTreeMap::new(), models: BTreeMap::new() }
    }

    /// Creates a zoo at the given scale with default cache/seed.
    pub fn at_scale(scale: Scale) -> Self {
        Self::new(ZooConfig::new(scale))
    }

    /// The configuration.
    pub fn config(&self) -> &ZooConfig {
        &self.config
    }

    /// The dataset for a kind, generated on first use.
    pub fn dataset(&mut self, kind: DatasetKind) -> &Dataset {
        let scale = self.config.scale;
        self.datasets.entry(kind).or_insert_with(|| generate_dataset(kind, scale))
    }

    /// A trained model, from memory, disk cache, or a fresh training run —
    /// in that order. Returns a clone so callers can hold several models.
    pub fn model(&mut self, id: &str) -> Network {
        let spec = crate::arch::spec(id);
        if let Some(net) = self.models.get(spec.id) {
            return net.clone();
        }
        let mut net = build(&spec);
        let path = self.weight_path(&spec);
        if path.exists() {
            if serialize::load_weights(&mut net, &path).is_ok() {
                self.models.insert(spec.id, net.clone());
                return net;
            }
            // A stale or corrupt cache entry: retrain below.
            eprintln!("zoo: cache at {} unusable, retraining {}", path.display(), spec.id);
        }
        self.train(&spec, &mut net);
        // Write-then-rename so concurrent readers never observe a partial
        // file; the name is unique per writer because tests may materialize
        // the same model from several threads at once.
        static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let unique = WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp{}-{unique}", std::process::id()));
        serialize::save_weights(&net, &tmp).expect("writing the weight cache");
        std::fs::rename(&tmp, &path).expect("publishing the weight cache");
        self.models.insert(spec.id, net.clone());
        net
    }

    /// The trio of models for a dataset, in index order.
    pub fn trio(&mut self, kind: DatasetKind) -> Vec<Network> {
        SPECS.iter().filter(|s| s.dataset == kind).map(|s| self.model(s.id)).collect()
    }

    /// Test accuracy for classifiers, `1 − MSE` for the driving regressors
    /// (the paper's Table 1 footnote).
    pub fn accuracy(&mut self, id: &str) -> f32 {
        let spec = crate::arch::spec(id);
        let net = self.model(id);
        let ds = self.dataset(spec.dataset);
        if spec.dataset.is_regression() {
            1.0 - evaluate_regressor(&net, &ds.test_x, ds.test_labels.values())
        } else {
            evaluate_classifier(&net, &ds.test_x, ds.test_labels.classes())
        }
    }

    /// Cache-format version: bump when dataset generators or training
    /// recipes change, so stale weights are retrained rather than silently
    /// reused against a different data distribution.
    const CACHE_VERSION: &'static str = "v3";

    fn weight_path(&self, spec: &ModelSpec) -> PathBuf {
        self.config.cache_dir.join(format!(
            "{}_{}_{}_{:x}.dxw",
            spec.id,
            Self::CACHE_VERSION,
            self.config.scale.id(),
            self.config.seed
        ))
    }

    fn train(&mut self, spec: &ModelSpec, net: &mut Network) {
        let seed = rng::derive_seed(
            self.config.seed,
            spec.index as u64 + 100 * spec.dataset.id().len() as u64,
        );
        let mut r = rng::rng(seed);
        net.init_weights(&mut r);
        let (cfg, mut opt) = recipe(spec.dataset, self.config.scale, seed);
        let ds = self.dataset(spec.dataset).clone();
        eprintln!(
            "zoo: training {} ({}) on {} samples for {} epochs...",
            spec.id,
            spec.arch,
            ds.train_len(),
            cfg.epochs
        );
        let t0 = std::time::Instant::now();
        if spec.dataset.is_regression() {
            train_regressor(net, &ds.train_x, ds.train_labels.values(), &cfg, &mut opt);
        } else {
            train_classifier(net, &ds.train_x, ds.train_labels.classes(), &cfg, &mut opt);
        }
        eprintln!("zoo: trained {} in {:.1?}", spec.id, t0.elapsed());
    }
}

/// Dataset generation at each scale.
fn generate_dataset(kind: DatasetKind, scale: Scale) -> Dataset {
    let small = scale == Scale::Test;
    match kind {
        DatasetKind::Mnist => mnist::generate(&mnist::MnistConfig {
            n_train: if small { 900 } else { 4000 },
            n_test: if small { 250 } else { 800 },
            ..Default::default()
        }),
        DatasetKind::Imagenet => imagenet::generate(&imagenet::ImagenetConfig {
            n_train: if small { 800 } else { 2200 },
            n_test: if small { 200 } else { 500 },
            ..Default::default()
        }),
        DatasetKind::Driving => driving::generate(&driving::DrivingConfig {
            n_train: if small { 700 } else { 2500 },
            n_test: if small { 200 } else { 500 },
            ..Default::default()
        }),
        DatasetKind::Pdf => pdf::generate(&pdf::PdfConfig {
            n_train: if small { 1200 } else { 4000 },
            n_test: if small { 400 } else { 1000 },
            ..Default::default()
        }),
        DatasetKind::Drebin => drebin::generate(&drebin::DrebinConfig {
            n_train: if small { 1000 } else { 3000 },
            n_test: if small { 300 } else { 800 },
            ..Default::default()
        }),
    }
}

/// Per-dataset training recipe.
fn recipe(kind: DatasetKind, scale: Scale, seed: u64) -> (TrainConfig, Optimizer) {
    let small = scale == Scale::Test;
    let epochs = match kind {
        // Three epochs at both scales: two left the test-scale LeNets
        // under the 75% accuracy bar the end-to-end suite requires.
        DatasetKind::Mnist => 3,
        // The VGG/ResNet trio needs more optimizer steps than the rest;
        // a higher learning rate plus more epochs reaches >90% test
        // accuracy on the synthetic classes (see DESIGN.md).
        DatasetKind::Imagenet => {
            if small {
                6
            } else {
                8
            }
        }
        DatasetKind::Driving => {
            if small {
                3
            } else {
                5
            }
        }
        DatasetKind::Pdf | DatasetKind::Drebin => {
            if small {
                3
            } else {
                6
            }
        }
    };
    let lr = if kind == DatasetKind::Imagenet { 3e-3 } else { 1e-3 };
    (TrainConfig { epochs, batch_size: 32, seed, shuffle: true }, Optimizer::adam(lr))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_zoo(tag: &str) -> Zoo {
        let mut cfg = ZooConfig::new(Scale::Test);
        cfg.cache_dir = std::env::temp_dir().join(format!("dx_zoo_test_{tag}"));
        Zoo::new(cfg)
    }

    #[test]
    fn datasets_are_memoized() {
        let mut zoo = test_zoo("datasets");
        let a = zoo.dataset(DatasetKind::Pdf).train_x.clone();
        let b = zoo.dataset(DatasetKind::Pdf).train_x.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn malware_model_trains_and_caches() {
        let dir = std::env::temp_dir().join("dx_zoo_test_train");
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = ZooConfig::new(Scale::Test);
        cfg.cache_dir = dir.clone();
        let mut zoo = Zoo::new(cfg.clone());
        let net = zoo.model("PDF_C1");
        let acc = zoo.accuracy("PDF_C1");
        assert!(acc > 0.85, "PDF_C1 test accuracy {acc}");
        // A second zoo instance must hit the disk cache and agree exactly.
        let mut zoo2 = Zoo::new(cfg);
        let net2 = zoo2.model("PDF_C1");
        for (a, b) in net.params().iter().zip(net2.params().iter()) {
            assert_eq!(a, b);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drebin_trio_has_three_distinct_models() {
        let mut zoo = test_zoo("trio");
        let trio = zoo.trio(DatasetKind::Drebin);
        assert_eq!(trio.len(), 3);
        assert_ne!(trio[0].param_count(), trio[1].param_count());
    }

    #[test]
    fn scale_from_env_defaults_to_full() {
        // Do not set the variable here; just exercise the default path.
        if std::env::var("DX_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Full);
        }
    }
}
