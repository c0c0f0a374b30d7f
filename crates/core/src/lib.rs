//! DeepXplore: automated whitebox testing of deep learning systems.
//!
//! A faithful Rust implementation of the SOSP 2017 paper by Pei, Cao, Yang
//! and Jana. Given several independently trained DNNs for the same task,
//! DeepXplore generates test inputs that (a) make the models disagree —
//! erroneous corner cases found *without manual labels* — and (b) activate
//! previously uncovered neurons, by gradient ascent on the joint objective
//!
//! ```text
//! obj(x) = (Σ_{k≠j} F_k(x)[c] − λ1·F_j(x)[c]) + λ2·f_n(x)      (Eq. 3)
//! ```
//!
//! under domain-specific constraints that keep the generated inputs
//! physically plausible (lighting changes, camera occlusion, add-only
//! Android manifest features, integer PDF features).
//!
//! The crate maps onto the paper as follows:
//!
//! | Paper | Here |
//! |---|---|
//! | Algorithm 1 | [`generator::Generator`] |
//! | Equations 2–3, hyperparameters λ1, λ2, s, t | [`hyper::Hyperparams`] |
//! | §6.2 domain constraints | [`constraints::Constraint`] |
//! | differential oracle (classification + steering) | [`diff`] |
//! | random / adversarial baselines (§7.2) | [`baselines`] |
//!
//! # Examples
//!
//! Generate a difference-inducing input for two tiny classifiers:
//!
//! ```
//! use deepxplore::constraints::Constraint;
//! use deepxplore::generator::{Generator, TaskKind};
//! use deepxplore::hyper::Hyperparams;
//! use dx_coverage::CoverageConfig;
//! use dx_nn::layer::Layer;
//! use dx_nn::Network;
//! use dx_tensor::rng;
//!
//! let mut base = Network::new(
//!     &[4],
//!     vec![Layer::dense(4, 12), Layer::relu(), Layer::dense(12, 3), Layer::softmax()],
//! );
//! base.init_weights(&mut rng::rng(1));
//! // Two similar-but-different models: they agree on most inputs, but
//! // their decision boundaries differ slightly — the differential setting.
//! let models = vec![base.clone(), base.perturbed(0.08, 2)];
//! let mut gen = Generator::new(
//!     models,
//!     TaskKind::Classification,
//!     Hyperparams { step: 0.5, max_iters: 40, ..Default::default() },
//!     Constraint::Clip,
//!     CoverageConfig::default(),
//!     7,
//! );
//! let seeds = rng::uniform(&mut rng::rng(5), &[8, 4], 0.2, 0.8);
//! let result = gen.run(&seeds);
//! // Random nets disagree readily; at least one difference is expected.
//! assert!(result.stats.differences_found > 0);
//! ```
//!
//! # Campaigns
//!
//! [`Generator::run`] is the paper's one-shot loop: a fixed seed list,
//! consumed once. For long-running, coverage-guided testing use the
//! `dx-campaign` crate, which wraps this generator in a persistent
//! fuzzing campaign: an energy-scheduled corpus (seeds that yield new
//! coverage or differences are re-queued and their productive mutants
//! enter the corpus), a multi-threaded worker pool whose per-worker
//! coverage bitmaps merge into a shared global union, JSONL checkpoints
//! for resumable runs, and per-epoch throughput reporting
//! (seeds/sec, diffs/sec, coverage over time).
//!
//! Both are entry points to one growth loop and differ only in when
//! activations fold into coverage. [`Generator::run`] (and
//! [`Generator::generate_from_seed`], one seed of it) updates coverage
//! only from recorded differences, as Algorithm 1 prints it. The campaign
//! engine enters through [`Generator::run_batch_tiled`], which grows a
//! tile of seeds per batched pass, folds coverage at every
//! gradient-ascent iterate, reports it per seed ([`SeedRun`]) and
//! surfaces DLFuzz-style corpus candidates; workers synchronize coverage
//! with [`Generator::sync_coverage_into`] / [`Generator::adopt_coverage`].
//! From the command line: `deepxplore campaign --dataset mnist --workers 4`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod constraints;
pub mod diff;
pub mod generator;
pub mod hyper;

pub use constraints::Constraint;
pub use generator::{GenResult, GeneratedTest, Generator, SeedRun, TaskKind};
pub use hyper::Hyperparams;
