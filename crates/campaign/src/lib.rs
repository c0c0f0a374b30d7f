//! `dx-campaign` — a parallel, coverage-guided fuzzing campaign engine
//! over the DeepXplore generator.
//!
//! The core crate's [`deepxplore::Generator`] reproduces Algorithm 1 as a
//! one-shot pass over a fixed seed list. Campaigns turn that into a
//! long-running service-shaped workload, following the corpus-and-energy
//! design of DLFuzz (Guo et al., FSE 2018):
//!
//! - **Corpus** ([`corpus::Corpus`]): seeds carry an energy that rises when
//!   fuzzing them yields new coverage or difference-inducing inputs
//!   and decays when it yields nothing; scheduling samples seeds
//!   energy-proportionally. Intermediate inputs that covered new units
//!   while the models still agreed are grafted back as child seeds.
//! - **Metric-generic signal** ([`dx_coverage::SignalSpec`]): campaigns
//!   steer by any [`dx_coverage::CoverageSignal`] — the paper's binary
//!   neuron coverage or DeepGauge k-multisection sections — selected per
//!   campaign; every union/checkpoint/energy path below is written against
//!   the signal, not a concrete tracker.
//! - **Ledger** ([`ledger::Ledger`]): one campaign's books — corpus,
//!   union, diffs, rounds, requeue, the round-keyed scheduler stream — and
//!   the one checkpoint writer and loader, shared by every driver.
//! - **Worker pool** ([`engine::Campaign`]): the in-process driver. Each
//!   worker thread owns model clones and private per-model
//!   [`dx_coverage::CoverageSignal`]s, and periodically folds them into a
//!   shared copy of the union ([`dx_coverage::CoverageSignal::merge`]),
//!   adopting it back so workers don't chase units someone else covered.
//! - **Persistence** ([`checkpoint`]): JSONL corpus/stats/diffs checkpoints
//!   after every epoch; [`engine::Campaign::resume`] continues a campaign
//!   from disk.
//! - **Reporting** ([`report::CampaignReport`]): per-epoch seeds/sec,
//!   diffs/sec and the coverage-over-time curve.
//!
//! # Example
//!
//! ```
//! use dx_campaign::{Campaign, CampaignConfig, ModelSuite};
//! use deepxplore::constraints::Constraint;
//! use deepxplore::generator::TaskKind;
//! use deepxplore::Hyperparams;
//! use dx_coverage::{CoverageConfig, SignalSpec};
//! use dx_nn::layer::Layer;
//! use dx_nn::Network;
//! use dx_tensor::rng;
//!
//! let mut base = Network::new(
//!     &[8],
//!     vec![Layer::dense(8, 12), Layer::relu(), Layer::dense(12, 3), Layer::softmax()],
//! );
//! base.init_weights(&mut rng::rng(1));
//! let suite = ModelSuite {
//!     models: vec![base.clone(), base.perturbed(0.1, 2), base.perturbed(0.1, 3)],
//!     kind: TaskKind::Classification,
//!     hp: Hyperparams { step: 0.3, max_iters: 30, ..Default::default() },
//!     constraint: Constraint::Clip,
//!     signal: SignalSpec::neuron(CoverageConfig::scaled(0.25)),
//! };
//! let seeds = rng::uniform(&mut rng::rng(4), &[10, 8], 0.2, 0.8);
//! let mut campaign = Campaign::new(
//!     suite,
//!     &seeds,
//!     CampaignConfig { workers: 2, epochs: 3, batch_per_epoch: 8, ..Default::default() },
//! );
//! let report = campaign.run().unwrap();
//! // Runs up to 3 epochs (fewer if the tiny corpus exhausts first).
//! assert!(!report.epochs.is_empty() && report.epochs.len() <= 3);
//! assert!(campaign.mean_coverage() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod checkpoint;
pub mod codec;
pub mod corpus;
pub mod engine;
pub mod ledger;
pub mod migrate;
pub mod report;

pub use corpus::{Corpus, CorpusEntry, EnergyModel};
pub use dx_telemetry::json;
pub use engine::{Campaign, CampaignConfig, FoundDiff, ModelSuite};
pub use report::{CampaignReport, EpochStats};

#[cfg(test)]
mod tests {
    use super::*;
    use deepxplore::constraints::Constraint;
    use deepxplore::generator::TaskKind;
    use deepxplore::Hyperparams;
    use dx_coverage::{CoverageConfig, SignalSpec};
    use dx_nn::layer::Layer;
    use dx_nn::Network;
    use dx_tensor::{rng, Tensor};

    fn classifier(seed: u64) -> Network {
        let mut n = Network::new(
            &[16],
            vec![Layer::dense(16, 14), Layer::relu(), Layer::dense(14, 3), Layer::softmax()],
        );
        n.init_weights(&mut rng::rng(seed));
        n
    }

    fn suite(seed: u64) -> ModelSuite {
        let base = classifier(seed);
        ModelSuite {
            models: vec![
                base.clone(),
                base.perturbed(0.1, seed + 1),
                base.perturbed(0.1, seed + 2),
            ],
            kind: TaskKind::Classification,
            hp: Hyperparams { step: 0.25, lambda1: 2.0, max_iters: 40, ..Default::default() },
            constraint: Constraint::Clip,
            signal: SignalSpec::neuron(CoverageConfig::scaled(0.25)),
        }
    }

    fn seed_batch(seed: u64, n: usize) -> Tensor {
        rng::uniform(&mut rng::rng(seed), &[n, 16], 0.2, 0.8)
    }

    /// A suite steering by k-multisection coverage, profiles primed from
    /// a deterministic stand-in training set.
    fn ms_suite(seed: u64, k: usize) -> ModelSuite {
        let mut s = suite(seed);
        let train = rng::uniform(&mut rng::rng(seed ^ 0x7a1d), &[40, 16], 0.0, 1.0);
        s.signal = SignalSpec::multisection(CoverageConfig::default(), k, Vec::new())
            .primed(&s.models, &train, 40);
        s
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dx_campaign_engine_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn campaign_finds_differences_and_grows_coverage() {
        let mut campaign = Campaign::new(
            suite(1),
            &seed_batch(2, 12),
            CampaignConfig { epochs: 4, batch_per_epoch: 10, ..Default::default() },
        );
        let report = campaign.run().unwrap().clone();
        assert!(!report.epochs.is_empty());
        assert!(report.total_seeds() > 0);
        assert!(campaign.mean_coverage() > 0.0);
        assert!(
            !campaign.diffs().is_empty(),
            "campaign found no differences:\n{}",
            report.render()
        );
        // Every archived diff is a real disagreement.
        for diff in campaign.diffs() {
            assert!(deepxplore::diff::differs(&diff.predictions, 0.0));
        }
        // Initial seeds are still present.
        assert!(campaign.corpus().len() >= 12);
    }

    #[test]
    fn multi_worker_campaign_runs() {
        let mut campaign = Campaign::new(
            suite(10),
            &seed_batch(11, 12),
            CampaignConfig { workers: 4, epochs: 3, batch_per_epoch: 12, ..Default::default() },
        );
        let report = campaign.run().unwrap();
        assert_eq!(report.workers, 4);
        assert_eq!(report.epochs.len(), 3);
        assert!(campaign.mean_coverage() > 0.0);
    }

    #[test]
    fn single_worker_campaign_is_deterministic() {
        let run = || {
            let mut campaign = Campaign::new(
                suite(20),
                &seed_batch(21, 10),
                CampaignConfig {
                    workers: 1,
                    epochs: 3,
                    batch_per_epoch: 8,
                    seed: 7,
                    ..Default::default()
                },
            );
            campaign.run().unwrap();
            campaign
        };
        let a = run();
        let b = run();
        assert_eq!(a.diffs().len(), b.diffs().len());
        assert_eq!(a.corpus().len(), b.corpus().len());
        assert_eq!(a.coverage(), b.coverage());
        for (ea, eb) in a.corpus().entries().iter().zip(b.corpus().entries()) {
            assert_eq!(ea.id, eb.id);
            assert_eq!(ea.input, eb.input);
            assert_eq!(ea.energy.to_bits(), eb.energy.to_bits());
            assert_eq!(ea.times_fuzzed, eb.times_fuzzed);
        }
        for (da, db) in a.diffs().iter().zip(b.diffs()) {
            assert_eq!(da.input, db.input);
            assert_eq!(da.predictions, db.predictions);
        }
    }

    #[test]
    fn checkpoint_and_resume_continue_the_campaign() {
        let dir = tmp_dir("resume");
        let config = CampaignConfig {
            workers: 1,
            epochs: 2,
            batch_per_epoch: 8,
            checkpoint_dir: Some(dir.clone()),
            seed: 5,
            ..Default::default()
        };
        let mut first = Campaign::new(suite(30), &seed_batch(31, 10), config.clone());
        first.run().unwrap();
        assert_eq!(first.epochs_done(), 2);
        let diffs_before = first.diffs().len();
        let corpus_before = first.corpus().len();

        let mut resumed = Campaign::resume(suite(30), config).unwrap();
        assert_eq!(resumed.epochs_done(), 2);
        assert_eq!(resumed.corpus().len(), corpus_before);
        assert_eq!(resumed.diffs().len(), diffs_before);
        // The persisted coverage bitmaps restore the global union exactly.
        assert_eq!(resumed.coverage(), first.coverage());
        resumed.run().unwrap();
        assert_eq!(resumed.epochs_done(), 4);
        assert_eq!(resumed.report().epochs.len(), 4);
        assert!(resumed.diffs().len() >= diffs_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_lines_survive_a_resume_byte_identical() {
        // The first checkpoint after a restart rewrites `stats.jsonl` from
        // the loaded rounds; the lines written before it must come back
        // unchanged, rates included.
        let dir = tmp_dir("stats_stable");
        let config = CampaignConfig {
            workers: 1,
            epochs: 2,
            batch_per_epoch: 6,
            checkpoint_dir: Some(dir.clone()),
            ..Default::default()
        };
        Campaign::new(suite(35), &seed_batch(36, 8), config.clone()).run().unwrap();
        let before = std::fs::read_to_string(dir.join("stats.jsonl")).unwrap();
        let mut resumed = Campaign::resume(suite(35), config).unwrap();
        resumed.checkpoint(&dir).unwrap();
        let after = std::fs::read_to_string(dir.join("stats.jsonl")).unwrap();
        assert_eq!(before.lines().count(), 2);
        assert_eq!(after, before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_is_bit_identical_to_uninterrupted_run() {
        // Checkpoints persist per-worker generator RNG state, so a
        // 2-epochs-then-resume-2 campaign must match a straight 4-epoch run
        // exactly (single worker; multi-worker interleaving is timed).
        let config = |epochs: usize, dir: &std::path::Path| CampaignConfig {
            workers: 1,
            epochs,
            batch_per_epoch: 8,
            checkpoint_dir: Some(dir.to_path_buf()),
            seed: 9,
            ..Default::default()
        };
        let dir_a = tmp_dir("bitident_straight");
        let mut straight = Campaign::new(suite(80), &seed_batch(81, 10), config(4, &dir_a));
        straight.run().unwrap();

        let dir_b = tmp_dir("bitident_split");
        let mut first = Campaign::new(suite(80), &seed_batch(81, 10), config(2, &dir_b));
        first.run().unwrap();
        let mut resumed = Campaign::resume(suite(80), config(2, &dir_b)).unwrap();
        resumed.run().unwrap();

        assert_eq!(resumed.epochs_done(), straight.epochs_done());
        assert_eq!(resumed.coverage(), straight.coverage());
        assert_eq!(resumed.diffs().len(), straight.diffs().len());
        for (a, b) in resumed.diffs().iter().zip(straight.diffs()) {
            assert_eq!(a.input, b.input);
            assert_eq!(a.predictions, b.predictions);
            assert_eq!(a.target_model, b.target_model);
        }
        assert_eq!(resumed.corpus().len(), straight.corpus().len());
        for (a, b) in resumed.corpus().entries().iter().zip(straight.corpus().entries()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.input, b.input);
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
            assert_eq!(a.times_fuzzed, b.times_fuzzed);
        }
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn multisection_campaign_reaches_a_section_target_and_resumes_bit_identically() {
        // The finer DeepGauge signal drives the whole stack: a campaign
        // steering by section coverage reaches a section-level target, and
        // a checkpoint/resume split reproduces the uninterrupted run
        // exactly (profiles and hit-sets restored from disk).
        let config = |epochs: usize, dir: &std::path::Path| CampaignConfig {
            workers: 1,
            epochs,
            batch_per_epoch: 8,
            checkpoint_dir: Some(dir.to_path_buf()),
            seed: 11,
            ..Default::default()
        };
        let dir_a = tmp_dir("ms_straight");
        let mut straight = Campaign::new(ms_suite(70, 4), &seed_batch(71, 10), config(4, &dir_a));
        straight.run().unwrap();
        assert!(straight.mean_coverage() > 0.0, "no section coverage at all");

        let dir_b = tmp_dir("ms_split");
        let mut first = Campaign::new(ms_suite(70, 4), &seed_batch(71, 10), config(2, &dir_b));
        first.run().unwrap();
        // Resume with *unprimed* profiles: the checkpointed ones must be
        // restored from disk, not re-derived.
        let mut unprimed = suite(70);
        unprimed.signal.metric = dx_coverage::MetricKind::Multisection { k: 4 }.into();
        let mut resumed = Campaign::resume(unprimed, config(2, &dir_b)).unwrap();
        resumed.run().unwrap();

        assert_eq!(resumed.epochs_done(), straight.epochs_done());
        assert_eq!(resumed.coverage(), straight.coverage());
        assert_eq!(resumed.diffs().len(), straight.diffs().len());
        assert_eq!(resumed.corpus().len(), straight.corpus().len());
        for (a, b) in resumed.corpus().entries().iter().zip(straight.corpus().entries()) {
            assert_eq!(a.input, b.input);
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        }

        // A section-coverage target stops the campaign early.
        let reached = straight.mean_coverage() * 0.5;
        let mut targeted = Campaign::new(
            ms_suite(70, 4),
            &seed_batch(71, 10),
            CampaignConfig {
                epochs: 100,
                batch_per_epoch: 8,
                desired_coverage: Some(reached),
                seed: 11,
                ..Default::default()
            },
        );
        let report = targeted.run().unwrap();
        assert!(report.epochs.len() < 100);
        assert!(targeted.mean_coverage() >= reached);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn resume_rejects_metric_mismatch() {
        let dir = tmp_dir("metric_mismatch");
        let config = CampaignConfig {
            workers: 1,
            epochs: 1,
            batch_per_epoch: 4,
            checkpoint_dir: Some(dir.clone()),
            ..Default::default()
        };
        let mut neuron = Campaign::new(suite(75), &seed_batch(76, 6), config.clone());
        neuron.run().unwrap();
        // Resuming a neuron checkpoint under multisection must fail loudly
        // rather than silently mixing hit-set semantics.
        let err = match Campaign::resume(ms_suite(75, 4), config) {
            Err(e) => e,
            Ok(_) => panic!("metric mismatch must be rejected"),
        };
        assert!(err.to_string().contains("metric"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rarity_energy_campaign_runs_and_is_deterministic() {
        let run = || {
            let mut campaign = Campaign::new(
                suite(90),
                &seed_batch(91, 10),
                CampaignConfig {
                    workers: 1,
                    epochs: 3,
                    batch_per_epoch: 8,
                    seed: 3,
                    energy: EnergyModel::Rarity,
                    ..Default::default()
                },
            );
            campaign.run().unwrap();
            campaign
        };
        let a = run();
        let b = run();
        assert!(a.mean_coverage() > 0.0);
        assert_eq!(a.corpus().len(), b.corpus().len());
        for (ea, eb) in a.corpus().entries().iter().zip(b.corpus().entries()) {
            assert_eq!(ea.energy.to_bits(), eb.energy.to_bits());
        }
    }

    #[test]
    fn desired_coverage_stops_early() {
        let mut campaign = Campaign::new(
            suite(40),
            &seed_batch(41, 10),
            CampaignConfig {
                epochs: 50,
                batch_per_epoch: 8,
                desired_coverage: Some(0.05),
                ..Default::default()
            },
        );
        let report = campaign.run().unwrap();
        assert!(report.epochs.len() < 50, "should stop well before 50 epochs");
        assert!(campaign.mean_coverage() >= 0.05);
    }

    #[test]
    fn duration_budget_is_respected() {
        let mut campaign = Campaign::new(
            suite(50),
            &seed_batch(51, 10),
            CampaignConfig {
                epochs: 10_000,
                batch_per_epoch: 4,
                duration: Some(std::time::Duration::from_millis(200)),
                ..Default::default()
            },
        );
        let started = std::time::Instant::now();
        campaign.run().unwrap();
        // Generously bounded: at most one epoch past the budget.
        assert!(started.elapsed() < std::time::Duration::from_secs(30));
        assert!(campaign.epochs_done() < 10_000);
    }

    #[test]
    fn reproduces_difference_rejects_malformed_claims_without_panicking() {
        let s = suite(200);
        let good = seed_batch(201, 1);
        let preds = s.predictions(&good);
        assert_eq!(preds.len(), 3);
        // A wrong-shaped tensor (a fabricated worker claim) is a failed
        // check, not a crash inside the forward pass.
        let bad_shape = rng::uniform(&mut rng::rng(1), &[1, 8], 0.0, 1.0);
        assert!(!s.reproduces_difference(&bad_shape, &preds));
        let unbatched = rng::uniform(&mut rng::rng(2), &[16], 0.0, 1.0);
        assert!(!s.reproduces_difference(&unbatched, &preds));
        // A claim with the wrong model count fails too.
        assert!(!s.reproduces_difference(&good, &preds[..1]));
        // And agreeing models mean the claim cannot reproduce at all.
        assert!(!s.reproduces_difference(&good, &preds));
    }

    #[test]
    fn identical_models_yield_no_diffs_but_still_cover() {
        let base = classifier(60);
        let twin_suite = ModelSuite {
            models: vec![base.clone(), base],
            kind: TaskKind::Classification,
            hp: Hyperparams { step: 0.25, max_iters: 10, ..Default::default() },
            constraint: Constraint::Clip,
            signal: SignalSpec::neuron(CoverageConfig::scaled(0.25)),
        };
        let mut campaign = Campaign::new(
            twin_suite,
            &seed_batch(61, 6),
            CampaignConfig { epochs: 2, batch_per_epoch: 6, ..Default::default() },
        );
        campaign.run().unwrap();
        assert!(campaign.diffs().is_empty());
        assert!(campaign.mean_coverage() > 0.0);
    }

    #[test]
    fn campaign_reports_metrics_into_its_registry() {
        use dx_telemetry::phase::{Phase, TIME_BUCKETS};
        let registry = dx_telemetry::MetricsRegistry::new();
        let config = CampaignConfig {
            epochs: 3,
            batch_per_epoch: 8,
            registry: registry.clone(),
            ..Default::default()
        };
        let mut campaign = Campaign::new(suite(7), &seed_batch(8, 10), config);
        campaign.run().unwrap();
        let seeds_run: usize = campaign.report().epochs.iter().map(|e| e.seeds_run).sum();
        assert_eq!(registry.counter("dx_seeds_total", &[]).get(), seeds_run as u64);
        let total_diffs: usize = campaign.report().epochs.iter().map(|e| e.diffs_found).sum();
        assert_eq!(registry.counter("dx_diffs_total", &[]).get(), total_diffs as u64);
        // Every epoch timed, and hot-path phases observed at least one
        // iterate each (forward always runs; gradient too since the
        // models agree on in-distribution seeds).
        assert_eq!(registry.histogram("dx_epoch_seconds", &[], &[]).count(), 3);
        for phase in [Phase::Forward, Phase::Gradient, Phase::Constraint, Phase::Coverage] {
            let h =
                registry.histogram("dx_phase_seconds", &[("phase", phase.name())], &TIME_BUCKETS);
            assert!(h.count() > 0, "no observations for {}", phase.name());
        }
        // Per-component new-unit counters agree with the report.
        let newly: u64 = registry.counter("dx_new_units_total", &[("component", "neuron")]).get();
        assert!(newly > 0, "a fresh campaign must cover something");
        assert!(registry.gauge("dx_corpus_size", &[]).get() >= 10.0);
        let text = registry.render_prometheus();
        assert!(text.contains("dx_phase_seconds_bucket{phase=\"forward\",le=\"+Inf\"}"), "{text}");
    }
}
