//! `dx-dist` — a distributed coordinator/worker campaign service.
//!
//! DeepXplore's joint-optimization loop is embarrassingly parallel across
//! seeds; `dx-campaign`'s in-process pool is capped by one machine's
//! cores. This crate runs **one logical campaign across many OS
//! processes**:
//!
//! - The **coordinator** ([`Coordinator`]) owns the corpus and the global
//!   coverage union, hands out energy-weighted seed leases, and folds back
//!   worker results — step outcomes, difference-inducing inputs,
//!   productive mutants, and sparse coverage bitmap deltas
//!   ([`dx_coverage::CoverageSignal::diff_indices`]).
//! - **Workers** ([`worker::run_worker`]) are thin wrappers around the
//!   generator's batched step loop
//!   ([`deepxplore::Generator::run_batch_tiled`]);
//!   their RNG streams derive from `(campaign seed, slot)` exactly like
//!   in-process pool workers'.
//! - Transport is a hand-rolled length-prefixed JSON framing
//!   ([`wire`]) over `std::net::TcpStream` — the payload codecs are the
//!   campaign checkpoint codecs, reused byte-for-byte.
//! - Serving, admission and lease bookkeeping are the one lease engine
//!   ([`engine`]): a connection shell over a sans-I/O lease table and
//!   campaign ledger. On it runs one daemon ([`Coordinator`], policy in
//!   [`dispatcher`]) over a map of campaigns ([`tenant`]): a dedicated
//!   coordinator holds one, the `dx-service` daemon many. Liveness comes
//!   from worker heartbeats and lease timeouts that requeue abandoned
//!   seeds; a graceful drain writes a checkpoint (campaign JSONL plus
//!   `dist.json` campaign state and `fleet.json` fleet state) from which
//!   [`Coordinator::resume`] restarts the whole fleet — or
//!   [`dx_campaign::Campaign::resume`] continues in-process.
//! - Trust comes from three layers ([`auth`], [`dispatcher`]): a shared
//!   secret proven via HMAC challenge/response before any campaign state
//!   is revealed; spot-checking, where the daemon re-executes a sample of
//!   claimed difference-inducing inputs through its own model copies,
//!   quarantining non-reproducing claims and evicting workers whose
//!   fabrication rate crosses a threshold; and structural frame
//!   validation (shape checks, pre-admission frame caps, hello
//!   timeouts), so a hostile peer can be rejected but never crash or
//!   stall the service.
//!
//! # Example (in-process fleet over real sockets)
//!
//! ```
//! use dx_campaign::ModelSuite;
//! use deepxplore::constraints::Constraint;
//! use deepxplore::generator::TaskKind;
//! use deepxplore::Hyperparams;
//! use dx_coverage::{CoverageConfig, SignalSpec};
//! use dx_dist::{run_local, CoordinatorConfig, WorkerConfig};
//! use dx_nn::{layer::Layer, Network};
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
//!     hp: Hyperparams { step: 0.3, max_iters: 20, ..Default::default() },
//!     constraint: Constraint::Clip,
//!     signal: SignalSpec::neuron(CoverageConfig::scaled(0.25)),
//! };
//! let seeds = rng::uniform(&mut rng::rng(4), &[8, 8], 0.2, 0.8);
//! let cfg = CoordinatorConfig { max_steps: Some(8), batch_per_round: 4, ..Default::default() };
//! let (report, workers) =
//!     run_local(&suite, "doc@test", &seeds, cfg, WorkerConfig::default(), 2).unwrap();
//! assert!(report.steps_done >= 8);
//! assert_eq!(workers.len(), 2);
//! ```

#![deny(unsafe_code)]
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
        clippy::allow_attributes_without_reason,
        clippy::indexing_slicing
    )
)]

pub mod auth;
pub mod coordinator;
pub mod dispatcher;
pub mod engine;
mod migrate;
pub mod proto;
pub mod shutdown;
pub mod spec;
pub mod tenant;
pub mod wire;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig, DistReport, DrainHandle};
pub use engine::{Trust, Worker};
pub use proto::{Fingerprint, PROTOCOL_VERSION};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};

use deepxplore::constraints::Constraint;
use deepxplore::Hyperparams;
use dx_campaign::ModelSuite;
use dx_coverage::CoverageSignal;
use dx_telemetry::events::Level;

/// The admission fingerprint of a model suite: a label both sides agree
/// on, the coverage metric, each model's tracked-unit total under it, a
/// digest of the multisection profile boundaries, and canonical digests
/// of the generation semantics (Algorithm 1 hyperparameters, task
/// oracle, coverage config) and the domain constraint — cheap to
/// compute, and any mismatch in them changes it. Without the digests, a
/// worker running a different step size, oracle threshold or coverage
/// threshold would be silently admitted and pollute the corpus with
/// irreproducible results.
pub fn suite_fingerprint(suite: &ModelSuite, label: &str) -> proto::Fingerprint {
    proto::Fingerprint {
        label: label.to_string(),
        metric: suite.signal.metric.to_string(),
        units: suite.signal.build(&suite.models).iter().map(CoverageSignal::total).collect(),
        profiles: profile_digest(&suite.signal.profiles),
        hyper: hyper_digest(suite),
        constraint: constraint_digest(&suite.constraint),
    }
}

/// Digest of the multisection profile boundaries. Two processes
/// sectioning the same neurons over *different* profiled ranges (training
/// data drifted, or one side restored checkpointed profiles) would ship
/// semantically incompatible section indices — this makes that a rejected
/// admission, not a silently corrupted union.
fn profile_digest(profiles: &[dx_coverage::NeuronProfile]) -> String {
    if profiles.is_empty() {
        return "none".into();
    }
    let bytes: Vec<u8> = profiles
        .iter()
        .flat_map(|p| {
            let (low, high) = p.ranges();
            low.iter().chain(high).flat_map(|v| v.to_bits().to_le_bytes()).collect::<Vec<u8>>()
        })
        .collect();
    format!("fnv:{:016x}", fnv1a64(&bytes))
}

/// Canonical, order-stable rendering of everything besides the models
/// and constraint that shapes a worker's generation stream: the
/// Algorithm 1 hyperparameters, the task oracle (a regression
/// direction-threshold mismatch changes which runs count as
/// differences), and the coverage config (a threshold/scaling mismatch
/// changes which units the same activations cover). Rust float `Debug`
/// is shortest-exact, so equal values digest equally across processes
/// and hosts.
fn hyper_digest(suite: &ModelSuite) -> String {
    let hp: &Hyperparams = &suite.hp;
    let cov = &suite.signal.config;
    format!(
        "l1={:?} l2={:?} s={:?} iters={} dc={:?} pre={} pick={:?} npm={} \
         task={:?} cov_t={:?} cov_scaled={} gran={:?}",
        hp.lambda1,
        hp.lambda2,
        hp.step,
        hp.max_iters,
        hp.desired_coverage,
        hp.count_preexisting,
        hp.neuron_pick,
        hp.neurons_per_model,
        suite.kind,
        cov.threshold,
        cov.scale_per_layer,
        cov.granularity,
    )
}

/// Canonical digest of a domain constraint, parameters included. Bulky
/// vector parameters (feature masks/scales) are FNV-hashed rather than
/// inlined, so the fingerprint stays one short frame.
fn constraint_digest(c: &Constraint) -> String {
    match c {
        Constraint::Clip => "clip".into(),
        Constraint::Lighting => "lighting".into(),
        Constraint::SingleRect { h, w } => format!("single_rect:{h}x{w}"),
        Constraint::MultiRects { size, count } => format!("multi_rects:{size}x{count}"),
        Constraint::DrebinManifest { manifest_mask } => {
            let bytes: Vec<u8> = manifest_mask.iter().map(|&b| b as u8).collect();
            format!("drebin_manifest:{}:{:016x}", manifest_mask.len(), fnv1a64(&bytes))
        }
        Constraint::PdfFeatures { scale } => {
            let bytes: Vec<u8> = scale.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
            format!("pdf_features:{}:{:016x}", scale.len(), fnv1a64(&bytes))
        }
    }
}

/// FNV-1a 64-bit — a dependency-free stable hash for fingerprint digests.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs a whole fleet inside one process over real localhost sockets: a
/// coordinator plus `n_workers` worker threads. The single-machine
/// convenience for tests and benches; production fleets run
/// [`Coordinator::serve`] and [`worker::run_worker`] in separate
/// processes.
///
/// # Errors
///
/// Coordinator serve/checkpoint failures. A worker thread's failure is
/// reported in its summary slot being absent.
pub fn run_local(
    suite: &ModelSuite,
    label: &str,
    seeds: &dx_tensor::Tensor,
    cfg: CoordinatorConfig,
    worker_cfg: WorkerConfig,
    n_workers: usize,
) -> std::io::Result<(DistReport, Vec<WorkerSummary>)> {
    let coordinator = Coordinator::new(suite, label, seeds, cfg);
    serve_local(&coordinator, suite, label, worker_cfg, n_workers)
}

/// [`run_local`] over an existing coordinator (e.g. one built with
/// [`Coordinator::resume`]).
///
/// # Errors
///
/// See [`run_local`].
pub fn serve_local(
    coordinator: &Coordinator,
    suite: &ModelSuite,
    label: &str,
    worker_cfg: WorkerConfig,
    n_workers: usize,
) -> std::io::Result<(DistReport, Vec<WorkerSummary>)> {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                let suite = suite.clone();
                let worker_cfg = worker_cfg.clone();
                scope.spawn(move || run_worker(addr, suite, label, worker_cfg))
            })
            .collect();
        let report = coordinator.serve(listener)?;
        let summaries: Vec<WorkerSummary> = handles
            .into_iter()
            .filter_map(|h| {
                let error = match h.join() {
                    Ok(Ok(summary)) => return Some(summary),
                    Ok(Err(e)) => e.to_string(),
                    Err(_) => "worker thread panicked".to_string(),
                };
                let fields = [("error", error.into())];
                dx_telemetry::events::emit(Level::Error, "dist", "worker_failed", &fields);
                None
            })
            .collect();
        Ok((report, summaries))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepxplore::constraints::Constraint;
    use deepxplore::generator::TaskKind;
    use deepxplore::Hyperparams;
    use dx_campaign::EnergyModel;
    use dx_coverage::{CoverageConfig, SignalSpec};
    use dx_nn::layer::Layer;
    use dx_nn::Network;
    use dx_tensor::{rng, Tensor};
    use proto::Msg;
    use std::time::Duration;

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
                base.perturbed(0.04, seed + 1),
                base.perturbed(0.04, seed + 2),
            ],
            kind: TaskKind::Classification,
            hp: Hyperparams { step: 0.25, lambda1: 2.0, max_iters: 30, ..Default::default() },
            constraint: Constraint::Clip,
            signal: SignalSpec::neuron(CoverageConfig::scaled(0.25)),
        }
    }

    fn seed_batch(seed: u64, n: usize) -> Tensor {
        rng::uniform(&mut rng::rng(seed), &[n, 16], 0.2, 0.8)
    }

    /// A current-version `hello` under a fresh worker identity.
    fn hello_msg(fingerprint: Fingerprint) -> Msg {
        Msg::Hello { version: PROTOCOL_VERSION, fingerprint, worker_id: worker::fresh_worker_id() }
    }

    /// A suite steering by k-multisection sections; every process primes
    /// the same profiles from the same stand-in training rows, exactly as
    /// CLI coordinator/worker processes prime from the shared dataset.
    fn ms_suite(seed: u64, k: usize) -> ModelSuite {
        let mut s = suite(seed);
        let train = rng::uniform(&mut rng::rng(seed ^ 0x7a1d), &[40, 16], 0.0, 1.0);
        s.signal = SignalSpec::multisection(CoverageConfig::default(), k, Vec::new())
            .primed(&s.models, &train, 40);
        s
    }

    /// A suite steering by a composite metric spec (e.g.
    /// `multisection:4+boundary`), profiles primed like [`ms_suite`].
    fn composite_suite(seed: u64, spec: &str) -> ModelSuite {
        let mut s = suite(seed);
        let train = rng::uniform(&mut rng::rng(seed ^ 0x7a1d), &[40, 16], 0.0, 1.0);
        s.signal = SignalSpec::of(CoverageConfig::default(), spec.parse().unwrap(), Vec::new())
            .primed(&s.models, &train, 40);
        s
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dx_dist_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_cfg(max_steps: usize) -> CoordinatorConfig {
        CoordinatorConfig {
            max_steps: Some(max_steps),
            batch_per_round: 6,
            lease_size: 2,
            lease_timeout: Duration::from_secs(5),
            ..Default::default()
        }
    }

    #[test]
    fn two_worker_fleet_completes_a_budget() {
        let s = suite(1);
        let (report, workers) = run_local(
            &s,
            "unit@test",
            &seed_batch(2, 10),
            quick_cfg(12),
            WorkerConfig::default(),
            2,
        )
        .unwrap();
        assert!(report.steps_done >= 12, "budget not met: {}", report.steps_done);
        assert!(!report.report.epochs.is_empty());
        assert_eq!(workers.len(), 2);
        let merged: f32 = report.coverage.iter().sum::<f32>() / report.coverage.len() as f32;
        assert!(merged > 0.0);
        // The merged union dominates every worker's local view.
        for w in &workers {
            let local: f32 = w.coverage.iter().sum::<f32>() / w.coverage.len() as f32;
            assert!(merged >= local - 1e-6, "merged {merged} < worker {local}");
        }
        // Worker accounting adds up to at least the absorbed budget.
        let worker_steps: usize = report.per_worker.iter().map(|w| w.steps).sum();
        assert!(worker_steps >= 12);
    }

    #[test]
    fn fleet_reaches_a_coverage_target() {
        let s = suite(10);
        // A single-process campaign run to the same target, for parity.
        let mut solo = dx_campaign::Campaign::new(
            s.clone(),
            &seed_batch(11, 10),
            dx_campaign::CampaignConfig {
                epochs: 100,
                batch_per_epoch: 6,
                desired_coverage: Some(0.10),
                ..Default::default()
            },
        );
        solo.run().unwrap();
        assert!(solo.mean_coverage() >= 0.10);

        let cfg = CoordinatorConfig {
            target_coverage: Some(0.10),
            batch_per_round: 6,
            lease_size: 2,
            ..Default::default()
        };
        let (report, _) =
            run_local(&s, "unit@test", &seed_batch(11, 10), cfg, WorkerConfig::default(), 2)
                .unwrap();
        let merged: f32 = report.coverage.iter().sum::<f32>() / report.coverage.len() as f32;
        assert!(merged >= 0.10, "fleet stopped at {merged}");
    }

    #[test]
    fn multisection_fleet_matches_single_process_coverage_union() {
        // The finer signal flows end to end: section deltas over the wire,
        // section unions at the coordinator, and a 2-worker fleet reaches
        // the same section-coverage target a single-process campaign does.
        let target = 0.08f32;
        let s = ms_suite(90, 4);
        let mut solo = dx_campaign::Campaign::new(
            s.clone(),
            &seed_batch(91, 10),
            dx_campaign::CampaignConfig {
                epochs: 100,
                batch_per_epoch: 6,
                desired_coverage: Some(target),
                ..Default::default()
            },
        );
        solo.run().unwrap();
        assert!(solo.mean_coverage() >= target, "solo stalled at {}", solo.mean_coverage());

        let cfg = CoordinatorConfig {
            target_coverage: Some(target),
            batch_per_round: 6,
            lease_size: 2,
            ..Default::default()
        };
        let (report, workers) =
            run_local(&s, "ms@test", &seed_batch(91, 10), cfg, WorkerConfig::default(), 2).unwrap();
        let merged: f32 = report.coverage.iter().sum::<f32>() / report.coverage.len() as f32;
        assert!(merged >= target, "fleet stopped at {merged}");
        // The merged section union dominates every worker's local view.
        for w in &workers {
            let local: f32 = w.coverage.iter().sum::<f32>() / w.coverage.len() as f32;
            assert!(merged >= local - 1e-6, "merged {merged} < worker {local}");
        }
    }

    #[test]
    fn composite_metric_fleet_unions_every_component() {
        // A 2-worker fleet steering by multisection+boundary: the
        // component-prefixed deltas flow over the wire and the merged
        // union dominates every worker's local view — including the
        // boundary corners only one worker may have reached.
        let s = composite_suite(97, "multisection:4+boundary");
        let (report, workers) = run_local(
            &s,
            "comp@test",
            &seed_batch(98, 10),
            quick_cfg(12),
            WorkerConfig::default(),
            2,
        )
        .unwrap();
        assert!(report.steps_done >= 12);
        let merged: f32 = report.coverage.iter().sum::<f32>() / report.coverage.len() as f32;
        assert!(merged > 0.0);
        for w in &workers {
            let local: f32 = w.coverage.iter().sum::<f32>() / w.coverage.len() as f32;
            assert!(merged >= local - 1e-6, "merged {merged} < worker {local}");
        }
        // Rounds report per-component coverage columns.
        let last = report.report.epochs.last().unwrap();
        assert_eq!(last.component_coverage.len(), 2);
    }

    #[test]
    fn mismatched_composite_metric_is_rejected_at_hello() {
        // A worker running the bare multisection metric (or the same
        // components in a different order) must not join a composite
        // campaign: its flat unit offsets would mean different units.
        let s = composite_suite(99, "multisection:4+boundary");
        let coordinator = Coordinator::new(&s, "comp@test", &seed_batch(100, 4), quick_cfg(4));
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = coordinator.drain_handle();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for wrong_spec in ["multisection:4", "boundary+multisection:4", "boundary"] {
                    let wrong = suite_fingerprint(&composite_suite(99, wrong_spec), "comp@test");
                    let replies = worker::scripted(addr, &[hello_msg(wrong)]).unwrap();
                    assert!(
                        matches!(&replies[0], Msg::Reject { .. }),
                        "`{wrong_spec}` admitted: {:?}",
                        replies[0]
                    );
                }
                // The matching composite spec is admitted.
                let right =
                    suite_fingerprint(&composite_suite(99, "multisection:4+boundary"), "comp@test");
                let replies = worker::scripted(addr, &[hello_msg(right)]).unwrap();
                assert!(matches!(&replies[0], Msg::Welcome { .. }), "{:?}", replies[0]);
                handle.drain();
            });
            coordinator.serve(listener).unwrap();
        });
    }

    #[test]
    fn profile_boundary_mismatch_changes_fingerprint() {
        let a = suite_fingerprint(&ms_suite(95, 4), "x");
        // Re-prime from different training data: identical unit counts,
        // different section boundaries — must not be admissible.
        let mut other = ms_suite(95, 4);
        let train = rng::uniform(&mut rng::rng(0xbeef), &[40, 16], 0.0, 1.0);
        let reprimed = other.signal.clone().primed(&other.models, &train, 40);
        other.signal = reprimed;
        let b = suite_fingerprint(&other, "x");
        assert_eq!(a.units, b.units, "unit totals are boundary-blind by design");
        assert_ne!(a.profiles, b.profiles, "boundary drift must change the digest");
        assert_ne!(a, b);
        // Identical priming digests identically; neuron metric has none.
        assert_eq!(a, suite_fingerprint(&ms_suite(95, 4), "x"));
        assert_eq!(suite_fingerprint(&suite(95), "x").profiles, "none");
        // The task oracle and the coverage config are fingerprinted too:
        // either mismatch silently changes what counts as a difference or
        // as covered, so it must not be admissible.
        let mut oracle = suite(95);
        oracle.kind = TaskKind::Regression { direction_threshold: 0.2 };
        assert_ne!(suite_fingerprint(&suite(95), "x"), suite_fingerprint(&oracle, "x"));
        let mut threshold = suite(95);
        threshold.signal.config.threshold = 0.9;
        assert_ne!(suite_fingerprint(&suite(95), "x"), suite_fingerprint(&threshold, "x"));
    }

    #[test]
    fn rarity_energy_fleet_runs() {
        let s = suite(20);
        let cfg = CoordinatorConfig { energy: EnergyModel::Rarity, ..quick_cfg(8) };
        let (report, _) =
            run_local(&s, "unit@test", &seed_batch(21, 8), cfg, WorkerConfig::default(), 2)
                .unwrap();
        assert!(report.steps_done >= 8);
    }

    #[test]
    fn drain_checkpoint_resume_round_trips() {
        let dir = tmp_dir("resume");
        let s = suite(30);
        let cfg = CoordinatorConfig {
            checkpoint_dir: Some(dir.clone()),
            batch_per_round: 4,
            lease_size: 2,
            lease_timeout: Duration::from_secs(5),
            max_steps: Some(8),
            ..Default::default()
        };
        let (first, _) =
            run_local(&s, "unit@test", &seed_batch(31, 8), cfg.clone(), WorkerConfig::default(), 2)
                .unwrap();
        assert!(first.steps_done >= 8);

        // The checkpoint is a valid plain campaign checkpoint too.
        let state = dx_campaign::checkpoint::load(&dir).unwrap();
        assert_eq!(state.epochs.len(), first.report.epochs.len());
        assert!(state.coverage.is_some());

        // Resume the fleet with a larger budget; steps continue counting.
        let resumed =
            Coordinator::resume(&s, "unit@test", CoordinatorConfig { max_steps: Some(16), ..cfg })
                .unwrap();
        assert_eq!(resumed.steps_done(), first.steps_done);
        let before = resumed.mean_coverage();
        let (second, _) =
            serve_local(&resumed, &s, "unit@test", WorkerConfig::default(), 2).unwrap();
        assert!(second.steps_done >= 16);
        assert!(second.report.epochs.len() > first.report.epochs.len());
        let after: f32 = second.coverage.iter().sum::<f32>() / second.coverage.len() as f32;
        assert!(after >= before - 1e-6, "coverage regressed on resume");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_handle_stops_an_unbounded_campaign() {
        let dir = tmp_dir("drain");
        let s = suite(40);
        let coordinator = Coordinator::new(
            &s,
            "unit@test",
            &seed_batch(41, 8),
            CoordinatorConfig {
                checkpoint_dir: Some(dir.clone()),
                batch_per_round: 4,
                lease_size: 1,
                ..Default::default() // No budget: would run until exhaustion.
            },
        );
        let handle = coordinator.drain_handle();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (report, summary) = std::thread::scope(|scope| {
            let w = {
                let s = s.clone();
                scope.spawn(move || run_worker(addr, s, "unit@test", WorkerConfig::default()))
            };
            // SIGTERM stand-in: drain shortly after work starts.
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(300));
                handle.drain();
            });
            let report = coordinator.serve(listener).unwrap();
            (report, w.join().unwrap().unwrap())
        });
        assert_eq!(report.steps_done, summary.steps);
        // The drain checkpoint resumes.
        let resumed = Coordinator::resume(
            &s,
            "unit@test",
            CoordinatorConfig {
                checkpoint_dir: Some(dir.clone()),
                max_steps: Some(report.steps_done + 4),
                batch_per_round: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let (second, _) =
            serve_local(&resumed, &s, "unit@test", WorkerConfig::default(), 1).unwrap();
        assert!(second.steps_done >= report.steps_done);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abandoned_lease_is_requeued_and_campaign_still_finishes() {
        let s = suite(50);
        let coordinator = Coordinator::new(
            &s,
            "unit@test",
            &seed_batch(51, 6),
            CoordinatorConfig {
                max_steps: Some(6),
                batch_per_round: 3,
                lease_size: 3,
                lease_timeout: Duration::from_millis(300),
                ..Default::default()
            },
        );
        let fingerprint = coordinator.fingerprint().clone();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (abandoned_tx, abandoned_rx) = std::sync::mpsc::channel::<()>();
        let report = std::thread::scope(|scope| {
            // A bad worker that takes a lease and vanishes.
            scope.spawn(move || {
                let replies = worker::scripted(
                    addr,
                    &[hello_msg(fingerprint), Msg::LeaseRequest { slot: 0, want: 3 }],
                )
                .unwrap();
                assert!(matches!(replies[0], Msg::Welcome { slot: 0, .. }));
                assert!(matches!(replies[1], Msg::Lease { .. }));
                // The stream is gone: the lease is abandoned.
                abandoned_tx.send(()).unwrap();
            });
            // An honest worker joins once the bad one holds (and has dropped)
            // its lease, and must still be able to fuzz the abandoned seeds.
            // A hang-up instead of the signal means the bad worker's
            // assertions failed; run anyway so the campaign ends and the
            // scope reports that panic.
            let honest = {
                let s = s.clone();
                scope.spawn(move || {
                    let _ = abandoned_rx.recv();
                    run_worker(addr, s, "unit@test", WorkerConfig::default())
                })
            };
            let report = coordinator.serve(listener).unwrap();
            honest.join().unwrap().unwrap();
            report
        });
        assert!(report.steps_done >= 6, "requeue failed: {} steps", report.steps_done);
    }

    #[test]
    fn late_results_for_an_expired_lease_are_salvaged() {
        // A lease whose only worker outlives the timeout: the seeds are
        // requeued, but when the results finally arrive and nobody else
        // has re-leased those seeds, the work is counted, not redone.
        let s = suite(70);
        let coordinator = Coordinator::new(
            &s,
            "unit@test",
            &seed_batch(71, 3),
            CoordinatorConfig {
                max_steps: Some(3),
                batch_per_round: 3,
                lease_size: 3,
                lease_timeout: Duration::from_millis(150),
                ..Default::default()
            },
        );
        let fingerprint = coordinator.fingerprint().clone();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let report = std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                let hello = hello_msg(fingerprint);
                crate::wire::write_frame(&mut stream, &hello.to_json()).unwrap();
                let _ = crate::wire::read_frame(&mut stream).unwrap();
                let req = Msg::LeaseRequest { slot: 0, want: 3 };
                crate::wire::write_frame(&mut stream, &req.to_json()).unwrap();
                let reply = Msg::from_json(&crate::wire::read_frame(&mut stream).unwrap()).unwrap();
                let Msg::Lease { lease, jobs, .. } = reply else { panic!("{reply:?}") };
                // Outlive the lease (no heartbeat), then report anyway.
                std::thread::sleep(Duration::from_millis(600));
                let items = jobs
                    .iter()
                    .map(|j| crate::proto::JobResult {
                        seed_id: j.seed_id,
                        run: deepxplore::SeedRun {
                            test: None,
                            preexisting: false,
                            iterations: 1,
                            newly_covered: 0,
                            newly_by_component: Vec::new(),
                            corpus_candidate: None,
                        },
                    })
                    .collect();
                let results = Msg::Results {
                    slot: 0,
                    lease,
                    campaign: 0,
                    items,
                    cov: vec![Vec::new(); 3],
                    rng_state: [1, 2, 3, 4],
                    telemetry: None,
                };
                crate::wire::write_frame(&mut stream, &results.to_json()).unwrap();
                let ack = Msg::from_json(&crate::wire::read_frame(&mut stream).unwrap()).unwrap();
                // The budget is met by the salvaged steps, so the reply
                // is the drain notice.
                assert!(matches!(ack, Msg::Drain), "{ack:?}");
                crate::wire::write_frame(&mut stream, &Msg::Bye.to_json()).unwrap();
            });
            coordinator.serve(listener).unwrap()
        });
        assert_eq!(report.steps_done, 3, "expired-lease results were not salvaged");
    }

    /// Drains the coordinator when dropped: a client thread that panics
    /// still lets `serve` return, so the test fails instead of hanging.
    struct DrainOnDrop(DrainHandle);

    impl Drop for DrainOnDrop {
        fn drop(&mut self) {
            self.0.drain();
        }
    }

    /// Sends a bare length prefix claiming a `len`-byte frame and expects
    /// an immediate `bad frame` reject, then the coordinator's close. No
    /// payload follows: unread bytes would turn that close into a TCP
    /// reset racing the reject frame.
    fn assert_prefix_rejected(stream: &mut std::net::TcpStream, len: usize) {
        use std::io::{Read as _, Write as _};
        let len = u32::try_from(len).unwrap();
        stream.write_all(&len.to_be_bytes()).unwrap();
        match Msg::from_json(&crate::wire::read_frame(stream).unwrap()) {
            Ok(Msg::Reject { reason }) => assert!(reason.starts_with("bad frame"), "{reason}"),
            other => panic!("no clean reject for a {len}-byte frame claim: {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    }

    /// Scripted raw frame exchange against `addr`; returns the reply.
    fn raw_exchange(stream: &mut std::net::TcpStream, msg: &Msg) -> std::io::Result<Msg> {
        crate::wire::write_frame(stream, &msg.to_json())?;
        Msg::from_json(&crate::wire::read_frame(stream)?)
    }

    fn empty_run(iterations: usize) -> deepxplore::SeedRun {
        deepxplore::SeedRun {
            test: None,
            preexisting: false,
            iterations,
            newly_covered: 0,
            newly_by_component: Vec::new(),
            corpus_candidate: None,
        }
    }

    #[test]
    fn wrong_token_is_rejected_at_hello_without_revealing_state() {
        let s = suite(110);
        let cfg = CoordinatorConfig { auth_token: Some("fleet-secret".into()), ..quick_cfg(4) };
        let coordinator = Coordinator::new(&s, "unit@test", &seed_batch(111, 4), cfg);
        let fingerprint = coordinator.fingerprint().clone();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = coordinator.drain_handle();
        std::thread::scope(|scope| {
            let fp = fingerprint.clone();
            scope.spawn(move || {
                let _drain = DrainOnDrop(handle);
                // Wrong token: challenged, then rejected — and the reject
                // must not leak any campaign state (fingerprint, seed).
                let replies = worker::scripted_with_token(
                    addr,
                    Some("wrong-secret"),
                    &[hello_msg(fp.clone())],
                )
                .unwrap();
                match &replies[0] {
                    Msg::Reject { reason } => {
                        assert!(reason.contains("authentication"), "{reason}");
                        assert!(!reason.contains("fingerprint"), "leaked state: {reason}");
                    }
                    other => panic!("wrong token admitted: {other:?}"),
                }
                // No token at all: the challenge goes unanswered; trying to
                // push past it without a proof is rejected too.
                let replies = worker::scripted(
                    addr,
                    &[hello_msg(fp.clone()), Msg::LeaseRequest { slot: 0, want: 1 }],
                )
                .unwrap();
                assert!(matches!(&replies[0], Msg::Challenge { .. }), "{:?}", replies[0]);
                assert!(matches!(&replies[1], Msg::Reject { .. }), "{:?}", replies[1]);
                // A proof without an outstanding challenge is rejected.
                let replies =
                    worker::scripted(addr, &[Msg::AuthProof { proof: "00".into() }]).unwrap();
                assert!(matches!(&replies[0], Msg::Reject { .. }), "{:?}", replies[0]);
                // Challenged but not yet admitted: still the pre-admission
                // frame cap.
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                let challenge = raw_exchange(&mut stream, &hello_msg(fp.clone())).unwrap();
                assert!(matches!(challenge, Msg::Challenge { .. }), "{challenge:?}");
                assert_prefix_rejected(&mut stream, crate::engine::HELLO_FRAME_CAP + 1);
                // The right token is admitted.
                let replies =
                    worker::scripted_with_token(addr, Some("fleet-secret"), &[hello_msg(fp)])
                        .unwrap();
                assert!(matches!(&replies[0], Msg::Welcome { .. }), "{:?}", replies[0]);
            });
            coordinator.serve(listener).unwrap();
        });
    }

    #[test]
    fn authenticated_fleet_completes_a_budget() {
        let s = suite(115);
        let cfg = CoordinatorConfig { auth_token: Some("tok".into()), ..quick_cfg(8) };
        let worker_cfg = WorkerConfig { auth_token: Some("tok".into()), ..Default::default() };
        let (report, workers) =
            run_local(&s, "unit@test", &seed_batch(116, 8), cfg, worker_cfg, 2).unwrap();
        assert!(report.steps_done >= 8);
        assert_eq!(workers.len(), 2);
        // A worker without the token cannot join the same kind of fleet.
        let cfg = CoordinatorConfig { auth_token: Some("tok".into()), ..quick_cfg(4) };
        let (_, summaries) = run_local(
            &s,
            "unit@test",
            &seed_batch(116, 8),
            CoordinatorConfig { duration: Some(Duration::from_millis(800)), ..cfg },
            WorkerConfig::default(), // no token
            1,
        )
        .unwrap();
        assert!(summaries.is_empty(), "tokenless worker joined an authenticated fleet");
    }

    #[test]
    fn fabricated_diffs_are_quarantined_and_the_worker_evicted() {
        let s = suite(120);
        let coordinator = Coordinator::new(
            &s,
            "unit@test",
            &seed_batch(121, 8),
            CoordinatorConfig { spot_check_rate: 1.0, ..quick_cfg(8) },
        );
        let fingerprint = coordinator.fingerprint().clone();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let report = std::thread::scope(|scope| {
            let s2 = s.clone();
            let coord = &coordinator;
            // The fabricator runs first; once it is evicted, the same
            // thread checks that nothing it claimed stuck, then an honest
            // worker finishes the campaign on the requeued seeds.
            scope.spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                let hello = hello_msg(fingerprint);
                let welcome = raw_exchange(&mut stream, &hello).unwrap();
                let Msg::Welcome { slot, .. } = welcome else { panic!("{welcome:?}") };
                let req = Msg::LeaseRequest { slot, want: 2 };
                let reply = raw_exchange(&mut stream, &req).unwrap();
                let Msg::Lease { lease, jobs, .. } = reply else { panic!("{reply:?}") };
                assert!(jobs.len() >= 2, "need two jobs to cross TRUST_MIN_CHECKS");
                // Fabricate a difference claim per job: the models agree on
                // these plain seeds, so re-execution cannot reproduce the
                // claimed disagreement. Also claim a fat coverage delta —
                // it must be discarded along with the lease.
                let items: Vec<crate::proto::JobResult> = jobs
                    .iter()
                    .map(|j| crate::proto::JobResult {
                        seed_id: j.seed_id,
                        run: deepxplore::SeedRun {
                            test: Some(deepxplore::GeneratedTest {
                                seed_index: j.seed_id,
                                input: j.input.clone(),
                                iterations: 3,
                                predictions: vec![
                                    deepxplore::diff::Prediction::Class(0),
                                    deepxplore::diff::Prediction::Class(1),
                                    deepxplore::diff::Prediction::Class(2),
                                ],
                                target_model: 0,
                            }),
                            ..empty_run(3)
                        },
                    })
                    .collect();
                let signals = s2.signal.build(&s2.models);
                let fat_cov: Vec<Vec<usize>> =
                    signals.iter().map(|sig| (0..sig.total()).collect()).collect();
                let results = Msg::Results {
                    slot,
                    lease,
                    campaign: 0,
                    items,
                    cov: fat_cov,
                    rng_state: [1, 2, 3, 4],
                    telemetry: None,
                };
                let verdict = raw_exchange(&mut stream, &results).unwrap();
                let Msg::Reject { reason } = verdict else {
                    panic!("fabricator was not evicted: {verdict:?}")
                };
                assert!(reason.contains("evicted"), "{reason}");
                // Nothing the fabricator claimed entered campaign state.
                assert!(coord.quarantined() >= 2, "claims were not quarantined");
                assert_eq!(coord.mean_coverage(), 0.0, "fabricated coverage polluted the union");
                assert_eq!(coord.steps_done(), 0, "fabricated steps were absorbed");
                run_worker(addr, s2, "unit@test", WorkerConfig::default()).unwrap();
            });
            coordinator.serve(listener).unwrap()
        });
        assert!(report.steps_done >= 8, "campaign starved: {} steps", report.steps_done);
        assert!(report.quarantined >= 2);
        let evicted: Vec<_> = report.per_worker.iter().filter(|w| w.trust.evicted).collect();
        assert_eq!(evicted.len(), 1, "exactly the fabricator is evicted: {:?}", report.per_worker);
        assert!(evicted[0].trust.failed >= 2);
    }

    #[test]
    fn evicted_identity_cannot_rejoin_by_reconnecting() {
        let dir = tmp_dir("evict_identity");
        let s = suite(170);
        let cfg = CoordinatorConfig {
            spot_check_rate: 1.0,
            checkpoint_dir: Some(dir.clone()),
            ..quick_cfg(6)
        };
        let coordinator = Coordinator::new(&s, "unit@test", &seed_batch(171, 6), cfg);
        let fp = coordinator.fingerprint().clone();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let s2 = s.clone();
            let fp2 = fp.clone();
            scope.spawn(move || {
                let named = |id: &str| Msg::Hello {
                    version: PROTOCOL_VERSION,
                    fingerprint: fp2.clone(),
                    worker_id: id.into(),
                };
                // "mallory" fabricates diff claims and is evicted.
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                let w = raw_exchange(&mut stream, &named("mallory")).unwrap();
                let Msg::Welcome { slot, .. } = w else { panic!("{w:?}") };
                let reply =
                    raw_exchange(&mut stream, &Msg::LeaseRequest { slot, want: 2 }).unwrap();
                let Msg::Lease { lease, jobs, .. } = reply else { panic!("{reply:?}") };
                let items = jobs
                    .iter()
                    .map(|j| crate::proto::JobResult {
                        seed_id: j.seed_id,
                        run: deepxplore::SeedRun {
                            test: Some(deepxplore::GeneratedTest {
                                seed_index: j.seed_id,
                                input: j.input.clone(),
                                iterations: 1,
                                predictions: vec![
                                    deepxplore::diff::Prediction::Class(0),
                                    deepxplore::diff::Prediction::Class(1),
                                    deepxplore::diff::Prediction::Class(2),
                                ],
                                target_model: 0,
                            }),
                            ..empty_run(1)
                        },
                    })
                    .collect();
                let results = Msg::Results {
                    slot,
                    lease,
                    campaign: 0,
                    items,
                    cov: vec![Vec::new(); 3],
                    rng_state: [1; 4],
                    telemetry: None,
                };
                let verdict = raw_exchange(&mut stream, &results).unwrap();
                assert!(
                    matches!(&verdict, Msg::Reject { reason } if reason.contains("evicted")),
                    "{verdict:?}"
                );
                drop(stream);
                // Reconnecting under the same identity is refused at
                // admission: eviction is keyed to the identity, not the
                // connection slot.
                let replies = worker::scripted(addr, &[named("mallory")]).unwrap();
                match &replies[0] {
                    Msg::Reject { reason } => assert!(reason.contains("evicted"), "{reason}"),
                    other => panic!("evicted identity re-admitted: {other:?}"),
                }
                // A fresh identity gets a fresh slot — never the burned one.
                let mut live = std::net::TcpStream::connect(addr).unwrap();
                let w = raw_exchange(&mut live, &named("trent")).unwrap();
                let Msg::Welcome { slot: trent_slot, .. } = w else { panic!("{w:?}") };
                assert_ne!(trent_slot, slot, "fresh identity inherited the burned slot");
                // While "trent" is live, a second connection claiming the
                // same identity is refused.
                let replies = worker::scripted(addr, &[named("trent")]).unwrap();
                match &replies[0] {
                    Msg::Reject { reason } => assert!(reason.contains("connected"), "{reason}"),
                    other => panic!("duplicate live identity admitted: {other:?}"),
                }
                drop(live);
                run_worker(addr, s2, "unit@test", WorkerConfig::default()).unwrap();
            });
            coordinator.serve(listener).unwrap();
        });
        // The identity→slot binding and the eviction survive a restart via
        // dist.json v3: "mallory" stays locked out of the resumed fleet.
        let resumed = Coordinator::resume(
            &s,
            "unit@test",
            CoordinatorConfig {
                spot_check_rate: 1.0,
                checkpoint_dir: Some(dir.clone()),
                ..quick_cfg(12)
            },
        )
        .unwrap();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = resumed.drain_handle();
        let fp2 = fp.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let hello = Msg::Hello {
                    version: PROTOCOL_VERSION,
                    fingerprint: fp2,
                    worker_id: "mallory".into(),
                };
                let replies = worker::scripted(addr, &[hello]).unwrap();
                match &replies[0] {
                    Msg::Reject { reason } => assert!(reason.contains("evicted"), "{reason}"),
                    other => panic!("eviction lost across restart: {other:?}"),
                }
                handle.drain();
            });
            resumed.serve(listener).unwrap();
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn honest_fleet_results_are_unchanged_by_spot_checking() {
        // Verification must be free for the innocent: a single-worker
        // fleet (deterministic) produces bit-identical corpus, coverage
        // and diffs whether every claim is re-checked or none is.
        let run = |rate: f32| {
            let dir = tmp_dir(&format!("spotrate_{}", (rate * 100.0) as u32));
            let cfg = CoordinatorConfig {
                spot_check_rate: rate,
                checkpoint_dir: Some(dir.clone()),
                ..quick_cfg(10)
            };
            let (report, _) = run_local(
                &suite(130),
                "unit@test",
                &seed_batch(131, 8),
                cfg,
                WorkerConfig::default(),
                1,
            )
            .unwrap();
            let state = dx_campaign::checkpoint::load(&dir).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            (report, state)
        };
        let (unchecked, state_a) = run(0.0);
        let (checked, state_b) = run(1.0);
        assert_eq!(unchecked.steps_done, checked.steps_done);
        assert_eq!(unchecked.coverage, checked.coverage);
        assert_eq!(unchecked.diffs, checked.diffs);
        assert_eq!(checked.quarantined, 0, "honest claims were quarantined");
        assert_eq!(state_a.corpus.len(), state_b.corpus.len());
        for (a, b) in state_a.corpus.iter().zip(&state_b.corpus) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.input, b.input);
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        }
        // And the honest worker's claims really were checked.
        let w_checked: usize = checked.per_worker.iter().map(|w| w.trust.checked).sum();
        assert_eq!(w_checked, checked.diffs, "spot-check sampling at rate 1.0 missed claims");
    }

    #[test]
    fn adaptive_leases_grow_for_fast_workers() {
        let s = suite(140);
        let coordinator = Coordinator::new(
            &s,
            "unit@test",
            &seed_batch(141, 32),
            CoordinatorConfig {
                lease_size: 4,
                lease_max: 16,
                max_steps: Some(64),
                batch_per_round: 16,
                ..Default::default()
            },
        );
        let fingerprint = coordinator.fingerprint().clone();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = coordinator.drain_handle();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                let hello = hello_msg(fingerprint);
                let Msg::Welcome { slot, .. } = raw_exchange(&mut stream, &hello).unwrap() else {
                    panic!("not welcomed")
                };
                let mut sizes = Vec::new();
                for _ in 0..3 {
                    // `want: 1` is advisory — the adaptive coordinator
                    // grants its learned quota instead.
                    let req = Msg::LeaseRequest { slot, want: 1 };
                    let reply = raw_exchange(&mut stream, &req).unwrap();
                    let Msg::Lease { lease, jobs, .. } = reply else { panic!("{reply:?}") };
                    sizes.push(jobs.len());
                    // Instant (empty but honest) results: maximum observed
                    // throughput, so the quota should double.
                    let items = jobs
                        .iter()
                        .map(|j| crate::proto::JobResult { seed_id: j.seed_id, run: empty_run(1) })
                        .collect();
                    let results = Msg::Results {
                        slot,
                        lease,
                        campaign: 0,
                        items,
                        cov: vec![Vec::new(); 3],
                        rng_state: [5, 6, 7, 8],
                        telemetry: None,
                    };
                    match raw_exchange(&mut stream, &results).unwrap() {
                        Msg::Ack { .. } | Msg::Drain => {}
                        other => panic!("{other:?}"),
                    }
                }
                assert_eq!(sizes, vec![4, 8, 16], "lease quota failed to grow");
                handle.drain();
            });
            coordinator.serve(listener).unwrap();
        });
    }

    #[test]
    fn garbage_frames_get_a_clean_reject_and_never_stall_the_service() {
        use std::io::Write as _;
        let s = suite(150);
        let coordinator = Coordinator::new(&s, "unit@test", &seed_batch(151, 6), quick_cfg(6));
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (served_tx, served_rx) = std::sync::mpsc::channel::<()>();
        let report = std::thread::scope(|scope| {
            let garbage = scope.spawn(move || {
                // (a) An oversized length prefix (a 4 GiB frame claim).
                let mut a = std::net::TcpStream::connect(addr).unwrap();
                assert_prefix_rejected(&mut a, u32::MAX as usize);
                // (a') One byte over the pre-admission cap, far below
                // MAX_FRAME: only that cap refuses it. Were the cap raised
                // before admission, the server would wait for the payload
                // and answer `admission timed out` instead.
                let mut a = std::net::TcpStream::connect(addr).unwrap();
                assert_prefix_rejected(&mut a, crate::engine::HELLO_FRAME_CAP + 1);
                // (b) A well-framed payload that is not JSON, and (b') one
                // nested past the parser's depth cap: 20 000 bytes, under
                // the pre-admission cap, that overflowed the handler's
                // stack (aborting the process) before the parser had one.
                for payload in [b"GET /!!".to_vec(), "[".repeat(20_000).into_bytes()] {
                    let mut b = std::net::TcpStream::connect(addr).unwrap();
                    b.write_all(&(payload.len() as u32).to_be_bytes()).unwrap();
                    b.write_all(&payload).unwrap();
                    match Msg::from_json(&crate::wire::read_frame(&mut b).unwrap()) {
                        Ok(Msg::Reject { .. }) => {}
                        other => panic!("no clean reject for a non-JSON frame: {other:?}"),
                    }
                }
                // (c) Valid JSON that is not a protocol message.
                let mut c = std::net::TcpStream::connect(addr).unwrap();
                let doc = dx_campaign::json::build::obj(vec![(
                    "type",
                    dx_campaign::json::build::str("warp"),
                )]);
                crate::wire::write_frame(&mut c, &doc).unwrap();
                match Msg::from_json(&crate::wire::read_frame(&mut c).unwrap()) {
                    Ok(Msg::Reject { reason }) => assert!(reason.contains("malformed"), "{reason}"),
                    other => panic!("no clean reject for a bogus message: {other:?}"),
                }
                served_tx.send(()).unwrap();
                // (d) A connection that says nothing at all, held open
                // (in this thread's result) while the real campaign runs.
                std::net::TcpStream::connect(addr).unwrap()
            });
            // The accept loop is unfazed: an honest worker joins after all
            // that and the campaign completes. It starts on the signal, not
            // alongside: a campaign racing the rejects can finish, and take
            // the listener with it, before (c) is served. A hang-up instead
            // of the signal is a failed case above; run anyway so the
            // campaign ends and the join below reports that panic.
            let honest = {
                let s = s.clone();
                scope.spawn(move || {
                    let _ = served_rx.recv();
                    run_worker(addr, s, "unit@test", WorkerConfig::default())
                })
            };
            let report = coordinator.serve(listener).unwrap();
            honest.join().unwrap().unwrap();
            drop(garbage.join().unwrap());
            report
        });
        assert!(report.steps_done >= 6, "garbage clients stalled the campaign");
    }

    #[test]
    fn never_issued_lease_id_is_rejected_with_its_coverage() {
        // An admitted worker reporting results for a lease id this
        // coordinator never issued: nothing about the frame — its fat
        // coverage claim included — is credible.
        let s = suite(155);
        let coordinator = Coordinator::new(&s, "unit@test", &seed_batch(156, 6), quick_cfg(6));
        let fingerprint = coordinator.fingerprint().clone();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = coordinator.drain_handle();
        std::thread::scope(|scope| {
            let coord = &coordinator;
            scope.spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                let hello = hello_msg(fingerprint);
                let welcome = raw_exchange(&mut stream, &hello).unwrap();
                let Msg::Welcome { slot, .. } = welcome else { panic!("{welcome:?}") };
                let bogus = Msg::Results {
                    slot,
                    lease: 9999,
                    campaign: 0,
                    items: Vec::new(),
                    cov: vec![(0..5).collect(); 3],
                    rng_state: [1; 4],
                    telemetry: None,
                };
                match raw_exchange(&mut stream, &bogus).unwrap() {
                    Msg::Reject { reason } => assert!(reason.contains("lease"), "{reason}"),
                    other => panic!("never-issued lease accepted: {other:?}"),
                }
                assert_eq!(coord.mean_coverage(), 0.0, "bogus coverage entered the union");
                handle.drain();
            });
            coordinator.serve(listener).unwrap();
        });
    }

    #[test]
    fn trust_state_round_trips_through_dist_json() {
        // Quarantine and per-worker trust survive a drain + resume.
        let dir = tmp_dir("trust_resume");
        let s = suite(160);
        let coordinator = Coordinator::new(
            &s,
            "unit@test",
            &seed_batch(161, 6),
            CoordinatorConfig {
                spot_check_rate: 1.0,
                checkpoint_dir: Some(dir.clone()),
                ..quick_cfg(6)
            },
        );
        let fingerprint = coordinator.fingerprint().clone();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                let hello = Msg::Hello {
                    version: PROTOCOL_VERSION,
                    fingerprint,
                    worker_id: "mallory".into(),
                };
                let Msg::Welcome { slot, .. } = raw_exchange(&mut stream, &hello).unwrap() else {
                    panic!("not welcomed")
                };
                let req = Msg::LeaseRequest { slot, want: 2 };
                let Msg::Lease { lease, jobs, .. } = raw_exchange(&mut stream, &req).unwrap()
                else {
                    panic!("no lease")
                };
                let items = jobs
                    .iter()
                    .map(|j| crate::proto::JobResult {
                        seed_id: j.seed_id,
                        run: deepxplore::SeedRun {
                            test: Some(deepxplore::GeneratedTest {
                                seed_index: j.seed_id,
                                input: j.input.clone(),
                                iterations: 1,
                                predictions: vec![
                                    deepxplore::diff::Prediction::Class(0),
                                    deepxplore::diff::Prediction::Class(1),
                                    deepxplore::diff::Prediction::Class(2),
                                ],
                                target_model: 0,
                            }),
                            ..empty_run(1)
                        },
                    })
                    .collect();
                let results = Msg::Results {
                    slot,
                    lease,
                    campaign: 0,
                    items,
                    cov: vec![Vec::new(); 3],
                    rng_state: [1; 4],
                    telemetry: None,
                };
                let _ = raw_exchange(&mut stream, &results);
            });
            let honest = {
                let s = s.clone();
                scope.spawn(move || {
                    std::thread::sleep(Duration::from_millis(200));
                    run_worker(addr, s, "unit@test", WorkerConfig::default())
                })
            };
            let report = coordinator.serve(listener).unwrap();
            honest.join().unwrap().unwrap();
            assert!(report.quarantined >= 1);
        });
        let registry = dx_telemetry::MetricsRegistry::new();
        let quarantined_before = {
            let resumed = Coordinator::resume(
                &s,
                "unit@test",
                CoordinatorConfig {
                    spot_check_rate: 1.0,
                    checkpoint_dir: Some(dir.clone()),
                    registry: registry.clone(),
                    ..quick_cfg(12)
                },
            )
            .unwrap();
            resumed.quarantined()
        };
        assert!(quarantined_before >= 1, "quarantine lost across resume");
        // The resume published the books' trust, loaded from fleet.json,
        // so fabrication history carries across restarts.
        let labels = [("worker", "mallory"), ("verdict", "bad")];
        let bad = registry.counter("dx_spot_checks_total", &labels);
        assert!(bad.get() >= 1, "trust counters not seeded from checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_without_hello_is_rejected() {
        let s = suite(80);
        let coordinator = Coordinator::new(&s, "unit@test", &seed_batch(81, 4), quick_cfg(4));
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = coordinator.drain_handle();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let replies =
                    worker::scripted(addr, &[Msg::Heartbeat { slot: 0, lease: 0 }]).unwrap();
                assert!(matches!(&replies[0], Msg::Reject { .. }), "{:?}", replies[0]);
                handle.drain();
            });
            coordinator.serve(listener).unwrap();
        });
    }

    /// A `results` frame on lease 0 of `campaign`, from the first worker
    /// of a daemon whose suite has three models.
    fn results_for(campaign: u64) -> Msg {
        Msg::Results {
            slot: 0,
            lease: 0,
            campaign,
            items: Vec::new(),
            cov: vec![Vec::new(); 3],
            rng_state: [1; 4],
            telemetry: None,
        }
    }

    /// Runs each of `scripts` — a `worker::scripted` exchange and the
    /// reason its last reply must reject with — against `daemon`, then
    /// drains it.
    fn expect_rejects(daemon: &Coordinator, scripts: Vec<(Vec<Msg>, &'static str)>) {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = daemon.drain_handle();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _drain = DrainOnDrop(handle);
                for (script, reason) in scripts {
                    let replies = worker::scripted(addr, &script).unwrap();
                    assert_eq!(replies.len(), script.len());
                    match replies.last() {
                        Some(Msg::Reject { reason: r }) => assert!(r.contains(reason), "{r}"),
                        other => panic!("{script:?} not rejected with `{reason}`: {other:?}"),
                    }
                }
            });
            daemon.serve_fleet(listener).unwrap();
        });
    }

    #[test]
    fn hello_takes_identities_of_1_to_128_printable_ascii_bytes() {
        let s = suite(86);
        let coordinator = Coordinator::new(&s, "unit@test", &seed_batch(87, 4), quick_cfg(4));
        let fp = coordinator.fingerprint().clone();
        let named = |id: String| Msg::Hello {
            version: PROTOCOL_VERSION,
            fingerprint: fp.clone(),
            worker_id: id,
        };
        let rule = "1-128 printable ASCII";
        let rejected = ["a".repeat(129), "a\nb".into(), String::new(), "é".into()];
        let mut scripts: Vec<_> = rejected.into_iter().map(|id| (vec![named(id)], rule)).collect();
        // The longest legal identity is admitted: a second `hello` on its
        // connection is what gets rejected.
        let longest = named("a".repeat(128));
        scripts.push((vec![longest.clone(), longest], "already admitted"));
        expect_rejects(&coordinator, scripts);
    }

    #[test]
    fn results_for_an_unknown_campaign_are_rejected() {
        let s = suite(88);
        let coordinator = Coordinator::new(&s, "unit@test", &seed_batch(89, 4), quick_cfg(4));
        let hello = hello_msg(coordinator.fingerprint().clone());
        let script = vec![hello, Msg::LeaseRequest { slot: 0, want: 1 }, results_for(9)];
        expect_rejects(&coordinator, vec![(script, "unknown campaign 9")]);
        assert_eq!(coordinator.steps_done(), 0);
    }

    #[test]
    fn results_tagged_with_another_campaign_than_their_lease_are_rejected() {
        let s = suite(92);
        let daemon = Coordinator::open(&s, "unit@test", quick_cfg(4)).unwrap();
        daemon.locked(|st, out| {
            for (name, seed) in [("alpha", 93), ("beta", 94)] {
                let rows = seed_batch(seed, 4);
                let inputs = (0..4).map(|i| dx_nn::util::gather_rows(&rows, &[i])).collect();
                daemon.add_tenant(st, spec::CampaignSpec::named(name), inputs, out);
            }
        });
        // Lease 0 goes to campaign 0 (equal passes, lower id first).
        let hello = hello_msg(daemon.fingerprint().clone());
        let script = vec![hello, Msg::LeaseRequest { slot: 0, want: 1 }, results_for(1)];
        expect_rejects(&daemon, vec![(script, "lease 0 is not for campaign 1")]);
        assert_eq!(daemon.steps_done(), 0);
    }

    /// A coordinator whose connection handler panics at admission.
    struct PanicsAtHello(Coordinator);

    impl engine::Daemon for PanicsAtHello {
        const COMPONENT: &'static str = "coordinator";
        type Checkpoint = <Coordinator as engine::Daemon>::Checkpoint;

        fn gate(&self) -> &engine::Gate {
            self.0.gate()
        }
        fn fleet<R>(&self, read: impl FnOnce(&engine::Fleet) -> R) -> R {
            self.0.fleet(read)
        }
        fn tick(&self) -> Vec<Self::Checkpoint> {
            self.0.tick()
        }
        fn enroll(&self, _worker_id: &str) -> Result<(usize, Msg), engine::Refusal> {
            panic!("handler bug at admission");
        }
        fn worker_gone(&self, worker: usize) {
            self.0.worker_gone(worker);
        }
        fn lease(&self, peer: &engine::Peer, want: usize, views: &mut engine::Views<'_>) -> Msg {
            self.0.lease(peer, want, views)
        }
        fn heartbeat(&self, peer: &engine::Peer, lease: u64, views: &mut engine::Views<'_>) -> Msg {
            self.0.heartbeat(peer, lease, views)
        }
        fn results(
            &self,
            peer: &engine::Peer,
            frame: engine::ResultsFrame,
            views: &mut engine::Views<'_>,
        ) -> (engine::Reply, Vec<Self::Checkpoint>) {
            self.0.results(peer, frame, views)
        }
        fn write_checkpoint(&self, job: Self::Checkpoint) -> std::io::Result<()> {
            self.0.write_checkpoint(job)
        }
    }

    #[test]
    fn a_handler_panic_fails_serve_instead_of_hanging_it() {
        let s = suite(84);
        let daemon =
            PanicsAtHello(Coordinator::new(&s, "unit@test", &seed_batch(85, 4), quick_cfg(4)));
        let fingerprint = daemon.0.fingerprint().clone();
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || engine::serve(&daemon, listener));
        // The worker stays connected, as a retrying one would.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        wire::write_frame(&mut stream, &hello_msg(fingerprint).to_json()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while !server.is_finished() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(server.is_finished(), "serve hung after its handler panicked");
        assert!(server.join().is_err(), "serve must re-raise the handler's panic");
    }

    #[test]
    fn mismatched_fingerprint_is_rejected() {
        let s = suite(60);
        let coordinator = Coordinator::new(&s, "unit@test", &seed_batch(61, 4), quick_cfg(4));
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = coordinator.drain_handle();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let wrong =
                    Fingerprint { label: "other@test".into(), ..suite_fingerprint(&s, "x") };
                let replies = worker::scripted(addr, &[hello_msg(wrong)]).unwrap();
                assert!(matches!(&replies[0], Msg::Reject { .. }), "{:?}", replies[0]);
                // A worker with mismatched hyperparameters (here: a
                // different step size) is rejected, not silently admitted.
                let mut hp_suite = s.clone();
                hp_suite.hp.step = 0.5;
                let hp_mismatch = suite_fingerprint(&hp_suite, "unit@test");
                let replies = worker::scripted(addr, &[hello_msg(hp_mismatch)]).unwrap();
                assert!(matches!(&replies[0], Msg::Reject { .. }), "{:?}", replies[0]);
                // So is one with a mismatched constraint...
                let mut c_suite = s.clone();
                c_suite.constraint = Constraint::Lighting;
                let c_mismatch = suite_fingerprint(&c_suite, "unit@test");
                let replies = worker::scripted(addr, &[hello_msg(c_mismatch)]).unwrap();
                assert!(matches!(&replies[0], Msg::Reject { .. }), "{:?}", replies[0]);
                // ...or a mismatched coverage metric.
                let mut m_fp = suite_fingerprint(&s, "unit@test");
                m_fp.metric = "multisection:4".into();
                let replies = worker::scripted(addr, &[hello_msg(m_fp)]).unwrap();
                assert!(matches!(&replies[0], Msg::Reject { .. }), "{:?}", replies[0]);
                // A stale protocol version is rejected too.
                let fp = suite_fingerprint(&s, "unit@test");
                let replies = worker::scripted(
                    addr,
                    &[Msg::Hello {
                        version: PROTOCOL_VERSION + 1,
                        fingerprint: fp,
                        worker_id: "t-stale".into(),
                    }],
                )
                .unwrap();
                assert!(matches!(&replies[0], Msg::Reject { .. }), "{:?}", replies[0]);
                handle.drain();
            });
            coordinator.serve(listener).unwrap();
        });
    }

    #[test]
    fn dist_report_render_is_stable() {
        // The per-worker table, one row per worker record by identity; a
        // placeholder from an older checkpoint renders as `-`.
        let worker = |identity: &str, steps, diffs, contributed, trust| Worker {
            identity: identity.into(),
            steps,
            diffs,
            contributed,
            trust,
            ..Worker::default()
        };
        let report = DistReport {
            report: dx_campaign::CampaignReport { epochs: Vec::new(), workers: 3 },
            coverage: vec![0.5, 0.5],
            steps_done: 12,
            per_worker: vec![
                worker("w-0123456789abcdef", 8, 1, 5, Trust { checked: 3, ..Trust::default() }),
                worker("", 0, 0, 0, Trust::default()),
                worker("mallory", 4, 0, 2, Trust { checked: 2, failed: 2, evicted: true }),
            ],
            diffs: 1,
            quarantined: 2,
        };
        let full = report.render();
        let table = full.strip_prefix(&report.report.render()).expect("campaign prefix");
        let expected = "worker                 steps     diffs   new-units   spot-ok  spot-bad  status\n\
                        w-0123456789abcdef         8         1           5         3         0  ok\n\
                        -                          0         0           0         0         0  ok\n\
                        mallory                    4         0           2         0         2  evicted\n\
                        2 claimed diff(s) failed spot-checks and were quarantined\n";
        assert_eq!(table, expected);
    }

    #[test]
    fn fleet_metrics_are_scrapable_over_http() {
        // End-to-end observability: a 2-worker fleet with full
        // spot-checking reports its hot-path and trust series through the
        // injected registry, served over the Prometheus endpoint.
        let registry = dx_telemetry::MetricsRegistry::new();
        let cfg =
            CoordinatorConfig { registry: registry.clone(), spot_check_rate: 1.0, ..quick_cfg(10) };
        let (report, _) = run_local(
            &suite(200),
            "unit@test",
            &seed_batch(201, 8),
            cfg,
            WorkerConfig::default(),
            2,
        )
        .unwrap();
        let server = dx_telemetry::http::serve("127.0.0.1:0", registry.clone()).unwrap();
        let text = dx_telemetry::http::scrape(server.addr()).unwrap();
        let series = |name: &str| {
            text.lines()
                .filter(|l| l.starts_with(name))
                .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .sum::<f64>()
        };
        assert_eq!(series("dx_seeds_total") as usize, report.steps_done, "{text}");
        assert!(series("dx_leases_total") >= 1.0, "{text}");
        assert!(series("dx_lease_turnaround_seconds_count{") >= 1.0, "{text}");
        assert!(series("dx_spot_checks_total{") >= 1.0, "{text}");
        // Worker-shipped phase deltas were merged under the known names.
        assert!(series("dx_phase_seconds_count{phase=\"forward\"}") >= 1.0, "{text}");
        assert!(series("dx_phase_seconds_count{phase=\"gradient\"}") >= 1.0, "{text}");
        // Trust columns in the report agree with the registry counters.
        let checked: usize = report.per_worker.iter().map(|w| w.trust.checked).sum();
        assert_eq!(series("dx_spot_checks_total{") as usize, checked);
    }
}
