//! End-to-end distributed campaigns on the MNIST trio: a coordinator and
//! worker fleet over real localhost TCP sockets.
//!
//! This is the ISSUE's acceptance scenario: a 2-worker dist campaign
//! reaches the same coverage target as a single-process campaign, and a
//! SIGTERM-style drain leaves a valid checkpoint the whole fleet resumes
//! from.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use deepxplore::constraints::Constraint;
use deepxplore::Hyperparams;
use dx_campaign::{Campaign, CampaignConfig, ModelSuite};
use dx_coverage::{CoverageConfig, SignalSpec};
use dx_dist::{run_local, serve_local, Coordinator, CoordinatorConfig, WorkerConfig};
use dx_integration::test_zoo;
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;
use dx_tensor::{rng, Tensor};

const LABEL: &str = "mnist@test";
const TARGET: f32 = 0.65;

fn mnist_suite() -> (ModelSuite, Tensor) {
    let mut zoo = test_zoo();
    let models = zoo.trio(DatasetKind::Mnist);
    let ds = zoo.dataset(DatasetKind::Mnist).clone();
    let suite = ModelSuite {
        models,
        kind: deepxplore::generator::TaskKind::Classification,
        hp: Hyperparams { max_iters: 30, ..Hyperparams::image_defaults() },
        constraint: Constraint::Lighting,
        signal: SignalSpec::neuron(CoverageConfig::scaled(0.25)),
    };
    let mut r = rng::rng(0xd157_0001);
    let picks = rng::sample_without_replacement(&mut r, ds.test_len(), 12.min(ds.test_len()));
    (suite, gather_rows(&ds.test_x, &picks))
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dx_integration_dist_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn two_worker_fleet_reaches_the_single_process_coverage_target() {
    let (suite, seeds) = mnist_suite();
    // Reference: a single-process campaign run to the target.
    let mut solo = Campaign::new(
        suite.clone(),
        &seeds,
        CampaignConfig {
            epochs: 50,
            batch_per_epoch: 8,
            desired_coverage: Some(TARGET),
            ..Default::default()
        },
    );
    solo.run().unwrap();
    assert!(
        solo.mean_coverage() >= TARGET,
        "single-process campaign never reached the target: {}",
        solo.mean_coverage()
    );

    // The same campaign as a 2-worker fleet over the wire.
    let cfg = CoordinatorConfig {
        target_coverage: Some(TARGET),
        batch_per_round: 8,
        lease_size: 2,
        ..Default::default()
    };
    let (report, workers) =
        run_local(&suite, LABEL, &seeds, cfg, WorkerConfig::default(), 2).unwrap();
    let merged = report.coverage.iter().sum::<f32>() / report.coverage.len() as f32;
    assert!(merged >= TARGET, "fleet stopped below the target: {merged}");

    // The merged union dominates every worker's local coverage, and the
    // fleet really ran distributed work.
    for w in &workers {
        let local = w.coverage.iter().sum::<f32>() / w.coverage.len() as f32;
        assert!(merged >= local - 1e-6, "merged {merged} < worker {} local {local}", w.slot);
    }
    assert!(report.steps_done > 0);
    assert!(!report.report.epochs.is_empty());
}

#[test]
fn drained_fleet_checkpoint_is_valid_and_resumable() {
    let (suite, seeds) = mnist_suite();
    let dir = tmp_dir("drain_resume");
    let cfg = CoordinatorConfig {
        checkpoint_dir: Some(dir.clone()),
        batch_per_round: 4,
        lease_size: 2,
        lease_timeout: Duration::from_secs(10),
        ..Default::default() // Unbounded: only the drain stops it.
    };
    let coordinator = Coordinator::new(&suite, LABEL, &seeds, cfg);
    let handle = coordinator.drain_handle();
    // SIGTERM stand-in while the fleet is mid-flight.
    let stopper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(1500));
        handle.drain();
    });
    let (first, _) = serve_local(&coordinator, &suite, LABEL, WorkerConfig::default(), 2).unwrap();
    stopper.join().unwrap();

    // The drain checkpoint parses as a plain campaign checkpoint, with the
    // global coverage union persisted exactly.
    let state = dx_campaign::checkpoint::load(&dir).unwrap();
    let masks = state.coverage.expect("coverage bitmaps persisted");
    for (mask, cov) in masks.iter().zip(&first.coverage) {
        let from_mask = mask.iter().filter(|&&c| c).count() as f32 / mask.len() as f32;
        assert!((from_mask - cov).abs() < 1e-6, "persisted union differs: {from_mask} vs {cov}");
    }

    // ... and it is also resumable in-process by the campaign engine.
    let resumed_solo = Campaign::resume(
        suite.clone(),
        CampaignConfig { checkpoint_dir: Some(dir.clone()), epochs: 1, ..Default::default() },
    )
    .unwrap();
    assert_eq!(resumed_solo.coverage(), first.coverage);

    // ... and the whole fleet resumes and continues counting.
    let resumed = Coordinator::resume(
        &suite,
        LABEL,
        CoordinatorConfig {
            checkpoint_dir: Some(dir.clone()),
            max_steps: Some(first.steps_done + 8),
            batch_per_round: 4,
            lease_size: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.steps_done(), first.steps_done);
    let (second, _) = serve_local(&resumed, &suite, LABEL, WorkerConfig::default(), 2).unwrap();
    assert!(second.steps_done >= first.steps_done + 8);
    let before = first.coverage.iter().sum::<f32>() / first.coverage.len() as f32;
    let after = second.coverage.iter().sum::<f32>() / second.coverage.len() as f32;
    assert!(after >= before - 1e-6, "coverage regressed across resume");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The first cell of the equivalence matrix: an in-process pool with one
/// worker and a one-worker fleet whose every lease is a full round are one
/// campaign. Epoch = round = lease = `B` seeds, `E` of them, on one suite
/// and seed: the checkpoints' corpus, coverage and diffs are byte-equal.
#[test]
fn one_worker_pool_and_one_worker_fleet_write_the_same_checkpoint() {
    const B: usize = 4;
    const E: usize = 3;
    let (suite, seeds) = mnist_suite();
    let (pool_dir, fleet_dir) = (tmp_dir("cell_pool"), tmp_dir("cell_fleet"));
    let mut pool = Campaign::new(
        suite.clone(),
        &seeds,
        CampaignConfig {
            workers: 1,
            epochs: E,
            batch_per_epoch: B,
            merge_every: B,
            checkpoint_dir: Some(pool_dir.clone()),
            ..Default::default()
        },
    );
    pool.run().unwrap();
    assert_eq!(pool.report().total_seeds(), E * B, "an epoch ran short");
    let cfg = CoordinatorConfig {
        batch_per_round: B,
        lease_size: B,
        max_steps: Some(E * B),
        checkpoint_dir: Some(fleet_dir.clone()),
        ..Default::default()
    };
    let worker = WorkerConfig { lease_size: B, batch: B, ..Default::default() };
    let (fleet, _) = run_local(&suite, LABEL, &seeds, cfg, worker, 1).unwrap();
    assert_eq!(fleet.steps_done, E * B);
    for file in ["corpus.jsonl", "coverage.json", "diffs.jsonl"] {
        let read = |dir: &std::path::Path| std::fs::read(dir.join(file)).unwrap();
        assert!(read(&pool_dir) == read(&fleet_dir), "{file} differs between pool and fleet");
    }
    let _ = std::fs::remove_dir_all(&pool_dir);
    let _ = std::fs::remove_dir_all(&fleet_dir);
}

// ---------------------------------------------------------------------------
// Worker death mid-lease: a real OS process takes a lease at gunpoint of
// SIGKILL. Uses a synthetic model suite (deterministic from seeds, no zoo)
// so the re-exec'd child derives the identical admission fingerprint
// without touching the training cache.

const DEATH_LABEL: &str = "death@test";
const DEATH_TOKEN: &str = "death-fleet-secret";

fn synthetic_suite() -> (ModelSuite, Tensor) {
    use dx_nn::layer::Layer;
    let mut base = dx_nn::Network::new(
        &[16],
        vec![Layer::dense(16, 14), Layer::relu(), Layer::dense(14, 3), Layer::softmax()],
    );
    base.init_weights(&mut rng::rng(0xdead));
    let suite = ModelSuite {
        models: vec![
            base.clone(),
            base.perturbed(0.04, 0xdead + 1),
            base.perturbed(0.04, 0xdead + 2),
        ],
        kind: deepxplore::generator::TaskKind::Classification,
        hp: Hyperparams { step: 0.25, lambda1: 2.0, max_iters: 30, ..Default::default() },
        constraint: Constraint::Clip,
        signal: SignalSpec::neuron(CoverageConfig::scaled(0.25)),
    };
    let seeds = rng::uniform(&mut rng::rng(0xbeef), &[10, 16], 0.2, 0.8);
    (suite, seeds)
}

/// Not a test on its own: the re-exec'd child role for
/// [`worker_death_mid_lease_requeues_and_resumes_with_trust_state`]. With
/// the env var unset (every normal test run) it is an instant no-op; in
/// the child process it authenticates, takes a lease, and then hangs
/// holding it until the parent SIGKILLs the process.
#[test]
fn lease_holder_child() {
    let Ok(addr) = std::env::var("DX_TEST_LEASE_HOLDER") else { return };
    use dx_dist::proto::Msg;
    use dx_dist::wire::{read_frame, write_frame};
    let exchange = |stream: &mut std::net::TcpStream, msg: &Msg| -> Msg {
        write_frame(stream, &msg.to_json()).unwrap();
        Msg::from_json(&read_frame(stream).unwrap()).unwrap()
    };
    let (suite, _) = synthetic_suite();
    let fingerprint = dx_dist::suite_fingerprint(&suite, DEATH_LABEL);
    let worker_id = format!("lease-holder-{}", std::process::id());
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reply = exchange(
        &mut stream,
        &Msg::Hello {
            version: dx_dist::PROTOCOL_VERSION,
            fingerprint,
            worker_id: worker_id.clone(),
        },
    );
    if let Msg::Challenge { nonce } = &reply {
        let proof = dx_dist::auth::proof(DEATH_TOKEN, nonce, &worker_id);
        reply = exchange(&mut stream, &Msg::AuthProof { proof });
    }
    let Msg::Welcome { slot, .. } = reply else { panic!("child not welcomed: {reply:?}") };
    let reply = exchange(&mut stream, &Msg::LeaseRequest { slot, want: 3 });
    let Msg::Lease { lease, .. } = reply else { panic!("child got no lease: {reply:?}") };
    // Keep the lease alive once, then go catatonic holding it.
    let _ = exchange(&mut stream, &Msg::Heartbeat { slot, lease });
    std::thread::sleep(Duration::from_secs(300));
}

#[test]
fn worker_death_mid_lease_requeues_and_resumes_with_trust_state() {
    let (suite, seeds) = synthetic_suite();
    let dir = tmp_dir("worker_death");
    let budget = 10;
    let cfg = CoordinatorConfig {
        max_steps: Some(budget),
        batch_per_round: 4,
        lease_size: 3,
        lease_timeout: Duration::from_millis(500),
        checkpoint_dir: Some(dir.clone()),
        auth_token: Some(DEATH_TOKEN.into()),
        spot_check_rate: 1.0,
        ..Default::default()
    };
    let coordinator = Coordinator::new(&suite, DEATH_LABEL, &seeds, cfg.clone());
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let served = AtomicBool::new(false);
    let first = std::thread::scope(|scope| {
        // Re-exec this test binary as the doomed lease holder.
        let exe = std::env::current_exe().unwrap();
        let mut child = std::process::Command::new(exe)
            .args(["lease_holder_child", "--exact", "--nocapture"])
            .env("DX_TEST_LEASE_HOLDER", addr.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let honest = {
            let suite = suite.clone();
            let coord = &coordinator;
            let served = &served;
            scope.spawn(move || {
                // Wait until the child process really holds a lease, then
                // kill it (SIGKILL — no goodbye frame, no flush). A
                // coordinator that stopped first will never grant one.
                let deadline = std::time::Instant::now() + Duration::from_secs(60);
                while coord.outstanding_leases() == 0 {
                    if std::time::Instant::now() >= deadline || served.load(Ordering::SeqCst) {
                        let _ = child.kill();
                        let _ = child.wait();
                        panic!("child never took a lease");
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                child.kill().unwrap();
                child.wait().unwrap();
                // An honest worker must be able to finish the whole budget,
                // including the seeds the corpse still nominally held.
                let wcfg = dx_dist::WorkerConfig {
                    auth_token: Some(DEATH_TOKEN.into()),
                    ..Default::default()
                };
                dx_dist::run_worker(addr, suite, DEATH_LABEL, wcfg).unwrap()
            })
        };
        let report = catch_unwind(AssertUnwindSafe(|| coordinator.serve(listener)));
        served.store(true, Ordering::SeqCst);
        let report = report.unwrap_or_else(|panic| resume_unwind(panic)).unwrap();
        honest.join().unwrap();
        report
    });
    assert!(first.steps_done >= budget, "requeue failed: {} steps", first.steps_done);

    // The checkpoint carries the trust layer's state: each worker's trust
    // record in fleet.json, the campaign's quarantine in dist.json.
    let fleet_json = std::fs::read_to_string(dir.join("fleet.json")).unwrap();
    let trust = fleet_json.contains("\"workers\"") && fleet_json.contains("\"checked\"");
    assert!(trust, "no trust state in fleet.json: {fleet_json}");
    let dist_json = std::fs::read_to_string(dir.join("dist.json")).unwrap();
    assert!(dist_json.contains("\"quarantined_total\""), "{dist_json}");

    // Resume restores the fleet exactly: steps continue counting, and the
    // coverage union equals the persisted bitmaps bit for bit.
    let resumed = Coordinator::resume(
        &suite,
        DEATH_LABEL,
        CoordinatorConfig { max_steps: Some(first.steps_done + 4), ..cfg },
    )
    .unwrap();
    assert_eq!(resumed.steps_done(), first.steps_done);
    let state = dx_campaign::checkpoint::load(&dir).unwrap();
    let masks = state.coverage.expect("coverage bitmaps persisted");
    for (mask, cov) in masks.iter().zip(&first.coverage) {
        let from_mask = mask.iter().filter(|&&c| c).count() as f32 / mask.len() as f32;
        assert_eq!(from_mask.to_bits(), cov.to_bits(), "resume not bit-identical");
    }
    let wcfg = dx_dist::WorkerConfig { auth_token: Some(DEATH_TOKEN.into()), ..Default::default() };
    let (second, _) = serve_local(&resumed, &suite, DEATH_LABEL, wcfg, 1).unwrap();
    assert!(second.steps_done >= first.steps_done + 4);
    // Trust accounting survived the round trip: the honest worker's
    // spot-check history is still on the books.
    let checked_first: usize = first.per_worker.iter().map(|w| w.trust.checked).sum();
    let checked_second: usize = second.per_worker.iter().map(|w| w.trust.checked).sum();
    assert!(checked_second >= checked_first, "trust state lost across resume");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dist_smoke_merged_coverage_dominates_single_worker() {
    // The CI smoke: coordinator + 2 workers on a tiny budget. It asserts
    // what the merge guarantees — the budget is met, and the union is
    // exactly the sum of what each worker was first to cover (so it
    // dominates every single worker's contribution). It used to compare
    // against a separate 1-worker run (`duo >= solo - 0.02`), which the
    // scheduler does not promise: two workers interleave leases by thread
    // timing, so which seeds get fuzzed differs from the solo run, and
    // the comparison failed about one run in six.
    let (suite, seeds) = mnist_suite();
    let budget = 8;
    let cfg = CoordinatorConfig {
        max_steps: Some(budget),
        batch_per_round: 4,
        lease_size: 2,
        seed: 42,
        ..Default::default()
    };
    let (run, _) = run_local(&suite, LABEL, &seeds, cfg, WorkerConfig::default(), 2).unwrap();
    assert!(run.steps_done >= budget);
    let covered: usize = suite
        .signal
        .build(&suite.models)
        .iter()
        .zip(&run.coverage)
        .map(|(signal, c)| (c * signal.coverable_total() as f32).round() as usize)
        .sum();
    assert!(covered > 0);
    let contributed: Vec<usize> = run.per_worker.iter().map(|w| w.contributed).collect();
    assert_eq!(
        contributed.iter().sum::<usize>(),
        covered,
        "per-worker contributions {contributed:?}"
    );
}
