//! Every on-disk format the code reads, resumed from a checked-in state
//! directory.
//!
//! `tests/fixtures/state/<kind>-<format>/` holds small `DX_SCALE=test`
//! state directories on the PDF trio: a pool checkpoint, a coordinator
//! checkpoint and a service state dir (one finished tenant, one running)
//! in the formats this build writes, and one directory per older version
//! the code still reads, derived once from them with the documents older
//! builds wrote and frozen since. Each is resumed (the pool and the
//! coordinator fork into a temp dir, so the fixture is only read; the
//! service, which has no fork, runs on a copy), continued to a fixed
//! budget with one worker, and the continued `corpus.jsonl`,
//! `coverage.json` and `diffs.jsonl` must match the SHA-256 digests in the
//! fixture's `SHA256SUMS` (as `continued/…`). The same file holds the
//! digests of the fixture's own identity files, which a current-format
//! fixture written afresh must reproduce.
//!
//! Regenerating rewrites the current-format fixtures and every fixture's
//! digests; it leaves the files of the older-format fixtures alone. (The
//! rewritten `stats.jsonl` files carry wall-clock times, so they always
//! change; the digests do not cover them.)
//!
//! ```text
//! cargo test --release -p dx-integration --test state_fixtures -- --ignored --exact regenerate
//! ```
//!
//! A change that alters a format adds a fixture and keeps the old ones:
//! the directory that held the old current version stays as checked in
//! (it leaves `CURRENT`, and `regenerate` stops rewriting it). A change
//! that alters output bytes on purpose regenerates the digests and says so
//! in CHANGES.md.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use deepxplore::constraints::Constraint;
use deepxplore::Hyperparams;
use dx_campaign::json::Json;
use dx_campaign::{Campaign, CampaignConfig, ModelSuite};
use dx_coverage::{CoverageConfig, SignalSpec};
use dx_dist::{serve_local, Coordinator, CoordinatorConfig, WorkerConfig};
use dx_integration::test_zoo;
use dx_models::DatasetKind;
use dx_nn::util::gather_rows;
use dx_service::{CampaignSpec, Service, ServiceConfig};
use dx_tensor::{rng, Tensor};

const LABEL: &str = "pdf@test";
/// The one worker every daemon fixture was written and is continued with.
const WORKER: &str = "w-cafe";
/// Seed steps per round, lease, tile and pool epoch.
const B: usize = 4;
/// Identity files: what the pool/fleet and coordinator/service
/// equivalences call byte-equal.
const IDENTITY: [&str; 3] = ["corpus.jsonl", "coverage.json", "diffs.jsonl"];

/// The fixtures in the formats this build writes, as [`write_current`]
/// writes them.
const CURRENT: [&str; 3] = ["pool-meta2-cov3", "coordinator-dist4-fleet2", "service-dist4-fleet2"];

/// One fixture per older format the code reads, frozen as checked in.
const OLDER: [&str; 9] = [
    "pool-meta1",
    "pool-cov2",
    "pool-cov1",
    "pool-nocov",
    "coordinator-dist3",
    "coordinator-dist2",
    "coordinator-dist1",
    "coordinator-fleet1",
    "service-tenant1",
];

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/state")
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dx_state_fixtures_{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The PDF trio under its domain constraint, and a pool of 9 test rows.
fn pdf_suite() -> (ModelSuite, Tensor) {
    let mut zoo = test_zoo();
    let models = zoo.trio(DatasetKind::Pdf);
    let ds = zoo.dataset(DatasetKind::Pdf).clone();
    let scale = ds.feature_scale.as_ref().expect("pdf scales").data().to_vec();
    let suite = ModelSuite {
        models,
        kind: deepxplore::generator::TaskKind::Classification,
        hp: Hyperparams { max_iters: 20, ..Hyperparams::pdf_defaults() },
        constraint: Constraint::PdfFeatures { scale },
        signal: SignalSpec::neuron(CoverageConfig::scaled(0.25)),
    };
    let picks = rng::sample_without_replacement(&mut rng::rng(0xf1c5), ds.test_len(), 9);
    (suite, gather_rows(&ds.test_x, &picks))
}

fn pool_config(checkpoint: &Path) -> CampaignConfig {
    CampaignConfig {
        workers: 1,
        epochs: 2,
        batch_per_epoch: B,
        batch: B,
        merge_every: B,
        seed: 7,
        checkpoint_dir: Some(checkpoint.to_path_buf()),
        ..Default::default()
    }
}

fn coordinator_config(checkpoint: &Path, max_steps: usize) -> CoordinatorConfig {
    CoordinatorConfig {
        batch_per_round: B,
        lease_size: B,
        max_steps: Some(max_steps),
        seed: 7,
        checkpoint_dir: Some(checkpoint.to_path_buf()),
        ..Default::default()
    }
}

fn worker() -> WorkerConfig {
    WorkerConfig { lease_size: B, batch: B, worker_id: Some(WORKER.into()), ..Default::default() }
}

/// Serves `svc` with one in-process worker until campaign `id` is done.
fn serve_until_done(svc: &Service, suite: &ModelSuite, id: u64) {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let w = scope.spawn(|| dx_dist::run_worker(addr, suite.clone(), LABEL, worker()));
        let stop = svc.stop_handle();
        scope.spawn(move || {
            let done =
                || svc.status(id).unwrap().get("status").and_then(Json::as_str) == Some("done");
            for _ in 0..20_000 {
                if done() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            stop.stop();
        });
        svc.serve(listener).unwrap();
        w.join().unwrap().unwrap();
    });
}

fn service(suite: &ModelSuite, pool: &Tensor, state: &Path) -> Service {
    let cfg = ServiceConfig {
        state_dir: Some(state.to_path_buf()),
        batch_per_round: B,
        lease_size: B,
        ..Default::default()
    };
    Service::new(suite, LABEL, pool, cfg).unwrap()
}

/// Writes the current-format fixtures into `root`.
fn write_current(root: &Path) {
    let (suite, pool) = pdf_suite();
    let seeds = gather_rows(&pool, &(0..8).collect::<Vec<_>>());
    Campaign::new(suite.clone(), &seeds, pool_config(&root.join(CURRENT[0]))).run().unwrap();

    let cfg = coordinator_config(&root.join(CURRENT[1]), 2 * B);
    let c = Coordinator::new(&suite, LABEL, &seeds, cfg);
    serve_local(&c, &suite, LABEL, worker(), 1).unwrap();

    // Every spec field off its default, the seed past 2^53.
    let svc = service(&suite, &pool, &root.join(CURRENT[2]));
    let fingerprint = svc.fingerprint().clone();
    let spec = |name: &str, seed: u64| CampaignSpec {
        seed,
        seeds: 8,
        seed_offset: 1,
        max_steps: Some(2 * B),
        target_coverage: Some(0.99),
        quota: 0.5,
        weight: 2.0,
        metric: Some(fingerprint.metric.clone()),
        constraint: Some(fingerprint.constraint.clone()),
        ..CampaignSpec::named(name)
    };
    svc.submit(spec("alpha", u64::MAX - 1)).unwrap();
    serve_until_done(&svc, &suite, 0);
    svc.submit(spec("beta", 9)).unwrap();
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let dest = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_dir(&path, &dest);
        } else if path.file_name().unwrap() != "SHA256SUMS" {
            fs::copy(&path, dest).unwrap();
        }
    }
}

/// Resumes fixture `name` from `from` and continues it into `into`: the
/// pool two more epochs, the coordinator to 16 steps, the service until
/// its second campaign is done (resumed first if it was paused).
fn continue_fixture(name: &str, from: &Path, into: &Path) {
    let (suite, pool) = pdf_suite();
    if name.starts_with("pool-") {
        let mut c = Campaign::resume_from(suite, from, pool_config(into)).unwrap();
        c.run().unwrap();
    } else if name.starts_with("coordinator-") {
        let cfg = coordinator_config(into, 4 * B);
        let c = Coordinator::resume_from(&suite, LABEL, from, cfg).unwrap();
        serve_local(&c, &suite, LABEL, worker(), 1).unwrap();
    } else {
        copy_dir(from, into);
        let svc = service(&suite, &pool, into);
        if svc.status(1).unwrap().get("status").and_then(Json::as_str) == Some("paused") {
            svc.resume(1).unwrap();
        }
        serve_until_done(&svc, &suite, 1);
    }
}

/// `<hex>  <path>` for every identity file under `dir`, paths relative
/// to it and prefixed with `prefix`.
fn digests(dir: &Path, prefix: &str) -> Vec<String> {
    let mut dirs = vec![dir.to_path_buf()];
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            dirs.push(path);
        }
    }
    dirs.sort();
    let mut lines = Vec::new();
    for d in dirs {
        for file in IDENTITY.iter().map(|f| d.join(f)).filter(|p| p.is_file()) {
            let hash = dx_dist::auth::sha256(&fs::read(&file).unwrap());
            let hex: String = hash.iter().map(|b| format!("{b:02x}")).collect();
            let rel = file.strip_prefix(dir).unwrap().display().to_string();
            lines.push(format!("{hex}  {prefix}{rel}"));
        }
    }
    lines
}

/// Every file under `dir` with its bytes, in path order.
fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(files(&path));
        } else {
            out.push((path.clone(), fs::read(&path).unwrap()));
        }
    }
    out.sort();
    out
}

/// The fixture's checked-in `SHA256SUMS` lines.
fn recorded(name: &str) -> Vec<String> {
    let text = fs::read_to_string(fixtures().join(name).join("SHA256SUMS")).unwrap();
    text.lines().map(str::to_string).collect()
}

fn is_continued(line: &str) -> bool {
    line.contains("  continued/")
}

#[test]
fn every_fixture_resumes_and_continues_to_its_digests() {
    for name in CURRENT.into_iter().chain(OLDER) {
        let from = fixtures().join(name);
        let before = files(&from);
        let into = tmp_dir(name);
        continue_fixture(name, &from, &into);
        let want: Vec<String> = recorded(name).into_iter().filter(|l| is_continued(l)).collect();
        assert_eq!(digests(&into, "continued/"), want, "{name} continued to other bytes");
        assert!(files(&from) == before, "resuming {name} wrote into it");
        let _ = fs::remove_dir_all(&into);
    }
}

#[test]
fn current_fixtures_regenerate_to_their_digests() {
    let root = tmp_dir("regenerate");
    write_current(&root);
    for name in CURRENT {
        let want: Vec<String> = recorded(name).into_iter().filter(|l| !is_continued(l)).collect();
        assert_eq!(digests(&root.join(name), ""), want, "{name} is written as other bytes now");
    }
    let _ = fs::remove_dir_all(&root);
}

/// The regeneration command (see the module docs): it rewrites the
/// current-format fixtures, and every fixture's digests from its files and
/// its continuation.
#[test]
#[ignore = "rewrites tests/fixtures/state; run by hand"]
fn regenerate() {
    let root = fixtures();
    for name in CURRENT {
        let _ = fs::remove_dir_all(root.join(name));
    }
    write_current(&root);
    for name in CURRENT.into_iter().chain(OLDER) {
        let dir = root.join(name);
        let into = tmp_dir(name);
        continue_fixture(name, &dir, &into);
        let mut sums = digests(&dir, "");
        sums.extend(digests(&into, "continued/"));
        fs::write(dir.join("SHA256SUMS"), sums.join("\n") + "\n").unwrap();
        let _ = fs::remove_dir_all(&into);
    }
}
