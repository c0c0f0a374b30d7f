//! Service-plane acceptance: many tenant campaigns over one shared
//! worker fleet, driven end-to-end through the HTTP control plane.
//!
//! All tests run on a small synthetic classifier trio (16 -> 14 -> 3)
//! so they are dataset-free and fast; the MNIST-scale plumbing is
//! exercised by the dedicated-coordinator tests in `distributed.rs`
//! (the service reuses the same protocol-v6 workers).

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use deepxplore::constraints::Constraint;
use deepxplore::generator::TaskKind;
use deepxplore::Hyperparams;
use dx_campaign::json::parse_doc;
use dx_campaign::json::Json;
use dx_campaign::ModelSuite;
use dx_coverage::{CoverageConfig, SignalSpec};
use dx_dist::{run_local, run_worker, CoordinatorConfig, WorkerConfig, WorkerSummary};
use dx_nn::layer::Layer;
use dx_nn::util::gather_rows;
use dx_nn::Network;
use dx_service::{CampaignSpec, Service, ServiceConfig};
use dx_telemetry::http::request;
use dx_tensor::{rng, Tensor};

const LABEL: &str = "svc@test";

fn suite() -> ModelSuite {
    let mut base = Network::new(
        &[16],
        vec![Layer::dense(16, 14), Layer::relu(), Layer::dense(14, 3), Layer::softmax()],
    );
    base.init_weights(&mut rng::rng(0xdead));
    // Tiny sibling perturbation: seeds the models *already* disagree on
    // are retired as "preexisting" without fuzzing, and these tests need
    // corpora that stay alive long enough to hit step budgets.
    ModelSuite {
        models: vec![base.clone(), base.perturbed(0.02, 1), base.perturbed(0.02, 2)],
        kind: TaskKind::Classification,
        hp: Hyperparams { step: 0.25, max_iters: 10, ..Default::default() },
        constraint: Constraint::Clip,
        signal: SignalSpec::neuron(CoverageConfig::scaled(0.25)),
    }
}

fn pool() -> Tensor {
    rng::uniform(&mut rng::rng(0xbeef), &[12, 16], 0.2, 0.8)
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dx_integration_service_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_cfg(state_dir: Option<std::path::PathBuf>) -> ServiceConfig {
    ServiceConfig { state_dir, batch_per_round: 4, ..Default::default() }
}

/// Starts `svc.serve` on an ephemeral port plus `n` in-process workers.
/// Returns the fleet address and the handles to join after
/// `svc.stop_handle().stop()`.
#[allow(clippy::type_complexity)]
fn start_fleet(
    svc: &Arc<Service>,
    n: usize,
) -> (SocketAddr, JoinHandle<std::io::Result<()>>, Vec<JoinHandle<std::io::Result<WorkerSummary>>>)
{
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let served = {
        let svc = Arc::clone(svc);
        thread::spawn(move || svc.serve(listener))
    };
    let workers = (0..n)
        .map(|_| {
            let suite = suite();
            thread::spawn(move || run_worker(addr, suite, LABEL, WorkerConfig::default()))
        })
        .collect();
    (addr, served, workers)
}

fn get_json(api: SocketAddr, path: &str) -> Json {
    let (status, body) = request(api, "GET", path, "").unwrap();
    assert_eq!(status, 200, "GET {path}: {body}");
    parse_doc(&body).unwrap()
}

fn post(api: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(api, "POST", path, body).unwrap()
}

fn field(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("no `{key}` in {doc}"))
}

fn status_of(doc: &Json) -> String {
    doc.get("status").and_then(Json::as_str).expect("status field").to_string()
}

/// Polls `cond` for up to `secs`, failing at once if the daemon's serve
/// thread ends first: a daemon that died (a handler panic re-raised by
/// `serve`) will never satisfy it.
fn wait_until(
    what: &str,
    secs: u64,
    served: &JoinHandle<std::io::Result<()>>,
    mut cond: impl FnMut() -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        assert!(!served.is_finished(), "the daemon stopped while waiting for {what}");
        thread::sleep(Duration::from_millis(50));
    }
    panic!("timed out after {secs}s waiting for {what}");
}

/// The tentpole acceptance path: two tenants submitted over HTTP run
/// concurrently on one two-worker fleet, both complete, their metrics
/// stay disjoint under the `tenant` label, a graceful stop checkpoints
/// them, and a daemon restart resumes both — then picks up a third,
/// half-finished tenant from its namespaced checkpoint and finishes it.
#[test]
fn two_tenants_complete_over_http_and_a_restart_resumes_them() {
    let dir = tmp_dir("restart");
    let svc =
        Arc::new(Service::new(&suite(), LABEL, &pool(), service_cfg(Some(dir.clone()))).unwrap());
    let api = dx_service::api::router(Arc::clone(&svc)).serve("127.0.0.1:0").unwrap();
    let api_addr = api.addr();
    let (_, served, workers) = start_fleet(&svc, 2);

    let (status, body) =
        post(api_addr, "/campaigns", r#"{"name":"alpha","seeds":4,"seed":7,"max_steps":12}"#);
    assert_eq!(status, 200, "{body}");
    let alpha = field(&parse_doc(&body).unwrap(), "id");
    let (status, body) = post(
        api_addr,
        "/campaigns",
        r#"{"name":"beta","seeds":4,"seed_offset":4,"seed":9,"max_steps":12,"quota":0.5}"#,
    );
    assert_eq!(status, 200, "{body}");
    let beta = field(&parse_doc(&body).unwrap(), "id");

    wait_until("both tenants to finish", 120, &served, || {
        [alpha, beta]
            .iter()
            .all(|id| status_of(&get_json(api_addr, &format!("/campaigns/{id}"))) == "done")
    });
    let alpha_doc = get_json(api_addr, &format!("/campaigns/{alpha}"));
    let beta_doc = get_json(api_addr, &format!("/campaigns/{beta}"));
    assert!(field(&alpha_doc, "steps_done") >= 12, "{alpha_doc}");
    assert!(field(&beta_doc, "steps_done") >= 12, "{beta_doc}");

    // Per-tenant series are disjoint under the `tenant` label and both
    // non-zero; fleet-level series carry no tenant label.
    let (status, metrics) = request(api_addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    for name in ["alpha", "beta"] {
        let needle = format!("dx_seeds_total{{tenant=\"{name}\"}} ");
        let line = metrics
            .lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("no {needle} in {metrics}"));
        let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(value >= 12.0, "{line}");
    }
    assert!(metrics.contains("dx_workers_connected 2"), "{metrics}");

    // The report and event feed answer over HTTP too.
    let (status, report) =
        request(api_addr, "GET", &format!("/campaigns/{alpha}/report"), "").unwrap();
    assert_eq!(status, 200);
    assert!(report.contains("alpha"), "{report}");
    let (status, events) =
        request(api_addr, "GET", &format!("/campaigns/{alpha}/events"), "").unwrap();
    assert_eq!(status, 200);
    assert!(events.lines().next().unwrap().contains("submitted"), "{events}");
    assert!(events.contains("\"event\":\"done\""), "{events}");

    // A third tenant with a budget the fleet will NOT finish before the
    // daemon stops: it must come back mid-flight after the restart.
    let (status, body) =
        post(api_addr, "/campaigns", r#"{"name":"gamma","seeds":6,"seed":11,"max_steps":4000}"#);
    assert_eq!(status, 200, "{body}");
    let gamma = field(&parse_doc(&body).unwrap(), "id");
    wait_until("gamma to make progress", 60, &served, || {
        field(&get_json(api_addr, &format!("/campaigns/{gamma}")), "steps_done") >= 8
    });

    // Graceful stop: drains in-flight leases, checkpoints every tenant,
    // releases the fleet.
    svc.stop_handle().stop();
    served.join().unwrap().unwrap();
    for w in workers {
        w.join().unwrap().unwrap();
    }
    drop(api);
    let gamma_steps_at_stop = {
        let st = get_steps_from_checkpoint(&dir.join(gamma.to_string()));
        assert!(st >= 8, "final checkpoint must hold gamma's progress, got {st}");
        st
    };

    // Restart: a fresh daemon over the same state dir resumes all three
    // tenants from their namespaced checkpoints.
    let svc =
        Arc::new(Service::new(&suite(), LABEL, &pool(), service_cfg(Some(dir.clone()))).unwrap());
    let api = dx_service::api::router(Arc::clone(&svc)).serve("127.0.0.1:0").unwrap();
    let api_addr = api.addr();
    let all = get_json(api_addr, "/campaigns");
    let Json::Arr(all) = all else { panic!("list must be an array") };
    assert_eq!(all.len(), 3, "all tenants resumed");
    for doc in &all {
        match field(doc, "id") {
            id if id == gamma => {
                assert_eq!(status_of(doc), "running");
                assert!(field(doc, "steps_done") >= gamma_steps_at_stop, "{doc}");
            }
            _ => assert_eq!(status_of(doc), "done", "{doc}"),
        }
    }

    // And the resumed fleet finishes gamma's remaining budget.
    let (_, served, workers) = start_fleet(&svc, 2);
    wait_until("gamma to finish after restart", 120, &served, || {
        status_of(&get_json(api_addr, &format!("/campaigns/{gamma}"))) == "done"
    });
    assert!(field(&get_json(api_addr, &format!("/campaigns/{gamma}")), "steps_done") >= 4000);
    svc.stop_handle().stop();
    served.join().unwrap().unwrap();
    for w in workers {
        w.join().unwrap().unwrap();
    }
}

/// Reads `steps_done` back out of a tenant's on-disk `dist.json`.
fn get_steps_from_checkpoint(dir: &std::path::Path) -> u64 {
    let doc = parse_doc(&std::fs::read_to_string(dir.join("dist.json")).unwrap()).unwrap();
    field(&doc, "steps_done")
}

/// Isolation: a tenant sharing the daemon with another produces exactly
/// the campaign a solo tenant of the same spec does. One worker makes
/// both runs deterministic; the multiplexed run interleaves `other`'s
/// leases between `alpha`'s, and nothing about `alpha`'s stream, corpus
/// schedule, or coverage union may notice.
#[test]
fn a_tenant_matches_the_same_campaign_run_solo() {
    let alpha_spec = r#"{"name":"alpha","seeds":5,"seed":21,"max_steps":24}"#;
    let run = |specs: &[&str], watch: u64| -> Json {
        let svc = Arc::new(Service::new(&suite(), LABEL, &pool(), service_cfg(None)).unwrap());
        let api = dx_service::api::router(Arc::clone(&svc)).serve("127.0.0.1:0").unwrap();
        let api_addr = api.addr();
        let (_, served, workers) = start_fleet(&svc, 1);
        for spec in specs {
            let (status, body) = post(api_addr, "/campaigns", spec);
            assert_eq!(status, 200, "{body}");
        }
        wait_until("watched tenant to finish", 120, &served, || {
            status_of(&get_json(api_addr, &format!("/campaigns/{watch}"))) == "done"
        });
        let doc = get_json(api_addr, &format!("/campaigns/{watch}"));
        svc.stop_handle().stop();
        served.join().unwrap().unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        doc
    };

    let multiplexed = run(
        &[alpha_spec, r#"{"name":"other","seeds":5,"seed_offset":5,"seed":33,"max_steps":40}"#],
        0,
    );
    let solo = run(&[alpha_spec], 0);
    for key in ["steps_done", "diffs", "corpus", "epochs"] {
        assert_eq!(
            field(&multiplexed, key),
            field(&solo, key),
            "`{key}` diverged: {multiplexed} vs {solo}"
        );
    }
    let cov = |d: &Json| d.get("mean_coverage").and_then(Json::as_f64).unwrap();
    let (a, b) = (cov(&multiplexed), cov(&solo));
    assert!((a - b).abs() < 1e-6, "coverage diverged: {a} vs {b}");
}

/// Stride scheduling skews fleet shares toward the heavier weight while
/// both tenants stay live.
#[test]
fn weights_skew_fleet_shares() {
    let svc = Arc::new(Service::new(&suite(), LABEL, &pool(), service_cfg(None)).unwrap());
    let api = dx_service::api::router(Arc::clone(&svc)).serve("127.0.0.1:0").unwrap();
    let api_addr = api.addr();
    let (status, _) =
        post(api_addr, "/campaigns", r#"{"name":"light","seeds":6,"seed":3,"weight":1.0}"#);
    assert_eq!(status, 200);
    let (status, _) = post(
        api_addr,
        "/campaigns",
        r#"{"name":"heavy","seeds":6,"seed_offset":6,"seed":5,"weight":4.0}"#,
    );
    assert_eq!(status, 200);
    // The worker joins once both are submitted, so every lease is granted
    // with both live: a worker idle between the two submissions would
    // hand `light` a head start no scheduler is asked to take back.
    let (_, served, workers) = start_fleet(&svc, 1);
    // Unbounded budgets: let the fleet run a while, then freeze both and
    // compare shares.
    wait_until("both tenants to accumulate steps", 60, &served, || {
        field(&get_json(api_addr, "/campaigns/0"), "steps_done") >= 20
    });
    let (status, _) = post(api_addr, "/campaigns/0/pause", "");
    assert_eq!(status, 200);
    let (status, _) = post(api_addr, "/campaigns/1/pause", "");
    assert_eq!(status, 200);
    let light = field(&get_json(api_addr, "/campaigns/0"), "steps_done");
    let heavy = field(&get_json(api_addr, "/campaigns/1"), "steps_done");
    assert!(
        heavy > light,
        "weight-4 tenant must out-run weight-1 under stride scheduling: {heavy} vs {light}"
    );
    svc.stop_handle().stop();
    served.join().unwrap().unwrap();
    for w in workers {
        w.join().unwrap().unwrap();
    }
}

/// A restart under another metric is an error, not a tenant resumed with
/// reinterpreted hit-sets: `multisection:2` and `boundary` both count two
/// units per neuron, so only the checkpoint's metric tells them apart.
#[test]
fn a_restart_under_another_metric_rejects_the_tenant() {
    let dir = tmp_dir("metric_mismatch");
    let with_metric = |metric: &str| {
        let mut s = suite();
        let train = rng::uniform(&mut rng::rng(0x7a1d), &[40, 16], 0.0, 1.0);
        let metric = metric.parse().unwrap();
        s.signal = SignalSpec::of(CoverageConfig::scaled(0.25), metric, Vec::new())
            .primed(&s.models, &train, 40);
        s
    };
    let sections = with_metric("multisection:2");
    let cfg = || service_cfg(Some(dir.clone()));
    let svc = Arc::new(Service::new(&sections, LABEL, &pool(), cfg()).unwrap());
    svc.submit(CampaignSpec { seeds: 4, max_steps: Some(8), ..CampaignSpec::named("sections") })
        .unwrap();
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let served = {
        let svc = Arc::clone(&svc);
        thread::spawn(move || svc.serve(listener))
    };
    let worker = thread::spawn(move || run_worker(addr, sections, LABEL, WorkerConfig::default()));
    wait_until("the tenant to finish", 120, &served, || {
        status_of(&svc.status(0).unwrap()) == "done"
    });
    svc.stop_handle().stop();
    served.join().unwrap().unwrap();
    worker.join().unwrap().unwrap();

    let err = match Service::new(&with_metric("boundary"), LABEL, &pool(), cfg()) {
        Err(e) => e,
        Ok(_) => panic!("a multisection:2 tenant resumed under boundary"),
    };
    assert!(err.to_string().contains("metric"), "{err}");
    // Under its own metric the same directory still resumes.
    assert!(Service::new(&with_metric("multisection:2"), LABEL, &pool(), cfg()).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The coordinator is the service with one campaign: a dedicated
/// coordinator and a one-tenant service, each with one worker, over the
/// same seeds, `seed`, round size, lease size and step budget, write
/// byte-equal campaign checkpoints (the README's equivalence matrix).
#[test]
fn a_coordinator_and_a_one_tenant_service_write_the_same_checkpoint() {
    let (seeds, seed, round, lease, steps) = (6, 13, 4, 2, 12);
    let dir = tmp_dir("equivalence");
    let rows = gather_rows(&pool(), &(0..seeds).collect::<Vec<_>>());
    let registry = dx_telemetry::MetricsRegistry::new();
    let cfg = CoordinatorConfig {
        batch_per_round: round,
        lease_size: lease,
        max_steps: Some(steps),
        seed,
        checkpoint_dir: Some(dir.join("coordinator")),
        registry: registry.clone(),
        ..Default::default()
    };
    let (report, _) = run_local(&suite(), LABEL, &rows, cfg, WorkerConfig::default(), 1).unwrap();
    assert_eq!(report.steps_done, steps);
    // The coordinator's campaign records into the fleet registry: each
    // series once, not once per level.
    let counted = |name: &str| registry.counter(name, &[]).get() as usize;
    assert_eq!((counted("dx_seeds_total"), counted("dx_leases_total")), (steps, steps / lease));

    let cfg = ServiceConfig {
        state_dir: Some(dir.join("service")),
        batch_per_round: round,
        lease_size: lease,
        ..Default::default()
    };
    let svc = Arc::new(Service::new(&suite(), LABEL, &pool(), cfg).unwrap());
    let (_, served, workers) = start_fleet(&svc, 1);
    let spec = CampaignSpec { seed, seeds, max_steps: Some(steps), ..CampaignSpec::named("solo") };
    svc.submit(spec).unwrap();
    wait_until("the tenant to finish", 120, &served, || {
        status_of(&svc.status(0).unwrap()) == "done"
    });
    svc.stop_handle().stop();
    served.join().unwrap().unwrap();
    for w in workers {
        w.join().unwrap().unwrap();
    }
    for file in ["corpus.jsonl", "coverage.json", "diffs.jsonl"] {
        let read = |sub: &str| std::fs::read(dir.join(sub).join(file)).unwrap();
        assert!(read("coordinator") == read("service/0"), "{file} differs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
