//! In-process replays of the two fleet workloads: `mnist_dist1`
//! (coordinator + one worker) and `mnist_svc2t` (service daemon, one
//! worker, two tenants driven over HTTP).

use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dx_benchmark::procfs;
use dx_benchmark::trace::Tracer;
use dx_campaign::json;
use dx_dist::{run_worker, Coordinator, CoordinatorConfig, WorkerConfig};
use dx_service::{CampaignSpec, Service, ServiceConfig};
use dx_telemetry::http::request;
use dx_telemetry::MetricsRegistry;

use crate::out::Out;
use crate::suite::{self, Bench};

fn io(e: std::io::Error) -> String {
    format!("fleet replay: {e}")
}

fn cpu(read: fn() -> Option<f64>) -> Result<f64, String> {
    read().ok_or_else(|| "cannot read CPU times from /proc".to_string())
}

/// Runs one worker against `addr` on the calling thread; returns the
/// thread's own CPU seconds over the worker's lifetime.
fn timed_worker(addr: std::net::SocketAddr, bench: &Bench) -> Result<f64, String> {
    let before = cpu(procfs::thread_cpu_s)?;
    run_worker(addr, bench.suite.clone(), &bench.label, WorkerConfig::default()).map_err(io)?;
    Ok(cpu(procfs::thread_cpu_s)? - before)
}

/// `mnist_dist1` in one process: [`Coordinator::serve`] on this thread,
/// [`run_worker`] on another, over a real localhost socket.
///
/// # Errors
///
/// Serve or worker failures.
#[allow(clippy::too_many_arguments)]
pub fn dist1(
    bench: &Bench,
    seeds: usize,
    steps: usize,
    batch: usize,
    seed: u64,
    dir: &Path,
    cli_fuzz_us: f64,
    t: &mut Tracer,
    out: &mut Out,
) -> Result<(), String> {
    let cfg = CoordinatorConfig {
        batch_per_round: batch,
        max_steps: Some(steps),
        checkpoint_dir: Some(dir.join("replay-dist")),
        seed,
        ..CoordinatorConfig::default()
    };
    let pool = suite::initial_seeds(&bench.ds, seeds, seed);
    let coordinator = t.span("dist.coordinator.new", |_| {
        (Coordinator::new(&bench.suite, &bench.label, &pool, cfg), vec![("seeds", seeds as f64)])
    });
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let process_before = cpu(procfs::process_cpu_s)?;
    let started = Instant::now();
    let (report, worker_cpu) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| timed_worker(addr, bench));
        let report = t.span("dist.serve", |_| {
            let report = coordinator.serve(listener);
            let done = report.as_ref().map_or(0, |r| r.steps_done);
            (report, vec![("seeds", done as f64)])
        });
        let worker_cpu = worker.join().map_err(|_| "the worker thread panicked".to_string());
        (report, worker_cpu)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let (report, worker_cpu) = (report.map_err(io)?, worker_cpu??);
    let process_cpu = cpu(procfs::process_cpu_s)? - process_before;
    if report.steps_done != steps {
        out.errors.push(format!("dist replay absorbed {} of {steps} steps", report.steps_done));
    }
    out.set("dist.worker_wait_share", 100.0 * (1.0 - worker_cpu / wall_s), 1);
    out.set(
        "dist.coordinator_cpu_ms_per_seed",
        1e3 * (process_cpu - worker_cpu).max(0.0) / steps as f64,
        1,
    );
    // Like with like: the replay coordinator's own summed rounds over the
    // CLI coordinator's (serve time also holds admission and the drain,
    // which no round accounts for).
    let rounds_us = report.report.total_elapsed().as_secs_f64() * 1e6;
    out.set("campaign.closure_pct", 100.0 * rounds_us / cli_fuzz_us, report.report.epochs.len());
    Ok(())
}

/// A tenant as the `GET /campaigns` listing shows it.
struct Seen {
    name: String,
    done: bool,
    steps: f64,
}

fn listing(body: &str) -> Option<Vec<Seen>> {
    json::parse(body)
        .ok()?
        .as_arr()?
        .iter()
        .map(|c| {
            Some(Seen {
                name: c.get("name")?.as_str()?.to_string(),
                done: c.get("status")?.as_str()? != "running",
                steps: c.get("steps_done")?.as_f64()?,
            })
        })
        .collect()
}

/// How often the replay polls `GET /campaigns`.
const POLL: Duration = Duration::from_millis(5);
/// A service replay that has not finished by then is hung.
const GIVE_UP: Duration = Duration::from_secs(60);

/// `mnist_svc2t` in one process: the daemon's dispatcher and HTTP API on
/// their own threads, one worker thread, and this thread as the client:
/// submit `alpha` (weight 2) and `beta`, then poll until both are done.
///
/// # Errors
///
/// Service, worker or HTTP failures, or a hang.
#[allow(clippy::too_many_arguments)]
pub fn svc2t(
    bench: &Bench,
    pool: usize,
    tenant_seeds: usize,
    tenant_steps: usize,
    seed: u64,
    dir: &Path,
    t: &mut Tracer,
    out: &mut Out,
) -> Result<(), String> {
    let registry = MetricsRegistry::new();
    let cfg = ServiceConfig {
        state_dir: Some(dir.join("replay-state")),
        registry: registry.clone(),
        ..ServiceConfig::default()
    };
    let rows = suite::initial_seeds(&bench.ds, pool, seed);
    let svc = Arc::new(Service::new(&bench.suite, &bench.label, &rows, cfg).map_err(io)?);
    let api = dx_service::api::router(Arc::clone(&svc)).serve("127.0.0.1:0").map_err(io)?;
    let api_addr = api.addr();
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let stop = svc.stop_handle();
    let connected = registry.gauge("dx_workers_connected", &[]);

    let process_before = cpu(procfs::process_cpu_s)?;
    let client_before = cpu(procfs::thread_cpu_s)?;
    let outcome = std::thread::scope(|scope| {
        let serving = scope.spawn(|| svc.serve(listener));
        let worker = scope.spawn(|| timed_worker(addr, bench));
        let client = (|| -> Result<(f64, f64), String> {
            let waiting = Instant::now();
            while connected.get() < 1.0 {
                if waiting.elapsed() > GIVE_UP {
                    return Err("the worker never joined the service".into());
                }
                std::thread::sleep(POLL);
            }
            let root = t.enter("service.client");
            let mut submitted = Vec::new();
            let mut submit_ms = Vec::new();
            for (name, offset, weight) in [("alpha", 0, 2.0), ("beta", tenant_seeds, 1.0)] {
                let mut spec = CampaignSpec::named(name);
                spec.seed = seed;
                spec.seeds = tenant_seeds;
                spec.seed_offset = offset;
                spec.max_steps = Some(tenant_steps);
                spec.weight = weight;
                let body = spec.to_json().to_string();
                let id = t.enter("service.submit");
                let (status, reply) = request(api_addr, "POST", "/campaigns", &body).map_err(io)?;
                t.exit(id, &[("bytes", body.len() as f64)]);
                if status != 200 {
                    return Err(format!("submit {name}: HTTP {status}: {reply}"));
                }
                submitted.push(Instant::now());
                submit_ms.push(t.spans()[id].duration_ns() as f64 / 1e6);
            }
            let mut status_ms = Vec::new();
            let mut first_step_ms = None;
            let mut share_ratio = None;
            let mut makespan_s: [Option<f64>; 2] = [None, None];
            while makespan_s.iter().any(Option::is_none) {
                if submitted[0].elapsed() > GIVE_UP {
                    return Err("the tenants never finished".into());
                }
                std::thread::sleep(POLL);
                let asked = Instant::now();
                let (status, body) = request(api_addr, "GET", "/campaigns", "").map_err(io)?;
                status_ms.push(asked.elapsed().as_nanos() as f64 / 1e6);
                let seen = listing(&body)
                    .filter(|_| status == 200)
                    .ok_or("unreadable /campaigns listing")?;
                let find = |name: &str| seen.iter().find(|s| s.name == name);
                let (Some(alpha), Some(beta)) = (find("alpha"), find("beta")) else { continue };
                if first_step_ms.is_none() && alpha.steps > 0.0 {
                    first_step_ms = Some(submitted[0].elapsed().as_secs_f64() * 1e3);
                }
                if share_ratio.is_none() && alpha.done {
                    share_ratio = Some(alpha.steps / beta.steps.max(1.0));
                }
                for (slot, (tenant, since)) in
                    makespan_s.iter_mut().zip([alpha, beta].iter().zip(&submitted))
                {
                    if slot.is_none() && tenant.done {
                        *slot = Some(since.elapsed().as_secs_f64());
                        if tenant.steps != tenant_steps as f64 {
                            out.errors.push(format!(
                                "tenant {} ended at {} steps",
                                tenant.name, tenant.steps
                            ));
                        }
                    }
                }
            }
            let wall_s = submitted[0].elapsed().as_secs_f64();
            t.exit(root, &[("polls", status_ms.len() as f64)]);
            out.set_median("service.submit_ms", &submit_ms);
            out.set_median("service.status_ms.p50", &status_ms);
            out.set_tail("service.status_ms.p95", &status_ms, 95.0);
            if let (Some(first), Some(ratio)) = (first_step_ms, share_ratio) {
                out.set("service.first_step_ms", first, 1);
                out.set("service.share_ratio", ratio, 1);
            }
            if let [Some(alpha), Some(beta)] = makespan_s {
                out.set("service.makespan_s.alpha", alpha, 1);
                out.set("service.makespan_s.beta", beta, 1);
            }
            Ok((wall_s, cpu(procfs::thread_cpu_s)? - client_before))
        })();
        // Whatever happened to the client, let the fleet go.
        stop.stop();
        let served = serving.join().map_err(|_| "the service thread panicked".to_string());
        let worker_cpu = worker.join().map_err(|_| "the worker thread panicked".to_string());
        (client, served, worker_cpu)
    });
    drop(api);
    let (client, served, worker_cpu) = outcome;
    let (wall_s, client_cpu) = client?;
    served?.map_err(io)?;
    let worker_cpu = worker_cpu??;
    let process_cpu = cpu(procfs::process_cpu_s)? - process_before;
    let steps = (2 * tenant_steps) as f64;
    out.set("dist.worker_wait_share", 100.0 * (1.0 - worker_cpu / wall_s), 1);
    // Everything that is neither the worker nor this polling client: the
    // dispatcher's connection threads and the API server.
    out.set(
        "dist.coordinator_cpu_ms_per_seed",
        1e3 * (process_cpu - worker_cpu - client_cpu).max(0.0) / steps,
        1,
    );
    Ok(())
}
