//! One repetition of each workload: drive the CLI as a user would, then
//! check what it left behind.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use dx_benchmark::parse::{self, EpochRow};
use dx_benchmark::spec::{Kind, Workload};
use dx_benchmark::{procfs, sha256};

use crate::child::{self, Owned, RssPeak, CHILD_LIMIT};
use crate::toolchain::Tools;

/// What one repetition measured, after all its output checks passed.
#[derive(Clone, Debug)]
pub struct Rep {
    /// The `--rng` it ran with.
    pub rng: u64,
    /// Seed-steps absorbed.
    pub steps: u64,
    /// Difference-inducing inputs found.
    pub diffs: u64,
    /// Gradient-ascent iterates taken.
    pub iters: u64,
    /// Final mean coverage, 0–1 (mean over tenants for the service).
    pub coverage: f64,
    /// Launch to exit of the CLI process(es); for the service, first
    /// submit to last `done`.
    pub wall_s: f64,
    /// User+sys CPU of every process the repetition started.
    pub cpu_s: f64,
    /// Peak RSS summed over the process tree, KiB.
    pub rss_kib: u64,
    /// The program's own account of its fuzz time (sum of the epochs'
    /// `elapsed_us`), microseconds.
    pub fuzz_us: u64,
    /// SHA-256 over `corpus.jsonl`+`coverage.json`+`diffs.jsonl` of every
    /// checkpoint the repetition ended with (per tenant for the service).
    pub digest: String,
    /// Those checkpoint directories (their diffs are re-verified later).
    pub checkpoints: Vec<PathBuf>,
}

fn cli(tools: &Tools, cache: &Path, dir: &Path) -> Command {
    let mut cmd = Command::new(&tools.cli);
    // The cache is the only thing a repetition shares with the set-up;
    // anything the CLI writes relative to its cwd stays under out/.
    cmd.env("DX_CACHE_DIR", cache).env_remove("DX_AUTH_TOKEN").current_dir(dir);
    cmd
}

fn dataset_args(cmd: &mut Command, w: &Workload) {
    cmd.args(["--dataset", w.dataset]);
    if let Some(metric) = w.metric {
        cmd.args(["--metric", metric]);
    }
}

fn num(n: impl ToString) -> String {
    n.to_string()
}

/// Cold `deepxplore train --dataset <ds>` into the empty `cache`.
/// Returns its wall time.
pub fn train(
    tools: &Tools,
    w: &Workload,
    cache: &Path,
    dir: &Path,
    tag: &str,
) -> Result<f64, String> {
    std::fs::create_dir_all(cache)
        .map_err(|e| format!("cannot create {}: {e}", cache.display()))?;
    let mut cmd = cli(tools, cache, dir);
    cmd.args(["train", "--dataset", w.dataset]);
    Ok(child::run(&mut cmd, dir, tag)?.wall_s)
}

struct Checkpoint {
    rows: Vec<EpochRow>,
    digest: String,
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn read_checkpoint(dir: &Path) -> Result<Checkpoint, String> {
    let rows = parse::stats_jsonl(&read_text(&dir.join("stats.jsonl"))?)?;
    Ok(Checkpoint { rows, digest: sha256::checkpoint_digest(dir)? })
}

fn sum(rows: &[EpochRow], f: impl Fn(&EpochRow) -> u64) -> u64 {
    rows.iter().map(f).sum()
}

fn expect_eq(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, expected {want}"))
    }
}

/// Runs one repetition of `w` with `--rng rng`, everything under `dir`.
///
/// # Errors
///
/// Any failed launch, non-zero exit, hang, or output check — the caller
/// counts the repetition's whole budget as failed operations.
pub fn run_rep(
    tools: &Tools,
    w: &Workload,
    rng: u64,
    cache: &Path,
    dir: &Path,
) -> Result<Rep, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let cpu_before = procfs::children_cpu_s().ok_or("cannot read /proc/self/stat")?;
    let mut rep = match w.kind {
        Kind::Pool { seeds, epochs, batch_per_epoch } => {
            campaign_legs(tools, w, rng, cache, dir, seeds, epochs, batch_per_epoch, 0)?
        }
        Kind::Ckpt { seeds, epochs, batch_per_epoch, resumes } => {
            campaign_legs(tools, w, rng, cache, dir, seeds, epochs, batch_per_epoch, resumes)?
        }
        Kind::Dist1 { seeds, steps, batch } => {
            dist1(tools, w, rng, cache, dir, seeds, steps, batch)?
        }
        Kind::Svc2t { pool, tenant_seeds, tenant_steps } => {
            svc2t(tools, w, rng, cache, dir, pool, tenant_seeds, tenant_steps)?
        }
    };
    // Every process of the repetition has been waited for by now, so the
    // children's CPU delta covers the whole tree (workers included).
    rep.cpu_s = procfs::children_cpu_s().ok_or("cannot read /proc/self/stat")? - cpu_before;
    expect_eq("absorbed seed-steps", rep.steps, w.budget_steps() as u64)?;
    Ok(rep)
}

fn rep_from(rng: u64, wall_s: f64, rss_kib: u64, ckpts: Vec<(PathBuf, Checkpoint)>) -> Rep {
    let rows: Vec<EpochRow> = ckpts.iter().flat_map(|(_, c)| c.rows.iter().copied()).collect();
    let finals: Vec<f64> =
        ckpts.iter().filter_map(|(_, c)| c.rows.last()).map(|r| r.mean_coverage).collect();
    Rep {
        rng,
        steps: sum(&rows, |r| r.seeds_run),
        diffs: sum(&rows, |r| r.diffs_found),
        iters: sum(&rows, |r| r.iterations),
        coverage: finals.iter().sum::<f64>() / finals.len().max(1) as f64,
        wall_s,
        cpu_s: 0.0,
        rss_kib,
        fuzz_us: sum(&rows, |r| r.elapsed_us),
        digest: ckpts.iter().map(|(_, c)| c.digest.as_str()).collect::<Vec<_>>().join("+"),
        checkpoints: ckpts.into_iter().map(|(dir, _)| dir).collect(),
    }
}

#[allow(clippy::too_many_arguments)] // The workload's sizes, spelled out.
fn campaign_legs(
    tools: &Tools,
    w: &Workload,
    rng: u64,
    cache: &Path,
    dir: &Path,
    seeds: usize,
    epochs: usize,
    batch_per_epoch: usize,
    resumes: usize,
) -> Result<Rep, String> {
    let ckpt = dir.join("ckpt");
    let (mut wall_s, mut rss_kib) = (0.0, 0);
    for leg in 0..=resumes {
        let mut cmd = cli(tools, cache, dir);
        cmd.arg("campaign");
        dataset_args(&mut cmd, w);
        cmd.args(["--workers", "1", "--epochs", &num(epochs)]);
        cmd.args(["--batch-per-epoch", &num(batch_per_epoch)]);
        if leg == 0 {
            cmd.args(["--seeds", &num(seeds), "--rng", &num(rng), "--checkpoint"]).arg(&ckpt);
        } else {
            cmd.arg("--resume").arg(&ckpt);
        }
        let done = child::run(&mut cmd, dir, &format!("leg{leg}"))?;
        wall_s += done.wall_s;
        rss_kib = rss_kib.max(done.rss_kib);
        // The report's cumulative totals continue across resumes.
        let totals = parse::totals(&done.stdout)?;
        expect_eq(
            "reported seed-steps",
            totals.seeds,
            ((leg + 1) * epochs * batch_per_epoch) as u64,
        )?;
        parse::coverage_per_model(&done.stdout)?;
    }
    let epochs_done = parse::meta_epochs_done(&read_text(&ckpt.join("meta.json"))?)?;
    expect_eq("epochs_done", epochs_done, ((1 + resumes) * epochs) as u64)?;
    let checkpoint = read_checkpoint(&ckpt)?;
    expect_eq("stats.jsonl epochs", checkpoint.rows.len() as u64, epochs_done)?;
    Ok(rep_from(rng, wall_s, rss_kib, vec![(ckpt, checkpoint)]))
}

#[allow(clippy::too_many_arguments)]
fn dist1(
    tools: &Tools,
    w: &Workload,
    rng: u64,
    cache: &Path,
    dir: &Path,
    seeds: usize,
    steps: usize,
    batch: usize,
) -> Result<Rep, String> {
    let ckpt = dir.join("ckpt");
    let mut rss = RssPeak::default();
    let started = Instant::now();
    let mut cmd = cli(tools, cache, dir);
    cmd.arg("coordinator");
    dataset_args(&mut cmd, w);
    cmd.args(["--seeds", &num(seeds), "--steps", &num(steps), "--batch", &num(batch)]);
    cmd.args(["--rng", &num(rng), "--listen", "127.0.0.1:0", "--checkpoint"]).arg(&ckpt);
    let mut coordinator = Owned::spawn(&mut cmd, dir, "coordinator")?;
    let banner = dir.join("coordinator.stdout.txt");
    // Until the banner line is there, its absence is not a format drift.
    let addr = await_with("the coordinator banner", &mut [&mut coordinator], &mut rss, || {
        Ok(parse::coordinator_addr(&std::fs::read_to_string(&banner).unwrap_or_default()).ok())
    })?;
    let mut cmd = cli(tools, cache, dir);
    cmd.args(["worker", "--connect", &addr]);
    dataset_args(&mut cmd, w);
    let mut worker = Owned::spawn(&mut cmd, dir, "worker")?;
    // The budget ends the campaign: the coordinator drains the worker,
    // writes its report and exits; the worker exits on the drain.
    let mut ended: [Option<bool>; 2] = [None, None];
    while ended.iter().any(Option::is_none) {
        if started.elapsed() > CHILD_LIMIT {
            return Err(format!("the fleet was still running after {CHILD_LIMIT:?}"));
        }
        rss.poll(&[coordinator.pid(), worker.pid()]);
        std::thread::sleep(Duration::from_millis(1));
        ended = [ended[0].or_else(|| coordinator.outcome()), ended[1].or_else(|| worker.outcome())];
    }
    let wall_s = started.elapsed().as_secs_f64();
    if ended != [Some(true), Some(true)] {
        return Err("the coordinator or the worker exited with a failure".into());
    }
    let report = read_text(&banner)?;
    let totals = parse::totals(&report)?;
    expect_eq("reported seed-steps", totals.seeds, steps as u64)?;
    parse::coverage_per_model(&report)?;
    let (worker_steps, worker_diffs) =
        parse::worker_done(&read_text(&dir.join("worker.stdout.txt"))?)?;
    expect_eq("the worker's seed-steps", worker_steps, steps as u64)?;
    let steps_done = parse::dist_steps_done(&read_text(&ckpt.join("dist.json"))?)?;
    expect_eq("steps_done", steps_done, steps as u64)?;
    let checkpoint = read_checkpoint(&ckpt)?;
    expect_eq("reported diffs", totals.diffs, sum(&checkpoint.rows, |r| r.diffs_found))?;
    expect_eq("the worker's diffs", worker_diffs, totals.diffs)?;
    Ok(rep_from(rng, wall_s, rss.kib(), vec![(ckpt, checkpoint)]))
}

/// One `GET` against the daemon's HTTP/1.0 API; returns the body.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let io = |e: std::io::Error| format!("GET {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(io)?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: dx\r\n\r\n").as_bytes()).map_err(io)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(io)?;
    let (head, body) =
        response.split_once("\r\n\r\n").ok_or_else(|| format!("GET {path}: malformed response"))?;
    if head.lines().next().and_then(|l| l.split_whitespace().nth(1)) != Some("200") {
        return Err(format!("GET {path}: {}", head.lines().next().unwrap_or("no status line")));
    }
    Ok(body.to_string())
}

/// Polls `probe` every few milliseconds until it yields, while watching
/// that none of `procs` has died and sampling their RSS. `Ok(None)` from
/// the probe means "not yet"; an error ends the wait at once.
fn await_with<T>(
    what: &str,
    procs: &mut [&mut Owned],
    rss: &mut RssPeak,
    mut probe: impl FnMut() -> Result<Option<T>, String>,
) -> Result<T, String> {
    let started = Instant::now();
    loop {
        if let Some(v) = probe()? {
            return Ok(v);
        }
        if procs.iter_mut().any(|p| p.exited()) {
            return Err(format!("a service process exited while waiting for {what}"));
        }
        if started.elapsed() > CHILD_LIMIT {
            return Err(format!("gave up waiting for {what} after {CHILD_LIMIT:?}"));
        }
        let pids: Vec<u32> = procs.iter().map(|p| p.pid()).collect();
        rss.poll(&pids);
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[allow(clippy::too_many_arguments)]
fn svc2t(
    tools: &Tools,
    w: &Workload,
    rng: u64,
    cache: &Path,
    dir: &Path,
    pool: usize,
    tenant_seeds: usize,
    tenant_steps: usize,
) -> Result<Rep, String> {
    let state = dir.join("state");
    let mut rss = RssPeak::default();
    let mut cmd = cli(tools, cache, dir);
    cmd.arg("serve");
    dataset_args(&mut cmd, w);
    cmd.args(["--seeds", &num(pool), "--rng", &num(rng), "--state-dir"]).arg(&state);
    cmd.args(["--listen", "127.0.0.1:0", "--api-addr", "127.0.0.1:0"]);
    let mut serve = Owned::spawn(&mut cmd, dir, "serve")?;
    let banner = dir.join("serve.stdout.txt");
    let (fleet, api) = await_with("the serve banner", &mut [&mut serve], &mut rss, || {
        Ok(parse::serve_addrs(&std::fs::read_to_string(&banner).unwrap_or_default()).ok())
    })?;

    let mut cmd = cli(tools, cache, dir);
    cmd.args(["worker", "--connect", &fleet]);
    dataset_args(&mut cmd, w);
    let mut worker = Owned::spawn(&mut cmd, dir, "worker")?;
    // Submit only once the fleet is up, so the wall below is scheduling
    // and fuzzing, not the worker loading its models.
    let events = dir.join("serve.stderr.txt");
    await_with("the worker to join", &mut [&mut serve, &mut worker], &mut rss, || {
        let joined =
            std::fs::read_to_string(&events).unwrap_or_default().contains("\"worker_joined\"");
        Ok(joined.then_some(()))
    })?;

    let started = Instant::now();
    for (name, offset, weight) in [("alpha", 0, "2"), ("beta", tenant_seeds, "1")] {
        let mut cmd = cli(tools, cache, dir);
        cmd.args(["submit", "--api", &api, "--name", name, "--rng", &num(rng)]);
        cmd.args(["--seeds", &num(tenant_seeds), "--seed-offset", &num(offset)]);
        cmd.args(["--steps", &num(tenant_steps), "--weight", weight]);
        child::run(&mut cmd, dir, &format!("submit-{name}"))?;
    }
    let tenants =
        await_with("both tenants to finish", &mut [&mut serve, &mut worker], &mut rss, || {
            // A refused or dropped connection is retried; a body that
            // arrived and does not parse is a format drift, reported as such.
            let Ok(body) = http_get(&api, "/campaigns") else { return Ok(None) };
            let list = parse::status_list(&body)?;
            Ok((list.len() == 2 && list.iter().all(|t| t.status != "running")).then_some(list))
        })?;
    let wall_s = started.elapsed().as_secs_f64();

    // SIGTERM drains the fleet; the worker leaves on its own once told.
    if !serve.terminate(Duration::from_secs(10)) {
        return Err("serve did not drain cleanly on SIGTERM".into());
    }
    let left = Instant::now();
    while !worker.exited() {
        if left.elapsed() > Duration::from_secs(10) {
            return Err("the worker outlived the drained service".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(worker);

    let mut ckpts = Vec::new();
    for t in &tenants {
        if t.status != "done" {
            return Err(format!("tenant {} ended `{}`, not `done`", t.name, t.status));
        }
        expect_eq(&format!("tenant {} steps_done", t.name), t.steps_done, tenant_steps as u64)?;
        let ckpt = state.join(t.id.to_string());
        let checkpoint = read_checkpoint(&ckpt)?;
        expect_eq(
            &format!("tenant {} diffs", t.name),
            t.diffs,
            sum(&checkpoint.rows, |r| r.diffs_found),
        )?;
        ckpts.push((ckpt, checkpoint));
    }
    Ok(rep_from(rng, wall_s, rss.kib(), ckpts))
}
