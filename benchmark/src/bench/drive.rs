//! One run of one workload: set-up, timed repetitions, output checks,
//! and the metrics that come out.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use dx_benchmark::json::{self, Json};
use dx_benchmark::spec::{self, Workload, E2E, PER_LAYER};
use dx_benchmark::stats;

use crate::child;
use crate::report::{Metric, RunResult};
use crate::run::{self, Rep};
use crate::toolchain::Tools;

/// Cold set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The traced probe gets this long before it counts as hung.
const PROBE_LIMIT: Duration = Duration::from_secs(150);

/// Working directory of one run; removed again when the run is correct
/// (kept for diagnosis otherwise — `benchmark/out/` is ignored by git).
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(tools: &Tools, w: &Workload, seed: u64, tag: &str) -> Result<Self, String> {
        let dir =
            tools.out.join("work").join(format!("{}-{seed}-{tag}-{}", w.name, std::process::id()));
        // A stale directory from a killed run must not leak into this one.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn finish(self, keep: bool) {
        if !keep {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Re-executes the diffs recorded in `checkpoints` through the models.
/// Returns `(checked, not reproduced)`.
fn verify(
    tools: &Tools,
    w: &Workload,
    cache: &Path,
    dir: &Path,
    checkpoints: &[PathBuf],
) -> Result<(u64, u64), String> {
    let mut cmd = Command::new(&tools.probe);
    cmd.args(["verify", "--dataset", w.dataset, "--cache"]);
    cmd.arg(cache).args(checkpoints).current_dir(dir);
    let done = child::run(&mut cmd, dir, "verify")?;
    let line = done.stdout.lines().last().unwrap_or("");
    let doc = json::parse(line).map_err(|e| format!("verify: {e}"))?;
    let field = |k: &str| doc.get(k).and_then(Json::as_u64).ok_or(format!("verify: no `{k}`"));
    Ok((field("checked")?, field("failed")?))
}

/// The end-to-end run (`--trace 0`): three cold set-ups, then the
/// repetitions of the workload that `seconds` asks for, tracing off.
///
/// # Errors
///
/// When nothing could be measured at all (set-up failed, or no
/// repetition passed its checks) — there is no result to print then.
pub fn end_to_end(
    tools: &Tools,
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let work = WorkDir::create(tools, w, seed, "e2e")?;
    let dir = &work.0;
    let budget = w.budget_steps() as u64;

    let mut setup_s = Vec::new();
    let mut cache = dir.join("cache0");
    for k in 0..SETUPS {
        cache = dir.join(format!("cache{k}"));
        setup_s.push(run::train(tools, w, &cache, dir, &format!("train{k}"))?);
    }

    let (mut reps, mut errors): (Vec<Rep>, Vec<String>) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    for k in 0..spec::reps_for(seconds) {
        let rng = spec::sub_seed(seed, spec::sub_seed_index(k));
        attempted += budget;
        match run::run_rep(tools, w, rng, &cache, &dir.join(format!("rep{k}"))) {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                failed += budget;
                errors.push(format!("repetition {k} (rng {rng}): {e}"));
                if errors.len() >= 2 {
                    break; // Broken, not unlucky: stop burning the clock.
                }
            }
        }
    }
    if reps.is_empty() {
        work.finish(true);
        return Err(format!("no repetition of {} succeeded: {}", w.name, errors.join("; ")));
    }

    // Same sub-seed, same bytes: the first two repetitions are the pair.
    let pair: Vec<&Rep> = reps.iter().filter(|r| r.rng == seed).collect();
    if let [a, b, ..] = pair[..] {
        if a.digest != b.digest || (a.steps, a.diffs, a.iters) != (b.steps, b.diffs, b.iters) {
            failed += budget;
            errors.push(format!("two runs at rng {seed} differ: {} vs {}", a.digest, b.digest));
        }
    }
    // Every recorded diff must still make the models disagree.
    let checkpoints: Vec<PathBuf> = reps.iter().flat_map(|r| r.checkpoints.clone()).collect();
    match verify(tools, w, &cache, dir, &checkpoints) {
        Ok((_, 0)) => {}
        Ok((checked, bad)) => {
            failed += bad;
            errors.push(format!("{bad} of {checked} recorded diffs did not reproduce"));
        }
        Err(e) => {
            failed += budget;
            errors.push(e);
        }
    }

    // Search luck (how early seeds find a difference) is pooled over the
    // distinct sub-seeds; the duplicate of sub-seed 0 would count twice.
    let mut distinct: Vec<&Rep> = Vec::new();
    for r in &reps {
        if !distinct.iter().any(|d| d.rng == r.rng) {
            distinct.push(r);
        }
    }
    let pool = |f: fn(&Rep) -> f64| distinct.iter().map(|r| f(r)).sum::<f64>();
    let per_rep = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    // `value` is what the run reports; `samples` (one per repetition)
    // only show how far apart the repetitions were.
    let metric = |name: &str, value: Option<f64>, samples: &[f64]| {
        let unit = E2E.iter().find(|m| m.name == name).map_or("", |m| m.unit);
        Metric::new(name, unit, value, samples)
    };
    let median_of = |name: &str, samples: &[f64]| metric(name, stats::median(samples), samples);
    // The host's noise is bursts that only ever slow a repetition down
    // (measured: +5..40% on four repetitions in ten), so the run's clock is
    // the quiet quartile of its repetitions, not their middle: the rate
    // three in four repetitions stay below, the CPU cost three in four
    // stay above.
    let rates = per_rep(|r| r.iters as f64 / r.wall_s);
    let rate = stats::percentile(&rates, 75.0);
    let cpu = per_rep(|r| 1000.0 * r.cpu_s / r.iters as f64);
    // Search luck is exact counts (steps and diffs per iterate, pooled over
    // the distinct sub-seeds); the clock is the one quiet rate above, so a
    // burst cannot pass for bad luck or the other way round.
    let per_iter = |f: fn(&Rep) -> f64| rate.map(|r| r * pool(f) / pool(|r| r.iters as f64));
    let metrics = vec![
        metric("iters_per_s", rate, &rates),
        metric(
            "seeds_per_s",
            per_iter(|r| r.steps as f64),
            &per_rep(|r| r.steps as f64 / r.wall_s),
        ),
        metric(
            "diffs_per_s",
            per_iter(|r| r.diffs as f64),
            &per_rep(|r| r.diffs as f64 / r.wall_s),
        ),
        metric("cpu_s_per_kiter", stats::percentile(&cpu, 25.0), &cpu),
        metric(
            "coverage_pct",
            Some(100.0 * pool(|r| r.coverage) / distinct.len() as f64),
            &per_rep(|r| 100.0 * r.coverage),
        ),
        median_of("peak_rss_mb", &per_rep(|r| r.rss_kib as f64 / 1024.0)),
        median_of("setup_s", &setup_s),
    ];
    debug_assert!(metrics.iter().map(|m| m.name.as_str()).eq(E2E.iter().map(|m| m.name)));

    let outputs =
        distinct.iter().map(|r| (r.rng, r.steps, r.diffs, r.iters, r.digest.clone())).collect();
    let result = RunResult {
        workload: w.name.into(),
        seed,
        traced: false,
        attempted,
        failed,
        errors,
        metrics,
        outputs,
    };
    work.finish(!result.correct());
    Ok(result)
}

/// The traced run (`--trace 1`): one set-up, one CLI repetition (for the
/// program's own account of its time), then `dx-probe trace`, which
/// replays the workload in-process under spans and walks the ladder.
///
/// # Errors
///
/// When the set-up, the repetition or the probe fails — no per-layer
/// result exists then.
pub fn traced(tools: &Tools, w: &Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let work = WorkDir::create(tools, w, seed, "trace")?;
    let dir = &work.0;
    let cache = dir.join("cache");
    let train_s = run::train(tools, w, &cache, dir, "train")?;
    let rep = run::run_rep(tools, w, seed, &cache, &dir.join("rep"))?;

    let mut cmd = Command::new(&tools.probe);
    cmd.args(["trace", w.name, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()]);
    cmd.args(["--train-s", &train_s.to_string()]);
    cmd.args(["--cli-wall-us", &(rep.wall_s * 1e6).round().to_string()]);
    cmd.args(["--cli-fuzz-us", &rep.fuzz_us.to_string()]);
    cmd.arg("--cli-digest").arg(&rep.digest);
    cmd.arg("--cache").arg(&cache).arg("--out").arg(dir).current_dir(dir);
    child::run_within(&mut cmd, dir, "probe", PROBE_LIMIT)?;

    let text =
        std::fs::read_to_string(dir.join("probe.json")).map_err(|e| format!("probe.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("probe.json: {e}"))?;
    let values = doc.get("metrics").ok_or("probe.json: no `metrics`")?;
    let counts = doc.get("n");
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let entry = values.get(m.name).ok_or(format!("probe.json: no `{}`", m.name))?;
            let n = counts.and_then(|c| c.get(m.name)).and_then(Json::as_u64).unwrap_or(0) as usize;
            Ok(Metric {
                name: m.name.into(),
                unit: m.unit.into(),
                value: entry.as_f64(),
                n,
                range: None,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let errors: Vec<String> = doc
        .get("errors")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_str).map(str::to_string).collect())
        .unwrap_or_default();

    let trace_dir = tools.out.join("trace");
    std::fs::create_dir_all(&trace_dir)
        .map_err(|e| format!("cannot create {}: {e}", trace_dir.display()))?;
    std::fs::copy(dir.join("trace.jsonl"), trace_dir.join(format!("{}.jsonl", w.name)))
        .map_err(|e| format!("cannot keep the trace: {e}"))?;

    let budget = w.budget_steps() as u64;
    let failed = if errors.is_empty() { 0 } else { budget };
    let outputs = vec![(rep.rng, rep.steps, rep.diffs, rep.iters, rep.digest.clone())];
    let result = RunResult {
        workload: w.name.into(),
        seed,
        traced: true,
        attempted: budget,
        failed,
        errors,
        metrics,
        outputs,
    };
    work.finish(!result.correct());
    Ok(result)
}
