//! Full sets: every workload several times, summarised into one file.

use std::path::{Path, PathBuf};

use dx_benchmark::json::Json;
use dx_benchmark::spec::{E2E, WORKLOADS};
use dx_benchmark::{procfs, stats};

use crate::drive;
use crate::report::RunResult;
use crate::toolchain::{self, Tools};

/// Runs of every workload in a full set: three, so each metric's median
/// has a run on either side of it.
const SETS: usize = 3;

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Keeps one run's full result under `benchmark/out/runs/`.
///
/// # Errors
///
/// When the file cannot be written.
pub fn store_run(tools: &Tools, run: &RunResult) -> Result<(), String> {
    let name = format!("{}-seed{}-trace{}.json", run.workload, run.seed, u8::from(run.traced));
    write(&tools.out.join("runs").join(name), &run.to_json())
}

/// The facts about the host and the set that every result file records.
fn host_facts(tools: &Tools, seed: u64, seconds: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("load_average_at_start", Json::opt(procfs::load_average())),
        ("commit", toolchain::commit(&tools.root).map_or(Json::Null, |c| Json::str(&c))),
        ("seed", Json::str(&seed.to_string())),
        ("seconds", Json::num(seconds)),
        ("sets", Json::Num(SETS as f64)),
    ])
}

fn summary(unit: &str, samples: &[f64]) -> Json {
    let (min, max) = stats::min_max(samples).unzip();
    Json::obj(vec![
        ("unit", Json::str(unit)),
        ("n", Json::Num(samples.len() as f64)),
        ("median", Json::opt(stats::median(samples))),
        ("min", Json::opt(min)),
        ("max", Json::opt(max)),
        ("samples", Json::Arr(samples.iter().map(|v| Json::num(*v)).collect())),
    ])
}

/// Runs every workload [`SETS`] times — workloads interleaved across the
/// repetitions, so slow drift of the host lands on all of them alike —
/// then (with `traced`) each workload's traced run, prints the summary
/// and writes it to `out`.
///
/// Returns whether every run's outputs were correct.
///
/// # Errors
///
/// When a run could not measure anything or the file cannot be written.
pub fn full_set(
    tools: &Tools,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<&str>,
) -> Result<bool, String> {
    let host = host_facts(tools, seed, seconds);
    let mut runs: Vec<Vec<RunResult>> = vec![Vec::new(); WORKLOADS.len()];
    for set in 0..SETS {
        for (w, slot) in WORKLOADS.iter().zip(runs.iter_mut()) {
            eprintln!("dx-bench: set {}/{SETS}: {}", set + 1, w.name);
            let run = drive::end_to_end(tools, w, seed, seconds)?;
            store_run(tools, &run)?;
            slot.push(run);
        }
    }
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (w, runs) in WORKLOADS.iter().zip(&runs) {
        println!("workload {} (seed {seed}, {SETS} sets of {seconds} s)", w.name);
        println!(
            "  {:<18} {:<13} {:>3} {:>14} {:>14} {:>14}",
            "metric", "unit", "n", "median", "min", "max"
        );
        let mut e2e = Vec::new();
        for m in &E2E {
            let samples: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|x| x.name == m.name)?.value)
                .collect();
            let (min, max) = stats::min_max(&samples).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "  {:<18} {:<13} {:>3} {:>14.4} {:>14.4} {:>14.4}",
                m.name,
                m.unit,
                samples.len(),
                stats::median(&samples).unwrap_or(f64::NAN),
                min,
                max
            );
            e2e.push((m.name, summary(m.unit, &samples)));
        }
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        // Same commit, same seed, same `--seconds`: every set must cover
        // the same sub-seeds and land on the same bytes.
        let identical = runs.windows(2).all(|p| p[0].outputs == p[1].outputs);
        let correct = runs.iter().all(RunResult::correct) && identical;
        all_correct &= correct;
        println!(
            "  operations: {attempted} attempted, {failed} failed; outputs {} across sets",
            if identical { "identical" } else { "DIFFER" }
        );
        for e in runs.iter().flat_map(|r| &r.errors) {
            println!("  failed check: {e}");
        }
        let mut fields = vec![
            ("e2e", Json::obj(e2e)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("correct", Json::Bool(correct)),
            ("outputs", runs[0].outputs_json()),
        ];
        if traced {
            eprintln!("dx-bench: traced run: {}", w.name);
            let run = drive::traced(tools, w, seed, seconds)?;
            store_run(tools, &run)?;
            run.print_table();
            all_correct &= run.correct();
            let values =
                run.metrics.iter().map(|m| (m.name.as_str(), Json::opt(m.value))).collect();
            fields.push(("per_layer", Json::obj(values)));
        }
        workloads.push((w.name, Json::obj(fields)));
    }
    let doc = Json::obj(vec![("host", host), ("workloads", Json::obj(workloads))]);
    let path =
        out.map_or_else(|| tools.out.join(format!("results-seed{seed}.json")), PathBuf::from);
    write(&path, &doc)?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}
