//! `dx-bench`: the end-to-end benchmark of deepxplore-rs.
//!
//! ```text
//! dx-bench --workload W --seed N --seconds S --trace 0|1
//!     One run of one workload (the BENCHMARK.json contract). Builds the
//!     CLI, sets up, measures for S seconds, checks the outputs, prints
//!     every metric by name and — as the last line of stdout — one JSON
//!     object {correct, attempted, failed, metrics}.
//! dx-bench [--seed N] [--seconds S] [--traced] [--out FILE]
//!     A full set: every workload three times, workloads interleaved
//!     across repetitions, plus the traced run with --traced; prints the
//!     summary and writes it to FILE (default
//!     benchmark/out/results-seed<N>.json).
//! dx-bench compare A.json B.json
//!     Diffs two result files against the bounds in BENCHMARK.json;
//!     exits non-zero on a breach.
//! ```
//!
//! This binary uses `std` and this package's own lib only: it drives the
//! system through the `deepxplore` CLI, as a user would. Everything that
//! calls into a repo crate lives in `dx-probe` (`src/probe/`).

#![forbid(unsafe_code)]

mod child;
mod compare;
mod drive;
mod report;
mod run;
mod sets;
mod toolchain;

use dx_benchmark::args::Args;
use dx_benchmark::spec;

/// `--seconds` when none is given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv, &["workload", "seed", "seconds", "trace", "out"], &["traced"])?;
    if args.words.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.words.as_slice() else {
            return Err("usage: dx-bench compare A.json B.json".into());
        };
        return compare::compare_files(a, b);
    }
    if let Some(extra) = args.words.first() {
        return Err(format!("unexpected argument `{extra}`; see the header of src/bench/main.rs"));
    }
    let seed: u64 = args.num("seed", 42)?;
    let seconds: f64 = args.num("seconds", DEFAULT_SECONDS)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("option --seconds must be positive".into());
    }
    match args.get("workload") {
        Some(name) => {
            let w = spec::workload(name).ok_or_else(|| {
                let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}`; known: {}", known.join(", "))
            })?;
            let trace = match args.get("trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => {
                    return Err(format!("option --trace: expected 0 or 1, got `{other}`"))
                }
            };
            let tools = toolchain::prepare()?;
            let result = if trace {
                drive::traced(&tools, w, seed, seconds)?
            } else {
                drive::end_to_end(&tools, w, seed, seconds)?
            };
            result.print_table();
            sets::store_run(&tools, &result)?;
            println!("{}", result.contract_line());
            Ok(true)
        }
        None => {
            let tools = toolchain::prepare()?;
            sets::full_set(&tools, seed, seconds, args.get("traced").is_some(), args.get("out"))
        }
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            // No result line: the driver must not take a broken run for
            // a measurement.
            eprintln!("dx-bench: {e}");
            std::process::exit(2);
        }
    }
}
