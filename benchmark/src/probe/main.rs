//! `dx-probe`: the traced run of the `dx-bench` benchmark.
//!
//! ```text
//! dx-probe trace <workload> --seed N --seconds S --cache DIR --out DIR
//!          --train-s X --cli-wall-us N --cli-fuzz-us N --cli-digest HEX
//!     Replays the workload in-process under spans, walks the ladder
//!     (core -> nn/coverage -> layer kinds -> kernels), and writes
//!     DIR/probe.json (every per-layer metric) and DIR/trace.jsonl. The
//!     last four are what dx-bench saw of the cold train and of the CLI
//!     run of the same workload and seed.
//! dx-probe verify --dataset D --cache DIR <checkpoint>...
//!     Re-executes the diffs recorded in each checkpoint's diffs.jsonl;
//!     prints {"checked":N,"failed":M}.
//! ```
//!
//! Every call the benchmark makes into a repo crate is in this
//! directory; `README.md` lists the functions it relies on.

#![forbid(unsafe_code)]

mod fleet;
mod ladder;
mod out;
mod replay;
mod suite;
mod trace_cmd;
mod units;
mod verify;

use std::path::PathBuf;

use dx_benchmark::args::Args;

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let valued = [
        "dataset",
        "cache",
        "seed",
        "seconds",
        "out",
        "train-s",
        "cli-wall-us",
        "cli-fuzz-us",
        "cli-digest",
    ];
    let args = Args::parse(&argv, &valued, &[])?;
    let cache = || args.required("cache").map(PathBuf::from);
    match args.words.split_first() {
        // The bare words after `verify` are the checkpoint directories.
        Some((cmd, checkpoints)) if cmd == "verify" => {
            verify::verify(args.required("dataset")?, &cache()?, checkpoints)
        }
        Some((cmd, [workload])) if cmd == "trace" => trace_cmd::trace(&trace_cmd::Args {
            workload: workload.clone(),
            seed: args.parsed("seed")?,
            seconds: args.parsed("seconds")?,
            cache: cache()?,
            out: PathBuf::from(args.required("out")?),
            train_s: args.parsed("train-s")?,
            cli_wall_us: args.parsed("cli-wall-us")?,
            cli_fuzz_us: args.parsed("cli-fuzz-us")?,
            cli_digest: args.required("cli-digest")?.to_string(),
        }),
        _ => Err(
            "usage: dx-probe trace <workload> ... | dx-probe verify ... (see src/probe/main.rs)"
                .into(),
        ),
    }
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("dx-probe: {e}");
        std::process::exit(2);
    }
}
