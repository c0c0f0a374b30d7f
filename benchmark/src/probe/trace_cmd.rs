//! `dx-probe trace`: the traced run of one workload.

use std::path::{Path, PathBuf};
use std::time::Duration;

use dx_benchmark::spec::{self, Kind};
use dx_benchmark::trace::Tracer;

use crate::out::Out;
use crate::replay::{self, CliFacts, Sizes};
use crate::{fleet, ladder, suite, units};

/// Seeds the `core` rung pushes through at the benchmark's nominal
/// `--seconds` (12): two hundred, so the p95 of the per-seed time has
/// its ten samples beyond it.
const CORE_SEEDS_AT_12S: f64 = 200.0;

/// The service's statistics round (`serve --batch`, default 16): the
/// closest thing a tenant has to an epoch's scheduling batch.
const SERVICE_ROUND_STEPS: usize = 16;

/// What `dx-bench` tells the probe about its own runs.
pub struct Args {
    /// The workload's name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: scales every rung's sample budget.
    pub seconds: f64,
    /// The trained-weight cache.
    pub cache: PathBuf,
    /// Where `probe.json` and `trace.jsonl` go.
    pub out: PathBuf,
    /// Wall time of the cold `train`, seconds.
    pub train_s: f64,
    /// Wall time of the CLI run of this workload and seed, microseconds.
    pub cli_wall_us: f64,
    /// The CLI run's own account of its fuzz time, microseconds.
    pub cli_fuzz_us: f64,
    /// SHA-256 of the CLI run's final checkpoint.
    pub cli_digest: String,
}

fn span_ms(t: &Tracer, name: &str) -> Option<f64> {
    t.named(name).next().map(|s| s.duration_ns() as f64 / 1e6)
}

/// Runs the traced replay and the ladder, then writes the results.
///
/// # Errors
///
/// An unknown workload, a replay failure, or an unwritable output.
pub fn trace(args: &Args) -> Result<(), String> {
    let w =
        spec::workload(&args.workload).ok_or(format!("unknown workload `{}`", args.workload))?;
    let mut t = Tracer::new(w.name);
    let mut out = Out::new();
    let slice = Duration::from_secs_f64(args.seconds / 96.0);
    let root = t.enter("workload");

    let bench = suite::build(w.dataset, w.metric, &args.cache, &mut t)?;
    if let Some(ms) = span_ms(&t, "models.load") {
        out.set("models.load_ms", ms, 1);
    }
    if let Some(ms) = span_ms(&t, "datasets.synth") {
        out.set("datasets.synth_ms", ms, 1);
    }
    if let Some(ms) = span_ms(&t, "coverage.prime") {
        out.set("coverage.prime.ms", ms, 1);
    }
    out.set("models.train_s", args.train_s, 1);

    let replay = |sizes: Sizes, t: &mut Tracer, out: &mut Out| {
        let cli = CliFacts { fuzz_us: args.cli_fuzz_us, digest: &args.cli_digest };
        replay::campaign(&bench, sizes, args.seed, &args.out, &cli, t, out)
    };
    // The scheduling batch the `campaign` unit costs are taken at.
    let batch_per_epoch = match w.kind {
        Kind::Pool { seeds, epochs, batch_per_epoch } => {
            replay(Sizes { seeds, epochs, batch_per_epoch, resumes: 0 }, &mut t, &mut out)?;
            batch_per_epoch
        }
        Kind::Ckpt { seeds, epochs, batch_per_epoch, resumes } => {
            replay(Sizes { seeds, epochs, batch_per_epoch, resumes }, &mut t, &mut out)?;
            batch_per_epoch
        }
        Kind::Dist1 { seeds, steps, batch } => {
            let fuzz_us = args.cli_fuzz_us;
            fleet::dist1(
                &bench, seeds, steps, batch, args.seed, &args.out, fuzz_us, &mut t, &mut out,
            )?;
            batch
        }
        Kind::Svc2t { pool, tenant_seeds, tenant_steps } => {
            fleet::svc2t(
                &bench,
                pool,
                tenant_seeds,
                tenant_steps,
                args.seed,
                &args.out,
                &mut t,
                &mut out,
            )?;
            SERVICE_ROUND_STEPS
        }
    };
    // One process, one report of its own time: start-up is the rest. (A
    // service run's tenants overlap, so their times do not add up to it.)
    if !matches!(w.kind, Kind::Svc2t { .. }) {
        out.set("cli.startup_ms", (args.cli_wall_us - args.cli_fuzz_us) / 1e3, 1);
    }

    let n =
        (CORE_SEEDS_AT_12S * args.seconds / 12.0).round().clamp(16.0, bench.ds.test_len() as f64);
    let seeds = suite::initial_seeds(&bench.ds, n as usize, args.seed);
    let core = ladder::core(&bench, &seeds, args.seed, &mut t, &mut out);
    ladder::passes(&bench, &seeds, &core, slice, &mut t, &mut out);
    ladder::layers_and_kernels(&bench, &seeds, slice, &mut t, &mut out);
    units::coverage(&bench, &core, slice, &mut t, &mut out);
    units::campaign(&seeds, batch_per_epoch, &core, slice, &mut t, &mut out);
    if !w.in_process() {
        units::dist_codec(&seeds, args.seed, &core, slice, &mut t, &mut out)?;
    }

    t.exit(root, &[]);
    // What the spans themselves cost: their number times the measured
    // price of one, over the time they were recorded in. (Two arms of the
    // same campaign, one without spans, differ by host noise a hundred
    // times larger than a few dozen spans.)
    let mut scratch = Tracer::new("span-cost");
    let one_span_us = crate::out::median_us(slice, 1000, || {
        let id = scratch.enter("campaign.step");
        scratch.exit(id, &[("seeds", 1.0), ("iterations", 1.0), ("diffs", 1.0)]);
    })
    .0;
    let traced_us = t.spans()[root].duration_ns() as f64 / 1e3;
    let spans = t.spans().len();
    out.set("probe.trace_overhead_pct", 100.0 * spans as f64 * one_span_us / traced_us, spans);
    write_outputs(&t, &out, &args.out)
}

fn write_outputs(t: &Tracer, out: &Out, dir: &Path) -> Result<(), String> {
    t.write_jsonl(&dir.join("trace.jsonl")).map_err(|e| format!("cannot write the trace: {e}"))?;
    out.write(&dir.join("probe.json"))
}
