//! The in-process replay of the campaign workloads (`mnist_pool`,
//! `pdf_ms_pool`, `mnist_ckpt`): the same campaign the CLI ran, stepped
//! from outside so that `step`, `checkpoint` and `resume` are sibling
//! spans.

use std::path::Path;
use std::time::Instant;

use dx_benchmark::sha256::checkpoint_digest;
use dx_benchmark::trace::Tracer;
use dx_campaign::{Campaign, CampaignConfig};

use crate::out::Out;
use crate::suite::{self, Bench};

/// The campaign sizes of a workload (one leg).
#[derive(Clone, Copy)]
pub struct Sizes {
    /// `--seeds`.
    pub seeds: usize,
    /// `--epochs` per leg.
    pub epochs: usize,
    /// `--batch-per-epoch`.
    pub batch_per_epoch: usize,
    /// Resume legs after the first.
    pub resumes: usize,
}

/// Extra checkpoints of the final state, so the checkpoint tail (p90)
/// rests on a hundred samples rather than on the replay's handful.
const EXTRA_CHECKPOINTS: usize = 100;

/// What the CLI run of the same workload and seed reported.
pub struct CliFacts<'a> {
    /// Sum of the CLI epochs' own `elapsed_us`.
    pub fuzz_us: f64,
    /// SHA-256 of its final checkpoint's identity files.
    pub digest: &'a str,
}

fn config(sizes: Sizes, seed: u64) -> CampaignConfig {
    // The CLI's defaults for everything the workload does not set; the
    // checkpoint directory stays unset so `step` does not checkpoint by
    // itself — the replay calls `checkpoint` as its own span.
    CampaignConfig {
        workers: 1,
        epochs: sizes.epochs,
        batch_per_epoch: sizes.batch_per_epoch,
        seed,
        ..CampaignConfig::default()
    }
}

/// Sizes of the five checkpoint files.
fn file_sizes(dir: &Path) -> [u64; 5] {
    ["corpus.jsonl", "coverage.json", "meta.json", "stats.jsonl", "diffs.jsonl"]
        .map(|f| std::fs::metadata(dir.join(f)).map_or(0, |m| m.len()))
}

/// Bytes a checkpoint wrote: the three rewritten files in full, the two
/// append-only ones by their growth.
fn bytes_written(before: [u64; 5], after: [u64; 5]) -> u64 {
    after[..3].iter().sum::<u64>()
        + after[3..].iter().zip(&before[3..]).map(|(a, b)| a.saturating_sub(*b)).sum::<u64>()
}

/// Replays the workload's campaign under spans: `campaign.new`, then per
/// epoch `campaign.step` and `campaign.checkpoint` as siblings, with a
/// `campaign.resume` between legs.
///
/// # Errors
///
/// Checkpoint or resume I/O failures.
pub fn campaign(
    bench: &Bench,
    sizes: Sizes,
    seed: u64,
    dir: &Path,
    cli: &CliFacts,
    t: &mut Tracer,
    out: &mut Out,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("replay: {e}");
    let ckpt = dir.join("replay-ckpt");
    let seeds = suite::initial_seeds(&bench.ds, sizes.seeds, seed);
    let mut campaign = t.span("campaign.new", |_| {
        let campaign = Campaign::new(bench.suite.clone(), &seeds, config(sizes, seed));
        (campaign, vec![("seeds", sizes.seeds as f64)])
    });
    let mut ckpt_bytes = 0u64;
    for leg in 0..=sizes.resumes {
        if leg > 0 {
            campaign = t
                .span("campaign.resume", |_| {
                    let resumed =
                        Campaign::resume_from(bench.suite.clone(), &ckpt, config(sizes, seed));
                    (resumed, vec![("epochs_done", (leg * sizes.epochs) as f64)])
                })
                .map_err(io)?;
        }
        for _ in 0..sizes.epochs {
            t.span("campaign.step", |_| {
                let done = campaign.step();
                let last = campaign.report().epochs.last();
                let count =
                    |f: fn(&dx_campaign::EpochStats) -> usize| last.map_or(0.0, |e| f(e) as f64);
                let counts = vec![
                    ("seeds", count(|e| e.seeds_run)),
                    ("iterations", count(|e| e.iterations)),
                    ("diffs", count(|e| e.diffs_found)),
                ];
                (done, counts)
            })
            .map_err(io)?;
            let before = file_sizes(&ckpt);
            t.span("campaign.checkpoint", |_| {
                let done = campaign.checkpoint(&ckpt);
                let bytes = bytes_written(before, file_sizes(&ckpt));
                ckpt_bytes += bytes;
                (done, vec![("bytes", bytes as f64)])
            })
            .map_err(io)?;
        }
    }
    // The replay must be the computation the CLI ran, not a look-alike.
    let got = checkpoint_digest(&ckpt)?;
    if got != cli.digest {
        out.errors.push(format!(
            "the replay's checkpoint ({got}) differs from the CLI run's ({})",
            cli.digest
        ));
    }

    let step_us = t.durations_us("campaign.step");
    let ckpt_us = t.durations_us("campaign.checkpoint");
    let resume_us = t.durations_us("campaign.resume");
    let (step_sum, ckpt_sum): (f64, f64) = (step_us.iter().sum(), ckpt_us.iter().sum());
    let steps: f64 = t.named("campaign.step").filter_map(|s| s.count("seeds")).sum();
    out.set_median("campaign.step_ms.p50", &step_us.iter().map(|u| u / 1e3).collect::<Vec<_>>());
    out.set("campaign.checkpoint.mb_per_s", ckpt_bytes as f64 / ckpt_sum, ckpt_us.len());
    out.set(
        "campaign.checkpoint.bytes_per_kseed",
        1000.0 * ckpt_bytes as f64 / steps,
        ckpt_us.len(),
    );
    let replay_sum = step_sum + ckpt_sum + resume_us.iter().sum::<f64>();
    out.set("campaign.checkpoint.share", 100.0 * ckpt_sum / replay_sum, ckpt_us.len());
    out.set("campaign.closure_pct", 100.0 * step_sum / cli.fuzz_us, step_us.len());
    // Resume cost: the workload's own resumes, or one resume of the final
    // state where the workload has none.
    if resume_us.is_empty() {
        t.span("campaign.resume", |_| {
            let resumed = Campaign::resume_from(bench.suite.clone(), &ckpt, config(sizes, seed));
            (resumed.map(drop), vec![])
        })
        .map_err(io)?;
    }
    out.set_median(
        "campaign.resume.ms",
        &t.durations_us("campaign.resume").iter().map(|u| u / 1e3).collect::<Vec<_>>(),
    );

    let extra = dir.join("extra-ckpt");
    let mut extra_ms = Vec::with_capacity(EXTRA_CHECKPOINTS);
    t.span("campaign.checkpoint.extra", |_| {
        let mut result = Ok(());
        for _ in 0..EXTRA_CHECKPOINTS {
            let started = Instant::now();
            result = result.and(campaign.checkpoint(&extra));
            extra_ms.push(started.elapsed().as_nanos() as f64 / 1e6);
        }
        (result, vec![("checkpoints", EXTRA_CHECKPOINTS as f64)])
    })
    .map_err(io)?;
    // Median and tail over one sample set: the replay's own checkpoints
    // plus the extra ones of the final (largest) state.
    extra_ms.extend(ckpt_us.iter().map(|u| u / 1e3));
    out.set_median("campaign.checkpoint.ms.p50", &extra_ms);
    out.set_tail("campaign.checkpoint.ms.p90", &extra_ms, 90.0);
    Ok(())
}
