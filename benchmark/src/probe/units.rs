//! Unit costs of the layers around the generator: `coverage` set
//! operations, `campaign` corpus and JSON work, and the `dist` codec —
//! each on the state and outcomes the `core` rung just produced.

use std::time::{Duration, Instant};

use dx_benchmark::stats;
use dx_benchmark::trace::Tracer;
use dx_campaign::{codec, json, Corpus};
use dx_coverage::mean_component_coverage;
use dx_dist::proto::{Job, JobResult, Msg};
use dx_dist::wire::{read_frame, write_frame};
use dx_nn::util::gather_rows;
use dx_tensor::{rng, Tensor};

use crate::ladder::CoreRung;
use crate::out::{median_us, sample_us, Out};
use crate::suite::Bench;

const MIN_CALLS: usize = 5;

/// `coverage`: neuron picks, union merges and the delta exchange, on the
/// signals as the generator left them (realistically saturated).
pub fn coverage(bench: &Bench, core: &CoreRung, slice: Duration, t: &mut Tracer, out: &mut Out) {
    let id = t.enter("coverage.ops");
    let covered = core.generator.signals();
    let k = bench.suite.hp.neurons_per_model.max(1);
    let mut r = rng::rng(7);
    let (mut pick, mut merge, mut delta, mut calls) = (0.0, 0.0, 0.0, 0);
    for signal in covered {
        let (us, n) = median_us(slice, MIN_CALLS, || {
            signal.pick_uncovered_k(&mut r, k);
        });
        pick += us;
        calls += n;
        // Merging a union into a view that already holds it costs the
        // same bit-ors as the first time, without re-cloning per call.
        let mut view = signal.clone();
        let (us, n) = median_us(slice, MIN_CALLS, || {
            view.merge(signal);
        });
        merge += us;
        calls += n;
        // The first delta a peer sends is its largest: everything it has
        // covered against an empty view (the clone is outside the clock).
        let mut reset = signal.clone();
        reset.reset();
        let samples: Vec<f64> = (0..MIN_CALLS * 4)
            .map(|_| {
                let mut view = reset.clone();
                let started = Instant::now();
                let news = signal.diff_indices(&view);
                view.apply_covered_indices(&news);
                started.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        delta += stats::median(&samples).unwrap_or(f64::NAN);
        calls += samples.len();
    }
    t.exit(id, &[("calls", calls as f64)]);
    let models = covered.len() as f64;
    out.set("coverage.pick.us", pick / models, calls);
    out.set("coverage.merge.us", merge / models, calls);
    out.set("coverage.delta.us", delta / models, calls);
}

/// `campaign`: scheduling and absorbing on a corpus of the rung's seeds,
/// and the JSON codec on that corpus' entries.
pub fn campaign(
    seeds: &Tensor,
    batch_per_epoch: usize,
    core: &CoreRung,
    slice: Duration,
    t: &mut Tracer,
    out: &mut Out,
) {
    let id = t.enter("campaign.ops");
    let n = seeds.shape()[0];
    let rows: Vec<Tensor> = (0..n).map(|i| gather_rows(seeds, &[i])).collect();
    let mut corpus = Corpus::new(rows, 4096);
    let mut r = rng::rng(11);
    let (schedule_us, schedule_n) = median_us(slice, MIN_CALLS, || {
        corpus.schedule(batch_per_epoch, &mut r);
    });
    let saturation = mean_component_coverage(core.generator.signals());
    let absorb_us: Vec<f64> = core
        .runs
        .iter()
        .enumerate()
        .map(|(i, run)| {
            let started = Instant::now();
            corpus.absorb(i, run, &saturation);
            started.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    // The checkpoint's dominant cost: every corpus entry to JSON text and
    // (on resume) back.
    let (mut bytes, mut encode_us, mut parse_us) = (0usize, 0.0, 0.0);
    for entry in corpus.entries() {
        let started = Instant::now();
        let line = codec::entry_json(entry).to_string();
        encode_us += started.elapsed().as_nanos() as f64 / 1e3;
        let started = Instant::now();
        let parsed = json::parse(&line);
        parse_us += started.elapsed().as_nanos() as f64 / 1e3;
        bytes += line.len();
        debug_assert!(parsed.is_ok());
    }
    t.exit(id, &[("entries", corpus.len() as f64), ("bytes", bytes as f64)]);
    out.set("campaign.schedule.us", schedule_us, schedule_n);
    out.set_median("campaign.absorb.us", &absorb_us);
    out.set("campaign.json.encode_mb_per_s", bytes as f64 / encode_us, corpus.len());
    out.set("campaign.json.parse_mb_per_s", bytes as f64 / parse_us, corpus.len());
}

/// Jobs per lease, the coordinator's and the worker's default.
const LEASE: usize = 4;

/// `dist`: `Msg::Lease` and `Msg::Results` carrying the workload's real
/// jobs and outcomes, through `to_json` + `write_frame` and back through
/// `read_frame` + `from_json`.
///
/// # Errors
///
/// When a frame this build wrote does not read back.
pub fn dist_codec(
    seeds: &Tensor,
    seed: u64,
    core: &CoreRung,
    slice: Duration,
    t: &mut Tracer,
    out: &mut Out,
) -> Result<(), String> {
    let id = t.enter("dist.codec");
    let models = core.generator.signals().len();
    let jobs: Vec<Job> =
        (0..LEASE).map(|i| Job { seed_id: i, input: gather_rows(seeds, &[i]) }).collect();
    let items: Vec<JobResult> = core
        .runs
        .iter()
        .take(LEASE)
        .enumerate()
        .map(|(i, run)| JobResult { seed_id: i, run: run.clone() })
        .collect();
    // Steady-state coverage news is a handful of indices per model.
    let cov = vec![vec![1, 2, 3]; models];
    let messages = [
        Msg::Lease {
            lease: 1,
            campaign: 0,
            campaign_seed: seed,
            rng_state: None,
            jobs,
            cov: cov.clone(),
        },
        Msg::Results {
            slot: 0,
            lease: 1,
            campaign: 0,
            items,
            cov,
            rng_state: [1, 2, 3, 4],
            telemetry: None,
        },
    ];
    let (mut encode, mut decode, mut bytes, mut calls) = (0.0, 0.0, 0usize, 0);
    for msg in &messages {
        let mut frame = Vec::new();
        let (us, n) = median_us(slice, MIN_CALLS, || {
            frame.clear();
            // Writing into a Vec cannot fail; a frame over the cap would.
            let _ = write_frame(&mut frame, &msg.to_json());
        });
        encode += us;
        calls += n;
        bytes += frame.len();
        let mut broken = None;
        let samples = sample_us(slice, MIN_CALLS, || {
            if let Err(e) = read_frame(&mut frame.as_slice()).and_then(|doc| Msg::from_json(&doc)) {
                broken = Some(e);
            }
        });
        if let Some(e) = broken {
            return Err(format!("a frame this build wrote does not decode: {e}"));
        }
        decode += stats::median(&samples).unwrap_or(f64::NAN);
        calls += samples.len();
    }
    t.exit(id, &[("bytes", bytes as f64)]);
    out.set("dist.encode.us_per_job", encode / LEASE as f64, calls);
    out.set("dist.decode.us_per_job", decode / LEASE as f64, calls);
    out.set("dist.bytes_per_seed", bytes as f64 / LEASE as f64, 2);
    Ok(())
}
