//! JSONL campaign persistence.
//!
//! A checkpoint directory holds five files, updated after every epoch:
//!
//! | file | contents | update |
//! |---|---|---|
//! | `corpus.jsonl` | one corpus entry per line, inputs inline | atomic rewrite |
//! | `stats.jsonl` | one epoch's statistics per line | append |
//! | `diffs.jsonl` | one found difference per line, inputs inline | append |
//! | `coverage.json` | metric spec (composite-capable, v3), per-model covered-unit bitmaps in the combined flat space, and (profile-based metrics) neuron profiles | atomic rewrite |
//! | `meta.json` | epochs done, campaign seed, workers, worker RNG states | atomic rewrite |
//!
//! (A `dx-dist` daemon adds `dist.json` and `events.jsonl` per campaign
//! and `fleet.json` at its root; this module ignores them, so a dist
//! checkpoint resumes fine as a plain in-process campaign.)
//!
//! Stats and diffs are append-only between epochs, so only new lines are
//! written (a line-count mismatch falls back to a full rewrite); the
//! mutable files are written tmp-then-rename. Floats round-trip exactly
//! (shortest-representation `Display`), so a resumed corpus is
//! bit-identical to the checkpointed one. Value encodings live in
//! [`crate::codec`], shared with the wire protocol.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use crate::codec::{
    diff_from_json, diff_json, entry_from_json, entry_json, epoch_from_json, epoch_json,
    ranges_from_json, ranges_json, rng_state_from_json, rng_state_json, u64_json,
};
use crate::corpus::CorpusEntry;
use crate::engine::{FoundDiff, ModelSuite};
use crate::json::{build, invalid, parse_doc, Json};
use crate::ledger::Snapshot;
use crate::report::EpochStats;
use dx_coverage::{CoverageSignal, MetricKind, MetricSpec, NeuronProfile};

/// The coverage-signal identity persisted alongside the bitmaps: which
/// metric spec (possibly composite) the hit-sets were recorded under,
/// and — for profile-based metrics — the per-model neuron profiles the
/// sections/corners were cut from. Without the profiles a resumed
/// campaign would have to re-prime from training data, which need not
/// reproduce the checkpointed ranges.
#[derive(Clone, Debug, PartialEq)]
pub struct SignalCheckpoint {
    /// The coverage metric spec the campaign steered by.
    pub metric: MetricSpec,
    /// Per-model `(low, high)` profile ranges; empty for the pure neuron
    /// metric. One entry per model — composite components share a profile.
    pub ranges: Vec<(Vec<f32>, Vec<f32>)>,
}

impl SignalCheckpoint {
    /// The neuron-metric checkpoint (no profiles to persist).
    pub fn neuron() -> Self {
        Self { metric: MetricKind::Neuron.into(), ranges: Vec::new() }
    }

    /// Derives the checkpoint from live per-model signals.
    pub fn of(signals: &[CoverageSignal]) -> Self {
        let metric = signals.first().map(CoverageSignal::metric).unwrap_or_default();
        let ranges = signals
            .iter()
            .filter_map(CoverageSignal::profile)
            .map(|p| {
                let (low, high) = p.ranges();
                (low.to_vec(), high.to_vec())
            })
            .collect();
        Self { metric, ranges }
    }

    /// Swaps the suite's profiles for the checkpointed ones (profile-based
    /// metrics only; a no-op when no profiles were persisted).
    ///
    /// # Errors
    ///
    /// `InvalidData` when the persisted ranges do not fit the suite's
    /// models.
    pub fn restore_profiles(&self, mut suite: ModelSuite) -> io::Result<ModelSuite> {
        if self.ranges.is_empty() {
            return Ok(suite);
        }
        if self.ranges.len() != suite.models.len() {
            return Err(invalid("checkpointed profile count does not match the model count"));
        }
        suite.signal.profiles = suite
            .models
            .iter()
            .zip(&self.ranges)
            .map(|(m, (low, high))| {
                NeuronProfile::restore(
                    m,
                    suite.signal.config.granularity,
                    low.clone(),
                    high.clone(),
                )
                .map_err(invalid)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(suite)
    }
}

/// Everything a checkpoint directory holds, parsed.
pub struct CampaignState {
    /// Corpus entries in checkpoint order.
    pub corpus: Vec<CorpusEntry>,
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Found differences.
    pub diffs: Vec<FoundDiff>,
    /// Per-model global covered-unit bitmaps (`None` in checkpoints
    /// written before coverage persistence existed).
    pub coverage: Option<Vec<Vec<bool>>>,
    /// Metric identity and multisection profiles (neuron metric with no
    /// profiles for checkpoints written before metrics were persisted).
    pub signal: SignalCheckpoint,
    /// Epochs completed.
    pub epochs_done: usize,
    /// The campaign's master seed.
    pub campaign_seed: u64,
    /// Per-worker generator RNG states (empty in older checkpoints).
    pub worker_rng: Vec<[u64; 4]>,
}

/// Writes `snapshot` as a full campaign checkpoint into `dir`, appending
/// to stats and diffs when `append` (the directory holds this campaign's
/// own earlier write) and rewriting them otherwise.
///
/// # Errors
///
/// Any filesystem failure.
pub fn save(dir: &Path, snapshot: &Snapshot, append: bool) -> io::Result<()> {
    dx_telemetry::sync::blocking("checkpoint::save");
    let Snapshot { corpus, report, diffs, masks, signal, campaign_seed, worker_rng, .. } = snapshot;
    fs::create_dir_all(dir)?;
    write_atomic(&dir.join("corpus.jsonl"), &jsonl(corpus.entries().iter().map(entry_json)))?;
    let stats_lines: Vec<Json> = report.epochs.iter().map(epoch_json).collect();
    let diff_lines: Vec<Json> = diffs.iter().map(diff_json).collect();
    if append {
        append_jsonl(&dir.join("stats.jsonl"), &stats_lines)?;
        append_jsonl(&dir.join("diffs.jsonl"), &diff_lines)?;
    } else {
        // First write into this directory this run: any existing lines may
        // belong to an unrelated earlier campaign, so rewrite from scratch.
        write_atomic(&dir.join("stats.jsonl"), &jsonl(&stats_lines))?;
        write_atomic(&dir.join("diffs.jsonl"), &jsonl(&diff_lines))?;
    }
    let masks = Json::Arr(
        masks
            .iter()
            .map(|m| Json::Str(m.iter().map(|&c| if c { '1' } else { '0' }).collect()))
            .collect(),
    );
    let mut coverage_fields = vec![
        // v3: the metric field may be a composite spec (`a+b`), and masks
        // then cover the combined component-major unit space.
        ("version", build::int(3)),
        ("metric", build::str(&signal.metric.to_string())),
        ("masks", masks),
    ];
    if !signal.ranges.is_empty() {
        coverage_fields.push((
            "profiles",
            Json::Arr(
                signal
                    .ranges
                    .iter()
                    .map(|(low, high)| {
                        build::obj(vec![("low", ranges_json(low)), ("high", ranges_json(high))])
                    })
                    .collect(),
            ),
        ));
    }
    let coverage_json = build::obj(coverage_fields);
    write_atomic(&dir.join("coverage.json"), &(coverage_json.to_string() + "\n"))?;
    let mut meta_fields = vec![
        ("version", build::int(2)),
        ("epochs_done", build::int(report.epochs.len())),
        // As a string: JSON numbers go through f64, which cannot represent
        // u64 seeds above 2^53 exactly.
        ("campaign_seed", u64_json(*campaign_seed)),
        ("workers", build::int(report.workers)),
    ];
    if !worker_rng.is_empty() {
        meta_fields
            .push(("worker_rng", Json::Arr(worker_rng.iter().map(rng_state_json).collect())));
    }
    let meta_json = build::obj(meta_fields);
    write_atomic(&dir.join("meta.json"), &(meta_json.to_string() + "\n"))
}

/// Writes only the lines past what's already on disk. Stats and diffs are
/// append-only across a campaign, so this keeps per-epoch checkpoint cost
/// proportional to the epoch's new results, not the accumulated history.
/// Only sound when the caller knows the on-disk prefix is its own earlier
/// write ([`save`] with `append = false` establishes that); on a count
/// mismatch (more lines on disk than in memory) the file is rewritten.
fn append_jsonl(path: &Path, items: &[Json]) -> io::Result<()> {
    let existing = match fs::read_to_string(path) {
        Ok(text) => text.lines().filter(|l| !l.trim().is_empty()).count(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
        Err(e) => return Err(e),
    };
    if existing > items.len() {
        return write_atomic(path, &jsonl(items));
    }
    if existing == items.len() {
        return Ok(());
    }
    let mut f = fs::OpenOptions::new().create(true).append(true).open(path)?;
    let tail = jsonl(&items[existing..]);
    f.write_all(tail.as_bytes())?;
    f.sync_all()
}

/// One JSON document per line.
fn jsonl(lines: impl IntoIterator<Item = impl std::fmt::Display>) -> String {
    let mut out = String::new();
    for line in lines {
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

/// Loads a checkpoint directory written by [`save`].
///
/// # Errors
///
/// Missing files or malformed JSON.
pub fn load(dir: &Path) -> io::Result<CampaignState> {
    let meta = parse_doc(&fs::read_to_string(dir.join("meta.json"))?)?;
    let corpus = read_jsonl(&dir.join("corpus.jsonl"), entry_from_json)?;
    let epochs = read_jsonl(&dir.join("stats.jsonl"), epoch_from_json)?;
    let diffs = read_jsonl(&dir.join("diffs.jsonl"), diff_from_json)?;
    let (coverage, signal) = match fs::read_to_string(dir.join("coverage.json")) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => (None, SignalCheckpoint::neuron()),
        Err(e) => return Err(e),
        Ok(text) => {
            let doc = parse_doc(&text)?;
            let masks: Vec<String> = doc.field("masks")?;
            let masks = masks.iter().map(|m| m.chars().map(|c| c == '1').collect()).collect();
            // v1 checkpoints carry no metric field: they are neuron-metric.
            // Unknown or malformed specs are a clear error, not a panic —
            // a checkpoint from a newer build (or a corrupted one) should
            // say what it found.
            let metric = match doc.opt_field::<String>("metric")? {
                None => MetricKind::Neuron.into(),
                Some(m) => m.parse().map_err(|e| invalid(format!("coverage.metric: {e}")))?,
            };
            let ranges = doc.opt_list_with("profiles", |p| {
                Ok((
                    p.field_with("low", ranges_from_json)?,
                    p.field_with("high", ranges_from_json)?,
                ))
            })?;
            (Some(masks), SignalCheckpoint { metric, ranges })
        }
    };
    let worker_rng: Vec<_> = meta.opt_list_with("worker_rng", rng_state_from_json)?;
    // `workers` records the fleet width the checkpoint was written with.
    // When per-worker RNG streams are present the two must agree, or the
    // streams would be replayed against the wrong worker lanes.
    if let Some(w) = meta.opt_field::<usize>("workers")? {
        if !worker_rng.is_empty() && w != worker_rng.len() {
            return Err(invalid(format!(
                "meta.workers is {w} but worker_rng has {} entries",
                worker_rng.len()
            )));
        }
    }
    Ok(CampaignState {
        corpus,
        epochs,
        diffs,
        coverage,
        signal,
        epochs_done: meta.field("epochs_done")?,
        campaign_seed: meta.field("campaign_seed")?,
        worker_rng,
    })
}

/// Writes a file tmp-then-rename with an fsync, so concurrent readers (and
/// crashes) never observe a partial document. Shared with `dx-dist`'s
/// lease-state file.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    dx_telemetry::sync::blocking("checkpoint::write_atomic");
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Every non-blank line of a JSONL file, decoded by `read`.
fn read_jsonl<T>(path: &Path, read: impl Fn(&Json) -> io::Result<T>) -> io::Result<Vec<T>> {
    let text = fs::read_to_string(path)?;
    text.lines().filter(|l| !l.trim().is_empty()).map(|l| read(&parse_doc(l)?)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::report::CampaignReport;
    use deepxplore::diff::Prediction;
    use dx_telemetry::sync::{Rank, Ranked};
    use dx_tensor::rng;
    use std::sync::Arc;
    use std::time::Duration;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dx_campaign_ckpt_{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_masks() -> Vec<Vec<bool>> {
        vec![vec![true, false, true, true], vec![false, false, true, false]]
    }

    fn sample_state() -> Snapshot {
        let seeds = (0..3).map(|i| rng::uniform(&mut rng::rng(i), &[1, 6], 0.0, 1.0)).collect();
        let mut corpus = Corpus::new(seeds, 64);
        let run = deepxplore::SeedRun {
            test: None,
            preexisting: false,
            iterations: 4,
            newly_covered: 2,
            newly_by_component: vec![2],
            corpus_candidate: Some(rng::uniform(&mut rng::rng(9), &[1, 6], 0.0, 1.0)),
        };
        corpus.absorb(1, &run, &[]);
        let report = CampaignReport {
            epochs: vec![EpochStats {
                epoch: 0,
                seeds_run: 3,
                diffs_found: 1,
                iterations: 12,
                newly_covered: 5,
                mean_coverage: 0.375,
                component_coverage: vec![0.375],
                corpus_len: 4,
                elapsed: Duration::from_micros(123_456),
            }],
            workers: 2,
        };
        let diffs = vec![FoundDiff {
            seed_id: 1,
            epoch: 0,
            input: rng::uniform(&mut rng::rng(11), &[1, 6], 0.0, 1.0),
            predictions: vec![Prediction::Class(0), Prediction::Class(2)],
            iterations: 7,
            target_model: 1,
        }];
        Snapshot {
            seq: 1,
            corpus: Arc::new(corpus),
            report,
            diffs: Arc::new(diffs),
            masks: sample_masks(),
            signal: SignalCheckpoint::neuron(),
            campaign_seed: 0xfeed,
            worker_rng: vec![[1, 2, 3, u64::MAX], [5, 6, 7, 8]],
            pending: Vec::new(),
        }
    }

    /// The snapshot a loaded checkpoint describes, to write it again.
    fn snapshot_of(state: CampaignState) -> Snapshot {
        assert_eq!(state.epochs_done, state.epochs.len());
        Snapshot {
            seq: 1,
            corpus: Arc::new(Corpus::from_entries(state.corpus, 64)),
            report: CampaignReport { epochs: state.epochs, workers: state.worker_rng.len() },
            diffs: Arc::new(state.diffs),
            masks: state.coverage.unwrap_or_default(),
            signal: state.signal,
            campaign_seed: state.campaign_seed,
            worker_rng: state.worker_rng,
            pending: Vec::new(),
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmp_dir("round_trip");
        // Every meta.json and coverage.json field non-default: a key the
        // loader drops or defaults changes the second write.
        let signal = SignalCheckpoint {
            metric: "multisection:4+boundary".parse().unwrap(),
            ranges: vec![(vec![0.25, -1.5], vec![0.75, 2.0]), (vec![0.0, 0.5], vec![1.0, 3.5])],
        };
        let snap = Snapshot { signal: signal.clone(), ..sample_state() };
        save(&dir, &snap, false).unwrap();
        let state = load(&dir).unwrap();
        assert_eq!(state.coverage, Some(sample_masks()));
        assert_eq!(state.signal, signal);
        assert_eq!(state.epochs_done, 1);
        assert_eq!(state.campaign_seed, 0xfeed);
        assert_eq!(state.worker_rng, snap.worker_rng);
        assert_eq!(state.corpus.len(), snap.corpus.len());
        for (a, b) in state.corpus.iter().zip(snap.corpus.entries()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.input, b.input, "input of entry {} changed", a.id);
            assert_eq!(a.energy.to_bits(), b.energy.to_bits());
            assert_eq!(a.exhausted, b.exhausted);
        }
        assert_eq!(state.epochs.len(), 1);
        assert_eq!(state.epochs[0].elapsed, Duration::from_micros(123_456));
        assert_eq!(state.diffs.len(), 1);
        assert_eq!(state.diffs[0].predictions, snap.diffs[0].predictions);
        assert_eq!(state.diffs[0].input, snap.diffs[0].input);
        // write → load → write: the second checkpoint is byte-equal.
        let again = tmp_dir("round_trip_again");
        save(&again, &snapshot_of(state), false).unwrap();
        for file in ["meta.json", "coverage.json", "corpus.jsonl", "stats.jsonl", "diffs.jsonl"] {
            let read = |d: &Path| fs::read_to_string(d.join(file)).unwrap();
            assert_eq!(read(&dir), read(&again), "{file} does not round-trip");
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&again);
    }

    #[test]
    fn meta_and_coverage_decoders_survive_mutation() {
        let (dir, out) = (tmp_dir("fuzz"), tmp_dir("fuzz_out"));
        let signal = SignalCheckpoint {
            metric: "multisection:4+boundary".parse().unwrap(),
            ranges: vec![(vec![0.25, f32::INFINITY], vec![0.75, f32::NEG_INFINITY])],
        };
        save(&dir, &Snapshot { signal, ..sample_state() }, false).unwrap();
        for file in ["meta.json", "coverage.json"] {
            let seed = fs::read_to_string(dir.join(file)).unwrap();
            dx_integration::fuzz::check_decoder(std::slice::from_ref(&seed), 1024, |text| {
                fs::write(dir.join(file), text)?;
                let state = load(&dir)?;
                let snapshot = Snapshot {
                    report: CampaignReport {
                        epochs: state.epochs,
                        workers: state.worker_rng.len(),
                    },
                    masks: state.coverage.unwrap_or_default(),
                    signal: state.signal,
                    campaign_seed: state.campaign_seed,
                    worker_rng: state.worker_rng,
                    ..sample_state()
                };
                save(&out, &snapshot, false)?;
                fs::read_to_string(out.join(file))
            });
            fs::write(dir.join(file), seed).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&out);
    }

    #[test]
    fn save_is_rerunnable_and_appends_only_new_lines() {
        let dir = tmp_dir("rerun");
        let mut snap = sample_state();
        save(&dir, &snap, false).unwrap();
        // Same state again: stats/diffs must not duplicate.
        save(&dir, &snap, true).unwrap();
        let state = load(&dir).unwrap();
        assert_eq!(state.epochs.len(), 1);
        assert_eq!(state.diffs.len(), 1);
        // One more epoch and diff: exactly one new line each.
        snap.report.epochs.push(EpochStats { epoch: 1, ..snap.report.epochs[0].clone() });
        let diff = snap.diffs[0].clone();
        Arc::make_mut(&mut snap.diffs).push(diff);
        save(&dir, &snap, true).unwrap();
        let state = load(&dir).unwrap();
        assert_eq!(state.epochs.len(), 2);
        assert_eq!(state.diffs.len(), 2);
        assert_eq!(state.epochs[1].epoch, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_rewrites_when_disk_has_more_lines() {
        let dir = tmp_dir("foreign");
        let snap = sample_state();
        fs::create_dir_all(&dir).unwrap();
        // A foreign stats file with more lines than the campaign knows.
        fs::write(dir.join("stats.jsonl"), "{}\n{}\n{}\n{}\n{}\n").unwrap();
        save(&dir, &snap, false).unwrap();
        let state = load(&dir).unwrap();
        assert_eq!(state.epochs.len(), snap.report.epochs.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn signal_checkpoint_round_trips_profiles() {
        let dir = tmp_dir("signal");
        let signal = SignalCheckpoint {
            metric: MetricKind::Multisection { k: 4 }.into(),
            ranges: vec![
                // Includes the ±infinity an unprofiled neuron carries.
                (vec![0.25, f32::INFINITY], vec![0.75, f32::NEG_INFINITY]),
                (vec![-1.5, 0.0], vec![1.5, 2.0]),
            ],
        };
        save(&dir, &Snapshot { signal: signal.clone(), ..sample_state() }, false).unwrap();
        let state = load(&dir).unwrap();
        assert_eq!(state.signal.metric, MetricKind::Multisection { k: 4 }.into());
        assert_eq!(state.signal.ranges.len(), 2);
        for ((lo, hi), (slo, shi)) in signal.ranges.iter().zip(&state.signal.ranges) {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(lo), bits(slo));
            assert_eq!(bits(hi), bits(shi));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn composite_metric_round_trips_and_malformed_metric_is_a_clear_error() {
        let dir = tmp_dir("composite_metric");
        let signal = SignalCheckpoint {
            metric: "multisection:4+boundary".parse().unwrap(),
            ranges: vec![(vec![0.0, 1.0], vec![1.0, 2.0]), (vec![0.5, 0.0], vec![1.5, 1.0])],
        };
        save(&dir, &Snapshot { signal: signal.clone(), ..sample_state() }, false).unwrap();
        let state = load(&dir).unwrap();
        assert_eq!(state.signal.metric, signal.metric);
        assert_eq!(state.signal.metric.to_string(), "multisection:4+boundary");
        // An unknown/malformed metric string is an InvalidData error that
        // names the problem, not a panic.
        for bad_metric in ["warp", "multisection:4+", "boundary+boundary"] {
            let doc = format!("{{\"version\":3,\"metric\":\"{bad_metric}\",\"masks\":[]}}\n");
            fs::write(dir.join("coverage.json"), doc).unwrap();
            let err = match load(&dir) {
                Err(e) => e,
                Ok(_) => panic!("metric `{bad_metric}` was accepted"),
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad_metric}");
            assert!(err.to_string().contains("coverage.metric"), "{err}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_coverage_files_load_as_neuron_metric() {
        // Checkpoints written before metrics were persisted carry no
        // `metric` field; they must load as the paper's neuron metric.
        let dir = tmp_dir("v1_metric");
        let snap = sample_state();
        save(&dir, &snap, false).unwrap();
        fs::write(dir.join("coverage.json"), "{\"version\":1,\"masks\":[\"10\",\"01\"]}\n")
            .unwrap();
        let state = load(&dir).unwrap();
        assert_eq!(state.signal, SignalCheckpoint::neuron());
        assert_eq!(state.coverage, Some(vec![vec![true, false], vec![false, true]]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_tolerates_missing_coverage_file() {
        let dir = tmp_dir("no_coverage");
        let snap = sample_state();
        save(&dir, &snap, false).unwrap();
        fs::remove_file(dir.join("coverage.json")).unwrap();
        let state = load(&dir).unwrap();
        assert_eq!(state.coverage, None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_tolerates_missing_worker_rng() {
        // A v1 checkpoint (no worker_rng field) still loads; the resume
        // path then re-derives streams from the master seed.
        let dir = tmp_dir("no_rng");
        let mut snap = sample_state();
        snap.worker_rng = Vec::new();
        save(&dir, &snap, false).unwrap();
        let state = load(&dir).unwrap();
        assert!(state.worker_rng.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_corrupt_checkpoint() {
        let dir = tmp_dir("corrupt");
        let snap = sample_state();
        save(&dir, &snap, false).unwrap();
        fs::write(dir.join("corpus.jsonl"), "{not json}\n").unwrap();
        assert!(load(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_dir_errors() {
        assert!(load(Path::new("/nonexistent/dx-campaign")).is_err());
    }

    /// Commits a count: a file write one call away from its caller.
    fn persist(path: &Path, pending: usize) -> io::Result<()> {
        write_atomic(path, &pending.to_string())
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "blocking in checkpoint::write_atomic while holding DaemonState")]
    fn a_commit_reached_through_a_helper_under_a_lock_panics() {
        let state = Ranked::new(Rank::DaemonState, 3);
        let st = state.lock();
        let _ = persist(&tmp_dir("under_lock").join("pending"), *st);
    }

    #[test]
    fn a_commit_after_the_guard_is_dropped_passes() {
        let state = Ranked::new(Rank::DaemonState, 3);
        let pending = *state.lock();
        let dir = tmp_dir("after_lock");
        fs::create_dir_all(&dir).unwrap();
        persist(&dir.join("pending"), pending).unwrap();
        assert_eq!(fs::read_to_string(dir.join("pending")).unwrap(), "3");
        let _ = fs::remove_dir_all(&dir);
    }
}
