//! One campaign's books, and the one way they reach and leave disk.
//!
//! Every campaign driver folds results into a [`Ledger`]: the in-process
//! pool ([`crate::Campaign`]) once per epoch, and each campaign of the
//! `dx-dist` daemon once per results frame (after the frame validation and
//! lease entitlement that stay in `dx-dist`).
//!
//! **The books (pure)** do no I/O and read no clock: every time stamp is
//! the caller's `now`. Nothing above the "shell" banner below may touch a
//! file, thread, socket or lock; `dx-dist`'s `books_are_sans_io` greps it.
//!
//! **One scheduler rule.** Round `r` (a pool epoch, a daemon's statistics
//! round) draws from `derive_seed(seed, ROUND_STREAM + r)`, opened at
//! creation, on restore and at every flush: a resume continues the stream
//! it would have drawn, and a one-worker fleet whose leases are whole
//! rounds schedules exactly as the pool does.
//!
//! **The shell** is the one checkpoint writer ([`CheckpointGate`]) and the
//! one loader ([`Ledger::load`]).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepxplore::generator::GeneratedTest;
use deepxplore::SeedRun;
use dx_coverage::CoverageSignal;
use dx_tensor::rng;

use crate::checkpoint::SignalCheckpoint;
use crate::corpus::Corpus;
use crate::engine::FoundDiff;
use crate::report::{CampaignReport, EpochStats};

/// Offset of the per-round scheduler streams (see the module docs).
const ROUND_STREAM: u64 = 0x5ced_0000;

/// The scheduler stream of round `round`.
fn round_stream(seed: u64, round: usize) -> rng::Rng {
    rng::rng(rng::derive_seed(seed, ROUND_STREAM + round as u64))
}

#[derive(Default)]
struct RoundAccum {
    seeds_run: usize,
    diffs_found: usize,
    iterations: usize,
    newly_covered: usize,
}

/// What one [`Ledger::absorb`] call folded in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Absorbed {
    /// Seed steps counted.
    pub steps: usize,
    /// Of those, how many found a difference.
    pub diffs: usize,
    /// Units the delta added to the union.
    pub newly_covered: usize,
}

/// One campaign's state: the pool and a coordinator hold one, the service
/// one per tenant.
pub struct Ledger {
    /// The seed corpus (shared with snapshots not yet written).
    pub corpus: Arc<Corpus>,
    /// The global coverage union, one signal per model.
    pub global: Vec<CoverageSignal>,
    /// Difference-inducing inputs found (shared like the corpus).
    pub diffs: Arc<Vec<FoundDiff>>,
    /// Closed statistics rounds (`epochs`) and the driver's worker count.
    pub report: CampaignReport,
    /// Seed steps absorbed (across resumes).
    pub steps_done: usize,
    /// Requeued seed ids, served before fresh scheduling.
    pub pending: VecDeque<usize>,
    seed: u64,
    round: RoundAccum,
    round_started: Instant,
    sched_rng: rng::Rng,
    /// Monotonic snapshot counter; [`CheckpointGate`] discards stale
    /// snapshots that lost the race to a newer one.
    snapshots: u64,
}

impl Ledger {
    /// A fresh ledger over `corpus` and an empty union `global` (one
    /// signal per model); round 0 opens at `now`.
    pub fn new(
        corpus: Corpus,
        global: Vec<CoverageSignal>,
        campaign_seed: u64,
        now: Instant,
    ) -> Self {
        Self {
            corpus: Arc::new(corpus),
            global,
            diffs: Arc::default(),
            report: CampaignReport::default(),
            steps_done: 0,
            pending: VecDeque::new(),
            seed: campaign_seed,
            round: RoundAccum::default(),
            round_started: now,
            sched_rng: round_stream(campaign_seed, 0),
            snapshots: 0,
        }
    }

    /// The campaign's master seed: scheduling and every worker stream
    /// derive from it.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Continues from a checkpoint: history, the queued ids the corpus
    /// still has, and the coverage masks when they fit the union's shape.
    /// The round after the restored ones opens with its own stream.
    /// Returns whether the masks fitted (absent masks do not).
    pub fn restore(
        &mut self,
        diffs: Vec<FoundDiff>,
        epochs: Vec<EpochStats>,
        masks: Option<&[Vec<bool>]>,
        steps_done: usize,
        pending: impl IntoIterator<Item = usize>,
    ) -> bool {
        self.diffs = Arc::new(diffs);
        self.report.epochs = epochs;
        self.steps_done = steps_done;
        self.pending = pending.into_iter().filter(|&id| self.corpus.get(id).is_some()).collect();
        self.sched_rng = round_stream(self.seed, self.report.epochs.len());
        masks.is_some_and(|masks| dx_coverage::restore_masks(&mut self.global, masks))
    }

    /// Mean global coverage across models.
    pub fn mean_coverage(&self) -> f32 {
        dx_coverage::mean_coverage(&self.global)
    }

    /// Restarts the open round's clock (serving, or an epoch, starts now).
    pub fn start_round(&mut self, now: Instant) {
        self.round_started = now;
    }

    /// Picks up to `want` seed ids: requeued seeds first, then an
    /// energy-weighted draw from the round's stream excluding everything
    /// in `leased` or queued.
    pub fn pick_seeds(&mut self, leased: &[usize], want: usize) -> Vec<usize> {
        let mut ids = Vec::with_capacity(want);
        while ids.len() < want {
            let Some(id) = self.pending.pop_front() else { break };
            let alive = self.corpus.get(id).is_some_and(|e| !e.exhausted);
            if alive && !ids.contains(&id) {
                ids.push(id);
            }
        }
        if ids.len() < want {
            let mut excluded = leased.to_vec();
            excluded.extend(self.pending.iter().copied());
            excluded.extend(ids.iter().copied());
            let n = want - ids.len();
            ids.extend(self.corpus.schedule_excluding(n, &mut self.sched_rng, &excluded));
        }
        ids
    }

    /// Puts a lost lease's seeds back in the queue for the next worker.
    pub fn requeue(&mut self, seed_ids: Vec<usize>) {
        self.pending.extend(seed_ids);
    }

    /// The record of `test`, grown from corpus entry `seed_id`, stamped
    /// with the open round — what [`Ledger::absorb`] files a found
    /// difference as.
    pub fn diff_of(&self, seed_id: usize, test: &GeneratedTest) -> FoundDiff {
        FoundDiff::from_test(seed_id, self.report.epochs.len(), test)
    }

    /// Folds results in: the coverage delta `cov` first (one flat index
    /// list per model), then every `(seed id, run)` in order — corpus
    /// energy, found diffs, round statistics. The rarity energy model
    /// credits each step against its own component's union saturation
    /// after the delta, not the pooled mean.
    pub fn absorb<'a>(
        &mut self,
        items: impl IntoIterator<Item = (usize, &'a SeedRun)>,
        cov: &[Vec<usize>],
    ) -> Absorbed {
        let mut newly_covered = 0;
        for (g, idx) in self.global.iter_mut().zip(cov) {
            newly_covered += g.apply_covered_indices(idx);
        }
        let global_coverage = dx_coverage::mean_component_coverage(&self.global);
        let (mut steps, mut diffs) = (0, 0);
        for (seed_id, run) in items {
            steps += 1;
            self.round.iterations += run.iterations;
            if let Some(test) = run.test.as_ref().filter(|_| run.found_difference()) {
                diffs += 1;
                let diff = self.diff_of(seed_id, test);
                Arc::make_mut(&mut self.diffs).push(diff);
            }
            Arc::make_mut(&mut self.corpus).absorb(seed_id, run, &global_coverage);
        }
        self.steps_done += steps;
        self.round.seeds_run += steps;
        self.round.diffs_found += diffs;
        self.round.newly_covered += newly_covered;
        Absorbed { steps, diffs, newly_covered }
    }

    /// Closes the open statistics round into an [`EpochStats`] line once
    /// it holds `min_steps` seed steps, and opens the next one at `now`.
    pub fn flush_round(&mut self, min_steps: usize, now: Instant) -> Option<EpochStats> {
        if self.round.seeds_run < min_steps {
            return None;
        }
        let round = std::mem::take(&mut self.round);
        let stats = EpochStats {
            epoch: self.report.epochs.len(),
            seeds_run: round.seeds_run,
            diffs_found: round.diffs_found,
            iterations: round.iterations,
            newly_covered: round.newly_covered,
            mean_coverage: self.mean_coverage(),
            component_coverage: dx_coverage::mean_component_coverage(&self.global),
            corpus_len: self.corpus.len(),
            // Whole microseconds, as `stats.jsonl` keeps it: the rates a
            // resumed checkpoint recomputes from it then match the ones
            // written before the restart, digit for digit.
            elapsed: Duration::from_micros(
                u64::try_from(now.duration_since(self.round_started).as_micros())
                    .unwrap_or(u64::MAX),
            ),
        };
        self.report.epochs.push(stats.clone());
        self.round_started = now;
        self.sched_rng = round_stream(self.seed, self.report.epochs.len());
        Some(stats)
    }

    /// Whether the campaign has finished, and why. `in_flight` is whether
    /// any of its seeds are still out on a lease.
    pub fn done_reason(
        &self,
        max_steps: Option<usize>,
        target_coverage: Option<f32>,
        in_flight: bool,
    ) -> Option<&'static str> {
        if max_steps.is_some_and(|m| self.steps_done >= m) {
            return Some("budget");
        }
        if target_coverage.is_some_and(|t| self.mean_coverage() >= t) {
            return Some("target");
        }
        if self.corpus.all_exhausted() && !in_flight {
            return Some("exhausted");
        }
        None
    }

    /// What a campaign checkpoint persists — cheap: corpus and diffs are
    /// shared until the books next change, so a daemon takes it under its
    /// lock and [`CheckpointGate::write`]s it outside. `leased` seeds fold
    /// into the requeue: a checkpoint outlives leases.
    pub fn snapshot(&mut self, workers: usize, leased: Vec<usize>) -> Snapshot {
        self.snapshots += 1;
        Snapshot {
            seq: self.snapshots,
            corpus: Arc::clone(&self.corpus),
            report: CampaignReport { workers, ..self.report.clone() },
            diffs: Arc::clone(&self.diffs),
            masks: self.global.iter().map(CoverageSignal::covered_mask).collect(),
            signal: SignalCheckpoint::of(&self.global),
            campaign_seed: self.seed,
            worker_rng: Vec::new(),
            pending: self.pending.iter().copied().chain(leased).collect(),
        }
    }
}

/// A ledger's checkpointable state.
pub struct Snapshot {
    pub(crate) seq: u64,
    pub(crate) corpus: Arc<Corpus>,
    pub(crate) report: CampaignReport,
    pub(crate) diffs: Arc<Vec<FoundDiff>>,
    pub(crate) masks: Vec<Vec<bool>>,
    pub(crate) signal: SignalCheckpoint,
    pub(crate) campaign_seed: u64,
    /// Per-worker generator RNG states, in worker order: the pool's, so a
    /// resume continues them exactly. Empty for daemons, whose worker
    /// streams are keyed by slot or identity in their own files.
    pub worker_rng: Vec<[u64; 4]>,
    /// Seeds owed to the queue: requeued plus leased at snapshot time.
    pub pending: Vec<usize>,
}

// ---------------------------------------------------------------------
// The shell: files, locks and the clock start here. Nothing above this
// line may use them (`books_are_sans_io` in `dx-dist` holds it to that).
// ---------------------------------------------------------------------

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use dx_telemetry::sync::{Rank, Ranked};

use crate::checkpoint::{self, Appended};
use crate::corpus::EnergyModel;
use crate::engine::ModelSuite;
use crate::json::invalid;

/// The one checkpoint writer. It serializes writes and remembers, per
/// campaign, the newest snapshot it wrote, where, and what it appended
/// there: a snapshot that lost the race to a newer one is dropped (each
/// carries the full state, so the newest is the most complete), and the
/// append-only files are appended to only in the directory last written —
/// any other may hold an unrelated campaign, so the first write there
/// rewrites them.
pub struct CheckpointGate {
    last: Ranked<BTreeMap<u64, (u64, PathBuf, Appended)>>,
}

impl Default for CheckpointGate {
    fn default() -> Self {
        Self { last: Ranked::new(Rank::CheckpointGate, BTreeMap::new()) }
    }
}

impl CheckpointGate {
    /// Writes `campaign`'s snapshot into `dir` — the campaign checkpoint
    /// files, then the driver's `extras`, which append through the same
    /// record — unless a newer one already landed.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O failures.
    pub fn write(
        &self,
        campaign: u64,
        snapshot: &Snapshot,
        dir: &Path,
        extras: impl FnOnce(&mut Appended) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut last = self.last.lock();
        let (seq, last_dir, appended) = last.entry(campaign).or_default();
        if *seq >= snapshot.seq {
            return Ok(());
        }
        if last_dir != dir {
            *last_dir = dir.to_path_buf();
            *appended = Appended::default();
        }
        checkpoint::save(dir, snapshot, appended)?;
        extras(appended)?;
        *seq = snapshot.seq;
        Ok(())
    }
}

impl Ledger {
    /// The one checkpoint loader: the campaign files in `dir`, in this
    /// build's formats or an older one's ([`crate::migrate`]), under
    /// `suite`'s metric. `owed` is a daemon's own record of steps done and
    /// seeds owed to the queue; a plain campaign checkpoint has neither —
    /// its steps are its epochs' and nothing is queued. Masks that are
    /// absent or do not fit the union (an older checkpoint, or a changed
    /// coverage config) are replaced by a lower bound: the surviving
    /// corpus replayed through the metric.
    ///
    /// Returns the suite with the checkpointed profiles, the books, and
    /// the pool's per-worker RNG states (empty for daemon checkpoints).
    ///
    /// # Errors
    ///
    /// Missing or malformed files, a metric other than the suite's, or
    /// profiles that do not fit its models.
    pub fn load(
        dir: &Path,
        suite: ModelSuite,
        max_corpus: usize,
        energy: EnergyModel,
        owed: Option<(usize, Vec<usize>)>,
    ) -> io::Result<(ModelSuite, Self, Vec<[u64; 4]>)> {
        let state = crate::migrate::load(dir)?;
        // The metric is part of the campaign's identity: hit-sets recorded
        // under one cannot seed another, even at equal shapes (boundary and
        // multisection:2 both count two units per neuron).
        if state.signal.metric != suite.signal.metric {
            return Err(invalid(format!(
                "checkpoint metric `{}` does not match the configured `{}`",
                state.signal.metric, suite.signal.metric
            )));
        }
        // Checkpointed profiles are authoritative: restoring them (rather
        // than re-priming) keeps a resumed profile-based campaign
        // bit-identical even if the training data shifted underneath.
        let suite = state.signal.restore_profiles(suite)?;
        let corpus = Corpus::from_entries(state.corpus, max_corpus).with_energy_model(energy);
        let global = suite.signal.build(&suite.models);
        let mut ledger = Self::new(corpus, global, state.campaign_seed, Instant::now());
        let (steps_done, pending) =
            owed.unwrap_or_else(|| (state.epochs.iter().map(|e| e.seeds_run).sum(), Vec::new()));
        let fit = ledger.restore(
            state.diffs,
            state.epochs,
            state.coverage.as_deref(),
            steps_done,
            pending,
        );
        if !fit && !ledger.report.epochs.is_empty() {
            let mut replay = suite.signal.build(&suite.models);
            for entry in ledger.corpus.entries() {
                for ((model, tracker), g) in
                    suite.models.iter().zip(&mut replay).zip(&mut ledger.global)
                {
                    tracker.reset();
                    tracker.update(&model.forward(&entry.input));
                    g.merge(tracker);
                }
            }
        }
        Ok((suite, ledger, state.worker_rng))
    }
}
