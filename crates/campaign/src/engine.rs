//! The in-process pool: a multi-worker fuzzing loop driving the campaign's
//! [`Ledger`], whose books, scheduler stream and checkpoint writer and
//! loader it shares with `dx-dist`'s coordinator and service tenants.
//!
//! Each **epoch** the ledger picks a batch of corpus entries, the pool
//! splits it round-robin across worker threads, and each worker grows its
//! share through [`Generator::run_batch_tiled`] against its own model
//! clones, syncing every `merge_every` jobs with a mutex-held copy of the
//! union ([`CoverageSignal::merge`]) so no worker chases units another
//! already covered. The epoch then folds into the ledger as one results
//! frame would — every run in scheduling order, with the epoch's union
//! delta — and the round closes.

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use deepxplore::constraints::Constraint;
use deepxplore::diff::Prediction;
use deepxplore::generator::{GeneratedTest, Generator, SeedRun, TaskKind};
use deepxplore::Hyperparams;
use dx_coverage::{CoverageSignal, SignalSpec};
use dx_nn::network::Network;
use dx_nn::util::{concat_rows, gather_rows};
use dx_telemetry::events::{emit, Level};
use dx_telemetry::phase::{Phase, PhaseAccum, TIME_BUCKETS};
use dx_telemetry::sync::{Rank, Ranked};
use dx_telemetry::{names, Counter, Gauge, Histogram, MetricsRegistry, Span};
use dx_tensor::{rng, Tensor};
use std::sync::Arc;

use crate::corpus::{Corpus, EnergyModel};
use crate::ledger::{CheckpointGate, Ledger};
use crate::report::CampaignReport;

/// The models under test plus the generation setup they share — everything
/// [`Campaign`] needs besides the corpus and scheduling knobs.
#[derive(Clone)]
pub struct ModelSuite {
    /// At least two models with identical input/output shapes.
    pub models: Vec<Network>,
    /// Classification or regression oracle.
    pub kind: TaskKind,
    /// Algorithm 1 hyperparameters.
    pub hp: Hyperparams,
    /// Domain constraint for generated inputs.
    pub constraint: Constraint,
    /// The coverage signal the campaign steers by: metric kind, coverage
    /// config, and (for multisection) per-model training-set profiles.
    pub signal: SignalSpec,
}

impl ModelSuite {
    /// Each model's prediction on `input` (batched `[1, ...]`), under the
    /// suite's task oracle. This is the ground truth a distributed
    /// coordinator re-derives when spot-checking a worker's claimed
    /// difference-inducing input.
    pub fn predictions(&self, input: &Tensor) -> Vec<Prediction> {
        self.models.iter().map(|m| self.kind.prediction(m.output(input).data())).collect()
    }

    /// Whether `input` really is difference-inducing *and* the claimed
    /// predictions match what the suite's own models say (classes exactly;
    /// steering values by direction, which is what the oracle compares).
    /// `false` for any shape- or kind-mismatched claim — fabricated
    /// results must fail the check, not crash it.
    pub fn reproduces_difference(&self, input: &Tensor, claimed: &[Prediction]) -> bool {
        // A wrong-shaped tensor is a failed claim, not a panic inside the
        // forward pass.
        let shape_fits = |m: &Network| {
            input.shape().len() == 1 + m.input_shape().len()
                && input.shape()[0] == 1
                && &input.shape()[1..] == m.input_shape()
        };
        if !self.models.iter().all(shape_fits) {
            return false;
        }
        let threshold = self.kind.oracle_threshold();
        let actual = self.predictions(input);
        if actual.len() != claimed.len() || !deepxplore::diff::differs(&actual, threshold) {
            return false;
        }
        actual.iter().zip(claimed).all(|(a, c)| match (a, c) {
            (Prediction::Class(a), Prediction::Class(c)) => a == c,
            (Prediction::Value(a), Prediction::Value(c)) => {
                deepxplore::diff::direction(*a, threshold)
                    == deepxplore::diff::direction(*c, threshold)
            }
            _ => false,
        })
    }
}

/// Campaign scheduling and persistence knobs.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Worker threads (each owns clones of the models). 1 gives a fully
    /// deterministic campaign.
    pub workers: usize,
    /// Epochs to run per [`Campaign::run`] call.
    pub epochs: usize,
    /// Corpus entries scheduled per epoch.
    pub batch_per_epoch: usize,
    /// Seeds grown per batched generator call — the execution tile width
    /// of [`Generator::run_batch_tiled`]. Pure tiling: campaign results
    /// are bit-identical for every width (the CI batch-parity smoke holds
    /// a full campaign to this). The effective tile is capped by
    /// `merge_every`, which fixes the batched call boundaries (and so the
    /// coverage-sync cadence) independently of `batch`.
    pub batch: usize,
    /// Wall-clock budget for one [`Campaign::run`] call; `None` is
    /// unbounded.
    pub duration: Option<Duration>,
    /// Stop once mean global coverage reaches this level.
    pub desired_coverage: Option<f32>,
    /// Directory for JSONL checkpoints; `None` disables persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Jobs a worker runs between coverage syncs with the global union.
    pub merge_every: usize,
    /// Corpus size cap (initial seeds are never evicted).
    pub max_corpus: usize,
    /// Master RNG seed; scheduling and every worker derive from it.
    pub seed: u64,
    /// How corpus energy responds to step outcomes.
    pub energy: EnergyModel,
    /// Where campaign metrics land. The default is a fresh private
    /// registry (isolated, e.g. under parallel tests); the CLI injects
    /// [`dx_telemetry::global()`] so `--metrics-addr` serves them.
    pub registry: MetricsRegistry,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            epochs: 4,
            batch_per_epoch: 16,
            batch: 4,
            duration: None,
            desired_coverage: None,
            checkpoint_dir: None,
            merge_every: 4,
            max_corpus: 4096,
            seed: 42,
            energy: EnergyModel::Classic,
            registry: MetricsRegistry::new(),
        }
    }
}

/// Cached registry handles for the campaign's per-epoch updates, so the
/// epoch loop never touches the registry's name lookup.
struct EngineMetrics {
    seeds: Arc<Counter>,
    diffs: Arc<Counter>,
    epoch_seconds: Arc<Histogram>,
    lock_wait: Arc<Histogram>,
    corpus_size: Arc<Gauge>,
    energy_min: Arc<Gauge>,
    energy_mean: Arc<Gauge>,
    energy_max: Arc<Gauge>,
    /// `dx_new_units_total{component=...}`, in the metric's component
    /// order.
    new_units: Vec<Arc<Counter>>,
    phase_seconds: Vec<Arc<Histogram>>,
}

impl EngineMetrics {
    fn new(registry: &MetricsRegistry, metric: &dx_coverage::MetricSpec) -> Self {
        let epoch_bounds: Vec<f64> = TIME_BUCKETS.iter().map(|b| b * 100.0).collect();
        Self {
            seeds: registry.counter(names::SEEDS_TOTAL.name, &[]),
            diffs: registry.counter(names::DIFFS_TOTAL.name, &[]),
            epoch_seconds: registry.histogram(names::EPOCH_SECONDS.name, &[], &epoch_bounds),
            lock_wait: registry.histogram(names::LOCK_WAIT_SECONDS.name, &[], &TIME_BUCKETS),
            corpus_size: registry.gauge(names::CORPUS_SIZE.name, &[]),
            energy_min: registry.gauge(names::CORPUS_ENERGY.name, &[("stat", "min")]),
            energy_mean: registry.gauge(names::CORPUS_ENERGY.name, &[("stat", "mean")]),
            energy_max: registry.gauge(names::CORPUS_ENERGY.name, &[("stat", "max")]),
            new_units: metric
                .components
                .iter()
                .map(|c| {
                    registry.counter(names::NEW_UNITS_TOTAL.name, &[("component", &c.to_string())])
                })
                .collect(),
            phase_seconds: Phase::ALL
                .iter()
                .map(|p| {
                    registry.histogram(
                        names::PHASE_SECONDS.name,
                        &[("phase", p.name())],
                        &TIME_BUCKETS,
                    )
                })
                .collect(),
        }
    }
}

/// A difference-inducing input found by the campaign.
#[derive(Clone, Debug)]
pub struct FoundDiff {
    /// Corpus entry the difference was grown from.
    pub seed_id: usize,
    /// Epoch in which it was found.
    pub epoch: usize,
    /// The difference-inducing input, batched `[1, ...]`.
    pub input: Tensor,
    /// Each model's prediction on the input.
    pub predictions: Vec<Prediction>,
    /// Gradient-ascent iterations taken.
    pub iterations: usize,
    /// The model Algorithm 1 pushed away.
    pub target_model: usize,
}

impl FoundDiff {
    /// The record of `test`, grown from corpus entry `seed_id` in `epoch`.
    pub fn from_test(seed_id: usize, epoch: usize, test: &GeneratedTest) -> Self {
        Self {
            seed_id,
            epoch,
            input: test.input.clone(),
            predictions: test.predictions.clone(),
            iterations: test.iterations,
            target_model: test.target_model,
        }
    }
}

/// A long-running, multi-worker, coverage-guided fuzzing campaign.
///
/// Determinism: with `workers = 1` a campaign is a pure function of its
/// configuration and initial seeds. With several workers, per-worker
/// generation stays deterministic but the interleaving of coverage syncs
/// (and therefore neuron picks) depends on thread timing. Checkpoints
/// persist every worker's generator RNG state, so a resumed single-worker
/// campaign is bit-identical to the uninterrupted run; resuming a
/// checkpoint without RNG states (written before they were persisted, or
/// by a daemon) re-derives the streams from the master seed and is merely
/// deterministic given `(config, checkpoint)`.
pub struct Campaign {
    config: CampaignConfig,
    workers: Vec<Generator>,
    ledger: Ledger,
    metrics: EngineMetrics,
    writer: CheckpointGate,
}

impl Campaign {
    /// Creates a campaign over initial seeds (rows of `seeds`).
    ///
    /// # Panics
    ///
    /// Panics on zero workers, zero epochs/batch, an empty seed tensor, or
    /// an invalid model suite (fewer than two models, mismatched shapes).
    pub fn new(suite: ModelSuite, seeds: &Tensor, config: CampaignConfig) -> Self {
        assert!(seeds.shape()[0] > 0, "campaign needs at least one seed");
        let inputs = (0..seeds.shape()[0]).map(|i| gather_rows(seeds, &[i])).collect();
        let corpus = Corpus::new(inputs, config.max_corpus).with_energy_model(config.energy);
        let global = suite.signal.build(&suite.models);
        let ledger = Ledger::new(corpus, global, config.seed, Instant::now());
        Self::with_ledger(suite, config, ledger, &[])
    }

    /// Resumes a campaign from the checkpoint in `config.checkpoint_dir`.
    ///
    /// # Errors
    ///
    /// Fails when the directory is missing or its checkpoint files do not
    /// parse.
    pub fn resume(suite: ModelSuite, config: CampaignConfig) -> io::Result<Self> {
        let dir = config.checkpoint_dir.clone().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "resume needs a checkpoint dir")
        })?;
        Self::resume_from(suite, &dir, config)
    }

    /// Resumes from the checkpoint in `dir`, while future checkpoints go to
    /// `config.checkpoint_dir` — which may differ, forking the campaign.
    ///
    /// # Errors
    ///
    /// Fails when `dir` is missing, its checkpoint files do not parse, or
    /// they were written under another metric.
    pub fn resume_from(
        suite: ModelSuite,
        dir: &std::path::Path,
        mut config: CampaignConfig,
    ) -> io::Result<Self> {
        let (suite, ledger, worker_rng) =
            Ledger::load(dir, suite, config.max_corpus, config.energy, None)?;
        // The master seed is part of the campaign's identity: scheduling and
        // worker streams all derive from it, so a resume continues with the
        // seed the campaign was started with, not whatever the new config
        // happens to carry.
        config.seed = ledger.seed();
        Ok(Self::with_ledger(suite, config, ledger, &worker_rng))
    }

    fn with_ledger(
        suite: ModelSuite,
        config: CampaignConfig,
        mut ledger: Ledger,
        worker_rng: &[[u64; 4]],
    ) -> Self {
        assert!(config.workers >= 1, "campaign needs at least one worker");
        assert!(config.epochs >= 1, "campaign needs at least one epoch");
        assert!(config.batch_per_epoch >= 1, "campaign needs a nonzero batch");
        // Workers start from the union, so a resumed pool does not chase
        // units the checkpoint already covers.
        let mut workers: Vec<Generator> = (0..config.workers)
            .map(|w| {
                Generator::with_signals(
                    suite.models.clone(),
                    suite.kind,
                    suite.hp,
                    suite.constraint.clone(),
                    ledger.global.clone(),
                    rng::derive_seed(config.seed, 1 + w as u64),
                )
            })
            .collect();
        if worker_rng.len() == workers.len() {
            // Continue the checkpointed streams exactly instead of
            // re-deriving them from the master seed.
            for (w, state) in workers.iter_mut().zip(worker_rng) {
                w.set_rng_state(*state);
            }
        }
        ledger.report.workers = config.workers;
        let metrics = EngineMetrics::new(&config.registry, &suite.signal.metric);
        Self { config, workers, ledger, metrics, writer: CheckpointGate::default() }
    }

    /// The corpus in its current state.
    pub fn corpus(&self) -> &Corpus {
        &self.ledger.corpus
    }

    /// All difference-inducing inputs found so far.
    pub fn diffs(&self) -> &[FoundDiff] {
        &self.ledger.diffs
    }

    /// The campaign report so far.
    pub fn report(&self) -> &CampaignReport {
        &self.ledger.report
    }

    /// Epochs completed (including resumed-from epochs).
    pub fn epochs_done(&self) -> usize {
        self.ledger.report.epochs.len()
    }

    /// The campaign's master seed (for a resumed campaign, the seed it was
    /// originally started with).
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// Per-model global coverage.
    pub fn coverage(&self) -> Vec<f32> {
        self.ledger.global.iter().map(|t| t.coverage()).collect()
    }

    /// Covered units in the global union, summed across models — under
    /// whatever metric (spec) the campaign steers by, so composite
    /// campaigns count every component's units.
    pub fn covered_units(&self) -> usize {
        self.ledger.global.iter().map(CoverageSignal::covered_count).sum()
    }

    /// Mean global coverage per metric component (one entry for simple
    /// metrics).
    pub fn component_coverage(&self) -> Vec<f32> {
        dx_coverage::mean_component_coverage(&self.ledger.global)
    }

    /// Mean global coverage across models.
    pub fn mean_coverage(&self) -> f32 {
        self.ledger.mean_coverage()
    }

    /// Runs up to `config.epochs` epochs, stopping early on the duration
    /// budget, the coverage target, or corpus exhaustion. Checkpoints after
    /// every epoch when a checkpoint directory is configured.
    ///
    /// # Errors
    ///
    /// Fails only on checkpoint I/O errors; the in-memory campaign state
    /// stays valid either way.
    pub fn run(&mut self) -> io::Result<&CampaignReport> {
        let started = Instant::now();
        let end_epoch = self.epochs_done() + self.config.epochs;
        while self.epochs_done() < end_epoch && self.can_step() {
            if let Some(budget) = self.config.duration {
                if started.elapsed() >= budget {
                    break;
                }
            }
            self.step()?;
        }
        Ok(&self.ledger.report)
    }

    /// True when another [`step`](Self::step) can make progress: the
    /// corpus is not exhausted and the coverage target (when set) is
    /// still unmet.
    pub fn can_step(&self) -> bool {
        !self.ledger.corpus.all_exhausted()
            && self.config.desired_coverage.is_none_or(|target| self.mean_coverage() < target)
    }

    /// Runs exactly one epoch, then checkpoints when a checkpoint
    /// directory is configured — the externally-driven core of
    /// [`run`](Self::run). Ignores the epoch-count and duration budgets:
    /// a driver that steps the campaign as a state machine (the service
    /// daemon's scheduler, say) owns pacing, pause, and stop itself.
    ///
    /// # Errors
    ///
    /// Fails only on checkpoint I/O errors; the in-memory campaign
    /// state stays valid either way.
    pub fn step(&mut self) -> io::Result<()> {
        self.run_epoch();
        if let Some(dir) = self.config.checkpoint_dir.clone() {
            self.checkpoint(&dir)?;
        }
        Ok(())
    }

    /// Writes the full campaign state to `dir` (JSONL corpus/stats/diffs
    /// plus coverage bitmaps and a meta file with the worker RNG states).
    /// The first write into a directory replaces any stale files there;
    /// later writes into the directory last written append the new
    /// stats/diffs lines.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O failures.
    pub fn checkpoint(&mut self, dir: &std::path::Path) -> io::Result<()> {
        let mut snapshot = self.ledger.snapshot(self.config.workers, Vec::new());
        snapshot.worker_rng = self.workers.iter().map(Generator::rng_state).collect();
        self.writer.write(0, &snapshot, dir, || Ok(()))
    }

    fn run_epoch(&mut self) {
        let epoch = self.epochs_done();
        let started = Instant::now();
        let _epoch_span = Span::new(self.metrics.epoch_seconds.clone());
        self.ledger.start_round(started);
        let ids = self.ledger.pick_seeds(&[], self.config.batch_per_epoch);
        let n_workers = self.workers.len();
        let mut assignments: Vec<Vec<(usize, Tensor)>> = vec![Vec::new(); n_workers];
        for (i, &id) in ids.iter().enumerate() {
            let Some(entry) = self.ledger.corpus.get(id) else { continue };
            assignments[i % n_workers].push((id, entry.input.clone()));
        }
        let merge_every = self.config.merge_every.max(1);
        let batch = self.config.batch.max(1);
        // Workers sync through a copy of the union; the ledger takes the
        // epoch's delta when the runs fold in, as from a results frame.
        let union = Ranked::new(Rank::PoolUnion, self.ledger.global.clone());
        let per_worker: Vec<Vec<(usize, SeedRun)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .zip(assignments)
                .map(|(worker, jobs)| {
                    let union = &union;
                    let lock_wait = self.metrics.lock_wait.clone();
                    scope.spawn(move || {
                        // Sync points are rare (every merge_every jobs),
                        // so observing the shared histogram directly is
                        // fine — only the per-iterate loop needs the
                        // non-atomic accumulator.
                        let sync = |worker: &mut Generator| {
                            let waited = Instant::now();
                            let mut union = union.lock();
                            lock_wait.observe(waited.elapsed().as_secs_f64());
                            worker.sync_coverage_into(&mut union);
                            worker.adopt_coverage(&union);
                        };
                        // Chunk by merge_every — each chunk is one batched
                        // generator call (the batch-width invariance
                        // interval) followed by a coverage sync, so both
                        // the sync cadence and the results are independent
                        // of the tile width.
                        let mut out = Vec::with_capacity(jobs.len());
                        for chunk in jobs.chunks(merge_every) {
                            let ids: Vec<usize> = chunk.iter().map(|(id, _)| *id).collect();
                            let stacked = concat_rows(chunk.iter().map(|(_, input)| input));
                            let runs = worker.run_batch_tiled(&ids, &stacked, batch);
                            out.extend(ids.into_iter().zip(runs));
                            sync(worker);
                        }
                        if jobs.is_empty() {
                            sync(worker);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    #[expect(
                        clippy::expect_used,
                        reason = "a panicked in-process worker is unrecoverable mid-epoch; \
                                  std::thread::scope re-raises the panic at scope exit \
                                  regardless of how join is handled"
                    )]
                    let runs = h.join().expect("campaign worker panicked");
                    runs
                })
                .collect()
        });
        let union = union.into_inner();
        let delta: Vec<Vec<usize>> =
            union.iter().zip(&self.ledger.global).map(|(u, g)| u.diff_indices(g)).collect();
        // Fold results back in scheduling order (round-robin inverse), so
        // corpus mutation order — and therefore child ids — is independent
        // of worker count.
        let mut cursors: Vec<std::vec::IntoIter<(usize, SeedRun)>> =
            per_worker.into_iter().map(Vec::into_iter).collect();
        let runs: Vec<(usize, SeedRun)> =
            (0..ids.len()).filter_map(|i| cursors[i % n_workers].next()).collect();
        let mut new_by_component = vec![0usize; self.metrics.new_units.len()];
        for (_, run) in &runs {
            for (total, newly) in new_by_component.iter_mut().zip(&run.newly_by_component) {
                *total += newly;
            }
        }
        let absorbed = self.ledger.absorb(runs.iter().map(|(id, run)| (*id, run)), &delta);
        self.ledger.flush_round(0, Instant::now());
        self.metrics.seeds.inc_by(absorbed.steps as u64);
        self.metrics.diffs.inc_by(absorbed.diffs as u64);
        for (counter, &n) in self.metrics.new_units.iter().zip(&new_by_component) {
            counter.inc_by(n as u64);
        }
        // Fold each worker's hot-path phase deltas into the registry.
        let mut phases = PhaseAccum::new();
        for worker in &mut self.workers {
            phases.merge(&worker.take_phase_stats());
        }
        for (hist, phase) in self.metrics.phase_seconds.iter().zip(Phase::ALL) {
            hist.merge_local(phases.get(phase));
        }
        let corpus = &self.ledger.corpus;
        self.metrics.corpus_size.set(corpus.len() as f64);
        let energies: Vec<f64> = corpus.entries().iter().map(|e| f64::from(e.energy)).collect();
        if !energies.is_empty() {
            let sum: f64 = energies.iter().sum();
            self.metrics.energy_min.set(energies.iter().copied().fold(f64::INFINITY, f64::min));
            self.metrics.energy_mean.set(sum / energies.len() as f64);
            self.metrics.energy_max.set(energies.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }
        emit(
            Level::Debug,
            "campaign",
            "epoch_done",
            &[
                ("epoch", (epoch as u64).into()),
                ("seeds_run", (absorbed.steps as u64).into()),
                ("diffs_found", (absorbed.diffs as u64).into()),
                ("newly_covered", (absorbed.newly_covered as u64).into()),
                ("corpus_len", (corpus.len() as u64).into()),
                ("elapsed", started.elapsed().into()),
            ],
        );
    }
}
