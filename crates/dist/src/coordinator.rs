//! The campaign coordinator: one campaign on the shared lease engine.
//!
//! One logical campaign, many OS processes. The coordinator is the only
//! holder of mutable campaign state; workers are stateless between leases
//! (beyond their generator RNG, which they report back for checkpointing).
//! Serving, the handshake, admission, lease bookkeeping (deadlines,
//! heartbeats, requeue of expired or orphaned leases, salvage of late
//! results) are [`crate::engine`]'s, shared with the `dx-service`
//! dispatcher, and the campaign's books are a `dx_campaign` ledger, shared
//! with the in-process pool too. This file is what a *dedicated*
//! coordinator adds:
//!
//! **Trust.** The coordinator does not take workers at their word. With
//! a spot-check rate configured, a sample of every worker's claimed
//! difference-inducing inputs is re-executed through the coordinator's own
//! model copies — outside the state lock, between the engine's claim and
//! its absorb; claims that do not reproduce are quarantined, the lease's
//! results discarded and its seeds requeued, and a worker whose
//! fabrication rate crosses the trust threshold is evicted: its slot is
//! burned, which is the predicate the engine's admission consults.
//! Lease sizes can also adapt per worker (`lease_max`), growing for
//! workers that turn leases around quickly.
//!
//! **Drain.** The coordinator drains itself — budget reached, coverage
//! target met, corpus exhausted — or on an external [`DrainHandle`];
//! then it waits for outstanding leases to land or expire, flushes the
//! partial round, and writes a final checkpoint — the standard campaign
//! JSONL files plus `dist.json` (requeued seeds, per-slot worker RNG
//! states, identities and trust records), so [`Coordinator::resume`] can
//! continue the whole fleet, and `dx_campaign::Campaign::resume` can
//! continue the same checkpoint in-process.

use std::collections::BTreeMap;
use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dx_campaign::checkpoint::write_atomic;
use dx_campaign::codec::{
    diff_from_json, diff_json, rng_state_from_json, rng_state_json, u64_json,
};
use dx_campaign::json::{build, parse_doc, Json};
use dx_campaign::ledger::{CheckpointGate, Ledger, Snapshot};
use dx_campaign::{CampaignReport, Corpus, EnergyModel, FoundDiff, ModelSuite};
use dx_coverage::CoverageSignal;
use dx_nn::util::gather_rows;
use dx_telemetry::events::{emit, Level};
use dx_telemetry::phase::TIME_BUCKETS;
use dx_telemetry::sync::{Rank, Ranked};
use dx_telemetry::{names, Counter, Gauge, Histogram, MetricsRegistry};
use dx_tensor::{rng, Tensor};

use crate::engine::{
    self, Daemon, Fleet, Gate, LeaseTable, Peer, Plan, Refusal, Reply, ResultsFrame, Views,
};
use crate::proto::{Fingerprint, Msg};

/// Spot-checks a worker must accumulate before its fabrication rate can
/// evict it — one unlucky sample should not kill a fleet member.
const TRUST_MIN_CHECKS: usize = 2;

/// Quarantined diffs kept in memory/checkpoints for inspection; beyond
/// this only the counter grows (a fabricator must not balloon `dist.json`).
const QUARANTINE_KEEP: usize = 256;

/// Coordinator scheduling, budget and persistence knobs.
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// Absorbed seed steps per statistics round (the dist analogue of the
    /// in-process engine's epoch); each full round appends an
    /// [`dx_campaign::EpochStats`] line and checkpoints.
    pub batch_per_round: usize,
    /// Total seed-step budget (across resumes); `None` is unbounded.
    pub max_steps: Option<usize>,
    /// Wall-clock budget for one [`Coordinator::serve`] call.
    pub duration: Option<Duration>,
    /// Drain once mean global coverage reaches this level.
    pub target_coverage: Option<f32>,
    /// Max jobs per lease.
    pub lease_size: usize,
    /// How long a lease may go without results or a heartbeat before its
    /// seeds are requeued.
    pub lease_timeout: Duration,
    /// Directory for checkpoints; `None` disables persistence.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Corpus size cap.
    pub max_corpus: usize,
    /// Campaign master seed; worker generator streams derive from it
    /// exactly as in the in-process pool.
    pub seed: u64,
    /// Corpus energy model.
    pub energy: EnergyModel,
    /// Registry receiving coordinator metrics (lease/trust counters,
    /// per-worker turnaround and heartbeat histograms, phase histograms
    /// merged from worker telemetry). Defaults to a private registry so
    /// parallel tests never share series; the CLI injects
    /// [`dx_telemetry::global`] so `--metrics-addr` serves them.
    pub registry: MetricsRegistry,
    /// Shared secret workers must prove at admission via the HMAC
    /// challenge/response ([`crate::auth`]); `None` disables
    /// authentication and admits any fingerprint-matching peer.
    pub auth_token: Option<String>,
    /// Fraction of reported difference-inducing inputs the coordinator
    /// re-executes through its own models (`0.0` disables spot-checking,
    /// `1.0` re-checks every claim). Non-reproducing claims are
    /// quarantined, the whole lease's results are dropped and its seeds
    /// requeued.
    pub spot_check_rate: f32,
    /// Fabrication-rate ceiling: once a worker has failed more than this
    /// fraction of its spot-checks (after a small minimum number of
    /// checks), it is evicted and its leases requeued.
    pub trust_threshold: f32,
    /// Adaptive lease ceiling: when above `lease_size`, per-worker lease
    /// sizes grow toward this bound for workers whose observed throughput
    /// finishes leases quickly (and shrink back toward 1 for slow ones),
    /// so fast workers stop round-tripping tiny leases. `0` (the default)
    /// keeps every lease at `lease_size`.
    pub lease_max: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            batch_per_round: 16,
            max_steps: None,
            duration: None,
            target_coverage: None,
            lease_size: 4,
            lease_timeout: Duration::from_secs(30),
            checkpoint_dir: None,
            max_corpus: 4096,
            seed: 42,
            energy: EnergyModel::Classic,
            registry: MetricsRegistry::new(),
            auth_token: None,
            spot_check_rate: 0.0,
            trust_threshold: 0.5,
            lease_max: 0,
        }
    }
}

/// Per-worker accounting, by slot.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Seed steps this worker completed.
    pub steps: usize,
    /// Difference-inducing inputs it found.
    pub diffs: usize,
    /// Neurons it was first to cover in the global union.
    pub contributed_neurons: usize,
    /// Claimed diffs re-executed by the coordinator.
    pub spot_checked: usize,
    /// Re-executions that failed to reproduce (fabrications).
    pub spot_failed: usize,
    /// Whether the worker was evicted for crossing the trust threshold.
    pub evicted: bool,
}

impl WorkerStats {
    /// The fraction of spot-checks this worker failed (0 when unchecked).
    pub fn fabrication_rate(&self) -> f32 {
        if self.spot_checked == 0 {
            0.0
        } else {
            self.spot_failed as f32 / self.spot_checked as f32
        }
    }
}

/// What a finished dist campaign reports.
#[derive(Clone, Debug)]
pub struct DistReport {
    /// Per-round statistics in the in-process report shape, so existing
    /// rendering and tooling apply unchanged.
    pub report: CampaignReport,
    /// Final per-model global coverage.
    pub coverage: Vec<f32>,
    /// Total seed steps absorbed (across resumes).
    pub steps_done: usize,
    /// Per-slot worker statistics.
    pub per_worker: Vec<(u64, WorkerStats)>,
    /// Difference-inducing inputs found (this serve call and resumed-from).
    pub diffs: usize,
    /// Claimed diffs that failed a spot-check and were quarantined
    /// (cumulative, across resumes).
    pub quarantined: usize,
}

impl DistReport {
    /// Renders the report plus a per-worker contribution and trust table.
    pub fn render(&self) -> String {
        let mut out = self.report.render();
        out.push_str(&format!(
            "{:<8} {:>9} {:>9} {:>11} {:>9} {:>9}  {}\n",
            "slot", "steps", "diffs", "new-units", "spot-ok", "spot-bad", "status"
        ));
        for (slot, w) in &self.per_worker {
            out.push_str(&format!(
                "{:<8} {:>9} {:>9} {:>11} {:>9} {:>9}  {}\n",
                slot,
                w.steps,
                w.diffs,
                w.contributed_neurons,
                w.spot_checked - w.spot_failed,
                w.spot_failed,
                if w.evicted { "evicted" } else { "ok" },
            ));
        }
        if self.quarantined > 0 {
            out.push_str(&format!(
                "{} claimed diff(s) failed spot-checks and were quarantined\n",
                self.quarantined
            ));
        }
        out
    }
}

/// Asks a running [`Coordinator::serve`] to drain from another thread —
/// the programmatic stand-in for SIGTERM.
#[derive(Clone)]
pub struct DrainHandle(Arc<AtomicBool>);

impl DrainHandle {
    /// Requests a graceful drain.
    pub fn drain(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Cached registry handles for the coordinator's unlabeled series, plus
/// constructors for the per-slot series minted on demand. The per-slot
/// spot-check counters and eviction gauges are the *source of truth* for
/// trust accounting: [`WorkerStats`] rows in reports and `dist.json` are
/// populated from them at snapshot time, never the other way around.
struct CoordMetrics {
    registry: MetricsRegistry,
    steps: Arc<Counter>,
    diffs: Arc<Counter>,
    leases: Arc<Counter>,
    lease_expired: Arc<Counter>,
    heartbeats: Arc<Counter>,
    requeue_depth: Arc<Gauge>,
    connected: Arc<Gauge>,
}

impl CoordMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            registry: registry.clone(),
            steps: registry.counter(names::SEEDS_TOTAL.name, &[]),
            diffs: registry.counter(names::DIFFS_TOTAL.name, &[]),
            leases: registry.counter(names::LEASES_TOTAL.name, &[]),
            lease_expired: registry.counter(names::LEASE_EXPIRED_TOTAL.name, &[]),
            heartbeats: registry.counter(names::HEARTBEATS_TOTAL.name, &[]),
            requeue_depth: registry.gauge(names::REQUEUE_DEPTH.name, &[]),
            connected: registry.gauge(names::WORKERS_CONNECTED.name, &[]),
        }
    }

    /// Lease turnaround histogram for a slot; leases run seconds, not
    /// microseconds, so the shared phase ladder is scaled up.
    fn turnaround(&self, slot: u64) -> Arc<Histogram> {
        let bounds: Vec<f64> = TIME_BUCKETS.iter().map(|b| b * 100.0).collect();
        let slot = slot.to_string();
        self.registry.histogram(names::LEASE_TURNAROUND_SECONDS.name, &[("slot", &slot)], &bounds)
    }

    fn spot(&self, slot: u64, verdict: &str) -> Arc<Counter> {
        let slot = slot.to_string();
        self.registry
            .counter(names::SPOT_CHECKS_TOTAL.name, &[("slot", &slot), ("verdict", verdict)])
    }

    /// `(checked, failed)` spot-check totals for a slot.
    fn spot_counts(&self, slot: u64) -> (usize, usize) {
        let ok = self.spot(slot, "ok").get() as usize;
        let bad = self.spot(slot, "bad").get() as usize;
        (ok + bad, bad)
    }

    fn evicted_gauge(&self, slot: u64) -> Arc<Gauge> {
        let slot = slot.to_string();
        self.registry.gauge(names::WORKER_EVICTED.name, &[("slot", &slot)])
    }

    fn is_evicted(&self, slot: u64) -> bool {
        self.evicted_gauge(slot).get() > 0.0
    }

    /// Tops the registry's trust series up to a resumed checkpoint's
    /// totals. Written as a top-up (not a blind increment) so resuming
    /// into a registry that already holds this campaign's counts — the
    /// process-global one, across serve calls — never double-counts.
    fn seed_trust(&self, per_worker: &BTreeMap<u64, WorkerStats>) {
        for (&slot, w) in per_worker {
            let (checked, bad) = self.spot_counts(slot);
            let ok_want = w.spot_checked.saturating_sub(w.spot_failed);
            let ok_have = checked - bad;
            if ok_want > ok_have {
                self.spot(slot, "ok").inc_by((ok_want - ok_have) as u64);
            }
            if w.spot_failed > bad {
                self.spot(slot, "bad").inc_by((w.spot_failed - bad) as u64);
            }
            if w.evicted {
                self.evicted_gauge(slot).set(1.0);
            }
        }
    }
}

struct State {
    ledger: Ledger,
    fleet: Fleet,
    /// Claimed diffs that failed re-execution, kept for inspection (capped
    /// at [`QUARANTINE_KEEP`]; `quarantined_total` keeps counting).
    quarantined: Vec<FoundDiff>,
    quarantined_total: usize,
    /// Worker generator RNG states, keyed by slot like the trust records
    /// (admission resolves a returning identity to its historical slot).
    worker_rng: BTreeMap<u64, [u64; 4]>,
    per_worker: BTreeMap<u64, WorkerStats>,
    /// Per-slot adaptive lease size (absent = `cfg.lease_size`).
    lease_quota: BTreeMap<u64, usize>,
    /// Drives spot-check sampling, independently of scheduling so
    /// enabling verification never changes which seeds get fuzzed.
    spot_rng: rng::Rng,
    /// When the current serve call's wall-clock budget runs out.
    serve_until: Option<Instant>,
}

/// The coordinator; see the module docs for what it adds to the engine.
pub struct Coordinator {
    cfg: CoordinatorConfig,
    gate: Gate,
    /// The coordinator's own copy of the models under test, used to
    /// re-execute spot-checked claims. Never mutated.
    suite: ModelSuite,
    /// The shape every result tensor must have (`[1, sample dims...]`);
    /// anything else from a worker is a protocol violation, not a panic.
    sample_shape: Vec<usize>,
    metrics: CoordMetrics,
    state: Ranked<State>,
    ckpt_io: CheckpointGate,
}

/// A full-state checkpoint snapshot, taken under the state lock (cheap
/// clones) and serialized + fsynced *outside* it, so a round flush never
/// stalls the other worker connections behind the coordinator mutex.
pub struct CheckpointJob {
    snapshot: Snapshot,
    dist: DistState,
}

/// The one campaign a coordinator runs, as lease and results frames tag it.
const CAMPAIGN: u64 = 0;

impl Coordinator {
    /// Creates a coordinator over initial seeds (rows of `seeds`). The
    /// suite is used for coverage-tracker shapes, the admission
    /// fingerprint and spot-check re-execution.
    ///
    /// # Panics
    ///
    /// Panics on an empty seed tensor or a config with zero
    /// `batch_per_round`/`lease_size`.
    pub fn new(suite: &ModelSuite, label: &str, seeds: &Tensor, cfg: CoordinatorConfig) -> Self {
        let n = seeds.shape().first().copied().unwrap_or(0);
        assert!(n > 0, "dist campaign needs at least one seed");
        let inputs = (0..n).map(|i| gather_rows(seeds, &[i])).collect();
        let corpus = Corpus::new(inputs, cfg.max_corpus).with_energy_model(cfg.energy);
        let gate = Gate::new(suite, label, cfg.auth_token.clone(), cfg.lease_timeout);
        let ledger = Ledger::new(corpus, gate.template.clone(), cfg.seed, Instant::now());
        Self::with_state(suite, cfg, gate, ledger, DistState::default())
    }

    /// Resumes a coordinator from the checkpoint in `cfg.checkpoint_dir`:
    /// corpus, coverage union, stats, found diffs, requeued seeds and
    /// per-slot worker RNG states all continue.
    ///
    /// # Errors
    ///
    /// Missing directory or malformed checkpoint files.
    pub fn resume(suite: &ModelSuite, label: &str, cfg: CoordinatorConfig) -> io::Result<Self> {
        let dir = cfg.checkpoint_dir.clone().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "resume needs a checkpoint dir")
        })?;
        Self::resume_from(suite, label, &dir, cfg)
    }

    /// Resumes from the checkpoint in `dir`, while future checkpoints go
    /// to `cfg.checkpoint_dir` — which may differ, forking the campaign
    /// (mirroring `dx_campaign::Campaign::resume_from`, through the same
    /// loader). A plain campaign checkpoint (no `dist.json`) resumes too.
    ///
    /// # Errors
    ///
    /// Missing directory, malformed checkpoint files, or a checkpoint
    /// written under another metric.
    pub fn resume_from(
        suite: &ModelSuite,
        label: &str,
        dir: &Path,
        mut cfg: CoordinatorConfig,
    ) -> io::Result<Self> {
        let mut dist = DistState::load(dir)?;
        let owed = dist.as_mut().map(|d| (d.steps_done, std::mem::take(&mut d.pending)));
        let (suite, ledger, _) =
            Ledger::load(dir, suite.clone(), cfg.max_corpus, cfg.energy, owed)?;
        cfg.seed = ledger.seed();
        let gate = Gate::new(&suite, label, cfg.auth_token.clone(), cfg.lease_timeout);
        Ok(Self::with_state(&suite, cfg, gate, ledger, dist.unwrap_or_default()))
    }

    fn with_state(
        suite: &ModelSuite,
        cfg: CoordinatorConfig,
        gate: Gate,
        ledger: Ledger,
        dist: DistState,
    ) -> Self {
        assert!(cfg.batch_per_round >= 1, "batch_per_round must be at least 1");
        assert!(cfg.lease_size >= 1, "lease_size must be at least 1");
        assert!((0.0..=1.0).contains(&cfg.spot_check_rate), "spot_check_rate must be in [0, 1]");
        #[expect(
            clippy::expect_used,
            reason = "constructor contract — `new` asserts a non-empty seed set and \
                      checkpoints never persist an empty corpus"
        )]
        let sample_shape = ledger
            .corpus
            .entries()
            .first()
            .map(|e| e.input.shape().to_vec())
            .expect("corpus is never empty");
        let spot_rng = rng::rng(rng::derive_seed(cfg.seed, 0x5b07));
        let metrics = CoordMetrics::new(&cfg.registry);
        // Fabrication history (and burned slots) must survive restarts.
        metrics.seed_trust(&dist.trust);
        metrics.requeue_depth.set(ledger.pending.len() as f64);
        let fleet =
            Fleet::new(dist.identities, LeaseTable::new(dist.next_lease, cfg.lease_timeout));
        Self {
            gate,
            suite: suite.clone(),
            sample_shape,
            metrics,
            state: Ranked::new(
                Rank::DaemonState,
                State {
                    ledger,
                    fleet,
                    quarantined: dist.quarantined,
                    quarantined_total: dist.quarantined_total,
                    worker_rng: dist.worker_rng,
                    per_worker: dist.trust,
                    lease_quota: BTreeMap::new(),
                    spot_rng,
                    serve_until: None,
                },
            ),
            ckpt_io: CheckpointGate::default(),
            cfg,
        }
    }

    /// A handle that asks [`Coordinator::serve`] to drain, from any thread.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle(self.gate.drain_flag())
    }

    /// The admission fingerprint workers must present.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.gate.fingerprint
    }

    /// Seed steps absorbed so far (including resumed-from steps).
    pub fn steps_done(&self) -> usize {
        self.state.lock().ledger.steps_done
    }

    /// Leases currently out with workers.
    pub fn outstanding_leases(&self) -> usize {
        self.state.lock().fleet.leases.len()
    }

    /// Claimed diffs that failed spot-checks so far (cumulative).
    pub fn quarantined(&self) -> usize {
        self.state.lock().quarantined_total
    }

    /// Mean global coverage across models.
    pub fn mean_coverage(&self) -> f32 {
        self.state.lock().ledger.mean_coverage()
    }

    /// Serves the campaign on `listener` until it drains (budget, coverage
    /// target, corpus exhaustion, or [`DrainHandle`]), then waits for
    /// outstanding leases, writes the final checkpoint, and reports.
    ///
    /// # Errors
    ///
    /// Listener failures and checkpoint I/O errors. Individual connection
    /// errors only drop that worker.
    pub fn serve(&self, listener: TcpListener) -> io::Result<DistReport> {
        {
            let now = Instant::now();
            let mut st = self.state.lock();
            st.ledger.start_round(now);
            st.serve_until = self.cfg.duration.map(|budget| now + budget);
        }
        engine::serve(self, listener)?;
        self.finish()
    }

    /// Drains once the campaign is done: budget, coverage target, or an
    /// exhausted corpus with nothing in flight.
    fn check_targets(&self, st: &State) {
        let in_flight = !st.fleet.leases.is_empty();
        if st.ledger.done_reason(self.cfg.max_steps, self.cfg.target_coverage, in_flight).is_some()
        {
            self.gate.drain();
        }
    }

    /// Jobs to grant a worker: the fixed `lease_size`, or — with adaptive
    /// sizing on — the per-worker quota learned from observed throughput.
    /// Under adaptive sizing the worker's `want` is advisory (protocol
    /// v4): a fast worker is deliberately granted more than it asks for.
    fn lease_grant(&self, st: &State, s: u64, want: usize) -> usize {
        if self.cfg.lease_max > self.cfg.lease_size {
            st.lease_quota.get(&s).copied().unwrap_or(self.cfg.lease_size).max(1)
        } else {
            want.clamp(1, self.cfg.lease_size)
        }
    }

    /// Learns a worker's next lease size from how fast it turned the last
    /// one around: aim for leases that take about a quarter of the lease
    /// timeout, moving at most a factor of two per lease so one noisy
    /// measurement cannot whipsaw the quota. `turnaround` is measured at
    /// results arrival, so coordinator-side spot-check time is excluded.
    fn update_lease_quota(&self, st: &mut State, s: u64, turnaround: Duration, absorbed: usize) {
        if self.cfg.lease_max <= self.cfg.lease_size {
            return;
        }
        let quota = st.lease_quota.get(&s).copied().unwrap_or(self.cfg.lease_size);
        let per_step = (turnaround.as_secs_f64() / absorbed.max(1) as f64).max(1e-6);
        let target = (self.cfg.lease_timeout.as_secs_f64() / 4.0).max(1e-3);
        let ideal = (target / per_step) as usize;
        let next =
            ideal.clamp((quota / 2).max(1), quota.saturating_mul(2)).clamp(1, self.cfg.lease_max);
        if next != quota {
            emit(
                Level::Debug,
                "coordinator",
                "lease_quota",
                &[("slot", s.into()), ("from", quota.into()), ("to", next.into())],
            );
        }
        st.lease_quota.insert(s, next);
    }

    /// Per-slot report rows with the trust columns read back from the
    /// registry — the counters are the source of truth; the stored structs
    /// only carry steps/diffs/contribution tallies.
    fn trust_rows(&self, st: &State) -> Vec<(u64, WorkerStats)> {
        st.per_worker
            .iter()
            .map(|(&slot, w)| {
                let (checked, bad) = self.metrics.spot_counts(slot);
                let row = WorkerStats {
                    spot_checked: checked,
                    spot_failed: bad,
                    evicted: self.metrics.is_evicted(slot),
                    ..w.clone()
                };
                (slot, row)
            })
            .collect()
    }

    /// Clones the checkpointable state under the lock; serialization and
    /// disk I/O happen later in [`Daemon::write_checkpoint`] without the
    /// lock. The trust rows' spot-check columns come from the metrics
    /// registry, not from [`State`]. `None` when persistence is disabled.
    fn snapshot_checkpoint(&self, st: &mut State) -> Option<CheckpointJob> {
        self.cfg.checkpoint_dir.as_ref()?;
        let workers = st.per_worker.len().max(1);
        let leased = st.fleet.leases.seed_ids(CAMPAIGN);
        let mut snapshot = st.ledger.snapshot(workers, leased);
        let dist = DistState {
            steps_done: st.ledger.steps_done,
            next_lease: st.fleet.leases.next_id(),
            pending: std::mem::take(&mut snapshot.pending),
            worker_rng: st.worker_rng.clone(),
            trust: self.trust_rows(st).into_iter().collect(),
            identities: st.fleet.identities().clone(),
            quarantined: st.quarantined.clone(),
            quarantined_total: st.quarantined_total,
        };
        Some(CheckpointJob { snapshot, dist })
    }

    /// Flushes the partial round, requeues outstanding leases, writes the
    /// final checkpoint, and builds the report.
    fn finish(&self) -> io::Result<DistReport> {
        let (ckpt, report) = {
            let mut st = self.state.lock();
            for (_, lease) in st.fleet.leases.clear() {
                st.ledger.requeue(lease.seed_ids);
            }
            self.metrics.requeue_depth.set(st.ledger.pending.len() as f64);
            st.ledger.flush_round(1, Instant::now());
            let ckpt = self.snapshot_checkpoint(&mut st);
            let report = DistReport {
                report: CampaignReport {
                    workers: st.per_worker.len().max(1),
                    ..st.ledger.report.clone()
                },
                coverage: st.ledger.global.iter().map(CoverageSignal::coverage).collect(),
                steps_done: st.ledger.steps_done,
                per_worker: self.trust_rows(&st),
                diffs: st.ledger.diffs.len(),
                quarantined: st.quarantined_total,
            };
            (ckpt, report)
        };
        if let Some(job) = ckpt {
            self.write_checkpoint(job)?;
        }
        Ok(report)
    }
}

impl Daemon for Coordinator {
    const COMPONENT: &'static str = "coordinator";
    type Checkpoint = CheckpointJob;

    fn gate(&self) -> &Gate {
        &self.gate
    }

    fn fleet<R>(&self, read: impl FnOnce(&Fleet) -> R) -> R {
        read(&self.state.lock().fleet)
    }

    /// Expires overdue leases and trips the stop conditions.
    fn tick(&self) -> Vec<CheckpointJob> {
        let mut st = self.state.lock();
        let now = Instant::now();
        if st.serve_until.is_some_and(|t| now >= t) {
            self.gate.drain();
        }
        for (id, lease) in st.fleet.leases.expire(now) {
            self.metrics.lease_expired.inc();
            emit(
                Level::Info,
                "coordinator",
                "lease_expired",
                &[
                    ("lease", id.into()),
                    ("slot", lease.slot.into()),
                    ("seeds", lease.seed_ids.len().into()),
                ],
            );
            st.ledger.requeue(lease.seed_ids);
        }
        self.metrics.requeue_depth.set(st.ledger.pending.len() as f64);
        self.check_targets(&st);
        Vec::new()
    }

    fn enroll(&self, worker_id: &str) -> Result<(u64, Msg), Refusal> {
        let mut st = self.state.lock();
        let slot = st.fleet.admit(worker_id, |s| self.metrics.is_evicted(s))?;
        self.metrics.connected.set(st.fleet.connected() as f64);
        st.per_worker.entry(slot).or_default();
        let rng_state = st.worker_rng.get(&slot).copied();
        Ok((slot, Msg::Welcome { slot, campaign_seed: self.cfg.seed, rng_state }))
    }

    fn worker_gone(&self, slot: u64) {
        let mut st = self.state.lock();
        // A dead worker's leases go straight back to the queue.
        for (_, lease) in st.fleet.disconnect(slot) {
            st.ledger.requeue(lease.seed_ids);
        }
        self.metrics.connected.set(st.fleet.connected() as f64);
        self.metrics.requeue_depth.set(st.ledger.pending.len() as f64);
    }

    fn lease(&self, peer: &Peer, want: usize, views: &mut Views<'_>) -> Msg {
        let s = peer.slot;
        let mut st = self.state.lock();
        let grant = self.lease_grant(&st, s, want);
        let leased = st.fleet.leases.seed_ids(CAMPAIGN);
        let ids = st.ledger.pick_seeds(&leased, grant);
        if ids.is_empty() {
            if st.ledger.corpus.all_exhausted() && leased.is_empty() {
                self.gate.drain();
                return Msg::Drain;
            }
            // Everything schedulable is out on a lease right now.
            return Msg::Wait { millis: 50 };
        }
        let jobs = engine::jobs(&st.ledger, &ids);
        let granted = ids.len();
        let lease = st.fleet.leases.grant(s, CAMPAIGN, ids, Instant::now());
        self.metrics.leases.inc();
        self.metrics.requeue_depth.set(st.ledger.pending.len() as f64);
        emit(
            Level::Debug,
            "coordinator",
            "lease_granted",
            &[("lease", lease.into()), ("slot", s.into()), ("seeds", granted.into())],
        );
        Msg::Lease {
            lease,
            jobs,
            cov: views.news(CAMPAIGN, &st.ledger.global),
            campaign: CAMPAIGN,
            campaign_seed: self.cfg.seed,
            rng_state: st.worker_rng.get(&s).copied(),
        }
    }

    fn heartbeat(&self, peer: &Peer, lease: u64, views: &mut Views<'_>) -> Msg {
        self.metrics.heartbeats.inc();
        let mut st = self.state.lock();
        st.fleet.leases.heartbeat(lease, peer.slot, Instant::now());
        Msg::Ack { cov: views.news(CAMPAIGN, &st.ledger.global) }
    }

    /// Handles a `results` frame in three phases: validate and claim under
    /// the state lock, re-execute sampled diff claims *outside* it (model
    /// forward passes must not stall every other connection), then absorb
    /// or punish under the lock again.
    fn results(
        &self,
        peer: &Peer,
        frame: ResultsFrame,
        views: &mut Views<'_>,
    ) -> (Reply, Vec<CheckpointJob>) {
        let s = peer.slot;
        let ResultsFrame { lease, campaign, items, cov, rng_state, telemetry } = frame;
        if campaign != CAMPAIGN {
            return (Reply::reject(format!("unknown campaign {campaign}")), Vec::new());
        }
        // Phase 1 (locked): validate the frame, claim the lease, sample
        // which claimed diffs to re-execute.
        let (plan, checks) = {
            let mut st = self.state.lock();
            if let Err(reason) = engine::check(&st.ledger.global, &cov, &items, &self.sample_shape)
            {
                return (Reply::reject(reason), Vec::new());
            }
            let plan = match st.fleet.leases.claim(lease, s, Instant::now()) {
                Ok(plan) => plan,
                Err(reason) => return (Reply::reject(reason), Vec::new()),
            };
            // Sample claimed diffs among items that could be absorbed.
            let mut checks = Vec::new();
            if self.cfg.spot_check_rate > 0.0 {
                use rand::Rng as _;
                for item in &items {
                    if !plan.absorbable(&st.ledger, item.seed_id) || !item.run.found_difference() {
                        continue;
                    }
                    if st.spot_rng.gen_range(0.0f32..1.0) < self.cfg.spot_check_rate {
                        if let Some(test) = item.run.test.as_ref() {
                            checks.push((item.seed_id, test.clone()));
                        }
                    }
                }
            }
            (plan, checks)
        };
        // Phase 2 (unlocked): re-execute the sampled claims through the
        // coordinator's own models.
        let failed: Vec<_> = checks
            .iter()
            .filter(|(_, t)| !self.suite.reproduces_difference(&t.input, &t.predictions))
            .collect();
        // Phase 3 (locked): punish or apply. The registry's per-slot
        // spot-check counters are the trust ledger; `per_worker` keeps
        // only throughput tallies (report rows re-read the registry).
        if !checks.is_empty() {
            self.metrics.spot(s, "ok").inc_by((checks.len() - failed.len()) as u64);
            self.metrics.spot(s, "bad").inc_by(failed.len() as u64);
        }
        let mut st = self.state.lock();
        if matches!(plan, Plan::Lease { .. }) {
            st.fleet.leases.release(lease);
        }
        if !failed.is_empty() {
            for (seed_id, t) in &failed {
                st.quarantined_total += 1;
                if st.quarantined.len() < QUARANTINE_KEEP {
                    let diff = st.ledger.diff_of(*seed_id, t);
                    st.quarantined.push(diff);
                }
            }
            // Nothing from this frame is trusted: no coverage union, no
            // corpus absorption, no RNG persistence. The lease's seeds go
            // back to the queue for an honest worker.
            if let Plan::Lease { seed_ids, .. } = plan {
                st.ledger.requeue(seed_ids);
                self.metrics.requeue_depth.set(st.ledger.pending.len() as f64);
            }
            let (checked, bad) = self.metrics.spot_counts(s);
            emit(
                Level::Warn,
                "coordinator",
                "spot_check_failed",
                &[
                    ("slot", s.into()),
                    ("lease", lease.into()),
                    ("failed", failed.len().into()),
                    ("sampled", checks.len().into()),
                ],
            );
            let rate = if checked == 0 { 0.0 } else { bad as f32 / checked as f32 };
            if checked >= TRUST_MIN_CHECKS && rate > self.cfg.trust_threshold {
                self.metrics.evicted_gauge(s).set(1.0);
                drop(st);
                emit(
                    Level::Warn,
                    "coordinator",
                    "worker_evicted",
                    &[("slot", s.into()), ("failed", bad.into()), ("checked", checked.into())],
                );
                let reason =
                    format!("evicted: {bad} of {checked} spot-checked diffs failed to reproduce");
                return (Reply::reject(reason), Vec::new());
            }
            return (self.gate.ack(views.news(CAMPAIGN, &st.ledger.global)), Vec::new());
        }
        // All sampled claims reproduced: fold the frame in, advisory
        // telemetry included (an untrusted frame never gets this far).
        if let Some(t) = &telemetry {
            engine::merge_worker_telemetry(&self.cfg.registry, t);
            if let Some(hb) = &t.heartbeat {
                let slot = s.to_string();
                let rtt = names::HEARTBEAT_RTT_SECONDS.name;
                self.cfg.registry.histogram(rtt, &[("slot", &slot)], &TIME_BUCKETS).merge_local(hb);
            }
        }
        let absorbed = plan.absorb(&mut st.ledger, &items, &cov);
        views.learn(CAMPAIGN, &cov);
        st.worker_rng.insert(s, rng_state);
        let w = st.per_worker.entry(s).or_default();
        w.contributed_neurons += absorbed.newly_covered;
        w.steps += absorbed.steps;
        w.diffs += absorbed.diffs;
        self.metrics.steps.inc_by(absorbed.steps as u64);
        self.metrics.diffs.inc_by(absorbed.diffs as u64);
        match plan {
            Plan::Lease { turnaround, .. } => {
                self.metrics.turnaround(s).observe(turnaround.as_secs_f64());
                self.update_lease_quota(&mut st, s, turnaround, absorbed.steps);
            }
            Plan::Collision => {}
            Plan::Expired => {
                self.metrics.requeue_depth.set(st.ledger.pending.len() as f64);
                emit(
                    Level::Debug,
                    "coordinator",
                    "lease_salvaged",
                    &[
                        ("lease", lease.into()),
                        ("slot", s.into()),
                        ("salvaged", absorbed.steps.into()),
                        ("dropped", (items.len() - absorbed.steps).into()),
                    ],
                );
            }
        }
        let round = st.ledger.flush_round(self.cfg.batch_per_round, Instant::now());
        let ckpt = round.and_then(|_| self.snapshot_checkpoint(&mut st));
        self.check_targets(&st);
        let reply = self.gate.ack(views.news(CAMPAIGN, &st.ledger.global));
        (reply, ckpt.into_iter().collect())
    }

    /// Writes a snapshot to the checkpoint directory.
    fn write_checkpoint(&self, job: CheckpointJob) -> io::Result<()> {
        let Some(dir) = self.cfg.checkpoint_dir.as_deref() else { return Ok(()) };
        self.ckpt_io.write(CAMPAIGN, &job.snapshot, dir, || {
            write_atomic(&dir.join("dist.json"), &(job.dist.doc().to_string() + "\n"))
        })
    }
}

/// The dist-specific checkpoint extension (`dist.json`): seeds owed to the
/// queue (requeued plus outstanding at save time), per-slot worker RNG
/// states, since v2 per-slot trust accounting plus the quarantined diffs
/// that failed spot-checks, and since v3 the worker identity bound to each
/// slot — so eviction survives a restart keyed to the identity, not the
/// connection order. Snapshots are cheap field clones under the
/// coordinator lock; JSON rendering (the expensive part, with up to
/// [`QUARANTINE_KEEP`] inlined tensors) happens in [`DistState::doc`],
/// outside it.
#[derive(Default)]
struct DistState {
    steps_done: usize,
    next_lease: u64,
    pending: Vec<usize>,
    worker_rng: BTreeMap<u64, [u64; 4]>,
    trust: BTreeMap<u64, WorkerStats>,
    identities: BTreeMap<u64, String>,
    quarantined: Vec<FoundDiff>,
    quarantined_total: usize,
}

impl DistState {
    /// The `dist.json` document for a snapshot.
    fn doc(&self) -> Json {
        let workers = Json::Arr(
            self.worker_rng
                .iter()
                .map(|(&slot, state)| {
                    build::obj(vec![("slot", u64_json(slot)), ("state", rng_state_json(state))])
                })
                .collect(),
        );
        let trust = Json::Arr(
            self.trust
                .iter()
                .map(|(&slot, w)| {
                    build::obj(vec![
                        ("slot", u64_json(slot)),
                        ("checked", build::int(w.spot_checked)),
                        ("failed", build::int(w.spot_failed)),
                        ("evicted", Json::Bool(w.evicted)),
                    ])
                })
                .collect(),
        );
        let identities = Json::Arr(
            self.identities
                .iter()
                .map(|(&slot, id)| {
                    build::obj(vec![("slot", u64_json(slot)), ("worker_id", build::str(id))])
                })
                .collect(),
        );
        build::obj(vec![
            ("version", build::int(3)),
            ("steps_done", build::int(self.steps_done)),
            ("next_lease", u64_json(self.next_lease)),
            ("pending", build::ints(&self.pending)),
            ("worker_rng", workers),
            ("trust", trust),
            ("identities", identities),
            ("quarantined_total", build::int(self.quarantined_total)),
            ("quarantined", Json::Arr(self.quarantined.iter().map(diff_json).collect())),
        ])
    }

    /// `Ok(None)` when the file is absent — a plain campaign checkpoint.
    /// v1 files (no trust/quarantine fields) load with empty trust state.
    fn load(dir: &Path) -> io::Result<Option<Self>> {
        let text = match std::fs::read_to_string(dir.join("dist.json")) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
            Ok(t) => t,
        };
        let doc = parse_doc(&text)?;
        let quarantined: Vec<_> = doc.opt_list_with("quarantined", diff_from_json)?;
        Ok(Some(Self {
            steps_done: doc.field("steps_done")?,
            next_lease: doc.opt_field("next_lease")?.unwrap_or(0),
            pending: doc.opt_field("pending")?.unwrap_or_default(),
            worker_rng: doc.opt_list_with("worker_rng", |e| {
                Ok((e.field("slot")?, e.field_with("state", rng_state_from_json)?))
            })?,
            trust: doc.opt_list_with("trust", |e| {
                let stats = WorkerStats {
                    spot_checked: e.field("checked")?,
                    spot_failed: e.field("failed")?,
                    evicted: e.opt_field("evicted")?.unwrap_or(false),
                    ..WorkerStats::default()
                };
                Ok((e.field("slot")?, stats))
            })?,
            // v2 files predate identity-keyed slots: absent → empty map,
            // and returning workers are treated as fresh identities on new
            // slots.
            identities: doc
                .opt_list_with("identities", |e| Ok((e.field("slot")?, e.field("worker_id")?)))?,
            quarantined_total: doc.opt_field("quarantined_total")?.unwrap_or(quarantined.len()),
            quarantined,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_json_round_trips_byte_equal() {
        let dir = std::env::temp_dir().join("dx_dist_json_round_trip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Every field non-default (`quarantined_total` above the kept
        // diffs), so a key the loader drops or defaults changes the
        // second write.
        let state = DistState {
            steps_done: 7,
            next_lease: u64::MAX - 3,
            pending: vec![4, 1],
            worker_rng: BTreeMap::from([(0, [1, 2, 3, u64::MAX]), (5, [9, 8, 7, 6])]),
            trust: BTreeMap::from([(
                5,
                WorkerStats {
                    spot_checked: 3,
                    spot_failed: 2,
                    evicted: true,
                    ..Default::default()
                },
            )]),
            identities: BTreeMap::from([(0, "w-cafe".to_string()), (5, "w-f00d".to_string())]),
            quarantined: vec![FoundDiff {
                seed_id: 2,
                epoch: 1,
                input: rng::uniform(&mut rng::rng(3), &[1, 6], 0.0, 1.0),
                predictions: vec![
                    deepxplore::diff::Prediction::Class(0),
                    deepxplore::diff::Prediction::Class(2),
                ],
                iterations: 5,
                target_model: 1,
            }],
            quarantined_total: 4,
        };
        let first = state.doc().to_string();
        std::fs::write(dir.join("dist.json"), format!("{first}\n")).unwrap();
        let loaded = DistState::load(&dir).unwrap().expect("dist.json is present");
        assert_eq!(first, loaded.doc().to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dist_json_decoder_survives_mutation() {
        let dir = std::env::temp_dir().join("dx_dist_json_fuzz");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let state = DistState {
            steps_done: 7,
            next_lease: 3,
            pending: vec![4, 1],
            worker_rng: BTreeMap::from([(0, [1, 2, 3, u64::MAX])]),
            trust: BTreeMap::from([(0, WorkerStats { spot_checked: 3, ..Default::default() })]),
            identities: BTreeMap::from([(0, "w-cafe".to_string())]),
            quarantined: vec![FoundDiff {
                seed_id: 2,
                epoch: 1,
                input: rng::uniform(&mut rng::rng(3), &[1, 3], 0.0, 1.0),
                predictions: vec![deepxplore::diff::Prediction::Value(0.5)],
                iterations: 5,
                target_model: 1,
            }],
            quarantined_total: 2,
        };
        dx_integration::fuzz::check_decoder(&[state.doc().to_string()], 2048, |text| {
            std::fs::write(dir.join("dist.json"), text)?;
            let loaded = DistState::load(&dir)?.ok_or(io::ErrorKind::NotFound)?;
            Ok(loaded.doc().to_string())
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
