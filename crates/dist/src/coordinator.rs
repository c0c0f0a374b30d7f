//! The one daemon: a map of campaigns ([`Tenant`]s) served to one
//! worker fleet. Its policy is [`crate::dispatcher`]'s; serving,
//! admission and lease bookkeeping are [`crate::engine`]'s. The two
//! constructors differ only in the map they start from and whether the
//! daemon outlives it:
//!
//! * [`Coordinator::new`] / [`Coordinator::resume`] admit *one* campaign
//!   built from [`CoordinatorConfig`] (`seed`, `max_steps`,
//!   `target_coverage`), checkpointed at the root of `checkpoint_dir`,
//!   and drain once it is done or `duration` runs out, then report
//!   ([`DistReport`]).
//! * [`Coordinator::open`] is the `dx-service` daemon: campaigns arrive,
//!   pause and stop through [`Coordinator::add_tenant`] and
//!   [`Coordinator::set_status`], each checkpointed under
//!   `checkpoint_dir/<id>/`, and only an explicit drain stops it.
//!
//! **Fleet-wide** ([`Books`]): the engine's [`Fleet`] — one
//! [`Worker`] record per identity (its trust, report row and adaptive
//! lease quota) and the leases. Trust is state there: the spot-check
//! counters and eviction gauges in the metrics registry are written from
//! it, never read back. On disk that is the root's `fleet.json`
//! (`FleetRecord`); each campaign directory holds the campaign files plus
//! `dist.json` and `events.jsonl` ([`crate::tenant`]).
//!
//! **Events after the lock.** Every locked section runs through
//! [`Coordinator::locked`], which collects its events in an [`Outbox`]
//! and emits them once the guard drops: emitting blocks, and
//! `dx_telemetry::sync` refuses to block under the daemon's lock.

use std::collections::BTreeMap;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dx_campaign::codec::u64_json;
use dx_campaign::json::{build, invalid, Json};
use dx_campaign::ledger::{CheckpointGate, Ledger, Snapshot};
use dx_campaign::{CampaignReport, Corpus, EnergyModel, ModelSuite};
use dx_coverage::CoverageSignal;
use dx_nn::util::gather_rows;
use dx_telemetry::events::{emit, Level, Value};
use dx_telemetry::phase::TIME_BUCKETS;
use dx_telemetry::sync::{Rank, Ranked};
use dx_telemetry::{names, Counter, Gauge, Histogram, MetricsRegistry};
use dx_tensor::Tensor;

use crate::engine::{self, Daemon as _, Fleet, Gate, LeaseTable, Trust, Worker};
use crate::proto::Fingerprint;
use crate::spec::CampaignSpec;
use crate::tenant::{read_doc, Record, Status, Tenant};

/// Quarantined diffs kept in memory/checkpoints for inspection; beyond
/// this only the counter grows (a fabricator must not balloon `dist.json`).
pub(crate) const QUARANTINE_KEEP: usize = 256;

/// The daemon's component on events and in reject reasons.
pub(crate) const COMPONENT: &str = "coordinator";

/// Daemon scheduling, budget and persistence knobs. `seed`, `max_steps`
/// and `target_coverage` describe a dedicated coordinator's one campaign;
/// a service's campaigns bring their own in their specs.
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
    pub checkpoint_dir: Option<PathBuf>,
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
    /// Every worker's record, in admission order.
    pub per_worker: Vec<Worker>,
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
            "{:<18} {:>9} {:>9} {:>11} {:>9} {:>9}  {}\n",
            "worker", "steps", "diffs", "new-units", "spot-ok", "spot-bad", "status"
        ));
        for w in &self.per_worker {
            let t = &w.trust;
            out.push_str(&format!(
                "{:<18} {:>9} {:>9} {:>11} {:>9} {:>9}  {}\n",
                if w.identity.is_empty() { "-" } else { &w.identity },
                w.steps,
                w.diffs,
                w.contributed,
                t.checked.saturating_sub(t.failed),
                t.failed,
                if t.evicted { "evicted" } else { "ok" },
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

/// Cached registry handles for the fleet-wide series, plus the per-worker
/// series minted on demand under `worker=<identity>`. The trust series are
/// a view of the books ([`CoordMetrics::publish`]), never read back.
pub(crate) struct CoordMetrics {
    pub registry: MetricsRegistry,
    pub lease_expired: Arc<Counter>,
    pub heartbeats: Arc<Counter>,
    pub connected: Arc<Gauge>,
    pub tenants_live: Arc<Gauge>,
}

impl CoordMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            registry: registry.clone(),
            lease_expired: registry.counter(names::LEASE_EXPIRED_TOTAL.name, &[]),
            heartbeats: registry.counter(names::HEARTBEATS_TOTAL.name, &[]),
            connected: registry.gauge(names::WORKERS_CONNECTED.name, &[]),
            tenants_live: registry.gauge(names::SERVICE_TENANTS.name, &[]),
        }
    }

    /// Lease turnaround histogram for a worker; leases run seconds, not
    /// microseconds, so the shared phase ladder is scaled up.
    pub fn turnaround(&self, worker: &str) -> Arc<Histogram> {
        let bounds: Vec<f64> = TIME_BUCKETS.iter().map(|b| b * 100.0).collect();
        let name = names::LEASE_TURNAROUND_SECONDS.name;
        self.registry.histogram(name, &[("worker", worker)], &bounds)
    }

    /// Adds `ok` reproduced and `bad` failed spot-checks to `worker`'s
    /// trust series, and marks it if `evicted`: the books' totals on
    /// resume, then each batch they record.
    pub fn publish(&self, worker: &str, ok: usize, bad: usize, evicted: bool) {
        for (verdict, n) in [("ok", ok), ("bad", bad)] {
            let labels = [("worker", worker), ("verdict", verdict)];
            self.registry.counter(names::SPOT_CHECKS_TOTAL.name, &labels).inc_by(n as u64);
        }
        if evicted {
            self.registry.gauge(names::WORKER_EVICTED.name, &[("worker", worker)]).set(1.0);
        }
    }
}

/// Raises `counter` to `total` if it is below: a resumed total never
/// counts twice into a registry that already holds it.
pub(crate) fn top_up(counter: &Counter, total: usize) {
    counter.inc_by((total as u64).saturating_sub(counter.get()));
}

/// Everything behind the daemon's lock.
pub struct Books {
    /// The campaigns, by id (a lease's `campaign`).
    pub tenants: BTreeMap<u64, Tenant>,
    /// The workers and every campaign's outstanding leases.
    pub fleet: Fleet,
    /// When the current serve call's wall-clock budget runs out.
    pub(crate) serve_until: Option<Instant>,
    /// Numbers fleet snapshots, so an older one never overwrites a newer.
    fleet_seq: u64,
}

impl Books {
    /// Campaigns not yet done or cancelled.
    pub fn live(&self) -> usize {
        self.tenants.values().filter(|t| !t.status.is_terminal()).count()
    }
}

/// An event's fields.
pub(crate) type Fields = Vec<(&'static str, Value)>;

/// What a locked section leaves for after its guard drops: the events it
/// built and the checkpoints it took.
#[derive(Default)]
pub struct Outbox {
    events: Vec<(Level, &'static str, String, Fields)>,
    ckpts: Vec<Ckpt>,
}

impl Outbox {
    /// Queues an event for the process stream: [`emit`]'s arguments.
    pub(crate) fn emit(
        &mut self,
        level: Level,
        component: &'static str,
        event: impl Into<String>,
        fields: Fields,
    ) {
        self.events.push((level, component, event.into(), fields));
    }

    /// Queues a checkpoint; it supersedes one the same section took of the
    /// same campaign (each carries the full state).
    pub(crate) fn checkpoint(&mut self, job: Option<Ckpt>) {
        if let Some(job) = job {
            self.ckpts.retain(|j| j.tenant != job.tenant);
            self.ckpts.push(job);
        }
    }
}

/// A checkpoint taken under the lock (cheap clones) and written outside
/// it: one campaign's files, `dist.json` and feed, and the fleet's
/// `fleet.json`.
pub struct Ckpt {
    tenant: u64,
    dir: PathBuf,
    snapshot: Snapshot,
    record: Record,
    events: String,
    fleet: (u64, FleetRecord),
}

/// The daemon; see the module docs.
pub struct Coordinator {
    pub(crate) cfg: CoordinatorConfig,
    pub(crate) gate: Gate,
    /// The daemon's own copy of the models under test, used to re-execute
    /// spot-checked claims. Never mutated.
    pub(crate) suite: ModelSuite,
    /// The shape every result tensor must have (`[1, sample dims...]`);
    /// anything else from a worker is a protocol violation, not a panic.
    pub(crate) sample_shape: Vec<usize>,
    pub(crate) metrics: CoordMetrics,
    state: Ranked<Books>,
    ckpt_io: CheckpointGate,
    /// The newest fleet snapshot written.
    fleet_written: AtomicU64,
    /// A coordinator drains once its campaigns are done; a service
    /// outlives them.
    drain_when_done: bool,
}

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
        let ledger =
            Ledger::new(corpus, suite.signal.build(&suite.models), cfg.seed, Instant::now());
        let spec = CampaignSpec { seeds: n, ..Self::spec(&cfg, CampaignSpec::named("campaign")) };
        let dir = cfg.checkpoint_dir.clone();
        let tenant = Tenant::new(0, spec, ledger, cfg.registry.clone(), dir);
        Self::with_tenants(suite, label, cfg, vec![tenant], FleetRecord::default(), true)
    }

    /// Resumes a coordinator from the checkpoint in `cfg.checkpoint_dir`:
    /// corpus, coverage union, stats, found diffs, requeued seeds,
    /// identity-keyed worker RNG states and the fleet's trust records all
    /// continue.
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
    /// loader). A plain campaign checkpoint (no `dist.json`) resumes too,
    /// and so do the `dist.json` v1–v3 of older builds.
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
        let (suite, mut tenant, legacy) =
            Tenant::load(dir, suite, cfg.max_corpus, cfg.energy, cfg.registry.clone())?;
        let fleet = FleetRecord::load(dir)?.or(legacy).unwrap_or_default();
        cfg.seed = tenant.ledger.seed();
        // The config, not the checkpoint, says when the campaign is done.
        tenant.spec = Self::spec(&cfg, tenant.spec);
        tenant.status = Status::Running;
        tenant.dir.clone_from(&cfg.checkpoint_dir);
        Ok(Self::with_tenants(&suite, label, cfg, vec![tenant], fleet, true))
    }

    /// The daemon of `dx-service`: it resumes every campaign checkpointed
    /// under `cfg.checkpoint_dir/<id>/` (a `dist.json`, or an older
    /// build's `tenant.json`) and the fleet state in its `fleet.json`,
    /// takes new campaigns through [`Coordinator::add_tenant`], and never
    /// drains itself.
    ///
    /// # Errors
    ///
    /// A malformed campaign directory, or one written under a metric other
    /// than `suite`'s.
    ///
    /// # Panics
    ///
    /// Panics on a config with zero `batch_per_round`/`lease_size`.
    pub fn open(suite: &ModelSuite, label: &str, cfg: CoordinatorConfig) -> io::Result<Self> {
        let mut tenants = Vec::new();
        let mut fleet = None;
        if let Some(root) = cfg.checkpoint_dir.as_deref().filter(|d| d.is_dir()) {
            fleet = FleetRecord::load(root)?;
            for entry in std::fs::read_dir(root)? {
                let path = entry?.path();
                if !path.join("dist.json").is_file() && !path.join("tenant.json").is_file() {
                    continue;
                }
                let (_, mut t, _) =
                    Tenant::load(&path, suite, cfg.max_corpus, cfg.energy, MetricsRegistry::new())?;
                t.dir = Some(root.join(t.id.to_string()));
                let (id, name, status) = (t.id, t.spec.name.clone(), t.status.as_str());
                let fields = [("id", id.into()), ("name", name.into()), ("status", status.into())];
                emit(Level::Info, "coordinator", "tenant_loaded", &fields);
                tenants.push(t);
            }
        }
        let fleet = fleet.unwrap_or_default();
        Ok(Self::with_tenants(suite, label, cfg, tenants, fleet, false))
    }

    /// A coordinator's one campaign's spec: `spec` under the config's seed
    /// and stop conditions.
    fn spec(cfg: &CoordinatorConfig, spec: CampaignSpec) -> CampaignSpec {
        CampaignSpec {
            seed: cfg.seed,
            max_steps: cfg.max_steps,
            target_coverage: cfg.target_coverage,
            ..spec
        }
    }

    fn with_tenants(
        suite: &ModelSuite,
        label: &str,
        cfg: CoordinatorConfig,
        tenants: Vec<Tenant>,
        fleet: FleetRecord,
        drain_when_done: bool,
    ) -> Self {
        assert!(cfg.batch_per_round >= 1, "batch_per_round must be at least 1");
        assert!(cfg.lease_size >= 1, "lease_size must be at least 1");
        assert!((0.0..=1.0).contains(&cfg.spot_check_rate), "spot_check_rate must be in [0, 1]");
        let metrics = CoordMetrics::new(&cfg.registry);
        // Fabrication history (and evictions) survive restarts. A
        // placeholder has no identity to label.
        for w in fleet.workers.iter().filter(|w| !w.identity.is_empty()) {
            let Trust { checked, failed, evicted } = w.trust;
            metrics.publish(&w.identity, checked.saturating_sub(failed), failed, evicted);
        }
        let books = Books {
            tenants: tenants.into_iter().map(|t| (t.id, t)).collect(),
            fleet: Fleet {
                workers: fleet.workers,
                leases: LeaseTable::new(fleet.next_lease, cfg.lease_timeout),
            },
            serve_until: None,
            fleet_seq: 0,
        };
        metrics.tenants_live.set(books.live() as f64);
        Self {
            gate: Gate::new(suite, label, cfg.auth_token.clone(), cfg.lease_timeout),
            suite: suite.clone(),
            sample_shape: [&[1][..], suite.models.first().map_or(&[], |m| m.input_shape())]
                .concat(),
            metrics,
            state: Ranked::new(Rank::DaemonState, books),
            ckpt_io: CheckpointGate::default(),
            fleet_written: AtomicU64::new(0),
            drain_when_done,
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
        self.state.lock().tenants.values().map(|t| t.ledger.steps_done).sum()
    }

    /// Leases currently out with workers.
    pub fn outstanding_leases(&self) -> usize {
        self.state.lock().fleet.leases.len()
    }

    /// Claimed diffs that failed spot-checks so far (cumulative).
    pub fn quarantined(&self) -> usize {
        self.state.lock().tenants.values().map(|t| t.quarantined_total).sum()
    }

    /// Mean global coverage across models of the first campaign.
    pub fn mean_coverage(&self) -> f32 {
        self.state.lock().tenants.values().next().map_or(0.0, |t| t.ledger.mean_coverage())
    }

    /// Runs `f` on the books under the daemon's lock, then — the guard
    /// dropped — emits the events it built and hands back the checkpoints
    /// it took, for the caller to write.
    pub fn locked<R>(&self, f: impl FnOnce(&mut Books, &mut Outbox) -> R) -> (R, Vec<Ckpt>) {
        let mut out = Outbox::default();
        let r = f(&mut self.state.lock(), &mut out);
        for (level, component, event, fields) in &out.events {
            emit(*level, component, event, fields);
        }
        (r, out.ckpts)
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
        self.serve_fleet(listener)?;
        let (report, _) = self.locked(|st, _| {
            let t = st.tenants.values().next();
            DistReport {
                report: CampaignReport {
                    workers: st.fleet.workers.len().max(1),
                    ..t.map(|t| t.ledger.report.clone()).unwrap_or_default()
                },
                coverage: t.map_or_else(Vec::new, |t| {
                    t.ledger.global.iter().map(CoverageSignal::coverage).collect()
                }),
                steps_done: t.map_or(0, |t| t.ledger.steps_done),
                per_worker: st.fleet.workers.to_vec(),
                diffs: t.map_or(0, |t| t.ledger.diffs.len()),
                quarantined: t.map_or(0, |t| t.quarantined_total),
            }
        });
        Ok(report)
    }

    /// Serves the fleet on `listener` until a drain, then requeues what is
    /// still leased, flushes every campaign's partial round and writes its
    /// final checkpoint.
    ///
    /// # Errors
    ///
    /// Listener failures and final-checkpoint I/O errors.
    pub fn serve_fleet(&self, listener: TcpListener) -> io::Result<()> {
        self.locked(|st, _| {
            let now = Instant::now();
            for t in st.tenants.values_mut() {
                t.ledger.start_round(now);
            }
            st.serve_until = self.cfg.duration.map(|budget| now + budget);
        });
        engine::serve(self, listener)?;
        let ((), ckpts) = self.locked(|st, out| {
            for (_, lease) in st.fleet.leases.clear() {
                requeue(st, lease.campaign, lease.seed_ids);
            }
            self.retire_finished(st, out);
            let ids: Vec<u64> = st.tenants.keys().copied().collect();
            for id in ids {
                if let Some(t) = st.tenants.get_mut(&id) {
                    t.close_round(out, 1);
                }
                out.checkpoint(self.snapshot(st, id));
            }
        });
        ckpts.into_iter().try_for_each(|job| self.write_checkpoint(job))
    }

    /// Adds a running campaign over `inputs` (one tensor per seed row) and
    /// returns its id. It starts at the smallest running pass, not zero —
    /// otherwise it would monopolize the fleet until it caught up with
    /// campaigns that have been running for hours.
    pub fn add_tenant(
        &self,
        st: &mut Books,
        spec: CampaignSpec,
        inputs: Vec<Tensor>,
        out: &mut Outbox,
    ) -> u64 {
        let id = st.tenants.last_key_value().map_or(0, |(&id, _)| id + 1);
        let corpus = Corpus::new(inputs, self.cfg.max_corpus).with_energy_model(self.cfg.energy);
        let ledger = Ledger::new(corpus, self.gate.template.clone(), spec.seed, Instant::now());
        let dir = self.cfg.checkpoint_dir.as_ref().map(|root| root.join(id.to_string()));
        let mut t = Tenant::new(id, spec, ledger, MetricsRegistry::new(), dir);
        let running = st.tenants.values().filter(|t| t.status == Status::Running);
        let floor = running.map(|t| t.pass).fold(f64::INFINITY, f64::min);
        if floor.is_finite() {
            t.pass = floor;
        }
        t.event(out, Level::Info, "submitted", vec![("name", t.spec.name.clone().into())]);
        st.tenants.insert(id, t);
        out.checkpoint(self.snapshot(st, id));
        self.metrics.tenants_live.set(st.live() as f64);
        id
    }

    /// Moves campaign `id` to `to`, recording `kind` with `fields` as its
    /// event; a cancelled campaign's requeue is cleared. A coordinator
    /// drains once every campaign is finished.
    pub fn set_status(
        &self,
        st: &mut Books,
        id: u64,
        to: Status,
        kind: &str,
        fields: Fields,
        out: &mut Outbox,
    ) {
        let Some(t) = st.tenants.get_mut(&id) else { return };
        t.status = to;
        if to == Status::Cancelled {
            t.ledger.pending.clear();
            t.metrics.sync(&t.ledger);
        }
        t.event(out, Level::Info, kind, fields);
        out.checkpoint(self.snapshot(st, id));
        self.metrics.tenants_live.set(st.live() as f64);
        if self.drain_when_done && st.live() == 0 {
            self.gate.drain();
        }
    }

    /// Marks every running campaign that hit a stop condition done.
    pub(crate) fn retire_finished(&self, st: &mut Books, out: &mut Outbox) {
        let ids: Vec<u64> = st.tenants.keys().copied().collect();
        for id in ids {
            let in_flight = !st.fleet.leases.seed_ids(id).is_empty();
            let reason =
                st.tenants.get(&id).filter(|t| t.status == Status::Running).and_then(|t| {
                    t.ledger.done_reason(t.spec.max_steps, t.spec.target_coverage, in_flight)
                });
            if let Some(reason) = reason {
                self.set_status(st, id, Status::Done, "done", vec![("reason", reason.into())], out);
            }
        }
    }

    /// Clones campaign `id`'s checkpointable state and the fleet's under
    /// the lock; rendering and disk I/O happen later, in
    /// [`crate::engine::Daemon::write_checkpoint`], without it. `None` when
    /// the campaign does not persist.
    pub(crate) fn snapshot(&self, st: &mut Books, id: u64) -> Option<Ckpt> {
        let leased = st.fleet.leases.seed_ids(id);
        st.fleet_seq += 1;
        let fleet = FleetRecord {
            next_lease: st.fleet.leases.next_id(),
            workers: st.fleet.workers.to_vec(),
        };
        let t = st.tenants.get_mut(&id)?;
        let dir = t.dir.clone()?;
        let mut snapshot = t.ledger.snapshot(t.worker_rng.len().max(1), leased);
        Some(Ckpt {
            tenant: id,
            dir,
            record: t.record(std::mem::take(&mut snapshot.pending)),
            snapshot,
            events: t.events.iter().map(|line| format!("{line}\n")).collect(),
            fleet: (st.fleet_seq, fleet),
        })
    }

    /// Writes a snapshot: the campaign's files into its directory, then —
    /// unless a newer one already landed — the fleet's at the root.
    pub(crate) fn write(&self, job: Ckpt) -> io::Result<()> {
        let Ckpt { tenant, dir, snapshot, record, events, fleet: (seq, fleet) } = job;
        self.ckpt_io.write(tenant, &snapshot, &dir, || {
            write_atomic(&dir.join("dist.json"), &record.doc())?;
            dx_campaign::checkpoint::write_atomic(&dir.join("events.jsonl"), &events)?;
            // Under the checkpoint writer's lock: fleet writes are serial.
            let Some(root) = self.cfg.checkpoint_dir.as_deref() else { return Ok(()) };
            if seq > self.fleet_written.load(Ordering::SeqCst) {
                write_atomic(&root.join("fleet.json"), &fleet.doc())?;
                self.fleet_written.store(seq, Ordering::SeqCst);
            }
            Ok(())
        })
    }
}

/// Writes `doc` and a newline to `path` atomically.
fn write_atomic(path: &Path, doc: &Json) -> io::Result<()> {
    dx_campaign::checkpoint::write_atomic(path, &(doc.to_string() + "\n"))
}

/// A lost lease's seeds go back to its campaign's queue — unless the
/// campaign was cancelled and nothing will schedule them again.
pub(crate) fn requeue(st: &mut Books, campaign: u64, seed_ids: Vec<usize>) {
    if let Some(t) = st.tenants.get_mut(&campaign) {
        if t.status != Status::Cancelled {
            t.ledger.requeue(seed_ids);
        }
        t.metrics.sync(&t.ledger);
    }
}

/// The fleet's state file, `fleet.json` (v2), at the daemon's root: each
/// worker's identity and trust record in admission order (a position is
/// the stream number its worker was welcomed with, and an eviction must
/// survive a restart), and the next lease id (ids are never reused).
#[derive(Clone, Default)]
pub(crate) struct FleetRecord {
    pub next_lease: u64,
    pub workers: Vec<Worker>,
}

/// Slots an older checkpoint may name: positions are dense, so a slot
/// beyond this is a corrupt file, not a fleet.
const MAX_LEGACY_SLOT: u64 = 1 << 16;

/// A trust record's fields in a fleet document.
fn trust(e: &Json) -> io::Result<Trust> {
    let evicted = e.opt_field("evicted")?.unwrap_or(false);
    Ok(Trust { checked: e.field("checked")?, failed: e.field("failed")?, evicted })
}

impl FleetRecord {
    /// The `fleet.json` document.
    fn doc(&self) -> Json {
        let workers = self.workers.iter().map(|w| {
            build::obj(vec![
                ("worker_id", build::str(&w.identity)),
                ("checked", build::int(w.trust.checked)),
                ("failed", build::int(w.trust.failed)),
                ("evicted", Json::Bool(w.trust.evicted)),
            ])
        });
        build::obj(vec![
            ("version", build::int(2)),
            ("next_lease", u64_json(self.next_lease)),
            ("workers", Json::Arr(workers.collect())),
        ])
    }

    /// Reads a `fleet.json`, v2 or the slot-keyed v1.
    fn from_doc(doc: &Json) -> io::Result<Self> {
        if doc.opt_field::<usize>("version")?.unwrap_or(1) < 2 {
            return Self::from_slots(doc);
        }
        let workers = doc.opt_list_with("workers", |e| {
            Ok(Worker { identity: e.field("worker_id")?, trust: trust(e)?, ..Worker::default() })
        })?;
        Ok(Self { next_lease: doc.opt_field("next_lease")?.unwrap_or(0), workers })
    }

    /// Reads the slot-keyed fleet fields of a `fleet.json` v1 or a
    /// `dist.json` v1–v3: slot `s` loads at position `s`, and a slot no
    /// identity is bound to becomes a placeholder that keeps its trust
    /// (a v1/v2 `dist.json` binds none).
    pub(crate) fn from_slots(doc: &Json) -> io::Result<Self> {
        let slot = |e: &Json| match e.field::<u64>("slot")? {
            s if s < MAX_LEGACY_SLOT => Ok(s),
            s => Err(invalid(format!("slot {s} out of range"))),
        };
        let identities: BTreeMap<u64, String> =
            doc.opt_list_with("identities", |e| Ok((slot(e)?, e.field("worker_id")?)))?;
        let trust: BTreeMap<u64, Trust> =
            doc.opt_list_with("trust", |e| Ok((slot(e)?, trust(e)?)))?;
        let slots = identities.keys().chain(trust.keys()).max().map_or(0, |&s| s + 1);
        let workers = (0..slots)
            .map(|s| Worker {
                identity: identities.get(&s).cloned().unwrap_or_default(),
                trust: trust.get(&s).copied().unwrap_or_default(),
                ..Worker::default()
            })
            .collect();
        Ok(Self { next_lease: doc.opt_field("next_lease")?.unwrap_or(0), workers })
    }

    /// `root`'s `fleet.json`; `Ok(None)` when absent.
    fn load(root: &Path) -> io::Result<Option<Self>> {
        read_doc(&root.join("fleet.json"))?.map(|doc| Self::from_doc(&doc)).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Daemon, Refusal};
    use crate::tenant::tests::{campaign_dir, suite};
    use dx_campaign::codec::{diff_json, rng_state_json};
    use dx_campaign::FoundDiff;
    use dx_tensor::rng;

    fn diff() -> FoundDiff {
        FoundDiff {
            seed_id: 2,
            epoch: 1,
            input: rng::uniform(&mut rng::rng(3), &[1, 16], 0.0, 1.0),
            predictions: vec![
                deepxplore::diff::Prediction::Class(0),
                deepxplore::diff::Prediction::Class(2),
            ],
            iterations: 5,
            target_model: 1,
        }
    }

    /// Every field of the coordinator's one campaign and of its fleet, as
    /// the snapshot the next checkpoint writes holds them.
    fn written(c: &Coordinator) -> (String, String) {
        let (job, _) = c.locked(|st, _| c.snapshot(st, 0));
        let job = job.expect("the campaign persists");
        (job.record.doc().to_string(), job.fleet.1.doc().to_string())
    }

    #[test]
    fn dist_json_round_trips_byte_equal() {
        // A `dist.json` v3 as the parent build wrote it — every field
        // non-default, `quarantined_total` above the kept diffs — resumes
        // intact; the v4 `dist.json` and `fleet.json` it is then written as
        // resume to the same bytes.
        let dir = campaign_dir("dx_dist_json_round_trip", 7, 6);
        let slot_rng = |slot: u64, s: &[u64; 4]| {
            build::obj(vec![("slot", u64_json(slot)), ("state", rng_state_json(s))])
        };
        let parent = build::obj(vec![
            ("version", build::int(3)),
            ("steps_done", build::int(7)),
            ("next_lease", u64_json(u64::MAX - 3)),
            ("pending", build::ints(&[4, 1])),
            (
                "worker_rng",
                Json::Arr(vec![slot_rng(0, &[1, 2, 3, u64::MAX]), slot_rng(5, &[9; 4])]),
            ),
            (
                "trust",
                Json::Arr(vec![build::obj(vec![
                    ("slot", u64_json(5)),
                    ("checked", build::int(3)),
                    ("failed", build::int(2)),
                    ("evicted", Json::Bool(true)),
                ])]),
            ),
            (
                "identities",
                Json::Arr(vec![
                    build::obj(vec![("slot", u64_json(0)), ("worker_id", build::str("w-cafe"))]),
                    build::obj(vec![("slot", u64_json(5)), ("worker_id", build::str("w-f00d"))]),
                ]),
            ),
            ("quarantined_total", build::int(4)),
            ("quarantined", Json::Arr(vec![diff_json(&diff())])),
        ]);
        std::fs::write(dir.join("dist.json"), parent.to_string() + "\n").unwrap();
        let registry = MetricsRegistry::new();
        let cfg = CoordinatorConfig {
            checkpoint_dir: Some(dir.clone()),
            registry: registry.clone(),
            spot_check_rate: 1.0,
            ..CoordinatorConfig::default()
        };
        let c = Coordinator::resume(&suite(), "unit@test", cfg.clone()).unwrap();
        c.locked(|st, _| {
            let t = &st.tenants[&0];
            assert_eq!((t.ledger.seed(), t.ledger.steps_done), (7, 7));
            assert_eq!(t.ledger.pending, [4, 1]);
            assert_eq!((t.quarantined_total, t.quarantined.len()), (4, 1));
            // Slot-keyed worker streams follow the identity on the slot.
            let rng =
                BTreeMap::from([("w-cafe".into(), [1, 2, 3, u64::MAX]), ("w-f00d".into(), [9; 4])]);
            assert_eq!(t.worker_rng, rng);
            assert_eq!(st.fleet.leases.next_id(), u64::MAX - 3);
            // Slot `s` loads at position `s`; the unbound slots between
            // are placeholders. The evicted identity stays burned.
            let ids: Vec<&str> = st.fleet.workers.iter().map(|w| w.identity.as_str()).collect();
            assert_eq!(ids, ["w-cafe", "", "", "", "", "w-f00d"]);
            assert_eq!(st.fleet.admit("w-f00d"), Err(Refusal::Burned(5)));
            assert_eq!(st.fleet.admit("w-cafe"), Ok(0));
        });
        let spot = |verdict| {
            registry.counter("dx_spot_checks_total", &[("worker", "w-f00d"), ("verdict", verdict)])
        };
        assert_eq!((spot("ok").get(), spot("bad").get()), (1, 2));

        let first = written(&c);
        let (job, _) = c.locked(|st, _| c.snapshot(st, 0));
        c.write(job.unwrap()).unwrap();
        let again = Coordinator::resume(&suite(), "unit@test", cfg).unwrap();
        assert_eq!(written(&again), first);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A parent build's `fleet.json` v1: `identities` and `trust`
    /// (`checked`, `failed`, `evicted`) keyed by slot.
    fn fleet_v1(
        next_lease: u64,
        bound: &[(u64, &str)],
        trust: &[(u64, (usize, usize, bool))],
    ) -> String {
        let identities = bound.iter().map(|&(slot, id)| {
            build::obj(vec![("slot", u64_json(slot)), ("worker_id", build::str(id))])
        });
        let trust = trust.iter().map(|&(slot, (checked, failed, evicted))| {
            build::obj(vec![
                ("slot", u64_json(slot)),
                ("checked", build::int(checked)),
                ("failed", build::int(failed)),
                ("evicted", Json::Bool(evicted)),
            ])
        });
        let doc = build::obj(vec![
            ("version", build::int(1)),
            ("next_lease", u64_json(next_lease)),
            ("identities", Json::Arr(identities.collect())),
            ("trust", Json::Arr(trust.collect())),
        ]);
        doc.to_string() + "\n"
    }

    #[test]
    fn a_newcomer_cannot_take_a_returning_identitys_record() {
        // Resumed from a fleet that knows ann at slot 0, a fresh identity
        // joins before ann returns: ann must get its position and record
        // back, and the newcomer a clean one of its own.
        let dir = campaign_dir("dx_dist_rebinding", 7, 4);
        let fleet = fleet_v1(2, &[(0, "ann")], &[(0, (3, 1, false))]);
        std::fs::write(dir.join("fleet.json"), fleet).unwrap();
        let cfg = CoordinatorConfig { checkpoint_dir: Some(dir.clone()), ..Default::default() };
        let c = Coordinator::resume(&suite(), "unit@test", cfg).unwrap();
        let (cy, _) = c.enroll("cy").unwrap();
        let (ann, _) = c.enroll("ann").unwrap();
        assert_eq!(ann, 0, "ann lost its position to a newcomer");
        assert_ne!(cy, ann);
        let (_, fleet) = written(&c);
        let doc = dx_campaign::json::parse_doc(&fleet).unwrap();
        let rows: Vec<(String, usize, usize)> = doc
            .opt_list_with("workers", |e| {
                Ok((e.field("worker_id")?, e.field("checked")?, e.field("failed")?))
            })
            .unwrap();
        assert_eq!(rows, [("ann".into(), 3, 1), ("cy".into(), 0, 0)], "{fleet}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_json_v1_round_trips_byte_equal() {
        // A parent build's `fleet.json` v1 binding slots 0 and 5 (slot 5
        // burned, 1–4 unbound) beside a `dist.json` v4 resumes with
        // positions, trust, the burned mark, the next lease id and the
        // identity-keyed worker streams intact; the v2 `fleet.json` it is
        // then written as resumes to the same bytes.
        let dir = campaign_dir("dx_fleet_json_v1", 7, 6);
        let (cafe, f00d) = (
            Trust { checked: 4, failed: 1, evicted: false },
            Trust { checked: 3, failed: 2, evicted: true },
        );
        let trust = [(0, (4, 1, false)), (5, (3, 2, true))];
        let fleet = fleet_v1(u64::MAX - 3, &[(0, "w-cafe"), (5, "w-f00d")], &trust);
        std::fs::write(dir.join("fleet.json"), fleet).unwrap();
        let mut record = Record::named(7);
        record.steps_done = 7;
        record.worker_rng.insert("w-cafe".into(), [1, 2, 3, u64::MAX]);
        record.worker_rng.insert("w-f00d".into(), [9; 4]);
        std::fs::write(dir.join("dist.json"), record.doc().to_string() + "\n").unwrap();
        let registry = MetricsRegistry::new();
        let cfg = CoordinatorConfig {
            checkpoint_dir: Some(dir.clone()),
            registry: registry.clone(),
            ..CoordinatorConfig::default()
        };
        let c = Coordinator::resume(&suite(), "unit@test", cfg.clone()).unwrap();
        c.locked(|st, _| {
            let workers = &st.fleet.workers;
            let ids: Vec<&str> = workers.iter().map(|w| w.identity.as_str()).collect();
            assert_eq!(ids, ["w-cafe", "", "", "", "", "w-f00d"]);
            let trust: Vec<Trust> = workers.iter().map(|w| w.trust).collect();
            let unbound = Trust::default();
            assert_eq!(trust, [cafe, unbound, unbound, unbound, unbound, f00d]);
            assert_eq!(st.fleet.leases.next_id(), u64::MAX - 3);
            let rng = &st.tenants[&0].worker_rng;
            assert_eq!(rng.get("w-cafe"), Some(&[1, 2, 3, u64::MAX]));
            assert_eq!(rng.get("w-f00d"), Some(&[9; 4]));
            assert_eq!(st.fleet.admit("w-f00d"), Err(Refusal::Burned(5)));
            assert_eq!(st.fleet.admit("w-cafe"), Ok(0));
            // A fresh identity is appended, past every placeholder.
            assert_eq!(st.fleet.admit("w-beef"), Ok(6));
        });
        let evicted = registry.gauge("dx_worker_evicted", &[("worker", "w-f00d")]);
        assert_eq!(evicted.get(), 1.0);

        let first = written(&c);
        assert!(first.1.starts_with("{\"version\":2,"), "{}", first.1);
        let (job, _) = c.locked(|st, _| c.snapshot(st, 0));
        c.write(job.unwrap()).unwrap();
        let again = Coordinator::resume(&suite(), "unit@test", cfg).unwrap();
        assert_eq!(written(&again), first);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dist_json_decoder_survives_mutation() {
        let dir = std::env::temp_dir().join("dx_dist_json_fuzz");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut record = Record::named(3);
        record.steps_done = 7;
        record.pending = vec![4, 1];
        record.worker_rng.insert("w-cafe".into(), [1, 2, 3, u64::MAX]);
        record.quarantined = vec![diff()];
        record.quarantined_total = 2;
        dx_integration::fuzz::check_decoder(&[record.doc().to_string()], 2048, |text| {
            std::fs::write(dir.join("dist.json"), text)?;
            let (loaded, _) = Record::load(&dir)?.ok_or(io::ErrorKind::NotFound)?;
            Ok(loaded.doc().to_string())
        });
        let trust = Trust { checked: 3, ..Trust::default() };
        let fleet = FleetRecord {
            next_lease: 3,
            workers: vec![Worker { identity: "w-cafe".into(), trust, ..Worker::default() }],
        };
        dx_integration::fuzz::check_decoder(&[fleet.doc().to_string()], 1024, |text| {
            Ok(FleetRecord::from_doc(&dx_campaign::json::parse_doc(text)?)?.doc().to_string())
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
