//! One tenant: an isolated campaign sharing the fleet.
//!
//! A tenant owns everything a dedicated coordinator would — one
//! [`dx_campaign::ledger::Ledger`]: corpus, global coverage union, found
//! diffs, round statistics, requeue, its own scheduling stream — plus the
//! service-specific extras: a pausable status machine, a per-tenant
//! metrics registry whose series surface with a `tenant` label, an append-only JSONL event feed, and worker
//! generator RNG streams keyed by *worker identity* (a worker may serve
//! many tenants, and its stream for each must survive reconnects).
//!
//! On disk a tenant is one directory under the daemon's state dir, named
//! by its campaign id: the standard campaign checkpoint files (readable
//! by `dx_campaign::Campaign::resume_from` and every existing tool, and
//! loaded back through the same loader), plus `tenant.json` (spec,
//! status, requeue, per-identity RNG) and `events.jsonl`.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dx_campaign::codec::{rng_state_from_json, rng_state_json, u64_json};
use dx_campaign::json::{build, invalid, parse_doc, Json};
use dx_campaign::ledger::{Ledger, Snapshot};
use dx_campaign::{Corpus, EnergyModel, ModelSuite};
use dx_coverage::CoverageSignal;
use dx_telemetry::{names, Counter, Gauge, MetricsRegistry};
use dx_tensor::Tensor;

use crate::spec::CampaignSpec;

/// A tenant's lifecycle state. `Running → Paused` and back are the only
/// reversible edges; `Done` and `Cancelled` are terminal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Schedulable: the dispatcher may grant its seeds to workers.
    Running,
    /// Not schedulable; outstanding leases still land normally.
    Paused,
    /// Finished by budget, coverage target, or corpus exhaustion.
    Done,
    /// Cancelled by the tenant; terminal.
    Cancelled,
}

impl Status {
    /// The wire/disk name.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Running => "running",
            Status::Paused => "paused",
            Status::Done => "done",
            Status::Cancelled => "cancelled",
        }
    }

    /// Parses a disk/wire name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "running" => Some(Status::Running),
            "paused" => Some(Status::Paused),
            "done" => Some(Status::Done),
            "cancelled" => Some(Status::Cancelled),
            _ => None,
        }
    }

    /// Whether no further scheduling can ever happen.
    pub fn is_terminal(self) -> bool {
        matches!(self, Status::Done | Status::Cancelled)
    }
}

/// Cached handles for the tenant registry's series. The registry itself
/// is rendered with a `tenant="<name>"` label by the daemon's `/metrics`.
pub(crate) struct TenantMetrics {
    pub registry: MetricsRegistry,
    pub steps: Arc<Counter>,
    pub diffs: Arc<Counter>,
    pub leases: Arc<Counter>,
    pub requeue_depth: Arc<Gauge>,
    pub corpus_size: Arc<Gauge>,
    pub coverage_mean: Arc<Gauge>,
}

impl TenantMetrics {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        Self {
            steps: registry.counter(names::SEEDS_TOTAL.name, &[]),
            diffs: registry.counter(names::DIFFS_TOTAL.name, &[]),
            leases: registry.counter(names::LEASES_TOTAL.name, &[]),
            requeue_depth: registry.gauge(names::REQUEUE_DEPTH.name, &[]),
            corpus_size: registry.gauge(names::CORPUS_SIZE.name, &[]),
            coverage_mean: registry.gauge(names::COVERAGE_MEAN.name, &[]),
            registry,
        }
    }
}

/// One tenant's full in-memory state; see the module docs.
pub struct Tenant {
    pub(crate) id: u64,
    pub(crate) spec: CampaignSpec,
    pub(crate) status: Status,
    /// The campaign itself. Its scheduler stream is keyed by statistics
    /// round, so it needs no persisting: a restart opens the round after
    /// the last one the checkpoint closed with that round's stream. Every
    /// round flush checkpoints, so a restart from one schedules exactly as
    /// the uninterrupted tenant would have; only the draws of a round left
    /// open at the stop (the final drain checkpoint) are not replayed.
    pub(crate) ledger: Ledger,
    /// Worker generator RNG streams, keyed by authenticated worker
    /// identity — a worker keeps its per-tenant stream across reconnects
    /// even if it lands on a different fleet slot.
    pub(crate) worker_rng: BTreeMap<String, [u64; 4]>,
    /// Stride-scheduling virtual time: grows by `granted / weight` on
    /// every grant; the runnable tenant with the smallest pass goes next.
    pub(crate) pass: f64,
    /// The JSONL event feed, in memory; persisted whole at checkpoints.
    pub(crate) events: Vec<String>,
    pub(crate) metrics: TenantMetrics,
}

impl Tenant {
    /// A fresh tenant over `inputs` (one tensor per seed row).
    pub(crate) fn new(
        id: u64,
        spec: CampaignSpec,
        inputs: Vec<Tensor>,
        template: &[CoverageSignal],
        max_corpus: usize,
        energy: EnergyModel,
    ) -> Self {
        let corpus = Corpus::new(inputs, max_corpus).with_energy_model(energy);
        let metrics = TenantMetrics::new();
        metrics.corpus_size.set(corpus.len() as f64);
        Self {
            id,
            status: Status::Running,
            ledger: Ledger::new(corpus, template.to_vec(), spec.seed, Instant::now()),
            spec,
            worker_rng: BTreeMap::new(),
            pass: 0.0,
            events: Vec::new(),
            metrics,
        }
    }

    /// Restores a tenant from its directory: `tenant.json` + the campaign
    /// checkpoint + the event feed. The tenant id is re-read from
    /// `tenant.json`, not the directory name.
    ///
    /// # Errors
    ///
    /// Missing or malformed files, or a checkpoint written under a metric
    /// other than `suite`'s.
    pub(crate) fn load(
        dir: &Path,
        suite: &ModelSuite,
        max_corpus: usize,
        energy: EnergyModel,
    ) -> io::Result<Self> {
        let doc = parse_doc(&std::fs::read_to_string(dir.join("tenant.json"))?)?;
        let id = doc.field("id")?;
        let status = doc.field::<String>("status")?;
        let status =
            Status::parse(&status).ok_or_else(|| invalid(format!("unknown status `{status}`")))?;
        let spec = doc.field_with("spec", CampaignSpec::from_json)?;
        let owed = Some((doc.field("steps_done")?, doc.opt_field("pending")?.unwrap_or_default()));
        let (_, ledger, _) = Ledger::load(dir, suite.clone(), max_corpus, energy, owed)?;
        let worker_rng = doc.opt_list_with("worker_rng", |e| {
            Ok((e.field("worker_id")?, e.field_with("state", rng_state_from_json)?))
        })?;
        let events: Vec<String> = std::fs::read_to_string(dir.join("events.jsonl"))
            .map(|t| t.lines().map(str::to_string).collect())
            .unwrap_or_default();
        let metrics = TenantMetrics::new();
        // The feed and the counters describe the same history; resuming
        // tops the fresh registry up so `/metrics` never moves backwards
        // across a daemon restart.
        metrics.steps.inc_by(ledger.steps_done as u64);
        metrics.diffs.inc_by(ledger.diffs.len() as u64);
        metrics.requeue_depth.set(ledger.pending.len() as f64);
        metrics.corpus_size.set(ledger.corpus.len() as f64);
        metrics.coverage_mean.set(f64::from(ledger.mean_coverage()));
        Ok(Self { id, spec, status, ledger, worker_rng, pass: 0.0, events, metrics })
    }

    /// Appends a JSONL event (`{"event":...,"steps":...,...}`) to the
    /// in-memory feed; persistence rides the next checkpoint write.
    pub(crate) fn event(&mut self, kind: &str, extra: Vec<(&str, Json)>) {
        let mut fields = vec![
            ("event", build::str(kind)),
            ("seq", build::int(self.events.len())),
            ("steps", build::int(self.ledger.steps_done)),
            ("coverage", build::num(f64::from(self.ledger.mean_coverage()))),
        ];
        fields.extend(extra);
        self.events.push(build::obj(fields).to_string());
    }

    /// Closes the statistics round, once it holds `min_steps`, into an
    /// [`dx_campaign::EpochStats`] line and a `round` event.
    pub(crate) fn close_round(&mut self, min_steps: usize, now: Instant) -> bool {
        let Some(round) = self.ledger.flush_round(min_steps, now) else { return false };
        self.event(
            "round",
            vec![
                ("epoch", build::int(round.epoch)),
                ("seeds_run", build::int(round.seeds_run)),
                ("diffs_found", build::int(round.diffs_found)),
            ],
        );
        true
    }

    /// The tenant's public status document; `outstanding` is how many of
    /// its jobs are out on leases.
    pub(crate) fn status_json(&self, outstanding: usize) -> Json {
        build::obj(vec![
            // Ids are small counters; a plain number is kinder to curl
            // and jq than the string form big u64s need.
            ("id", build::int(usize::try_from(self.id).unwrap_or(usize::MAX))),
            ("name", build::str(&self.spec.name)),
            ("status", build::str(self.status.as_str())),
            ("steps_done", build::int(self.ledger.steps_done)),
            ("diffs", build::int(self.ledger.diffs.len())),
            ("mean_coverage", build::num(f64::from(self.ledger.mean_coverage()))),
            ("corpus", build::int(self.ledger.corpus.len())),
            ("epochs", build::int(self.ledger.report.epochs.len())),
            ("outstanding", build::int(outstanding)),
            ("pending", build::int(self.ledger.pending.len())),
            ("spec", self.spec.to_json()),
        ])
    }

    /// The `tenant.json` document.
    pub(crate) fn doc(&self, pending: &[usize]) -> Json {
        let worker_rng = Json::Arr(
            self.worker_rng
                .iter()
                .map(|(wid, st)| {
                    build::obj(vec![("worker_id", build::str(wid)), ("state", rng_state_json(st))])
                })
                .collect(),
        );
        build::obj(vec![
            ("version", build::int(1)),
            ("id", u64_json(self.id)),
            ("status", build::str(self.status.as_str())),
            ("steps_done", build::int(self.ledger.steps_done)),
            ("pending", build::ints(pending)),
            ("spec", self.spec.to_json()),
            ("worker_rng", worker_rng),
        ])
    }

    /// Snapshots everything the tenant's checkpoint writer needs — cheap
    /// clones under the service lock; serialization happens outside it.
    /// `leased` (seeds out on this tenant's leases) folds into the
    /// checkpoint's requeue.
    pub(crate) fn snapshot(&mut self, leased: Vec<usize>) -> TenantCkpt {
        let workers = self.worker_rng.len().max(1);
        let snapshot = self.ledger.snapshot(workers, leased);
        TenantCkpt {
            tenant: self.id,
            doc: self.doc(&snapshot.pending),
            snapshot,
            events: self.events.join("\n") + "\n",
        }
    }
}

/// A tenant checkpoint snapshot, written outside the service lock.
pub struct TenantCkpt {
    pub(crate) tenant: u64,
    pub(crate) snapshot: Snapshot,
    pub(crate) doc: Json,
    pub(crate) events: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepxplore::constraints::Constraint;
    use deepxplore::generator::TaskKind;
    use deepxplore::Hyperparams;
    use dx_coverage::{CoverageConfig, SignalSpec};
    use dx_nn::layer::Layer;
    use dx_nn::Network;
    use dx_tensor::rng;

    fn suite() -> ModelSuite {
        let mut base = Network::new(
            &[16],
            vec![Layer::dense(16, 14), Layer::relu(), Layer::dense(14, 3), Layer::softmax()],
        );
        base.init_weights(&mut rng::rng(0xdead));
        ModelSuite {
            models: vec![base.clone(), base.perturbed(0.1, 1), base.perturbed(0.1, 2)],
            kind: TaskKind::Classification,
            hp: Hyperparams { step: 0.25, max_iters: 10, ..Default::default() },
            constraint: Constraint::Clip,
            signal: SignalSpec::neuron(CoverageConfig::scaled(0.25)),
        }
    }

    /// Writes a tenant's checkpoint the way the dispatcher does.
    fn write(dir: &Path, ckpt: &TenantCkpt) {
        dx_campaign::checkpoint::save(dir, &ckpt.snapshot, false).unwrap();
        std::fs::write(dir.join("tenant.json"), ckpt.doc.to_string() + "\n").unwrap();
        std::fs::write(dir.join("events.jsonl"), &ckpt.events).unwrap();
    }

    #[test]
    fn tenant_json_and_events_round_trip_byte_equal() {
        let dir = std::env::temp_dir().join("dx_service_tenant_round_trip");
        let _ = std::fs::remove_dir_all(&dir);
        let suite = suite();
        // Every tenant.json field non-default, so a key `load` drops or
        // defaults changes the second write. The stride `pass` is not
        // persisted, by design; it is non-default too, so a `doc` that
        // starts writing it without `load` reading it back fails here.
        let mut spec = CampaignSpec::named("acme");
        spec.seed = u64::MAX - 1;
        spec.seed_offset = 1;
        spec.max_steps = Some(40);
        spec.target_coverage = Some(0.5);
        spec.quota = 0.5;
        spec.weight = 2.0;
        spec.metric = Some("neuron".into());
        spec.constraint = Some("clip".into());
        let inputs = (0..4).map(|i| rng::uniform(&mut rng::rng(i), &[1, 16], 0.2, 0.8)).collect();
        let template = suite.signal.build(&suite.models);
        let mut tenant = Tenant::new(7, spec, inputs, &template, 64, EnergyModel::Classic);
        tenant.status = Status::Paused;
        tenant.pass = 2.5;
        tenant.ledger.steps_done = 5;
        tenant.worker_rng.insert("w-cafe".into(), [1, 2, 3, u64::MAX]);
        tenant.worker_rng.insert("w-f00d".into(), [9, 8, 7, 6]);
        tenant.event("submitted", vec![]);
        tenant.event("paused", vec![("by", build::str("tenant"))]);
        let first = tenant.snapshot(vec![3, 1]);
        write(&dir, &first);

        let mut loaded = Tenant::load(&dir, &suite, 64, EnergyModel::Classic).unwrap();
        let second = loaded.snapshot(Vec::new());
        assert_eq!(first.doc.to_string(), second.doc.to_string());
        assert_eq!(first.events, second.events);
        let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        assert_eq!(events.lines().count(), 2);
        for (i, line) in events.lines().enumerate() {
            let doc = parse_doc(line).unwrap();
            assert!(doc.get("event").and_then(Json::as_str).is_some(), "no `event`: {line}");
            assert_eq!(doc.get("seq").and_then(Json::as_usize), Some(i), "bad `seq`: {line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_json_decoder_survives_mutation() {
        let dir = std::env::temp_dir().join("dx_service_tenant_fuzz");
        let _ = std::fs::remove_dir_all(&dir);
        let suite = suite();
        let mut spec = CampaignSpec::named("acme");
        spec.max_steps = Some(40);
        let inputs = (0..3).map(|i| rng::uniform(&mut rng::rng(i), &[1, 16], 0.2, 0.8)).collect();
        let template = suite.signal.build(&suite.models);
        let mut tenant = Tenant::new(7, spec, inputs, &template, 64, EnergyModel::Classic);
        tenant.worker_rng.insert("w-cafe".into(), [1, 2, 3, u64::MAX]);
        let ckpt = tenant.snapshot(vec![1]);
        write(&dir, &ckpt);
        dx_integration::fuzz::check_decoder(&[ckpt.doc.to_string()], 1024, |text| {
            std::fs::write(dir.join("tenant.json"), text)?;
            let mut loaded = Tenant::load(&dir, &suite, 64, EnergyModel::Classic)?;
            Ok(loaded.snapshot(Vec::new()).doc.to_string())
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_machine_names_round_trip() {
        for s in [Status::Running, Status::Paused, Status::Done, Status::Cancelled] {
            assert_eq!(Status::parse(s.as_str()), Some(s));
        }
        assert_eq!(Status::parse("zombie"), None);
        assert!(Status::Done.is_terminal() && Status::Cancelled.is_terminal());
        assert!(!Status::Running.is_terminal() && !Status::Paused.is_terminal());
    }
}
