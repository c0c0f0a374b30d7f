//! One campaign on the daemon: a tenant.
//!
//! A tenant owns one [`Ledger`] — corpus, global coverage union, found
//! diffs, round statistics, requeue, its own scheduling stream — plus what
//! sharing a fleet adds: its [`CampaignSpec`], a pausable [`Status`], a
//! stride-scheduling `pass`, worker generator RNG streams keyed by
//! *worker identity* (a worker may serve many tenants, and its stream for
//! each must survive reconnects), an append-only JSONL event feed, a
//! metrics registry, and the spot-check stream and quarantine of claims
//! that failed re-execution. A dedicated coordinator serves one tenant,
//! the service daemon many.
//!
//! On disk a tenant is one directory: the standard campaign checkpoint
//! files (readable by `dx_campaign::Campaign::resume_from` and every
//! existing tool, and loaded back through the same loader), plus
//! `dist.json` (`Record`, v4: id, status, spec, requeue, per-identity
//! RNG, quarantine) and `events.jsonl`. The loader also reads what older
//! builds wrote: a coordinator's `dist.json` v1–v3, whose fleet fields it
//! hands back as a `FleetRecord`, and a service's `tenant.json` v1.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dx_campaign::codec::{
    diff_from_json, diff_json, rng_state_from_json, rng_state_json, u64_json,
};
use dx_campaign::json::{build, invalid, parse_doc, Json};
use dx_campaign::ledger::Ledger;
use dx_campaign::{EnergyModel, FoundDiff, ModelSuite};
use dx_telemetry::events::{Level, Value};
use dx_telemetry::{names, Counter, Gauge, MetricsRegistry};
use dx_tensor::rng;

use crate::coordinator::{top_up, Fields, FleetRecord, Outbox, COMPONENT};
use crate::spec::CampaignSpec;

/// Stream offset of a tenant's spot-check sampler.
const SPOT_STREAM: u64 = 0x5b07;

/// A tenant's lifecycle state. `Running → Paused` and back are the only
/// reversible edges; `Done` and `Cancelled` are terminal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Schedulable: the daemon may grant its seeds to workers.
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

/// Cached handles for a tenant's series. A service tenant's registry is
/// private, rendered with a `tenant="<name>"` label; a coordinator's one
/// tenant records into the fleet registry, so no series counts twice.
pub struct TenantMetrics {
    /// The registry the series live in.
    pub registry: MetricsRegistry,
    steps: Arc<Counter>,
    diffs: Arc<Counter>,
    pub(crate) leases: Arc<Counter>,
    requeue_depth: Arc<Gauge>,
    corpus_size: Arc<Gauge>,
    coverage_mean: Arc<Gauge>,
}

impl TenantMetrics {
    fn new(registry: MetricsRegistry) -> Self {
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

    /// Brings the series up to `ledger`'s books.
    pub(crate) fn sync(&self, ledger: &Ledger) {
        top_up(&self.steps, ledger.steps_done);
        top_up(&self.diffs, ledger.diffs.len());
        self.requeue_depth.set(ledger.pending.len() as f64);
        self.corpus_size.set(ledger.corpus.len() as f64);
        self.coverage_mean.set(f64::from(ledger.mean_coverage()));
    }
}

/// One tenant's full in-memory state; see the module docs.
pub struct Tenant {
    /// Campaign id: the `campaign` tag on its leases.
    pub id: u64,
    /// What the campaign was asked to be.
    pub spec: CampaignSpec,
    /// Where it is in its life cycle.
    pub status: Status,
    /// The campaign itself. Its scheduler stream is keyed by statistics
    /// round, so it needs no persisting: a restart opens the round after
    /// the last one the checkpoint closed with that round's stream. Every
    /// round flush checkpoints, so a restart from one schedules exactly as
    /// the uninterrupted tenant would have; only the draws of a round left
    /// open at the stop (the final drain checkpoint) are not replayed.
    pub ledger: Ledger,
    /// Worker generator RNG streams, keyed by authenticated worker
    /// identity — a worker keeps its stream across reconnects even if it
    /// lands on a different fleet slot.
    pub worker_rng: BTreeMap<String, [u64; 4]>,
    /// Stride-scheduling virtual time: grows by `granted / weight` on
    /// every grant; the runnable tenant with the smallest pass goes next.
    pub pass: f64,
    /// The JSONL event feed, in memory; persisted whole at checkpoints.
    pub events: Vec<String>,
    /// Its metric handles.
    pub metrics: TenantMetrics,
    /// Claimed diffs that failed re-execution, kept for inspection (capped
    /// at 256; `quarantined_total`
    /// keeps counting).
    pub quarantined: Vec<FoundDiff>,
    /// Every claimed diff that failed re-execution.
    pub quarantined_total: usize,
    /// Drives spot-check sampling, independently of scheduling so
    /// enabling verification never changes which seeds get fuzzed.
    pub(crate) spot_rng: rng::Rng,
    /// Its checkpoint directory; `None` disables persistence.
    pub(crate) dir: Option<PathBuf>,
}

impl Tenant {
    /// A running tenant over `ledger`, recording into `registry`.
    pub(crate) fn new(
        id: u64,
        spec: CampaignSpec,
        ledger: Ledger,
        registry: MetricsRegistry,
        dir: Option<PathBuf>,
    ) -> Self {
        let metrics = TenantMetrics::new(registry);
        metrics.sync(&ledger);
        Self {
            id,
            spec,
            status: Status::Running,
            spot_rng: rng::rng(rng::derive_seed(ledger.seed(), SPOT_STREAM)),
            ledger,
            worker_rng: BTreeMap::new(),
            pass: 0.0,
            events: Vec::new(),
            metrics,
            quarantined: Vec::new(),
            quarantined_total: 0,
            dir,
        }
    }

    /// Restores a tenant from `dir`: the campaign checkpoint through the
    /// one loader, its [`Record`] and its event feed. A plain campaign
    /// checkpoint (no record) loads as running campaign 0. The tenant keeps
    /// checkpointing into `dir`.
    ///
    /// Returns the suite with the checkpointed profiles, the tenant, and
    /// the fleet state an older `dist.json` carried.
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
        registry: MetricsRegistry,
    ) -> io::Result<(ModelSuite, Self, Option<FleetRecord>)> {
        let (record, fleet) = Record::load(dir)?.map_or((None, None), |(r, f)| (Some(r), f));
        let owed = record.as_ref().map(|r| (r.steps_done, r.pending.clone()));
        let (suite, ledger, _) = Ledger::load(dir, suite.clone(), max_corpus, energy, owed)?;
        let record = record.unwrap_or_else(|| Record::named(ledger.seed()));
        let mut tenant = Self::new(record.id, record.spec, ledger, registry, Some(dir.into()));
        tenant.status = record.status;
        tenant.worker_rng = record.worker_rng;
        tenant.quarantined = record.quarantined;
        tenant.quarantined_total = record.quarantined_total;
        tenant.events = std::fs::read_to_string(dir.join("events.jsonl"))
            .map(|t| t.lines().map(str::to_string).collect())
            .unwrap_or_default();
        Ok((suite, tenant, fleet))
    }

    /// Records event `kind` once: a line of the tenant's feed
    /// (`{"event":...,"seq":...,"steps":...,"coverage":...,<fields>}`,
    /// persisted with the next checkpoint) and a `tenant_<kind>` record
    /// for the process stream, which `out` emits after the lock drops.
    pub(crate) fn event(&mut self, out: &mut Outbox, level: Level, kind: &str, fields: Fields) {
        let mut line = vec![
            ("event", build::str(kind)),
            ("seq", build::int(self.events.len())),
            ("steps", build::int(self.ledger.steps_done)),
            ("coverage", build::num(f64::from(self.ledger.mean_coverage()))),
        ];
        line.extend(fields.iter().map(|(key, value)| (*key, value_json(value))));
        self.events.push(build::obj(line).to_string());
        let mut record = vec![("id", self.id.into())];
        record.extend(fields);
        out.emit(level, COMPONENT, format!("tenant_{kind}"), record);
    }

    /// Closes the statistics round, once it holds `min_steps`, into an
    /// [`dx_campaign::EpochStats`] line and a `round` event.
    pub(crate) fn close_round(&mut self, out: &mut Outbox, min_steps: usize) -> bool {
        let now = std::time::Instant::now();
        let Some(round) = self.ledger.flush_round(min_steps, now) else { return false };
        let fields = vec![
            ("epoch", round.epoch.into()),
            ("seeds_run", round.seeds_run.into()),
            ("diffs_found", round.diffs_found.into()),
        ];
        self.event(out, Level::Debug, "round", fields);
        true
    }

    /// The cheap clones its `dist.json` is rendered from; `pending` is the
    /// requeue the checkpoint owes.
    pub(crate) fn record(&self, pending: Vec<usize>) -> Record {
        Record {
            id: self.id,
            status: self.status,
            spec: self.spec.clone(),
            steps_done: self.ledger.steps_done,
            pending,
            worker_rng: self.worker_rng.clone(),
            quarantined: self.quarantined.clone(),
            quarantined_total: self.quarantined_total,
        }
    }
}

/// An event field as a feed value.
fn value_json(value: &Value) -> Json {
    match value {
        Value::Str(s) => build::str(s),
        Value::U64(v) => Json::Num(*v as f64),
        Value::I64(v) => Json::Num(*v as f64),
        Value::F64(v) => Json::Num(*v),
        Value::Bool(v) => Json::Bool(*v),
    }
}

/// A tenant's `dist.json`: what the campaign checkpoint files do not hold.
/// Snapshotted as clones under the daemon's lock and rendered outside it
/// (the quarantine inlines up to `QUARANTINE_KEEP` tensors).
#[derive(Clone)]
pub(crate) struct Record {
    pub id: u64,
    pub status: Status,
    pub spec: CampaignSpec,
    pub steps_done: usize,
    pub pending: Vec<usize>,
    pub worker_rng: BTreeMap<String, [u64; 4]>,
    pub quarantined: Vec<FoundDiff>,
    pub quarantined_total: usize,
}

impl Record {
    /// What a checkpoint without a record resumes as: running campaign 0
    /// under a default spec with the checkpoint's `seed`.
    pub(crate) fn named(seed: u64) -> Self {
        Self {
            id: 0,
            status: Status::Running,
            spec: CampaignSpec { seed, ..CampaignSpec::named("campaign") },
            steps_done: 0,
            pending: Vec::new(),
            worker_rng: BTreeMap::new(),
            quarantined: Vec::new(),
            quarantined_total: 0,
        }
    }

    /// The `dist.json` document.
    pub(crate) fn doc(&self) -> Json {
        let worker_rng = Json::Arr(
            self.worker_rng
                .iter()
                .map(|(id, s)| {
                    build::obj(vec![("worker_id", build::str(id)), ("state", rng_state_json(s))])
                })
                .collect(),
        );
        build::obj(vec![
            ("version", build::int(4)),
            ("id", u64_json(self.id)),
            ("status", build::str(self.status.as_str())),
            ("spec", self.spec.to_json()),
            ("steps_done", build::int(self.steps_done)),
            ("pending", build::ints(&self.pending)),
            ("worker_rng", worker_rng),
            ("quarantined_total", build::int(self.quarantined_total)),
            ("quarantined", Json::Arr(self.quarantined.iter().map(diff_json).collect())),
        ])
    }

    /// Reads `dir`'s `dist.json`, or else an older service's
    /// `tenant.json`; `Ok(None)` when neither is there. A `dist.json`
    /// older than v4 is a coordinator's: its fleet fields come back
    /// alongside, and its worker streams, keyed by slot, go to the identity
    /// bound to that slot (v1/v2 bind none, so theirs restart).
    pub(crate) fn load(dir: &Path) -> io::Result<Option<(Self, Option<FleetRecord>)>> {
        if let Some(doc) = read_doc(&dir.join("dist.json"))? {
            let version = doc.opt_field::<usize>("version")?.unwrap_or(1);
            let fleet = if version < 4 { Some(FleetRecord::from_slots(&doc)?) } else { None };
            return Ok(Some((Self::from_doc(&doc, fleet.as_ref())?, fleet)));
        }
        read_doc(&dir.join("tenant.json"))?
            .map(|doc| Ok((Self::from_doc(&doc, None)?, None)))
            .transpose()
    }

    fn from_doc(doc: &Json, slots: Option<&FleetRecord>) -> io::Result<Self> {
        let status = match doc.opt_field::<String>("status")? {
            None => Status::Running,
            Some(s) => Status::parse(&s).ok_or_else(|| invalid(format!("unknown status `{s}`")))?,
        };
        let spec = doc.opt_field_with("spec", CampaignSpec::from_json)?;
        let worker_rng: Vec<(Option<String>, [u64; 4])> = doc.opt_list_with("worker_rng", |e| {
            let who = match slots {
                Some(f) => {
                    let slot = usize::try_from(e.field::<u64>("slot")?).ok();
                    let worker = slot.and_then(|s| f.workers.get(s));
                    worker.map(|w| w.identity.clone()).filter(|id| !id.is_empty())
                }
                None => Some(e.field("worker_id")?),
            };
            Ok((who, e.field_with("state", rng_state_from_json)?))
        })?;
        let quarantined: Vec<FoundDiff> = doc.opt_list_with("quarantined", diff_from_json)?;
        Ok(Self {
            id: doc.opt_field("id")?.unwrap_or(0),
            status,
            spec: spec.unwrap_or_else(|| CampaignSpec::named("campaign")),
            steps_done: doc.field("steps_done")?,
            pending: doc.opt_field("pending")?.unwrap_or_default(),
            worker_rng: worker_rng.into_iter().filter_map(|(w, s)| Some((w?, s))).collect(),
            quarantined_total: doc.opt_field("quarantined_total")?.unwrap_or(quarantined.len()),
            quarantined,
        })
    }
}

/// The document at `path`; `Ok(None)` when the file is absent.
pub(crate) fn read_doc(path: &Path) -> io::Result<Option<Json>> {
    match std::fs::read_to_string(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
        Ok(text) => Ok(Some(parse_doc(&text)?)),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use deepxplore::constraints::Constraint;
    use deepxplore::generator::TaskKind;
    use deepxplore::Hyperparams;
    use dx_campaign::Corpus;
    use dx_coverage::{CoverageConfig, SignalSpec};
    use dx_nn::layer::Layer;
    use dx_nn::Network;

    pub(crate) fn suite() -> ModelSuite {
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

    /// A fresh `dir` holding the campaign files of a `seeds`-row campaign
    /// at master seed `seed`, as any daemon writes them.
    pub(crate) fn campaign_dir(name: &str, seed: u64, seeds: usize) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let s = suite();
        let inputs = (0..seeds).map(|i| rng::uniform(&mut rng::rng(i as u64), &[1, 16], 0.2, 0.8));
        let corpus = Corpus::new(inputs.collect(), 64);
        let mut ledger =
            Ledger::new(corpus, s.signal.build(&s.models), seed, std::time::Instant::now());
        let snapshot = ledger.snapshot(1, Vec::new());
        let gate = dx_campaign::ledger::CheckpointGate::default();
        gate.write(0, &snapshot, &dir, || Ok(())).unwrap();
        dir
    }

    fn load(dir: &Path) -> io::Result<Tenant> {
        Tenant::load(dir, &suite(), 64, EnergyModel::Classic, MetricsRegistry::new()).map(|l| l.1)
    }

    /// The `dist.json` and feed a tenant's checkpoint writes.
    fn save(dir: &Path, t: &Tenant) {
        let record = t.record(t.ledger.pending.iter().copied().collect());
        std::fs::write(dir.join("dist.json"), record.doc().to_string() + "\n").unwrap();
        let feed: String = t.events.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(dir.join("events.jsonl"), feed).unwrap();
    }

    #[test]
    fn tenant_json_and_events_round_trip_byte_equal() {
        // A parent-written service tenant — `tenant.json` v1 plus its feed,
        // every field non-default — loads, and its `dist.json` then
        // re-loads to the same bytes.
        let dir = campaign_dir("dx_dist_tenant_round_trip", u64::MAX - 1, 4);
        let mut spec = CampaignSpec::named("acme");
        spec.seed = u64::MAX - 1;
        spec.seed_offset = 1;
        spec.max_steps = Some(40);
        spec.target_coverage = Some(0.5);
        spec.quota = 0.5;
        spec.weight = 2.0;
        spec.metric = Some("neuron".into());
        spec.constraint = Some("clip".into());
        let rng_json = |w: &str, s: &[u64; 4]| {
            build::obj(vec![("worker_id", build::str(w)), ("state", rng_state_json(s))])
        };
        let parent = build::obj(vec![
            ("version", build::int(1)),
            ("id", u64_json(7)),
            ("status", build::str("paused")),
            ("steps_done", build::int(5)),
            ("pending", build::ints(&[3, 1])),
            ("spec", spec.to_json()),
            (
                "worker_rng",
                Json::Arr(vec![
                    rng_json("w-cafe", &[1, 2, 3, u64::MAX]),
                    rng_json("w-f00d", &[9; 4]),
                ]),
            ),
        ]);
        std::fs::write(dir.join("tenant.json"), parent.to_string() + "\n").unwrap();
        let feed = "{\"event\":\"submitted\",\"seq\":0}\n{\"event\":\"paused\",\"seq\":1}\n";
        std::fs::write(dir.join("events.jsonl"), feed).unwrap();

        let tenant = load(&dir).unwrap();
        assert_eq!((tenant.id, tenant.status, &tenant.spec), (7, Status::Paused, &spec));
        assert_eq!(tenant.ledger.steps_done, 5);
        assert_eq!(tenant.ledger.pending, [3, 1]);
        assert_eq!(tenant.worker_rng.get("w-f00d"), Some(&[9; 4]));
        assert_eq!(tenant.events.len(), 2);
        save(&dir, &tenant);
        let first = std::fs::read_to_string(dir.join("dist.json")).unwrap();
        save(&dir, &load(&dir).unwrap());
        assert_eq!(std::fs::read_to_string(dir.join("dist.json")).unwrap(), first);
        assert_eq!(std::fs::read_to_string(dir.join("events.jsonl")).unwrap(), feed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_json_decoder_survives_mutation() {
        // The parent `tenant.json` path of the loader, fed this build's
        // record (a superset of the parent's keys).
        let dir = std::env::temp_dir().join("dx_dist_tenant_fuzz");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut record = Record::named(3);
        record.id = 7;
        record.steps_done = 4;
        record.pending = vec![1];
        record.worker_rng.insert("w-cafe".into(), [1, 2, 3, u64::MAX]);
        dx_integration::fuzz::check_decoder(&[record.doc().to_string()], 1024, |text| {
            std::fs::write(dir.join("tenant.json"), text)?;
            let (loaded, _) = Record::load(&dir)?.ok_or(io::ErrorKind::NotFound)?;
            Ok(loaded.doc().to_string())
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
