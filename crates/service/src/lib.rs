//! Campaign-as-a-service: a multi-tenant control plane over one worker
//! fleet.
//!
//! A dedicated [`dx_dist::Coordinator`] runs *one* campaign and exits
//! when it drains. This crate runs many: a long-lived [`Service`] daemon
//! owns a shared seed pool and a shared fleet of protocol-v6 workers,
//! and multiplexes any number of concurrent *tenant* campaigns over
//! them. Tenants arrive over an HTTP/JSON API ([`api`]), each with its
//! own seeds, budget, master seed, fair-share weight and lease quota
//! ([`spec::CampaignSpec`]); the dispatcher tags every lease with its
//! tenant's campaign id, and v6 workers keep independent generator
//! contexts per campaign — so one worker interleaves work for many
//! tenants without cross-contaminating their RNG streams or coverage
//! unions.
//!
//! **Fairness.** Lease grants use stride scheduling: each tenant carries
//! a virtual-time `pass` that advances by `granted / weight` on every
//! grant, and the runnable tenant with the smallest pass goes next — so
//! long-run fleet shares converge to the weight ratio regardless of
//! arrival order. A tenant's `quota` additionally caps its share of all
//! in-flight leased jobs, with a one-lease minimum so a tiny quota can
//! never starve a tenant entirely.
//!
//! **Isolation.** Each tenant is checkpointed under its own
//! `state_dir/<id>/` directory — the standard campaign JSONL files plus
//! `tenant.json` and `events.jsonl` — so a daemon restart resumes every
//! tenant, and any single tenant's directory doubles as a plain campaign
//! checkpoint for `deepxplore campaign --preexisting` or
//! `Campaign::resume_from`. Each tenant also owns a private
//! [`MetricsRegistry`]; the daemon's `/metrics` endpoint renders them
//! with a `tenant="<name>"` label merged after the fleet-level series.
//!
//! **Trust.** Serving, admission and lease bookkeeping are
//! [`dx_dist::engine`]'s and each tenant's books a
//! [`dx_campaign::ledger::Ledger`] — the code a dedicated coordinator
//! runs — so admission is a coordinator's: fingerprint match, plus the
//! HMAC challenge/response when an auth token is configured, with
//! identity-keyed slots. The service does
//! *not* spot-check claimed diffs (there is no per-tenant trust ledger
//! yet); run service fleets with workers you trust, or behind the
//! coordinator for adversarial settings.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason,
        clippy::indexing_slicing
    )
)]

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dx_campaign::json::{build, Json};
use dx_campaign::ledger::CheckpointGate;
use dx_campaign::{CampaignReport, EnergyModel, ModelSuite};
use dx_dist::engine::{Daemon as _, Fleet, Gate, LeaseTable};
use dx_dist::proto::Fingerprint;
use dx_nn::util::gather_rows;
use dx_telemetry::events::{emit, Level};
use dx_telemetry::sync::{Rank, Ranked};
use dx_telemetry::{merge_renders, names, Counter, Gauge, MetricsRegistry};
use dx_tensor::Tensor;

pub mod api;
mod dispatcher;
pub mod spec;
pub mod tenant;

pub use spec::CampaignSpec;
pub use tenant::Status;

use tenant::Tenant;

/// Service-wide scheduling, persistence and admission knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Root directory for per-tenant checkpoints (`<state_dir>/<id>/`);
    /// `None` disables persistence (tenants die with the daemon).
    pub state_dir: Option<PathBuf>,
    /// Cap on concurrently *live* (non-terminal) tenants; submissions
    /// beyond it get `429`.
    pub max_tenants: usize,
    /// Absorbed seed steps per per-tenant statistics round.
    pub batch_per_round: usize,
    /// Max jobs per lease.
    pub lease_size: usize,
    /// How long a lease may go without results or a heartbeat before its
    /// seeds are requeued.
    pub lease_timeout: Duration,
    /// Per-tenant corpus size cap.
    pub max_corpus: usize,
    /// Corpus energy model for every tenant.
    pub energy: EnergyModel,
    /// Shared secret workers must prove at admission; `None` admits any
    /// fingerprint-matching peer.
    pub auth_token: Option<String>,
    /// Registry receiving fleet-level metrics (worker/lease gauges).
    /// Per-tenant series live in per-tenant registries regardless.
    pub registry: MetricsRegistry,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            state_dir: None,
            max_tenants: 8,
            batch_per_round: 16,
            lease_size: 4,
            lease_timeout: Duration::from_secs(30),
            max_corpus: 4096,
            energy: EnergyModel::Classic,
            auth_token: None,
            registry: MetricsRegistry::new(),
        }
    }
}

/// An API-layer failure: the HTTP status plus a human-readable reason
/// (returned verbatim as the response body).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Why, for the response body.
    pub reason: String,
}

impl ApiError {
    fn new(status: u16, reason: impl Into<String>) -> Self {
        Self { status, reason: reason.into() }
    }
}

/// Fleet-level metric handles (the unlabeled series on `/metrics`).
struct FleetMetrics {
    connected: Arc<Gauge>,
    tenants_live: Arc<Gauge>,
    leases: Arc<Counter>,
    lease_expired: Arc<Counter>,
    heartbeats: Arc<Counter>,
}

impl FleetMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        Self {
            connected: registry.gauge(names::WORKERS_CONNECTED.name, &[]),
            tenants_live: registry.gauge(names::SERVICE_TENANTS.name, &[]),
            leases: registry.counter(names::SERVICE_LEASES_TOTAL.name, &[]),
            lease_expired: registry.counter(names::SERVICE_LEASE_EXPIRED_TOTAL.name, &[]),
            heartbeats: registry.counter(names::SERVICE_HEARTBEATS_TOTAL.name, &[]),
        }
    }
}

/// Everything behind the service lock.
pub(crate) struct SvcState {
    pub tenants: BTreeMap<u64, Tenant>,
    pub next_id: u64,
    /// Worker slots and every tenant's outstanding leases (a lease's
    /// `campaign` is its tenant id). In-memory only: a restart admits
    /// everyone fresh — per-tenant RNG streams are keyed by identity, not
    /// by slot, so nothing is lost.
    pub fleet: Fleet,
}

impl SvcState {
    fn live_tenants(&self) -> usize {
        self.tenants.values().filter(|t| !t.status.is_terminal()).count()
    }

    fn status_json(&self, t: &Tenant) -> Json {
        t.status_json(self.fleet.leases.seed_ids(t.id).len())
    }
}

/// Asks a running [`Service::serve`] to drain from another thread — the
/// programmatic stand-in for SIGTERM.
#[derive(Clone)]
pub struct StopHandle(Arc<AtomicBool>);

impl StopHandle {
    /// Requests a graceful drain: finish in-flight leases, checkpoint
    /// every tenant, release the fleet.
    pub fn stop(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The control-plane daemon; see the module docs.
pub struct Service {
    pub(crate) cfg: ServiceConfig,
    /// Fingerprint, auth token, drain flag and the empty signals cloned
    /// per tenant union and per connection view.
    pub(crate) gate: Gate,
    /// The shape every result tensor must have (`[1, sample dims...]`).
    pub(crate) sample_shape: Vec<usize>,
    /// The shared seed pool tenants slice rows from.
    pool: Tensor,
    pub(crate) metrics: FleetMetrics,
    pub(crate) state: Ranked<SvcState>,
    pub(crate) ckpt_io: CheckpointGate,
}

impl Service {
    /// Creates a daemon over a seed pool (rows of `pool`), resuming any
    /// tenants checkpointed under `cfg.state_dir`.
    ///
    /// # Errors
    ///
    /// A malformed tenant directory, or one written under a metric other
    /// than `suite`'s. (A missing state dir is created on first
    /// checkpoint, not here.)
    ///
    /// # Panics
    ///
    /// Panics on an empty pool or zero `batch_per_round`/`lease_size`.
    pub fn new(
        suite: &ModelSuite,
        label: &str,
        pool: &Tensor,
        cfg: ServiceConfig,
    ) -> io::Result<Self> {
        let rows = pool.shape().first().copied().unwrap_or(0);
        assert!(rows > 0, "service needs a non-empty seed pool");
        assert!(cfg.batch_per_round >= 1, "batch_per_round must be at least 1");
        assert!(cfg.lease_size >= 1, "lease_size must be at least 1");
        let gate = Gate::new(suite, label, cfg.auth_token.clone(), cfg.lease_timeout);
        let sample_shape = {
            let mut s = pool.shape().to_vec();
            if let Some(first) = s.first_mut() {
                *first = 1;
            }
            s
        };
        let metrics = FleetMetrics::new(&cfg.registry);
        let mut tenants: BTreeMap<u64, Tenant> = BTreeMap::new();
        if let Some(dir) = &cfg.state_dir {
            if dir.is_dir() {
                for entry in std::fs::read_dir(dir)? {
                    let path = entry?.path();
                    if !path.join("tenant.json").is_file() {
                        continue;
                    }
                    let t = Tenant::load(&path, suite, cfg.max_corpus, cfg.energy)?;
                    emit(
                        Level::Info,
                        "service",
                        "tenant_resumed",
                        &[
                            ("id", t.id.into()),
                            ("name", t.spec.name.clone().into()),
                            ("status", t.status.as_str().to_string().into()),
                        ],
                    );
                    tenants.insert(t.id, t);
                }
            }
        }
        let next_id = tenants.keys().max().map_or(0, |&m| m + 1);
        metrics
            .tenants_live
            .set(tenants.values().filter(|t| !t.status.is_terminal()).count() as f64);
        let fleet = Fleet::new(BTreeMap::new(), LeaseTable::new(0, cfg.lease_timeout));
        Ok(Self {
            gate,
            sample_shape,
            pool: pool.clone(),
            metrics,
            state: Ranked::new(Rank::DaemonState, SvcState { tenants, next_id, fleet }),
            ckpt_io: CheckpointGate::default(),
            cfg,
        })
    }

    /// A handle that asks [`Service::serve`] to drain, from any thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle(self.gate.drain_flag())
    }

    /// The admission fingerprint workers must present.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.gate.fingerprint
    }

    /// Rows in the shared seed pool.
    pub fn pool_rows(&self) -> usize {
        self.pool.shape().first().copied().unwrap_or(0)
    }

    // ---------------------------------------------------------------
    // Control-plane operations (the API handlers' core).

    /// Admits a new tenant campaign. Returns its status document.
    ///
    /// # Errors
    ///
    /// `400` for an invalid spec, `409` for a name the daemon has already
    /// seen (metrics labels and directories are keyed by name and must
    /// stay unambiguous for the daemon's lifetime), `429` over the live
    /// tenant cap.
    pub fn submit(&self, spec: CampaignSpec) -> Result<Json, ApiError> {
        spec.validate(&self.gate.fingerprint, self.pool_rows())
            .map_err(|reason| ApiError::new(400, reason))?;
        let (doc, ckpt) = {
            let mut st = self.state.lock();
            if st.tenants.values().any(|t| t.spec.name == spec.name) {
                return Err(ApiError::new(409, format!("campaign `{}` already exists", spec.name)));
            }
            if st.live_tenants() >= self.cfg.max_tenants {
                return Err(ApiError::new(
                    429,
                    format!("tenant cap reached ({} live campaigns)", self.cfg.max_tenants),
                ));
            }
            let id = st.next_id;
            st.next_id += 1;
            let inputs: Vec<Tensor> = (spec.seed_offset..spec.seed_offset + spec.seeds)
                .map(|i| gather_rows(&self.pool, &[i]))
                .collect();
            let template = &self.gate.template;
            let mut t =
                Tenant::new(id, spec, inputs, template, self.cfg.max_corpus, self.cfg.energy);
            // A newcomer starts at the smallest live pass, not zero —
            // otherwise it would monopolize the fleet until it caught up
            // with tenants that have been running for hours.
            let floor = st
                .tenants
                .values()
                .filter(|t| t.status == Status::Running)
                .map(|t| t.pass)
                .fold(f64::INFINITY, f64::min);
            if floor.is_finite() {
                t.pass = floor;
            }
            t.event("submitted", vec![("name", build::str(&t.spec.name))]);
            emit(
                Level::Info,
                "service",
                "tenant_submitted",
                &[("id", id.into()), ("name", t.spec.name.clone().into())],
            );
            let ckpt = self.cfg.state_dir.as_ref().map(|_| t.snapshot(Vec::new()));
            let doc = t.status_json(0);
            st.tenants.insert(id, t);
            self.metrics.tenants_live.set(st.live_tenants() as f64);
            (doc, ckpt)
        };
        if let Some(job) = ckpt {
            self.write_checkpoint(job).map_err(|e| ApiError::new(500, e.to_string()))?;
        }
        Ok(doc)
    }

    /// All tenants' status documents, id-ordered.
    pub fn list(&self) -> Json {
        let st = self.state.lock();
        Json::Arr(st.tenants.values().map(|t| st.status_json(t)).collect())
    }

    /// One tenant's status document.
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn status(&self, id: u64) -> Result<Json, ApiError> {
        let st = self.state.lock();
        st.tenants
            .get(&id)
            .map(|t| st.status_json(t))
            .ok_or_else(|| ApiError::new(404, format!("no campaign {id}")))
    }

    /// Pauses a running tenant: no new leases; in-flight leases land
    /// normally.
    ///
    /// # Errors
    ///
    /// `404` unknown id, `409` if not `Running`.
    pub fn pause(&self, id: u64) -> Result<Json, ApiError> {
        self.transition(id, Status::Paused, "paused", |s| s == Status::Running)
    }

    /// Resumes a paused tenant.
    ///
    /// # Errors
    ///
    /// `404` unknown id, `409` if not `Paused`.
    pub fn resume(&self, id: u64) -> Result<Json, ApiError> {
        self.transition(id, Status::Running, "resumed", |s| s == Status::Paused)
    }

    /// Cancels a tenant (terminal). Its requeue is cleared; results from
    /// in-flight leases are still absorbed, so the final checkpoint is
    /// consistent.
    ///
    /// # Errors
    ///
    /// `404` unknown id, `409` if already terminal.
    pub fn cancel(&self, id: u64) -> Result<Json, ApiError> {
        self.transition(id, Status::Cancelled, "cancelled", |s| !s.is_terminal())
    }

    fn transition(
        &self,
        id: u64,
        to: Status,
        event: &str,
        allowed: impl Fn(Status) -> bool,
    ) -> Result<Json, ApiError> {
        let (doc, ckpt) = {
            let mut st = self.state.lock();
            let leased = st.fleet.leases.seed_ids(id);
            let outstanding = leased.len();
            let t = st
                .tenants
                .get_mut(&id)
                .ok_or_else(|| ApiError::new(404, format!("no campaign {id}")))?;
            if !allowed(t.status) {
                return Err(ApiError::new(
                    409,
                    format!("cannot {event}: campaign {id} is {}", t.status.as_str()),
                ));
            }
            t.status = to;
            if to == Status::Cancelled {
                t.ledger.pending.clear();
                t.metrics.requeue_depth.set(0.0);
            }
            t.event(event, Vec::new());
            emit(
                Level::Info,
                "service",
                "tenant_transition",
                &[("id", id.into()), ("to", to.as_str().to_string().into())],
            );
            let ckpt = self.cfg.state_dir.as_ref().map(|_| t.snapshot(leased));
            let doc = t.status_json(outstanding);
            self.metrics.tenants_live.set(st.live_tenants() as f64);
            (doc, ckpt)
        };
        if let Some(job) = ckpt {
            self.write_checkpoint(job).map_err(|e| ApiError::new(500, e.to_string()))?;
        }
        Ok(doc)
    }

    /// The tenant's rendered campaign report (the same text a dedicated
    /// run prints).
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn report(&self, id: u64) -> Result<String, ApiError> {
        let st = self.state.lock();
        let t =
            st.tenants.get(&id).ok_or_else(|| ApiError::new(404, format!("no campaign {id}")))?;
        let report =
            CampaignReport { workers: t.worker_rng.len().max(1), ..t.ledger.report.clone() };
        let mut out = format!(
            "campaign {} ({}): {} — {} steps, {} diffs, mean coverage {:.4}\n",
            t.id,
            t.spec.name,
            t.status.as_str(),
            t.ledger.steps_done,
            t.ledger.diffs.len(),
            t.ledger.mean_coverage(),
        );
        out.push_str(&report.render());
        Ok(out)
    }

    /// The tenant's JSONL event feed from line `from` on (the `?from=N`
    /// cursor: pass the number of lines already consumed).
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn events(&self, id: u64, from: usize) -> Result<String, ApiError> {
        let st = self.state.lock();
        let t =
            st.tenants.get(&id).ok_or_else(|| ApiError::new(404, format!("no campaign {id}")))?;
        let mut out = String::new();
        for line in t.events.iter().skip(from) {
            out.push_str(line);
            out.push('\n');
        }
        Ok(out)
    }

    /// The `/metrics` payload: fleet-level series, then every tenant's
    /// registry rendered with its `tenant="<name>"` label.
    pub fn render_metrics(&self) -> String {
        let parts: Vec<String> = {
            let st = self.state.lock();
            let mut parts = vec![self.cfg.registry.render_prometheus()];
            for t in st.tenants.values() {
                parts.push(
                    t.metrics.registry.render_prometheus_labeled(&[("tenant", &t.spec.name)]),
                );
            }
            parts
        };
        merge_renders(&parts)
    }
}
