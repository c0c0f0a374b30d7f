//! Campaign-as-a-service: a multi-tenant HTTP control plane over one
//! worker fleet.
//!
//! The daemon is `dx-dist`'s [`Coordinator`] — a dedicated coordinator is
//! that daemon with one campaign; [`Service::new`] builds it with many
//! ([`Coordinator::open`]). This crate puts the control plane in front:
//! tenants arrive over an HTTP/JSON API ([`api`]) as a [`CampaignSpec`]
//! (seeds, budget, master seed, fair-share weight, lease quota), checked
//! here by [`spec::validate`], and are paused, resumed, cancelled,
//! reported on and followed as an event feed. Each tenant is checkpointed
//! under `state_dir/<id>/` (the campaign files plus `dist.json` and
//! `events.jsonl`, next to the fleet's `fleet.json`), so a restart
//! resumes every tenant and any one directory doubles as a plain campaign
//! checkpoint. Each tenant's private metrics registry renders on
//! `/metrics` with a `tenant="<name>"` label, after the fleet-level
//! series. Admission, fairness and trust are the daemon's; the service
//! runs spot-checks at rate 0, so run its fleets with workers you trust.

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

use std::io;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

use dx_campaign::json::{build, Json};
use dx_campaign::{CampaignReport, EnergyModel, ModelSuite};
use dx_dist::coordinator::{Books, Ckpt};
use dx_dist::engine::Daemon as _;
use dx_dist::proto::Fingerprint;
use dx_dist::tenant::Tenant;
use dx_dist::{Coordinator, CoordinatorConfig, DrainHandle};
use dx_nn::util::gather_rows;
use dx_telemetry::{merge_renders, MetricsRegistry};
use dx_tensor::Tensor;

pub mod api;
pub mod spec;

pub use dx_dist::tenant::Status;
pub use spec::CampaignSpec;

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

    fn unknown(id: u64) -> Self {
        Self::new(404, format!("no campaign {id}"))
    }
}

/// Asks a running [`Service::serve`] to drain from another thread — the
/// programmatic stand-in for SIGTERM.
#[derive(Clone)]
pub struct StopHandle(DrainHandle);

impl StopHandle {
    /// Requests a graceful drain: finish in-flight leases, checkpoint
    /// every tenant, release the fleet.
    pub fn stop(&self) {
        self.0.drain();
    }
}

/// The control-plane daemon; see the module docs.
pub struct Service {
    daemon: Coordinator,
    max_tenants: usize,
    registry: MetricsRegistry,
    /// The shared seed pool tenants slice rows from.
    pool: Tensor,
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
        assert!(pool.shape().first().is_some_and(|&rows| rows > 0), "service needs a seed pool");
        let daemon_cfg = CoordinatorConfig {
            batch_per_round: cfg.batch_per_round,
            lease_size: cfg.lease_size,
            lease_timeout: cfg.lease_timeout,
            checkpoint_dir: cfg.state_dir,
            max_corpus: cfg.max_corpus,
            energy: cfg.energy,
            registry: cfg.registry.clone(),
            auth_token: cfg.auth_token,
            ..CoordinatorConfig::default()
        };
        Ok(Self {
            daemon: Coordinator::open(suite, label, daemon_cfg)?,
            max_tenants: cfg.max_tenants,
            registry: cfg.registry,
            pool: pool.clone(),
        })
    }

    /// A handle that asks [`Service::serve`] to drain, from any thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle(self.daemon.drain_handle())
    }

    /// The admission fingerprint workers must present.
    pub fn fingerprint(&self) -> &Fingerprint {
        self.daemon.fingerprint()
    }

    /// Rows in the shared seed pool.
    pub fn pool_rows(&self) -> usize {
        self.pool.shape().first().copied().unwrap_or(0)
    }

    /// Serves the worker fleet on `listener` until a [`StopHandle`] or an
    /// installed SIGTERM/SIGINT handler (`dx_dist::shutdown`) requests a
    /// drain; then waits for in-flight leases, checkpoints every tenant,
    /// and returns. Tenants finishing never drains the fleet — idle
    /// workers park on `wait` frames until new tenants arrive.
    ///
    /// # Errors
    ///
    /// Listener failures and final-checkpoint I/O errors. Individual
    /// connection errors only drop that worker.
    pub fn serve(&self, listener: TcpListener) -> io::Result<()> {
        self.daemon.serve_fleet(listener)
    }

    // ---------------------------------------------------------------
    // Control-plane operations (the API handlers' core).

    /// Runs `op` on the daemon's books, then writes the checkpoints it
    /// took.
    fn control(
        &self,
        op: impl FnOnce(&mut Books, &mut dx_dist::coordinator::Outbox) -> Result<Json, ApiError>,
    ) -> Result<Json, ApiError> {
        let (doc, ckpts): (_, Vec<Ckpt>) = self.daemon.locked(op);
        for job in ckpts {
            self.daemon.write_checkpoint(job).map_err(|e| ApiError::new(500, e.to_string()))?;
        }
        doc
    }

    /// Reads tenant `id` under the daemon's lock.
    fn read<R>(&self, id: u64, f: impl FnOnce(&Books, &Tenant) -> R) -> Result<R, ApiError> {
        self.daemon
            .locked(|st, _| {
                st.tenants.get(&id).map(|t| f(st, t)).ok_or_else(|| ApiError::unknown(id))
            })
            .0
    }

    /// Admits a new tenant campaign. Returns its status document.
    ///
    /// # Errors
    ///
    /// `400` for an invalid spec, `409` for a name the daemon has already
    /// seen (metrics labels and directories are keyed by name and must
    /// stay unambiguous for the daemon's lifetime), `429` over the live
    /// tenant cap.
    pub fn submit(&self, spec: CampaignSpec) -> Result<Json, ApiError> {
        spec::validate(&spec, self.fingerprint(), self.pool_rows())
            .map_err(|reason| ApiError::new(400, reason))?;
        self.control(|st, out| {
            if st.tenants.values().any(|t| t.spec.name == spec.name) {
                return Err(ApiError::new(409, format!("campaign `{}` already exists", spec.name)));
            }
            if st.live() >= self.max_tenants {
                let cap = self.max_tenants;
                return Err(ApiError::new(
                    429,
                    format!("tenant cap reached ({cap} live campaigns)"),
                ));
            }
            let inputs = (spec.seed_offset..spec.seed_offset + spec.seeds)
                .map(|i| gather_rows(&self.pool, &[i]))
                .collect();
            let id = self.daemon.add_tenant(st, spec, inputs, out);
            Ok(st.tenants.get(&id).map_or(Json::Null, |t| status_json(st, t)))
        })
    }

    /// All tenants' status documents, id-ordered.
    pub fn list(&self) -> Json {
        self.daemon
            .locked(|st, _| Json::Arr(st.tenants.values().map(|t| status_json(st, t)).collect()))
            .0
    }

    /// One tenant's status document.
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn status(&self, id: u64) -> Result<Json, ApiError> {
        self.read(id, status_json)
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
        self.control(|st, out| {
            let status = st.tenants.get(&id).ok_or_else(|| ApiError::unknown(id))?.status;
            if !allowed(status) {
                let why = format!("cannot {event}: campaign {id} is {}", status.as_str());
                return Err(ApiError::new(409, why));
            }
            self.daemon.set_status(st, id, to, event, Vec::new(), out);
            Ok(st.tenants.get(&id).map_or(Json::Null, |t| status_json(st, t)))
        })
    }

    /// The tenant's rendered campaign report (the same text a dedicated
    /// run prints).
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn report(&self, id: u64) -> Result<String, ApiError> {
        self.read(id, |_, t| {
            let report =
                CampaignReport { workers: t.worker_rng.len().max(1), ..t.ledger.report.clone() };
            format!(
                "campaign {} ({}): {} — {} steps, {} diffs, mean coverage {:.4}\n{}",
                t.id,
                t.spec.name,
                t.status.as_str(),
                t.ledger.steps_done,
                t.ledger.diffs.len(),
                t.ledger.mean_coverage(),
                report.render(),
            )
        })
    }

    /// The tenant's JSONL event feed from line `from` on (the `?from=N`
    /// cursor: pass the number of lines already consumed).
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn events(&self, id: u64, from: usize) -> Result<String, ApiError> {
        self.read(id, |_, t| t.events.iter().skip(from).map(|line| format!("{line}\n")).collect())
    }

    /// The `/metrics` payload: fleet-level series, then every tenant's
    /// registry rendered with its `tenant="<name>"` label.
    pub fn render_metrics(&self) -> String {
        let (mut parts, _) = self.daemon.locked(|st, _| {
            let tenants = st.tenants.values();
            tenants
                .map(|t| t.metrics.registry.render_prometheus_labeled(&[("tenant", &t.spec.name)]))
                .collect::<Vec<_>>()
        });
        parts.insert(0, self.registry.render_prometheus());
        merge_renders(&parts)
    }
}

/// A tenant's public status document.
fn status_json(st: &Books, t: &Tenant) -> Json {
    build::obj(vec![
        // Ids are small counters; a plain number is kinder to curl and jq
        // than the string form big u64s need.
        ("id", build::int(usize::try_from(t.id).unwrap_or(usize::MAX))),
        ("name", build::str(&t.spec.name)),
        ("status", build::str(t.status.as_str())),
        ("steps_done", build::int(t.ledger.steps_done)),
        ("diffs", build::int(t.ledger.diffs.len())),
        ("mean_coverage", build::num(f64::from(t.ledger.mean_coverage()))),
        ("corpus", build::int(t.ledger.corpus.len())),
        ("epochs", build::int(t.ledger.report.epochs.len())),
        ("outstanding", build::int(st.fleet.leases.seed_ids(t.id).len())),
        ("pending", build::int(t.ledger.pending.len())),
        ("spec", t.spec.to_json()),
    ])
}
