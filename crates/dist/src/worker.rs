//! The campaign worker: a thin network wrapper around the generator's
//! batched step loop.
//!
//! A worker owns clones of the models and, per campaign it is leased
//! work for, a [`deepxplore::Generator`] whose RNG stream derives from
//! `(campaign_seed, slot)` exactly like an in-process pool worker's — a
//! dist fleet of N workers and an in-process pool of N workers draw from
//! the same per-worker streams, and a multi-tenant fleet runs each
//! tenant's stream exactly as a dedicated fleet would. Campaign state is
//! built lazily from the leases the dispatcher hands out (protocol v6
//! tags each lease with a campaign id and master seed); a worker behind
//! a single-campaign coordinator only ever sees campaign `0`. The
//! worker leases seed batches, runs them in tiles through
//! [`deepxplore::Generator::run_batch_tiled`] (one stacked forward and one
//! batched backward per model per iterate — see `WorkerConfig::batch`),
//! heartbeats during long leases, and reports outcomes plus a
//! sparse coverage delta; the coordinator's acks carry the global
//! union's news back, which the generator adopts so it stops chasing
//! neurons another worker already covered.

use std::collections::BTreeMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use deepxplore::generator::Generator;
use dx_campaign::json::invalid;
use dx_campaign::ModelSuite;
use dx_coverage::CoverageSignal;
use dx_nn::util::concat_rows;
use dx_telemetry::phase::{LocalHist, Phase};
use dx_tensor::rng;

use crate::proto::{
    coverage_news, CovDelta, Fingerprint, JobResult, Msg, TelemetrySnapshot, PROTOCOL_VERSION,
};
use crate::suite_fingerprint;
use crate::wire::{read_frame, write_frame};

/// Worker-side knobs.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Jobs requested per lease. Advisory since protocol v4: a
    /// coordinator running adaptive lease sizing may grant more.
    pub lease_size: usize,
    /// Seeds grown per batched generator call
    /// ([`Generator::run_batch_tiled`]): lease jobs run `batch` at a
    /// time through one stacked forward/backward per model per iterate.
    /// Heartbeats fire between tiles, so the coordinator's lease
    /// deadline must cover `max(batch, heartbeat_every)` seed steps.
    pub batch: usize,
    /// Heartbeat before every this-many-th job within a lease; with the
    /// default of 1, every job starts on a fresh lease deadline, so the
    /// coordinator's `lease_timeout` only needs to cover one seed step.
    pub heartbeat_every: usize,
    /// Connection attempts before giving up (the coordinator may still be
    /// binding when a fleet starts).
    pub connect_retries: u32,
    /// Pause between connection attempts.
    pub retry_delay: Duration,
    /// Shared secret answering the coordinator's auth challenge
    /// ([`crate::auth`]). Required when the coordinator runs with one;
    /// ignored (never sent) when it does not.
    pub auth_token: Option<String>,
    /// Worker identity announced at `hello` and bound into the auth
    /// proof: 1–128 printable ASCII bytes. A daemon keys its worker
    /// record (trust, eviction, report row) and per-tenant RNG streams to
    /// it. `None` derives a fresh unique one per [`run_worker`] call
    /// (worker threads sharing a process stay distinct); the `deepxplore
    /// worker` command always does, so each worker process is a new
    /// identity. Only a caller that sets this keeps one identity across
    /// reconnects and restarts.
    pub worker_id: Option<String>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            lease_size: 4,
            batch: 4,
            heartbeat_every: 1,
            connect_retries: 50,
            retry_delay: Duration::from_millis(100),
            auth_token: None,
            worker_id: None,
        }
    }
}

/// What a worker did over its connection lifetime.
#[derive(Clone, Debug)]
pub struct WorkerSummary {
    /// The slot the coordinator assigned.
    pub slot: u64,
    /// Seed steps completed.
    pub steps: usize,
    /// Difference-inducing inputs found.
    pub diffs_found: usize,
    /// The worker's final local per-model coverage: across campaigns,
    /// the best (max) coverage this worker's union views reached.
    pub coverage: Vec<f32>,
}

/// Per-campaign worker state: the generator (own RNG stream, own local
/// coverage trackers) and the coordinator's model of what this worker
/// knows, which both directions' deltas are relative to.
struct CampaignCtx {
    generator: Generator,
    known: Vec<CoverageSignal>,
}

/// A fresh default identity: hashed from the pid, the clock, and a
/// process-wide counter, so every worker that does not announce an
/// explicit id is distinct — including worker threads sharing one
/// process (an in-process fleet).
pub(crate) fn fresh_worker_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let pid = u64::from(std::process::id());
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
    let mut seed = pid.to_le_bytes().to_vec();
    seed.extend_from_slice(&count.to_le_bytes());
    seed.extend_from_slice(&nanos.to_le_bytes());
    let digest = crate::auth::sha256(&seed);
    let hex: String = digest.iter().take(8).map(|b| format!("{b:02x}")).collect();
    format!("w-{hex}")
}

fn connect(addr: impl ToSocketAddrs + Clone, cfg: &WorkerConfig) -> io::Result<TcpStream> {
    let mut last = None;
    for _ in 0..cfg.connect_retries.max(1) {
        match TcpStream::connect(addr.clone()) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = Some(e);
                dx_telemetry::sync::sleep(cfg.retry_delay);
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no attempts made")))
}

fn exchange(stream: &mut TcpStream, msg: &Msg) -> io::Result<Msg> {
    write_frame(stream, &msg.to_json())?;
    Msg::from_json(&read_frame(stream)?)
}

/// Runs a worker against the coordinator at `addr` until the campaign
/// drains. `label` must match the coordinator's (it is part of the
/// admission fingerprint).
///
/// # Errors
///
/// Connection failures, admission rejection, or protocol violations.
pub fn run_worker(
    addr: impl ToSocketAddrs + Clone,
    suite: ModelSuite,
    label: &str,
    cfg: WorkerConfig,
) -> io::Result<WorkerSummary> {
    let fingerprint = suite_fingerprint(&suite, label);
    let worker_id = cfg.worker_id.clone().unwrap_or_else(fresh_worker_id);
    let mut stream = connect(addr, &cfg)?;
    stream.set_nodelay(true)?;
    let slot = hello(&mut stream, fingerprint, &worker_id, cfg.auth_token.as_deref())?;
    // BTreeMap so the telemetry fold over contexts is deterministic.
    let mut contexts: BTreeMap<u64, CampaignCtx> = BTreeMap::new();
    let mut summary = WorkerSummary { slot, steps: 0, diffs_found: 0, coverage: Vec::new() };
    // Heartbeat round-trips since the last results report, shipped as
    // part of the advisory telemetry snapshot.
    let mut heartbeat_rtt = LocalHist::new();
    loop {
        let reply =
            exchange(&mut stream, &Msg::LeaseRequest { slot, want: cfg.lease_size.max(1) })?;
        match reply {
            Msg::Lease { lease, campaign, campaign_seed, rng_state, jobs, cov } => {
                let ctx = contexts.entry(campaign).or_insert_with(|| {
                    context_for(&suite, slot, campaign_seed, rng_state.as_ref())
                });
                adopt(&mut ctx.generator, &mut ctx.known, &cov)?;
                let mut items = Vec::with_capacity(jobs.len());
                let mut since_beat = 0usize;
                for tile in jobs.chunks(cfg.batch.max(1)) {
                    // Heartbeat *between* tiles (before every one, at the
                    // default heartbeat_every = 1 with batch = 1),
                    // resetting the lease deadline so the timeout only
                    // needs to cover max(batch, heartbeat_every) seed
                    // steps, not a whole lease. (A stretch of steps that
                    // still outlasts the timeout expires the lease; the
                    // coordinator salvages those results on arrival as
                    // long as the seeds were not re-leased meanwhile.)
                    if since_beat > 0
                        && cfg.heartbeat_every > 0
                        && since_beat >= cfg.heartbeat_every
                    {
                        since_beat = 0;
                        let sent = Instant::now();
                        let reply = exchange(&mut stream, &Msg::Heartbeat { slot, lease })?;
                        heartbeat_rtt.record(sent.elapsed().as_secs_f64());
                        match reply {
                            Msg::Ack { cov } => adopt(&mut ctx.generator, &mut ctx.known, &cov)?,
                            Msg::Drain => {} // Finish the lease; exit after reporting.
                            other => return Err(invalid(format!("unexpected {other:?}"))),
                        }
                    }
                    let ids: Vec<usize> = tile.iter().map(|j| j.seed_id).collect();
                    let stacked = concat_rows(tile.iter().map(|j| &j.input));
                    let runs = ctx.generator.run_batch_tiled(&ids, &stacked, tile.len());
                    since_beat += tile.len();
                    for (seed_id, run) in ids.into_iter().zip(runs) {
                        summary.steps += 1;
                        if run.found_difference() {
                            summary.diffs_found += 1;
                        }
                        items.push(JobResult { seed_id, run });
                    }
                }
                let cov = local_news(&ctx.generator, &mut ctx.known);
                let telemetry = take_telemetry(&mut ctx.generator, &mut heartbeat_rtt);
                let results = Msg::Results {
                    slot,
                    lease,
                    campaign,
                    items,
                    cov,
                    rng_state: ctx.generator.rng_state(),
                    telemetry,
                };
                match exchange(&mut stream, &results)? {
                    Msg::Ack { cov } => adopt(&mut ctx.generator, &mut ctx.known, &cov)?,
                    Msg::Drain => break,
                    other => return Err(invalid(format!("unexpected {other:?}"))),
                }
            }
            Msg::Wait { millis } => {
                dx_telemetry::sync::sleep(Duration::from_millis(millis.min(1000)))
            }
            Msg::Drain => break,
            Msg::Reject { reason } => return Err(invalid(format!("rejected: {reason}"))),
            other => return Err(invalid(format!("unexpected {other:?}"))),
        }
    }
    let _ = write_frame(&mut stream, &Msg::Bye.to_json());
    // A worker that drained before its first lease covered nothing.
    summary.coverage = vec![0.0; suite.models.len()];
    for ctx in contexts.values() {
        for (best, c) in summary.coverage.iter_mut().zip(ctx.generator.coverage()) {
            *best = best.max(c);
        }
    }
    Ok(summary)
}

/// Fresh per-campaign state: the generator stream derives from the
/// campaign seed and the worker's slot, continued from the dispatcher's
/// checkpointed RNG state when the lease carried one (fleet resume).
fn context_for(
    suite: &ModelSuite,
    slot: u64,
    campaign_seed: u64,
    rng_state: Option<&[u64; 4]>,
) -> CampaignCtx {
    let signals = suite.signal.build(&suite.models);
    let mut generator = Generator::with_signals(
        suite.models.clone(),
        suite.kind,
        suite.hp,
        suite.constraint.clone(),
        signals,
        rng::derive_seed(campaign_seed, 1 + slot),
    );
    if let Some(state) = rng_state {
        generator.set_rng_state(*state);
    }
    let known = generator.signals().to_vec();
    CampaignCtx { generator, known }
}

/// Drains the generator's phase accumulator and the heartbeat RTT delta
/// into a wire snapshot for the next `results` frame. The coordinator
/// owns folding these into a registry — the worker only ships deltas, so
/// an in-process fleet (coordinator and workers sharing one registry)
/// never counts a phase twice. Returns `None` when there is nothing to
/// report.
fn take_telemetry(
    generator: &mut Generator,
    heartbeat_rtt: &mut LocalHist,
) -> Option<TelemetrySnapshot> {
    let phases = generator.take_phase_stats();
    let snapshot = TelemetrySnapshot {
        phases: Phase::ALL
            .into_iter()
            .filter(|p| !phases.get(*p).is_empty())
            .map(|p| (p.name().to_string(), phases.get(p).clone()))
            .collect(),
        heartbeat: (!heartbeat_rtt.is_empty()).then(|| std::mem::take(heartbeat_rtt)),
    };
    (!snapshot.is_empty()).then_some(snapshot)
}

fn hello(
    stream: &mut TcpStream,
    fingerprint: Fingerprint,
    worker_id: &str,
    auth_token: Option<&str>,
) -> io::Result<u64> {
    let mut reply = exchange(
        stream,
        &Msg::Hello { version: PROTOCOL_VERSION, fingerprint, worker_id: worker_id.to_string() },
    )?;
    if let Msg::Challenge { nonce } = &reply {
        // The coordinator demands authentication before admitting anyone.
        let Some(token) = auth_token else {
            return Err(invalid(
                "coordinator requires authentication; configure the shared \
                 token (--auth-token / DX_AUTH_TOKEN)",
            ));
        };
        reply = exchange(
            stream,
            &Msg::AuthProof { proof: crate::auth::proof(token, nonce, worker_id) },
        )?;
    }
    match reply {
        Msg::Welcome { slot, .. } => Ok(slot),
        Msg::Reject { reason } => Err(invalid(format!("rejected: {reason}"))),
        other => Err(invalid(format!("unexpected {other:?}"))),
    }
}

/// Applies the coordinator's coverage news to the worker's known-view and
/// the generator's own trackers.
fn adopt(
    generator: &mut Generator,
    known: &mut [CoverageSignal],
    cov: &CovDelta,
) -> io::Result<()> {
    if cov.len() != known.len() {
        return Err(invalid("coverage delta model-count mismatch"));
    }
    for (k, idx) in known.iter_mut().zip(cov) {
        if idx.iter().any(|&i| i >= k.total()) {
            return Err(invalid("coverage delta out of range"));
        }
        k.apply_covered_indices(idx);
    }
    generator.adopt_coverage(known);
    Ok(())
}

/// Coverage this worker found that the coordinator hasn't heard about,
/// after which the known-view catches up.
fn local_news(generator: &Generator, known: &mut [CoverageSignal]) -> CovDelta {
    coverage_news(generator.signals(), known)
}

/// A raw scripted exchange for protocol tests: sends `msgs` in order and
/// returns each reply (not used by real workers).
#[cfg(test)]
pub(crate) fn scripted(addr: std::net::SocketAddr, msgs: &[Msg]) -> io::Result<Vec<Msg>> {
    scripted_with_token(addr, None, msgs)
}

/// [`scripted`], answering an auth challenge after the first `hello` with
/// a proof derived from `token` (when given). The challenge reply is not
/// recorded — callers see the post-auth verdict, as a real worker would.
/// The proof is bound to the identity in the preceding `hello` frame
/// (or a fresh default when the script starts elsewhere).
#[cfg(test)]
pub(crate) fn scripted_with_token(
    addr: std::net::SocketAddr,
    token: Option<&str>,
    msgs: &[Msg],
) -> io::Result<Vec<Msg>> {
    let mut stream = TcpStream::connect(addr)?;
    let mut out = Vec::new();
    let mut identity = fresh_worker_id();
    for m in msgs {
        if let Msg::Hello { worker_id, .. } = m {
            identity = worker_id.clone();
        }
        let mut reply = exchange(&mut stream, m)?;
        if let (Msg::Challenge { nonce }, Some(token)) = (&reply, token) {
            reply = exchange(
                &mut stream,
                &Msg::AuthProof { proof: crate::auth::proof(token, nonce, &identity) },
            )?;
        }
        out.push(reply);
    }
    Ok(out)
}
