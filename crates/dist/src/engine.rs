//! The lease engine the daemon runs on, in two layers. A campaign's
//! books (and their checkpoint writer and loader) are a `dx-campaign`
//! [`Ledger`], the one the in-process pool drives too.
//!
//! **The books (pure).** [`Fleet`] keeps one [`Worker`] record per
//! identity, in admission order — its position is the number the worker
//! knows itself by — with its trust; its [`LeaseTable`] tracks which
//! worker holds which seeds until when, and a [`Plan`]
//! says what a results frame may fold into a ledger: [`check`] validates
//! the frame, [`Plan::absorb`] applies lease entitlement and salvage in
//! front of [`Ledger::absorb`]. They do no I/O and read no clock: every
//! deadline decision takes `now` from the caller, so a test (or a
//! simulator) owns time and the whole lease life cycle runs without a
//! socket, a thread or a sleep. Nothing above the "shell" banner below —
//! nor above the ledger's own banner — may touch one;
//! `books_are_sans_io` greps both files for it.
//!
//! **The shell (I/O).** [`serve`] is the nonblocking accept loop with
//! drain, backlog sweep and force-close; each connection's handler thread
//! frames, enforces the pre-admission frame cap and hello timeout, answers
//! garbage with a best-effort `reject`, runs the version / identity /
//! challenge / fingerprint handshake, and hands only admitted,
//! frame-checked requests to the [`Daemon`] — the policy, implemented
//! once, by [`crate::Coordinator`] (see [`crate::dispatcher`]). Two seams
//! serve its trust layer: *trust is state* ([`Trust::record`] adds each
//! verdict to the worker's record and evicts past the threshold;
//! [`Fleet::admit`] refuses an evicted identity), and
//! *spot-checks sit between claim and absorb* ([`LeaseTable::claim`]
//! marks a lease `checking`; the daemon re-executes sampled claims
//! without its lock, then absorbs or requeues).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dx_campaign::ledger::{Absorbed, Ledger};
use dx_coverage::CoverageSignal;

use crate::proto::{CovDelta, Job, JobResult};

/// One outstanding lease.
pub struct Lease {
    /// The worker holding it: its position in the [`Fleet`].
    pub worker: usize,
    /// The campaign its seeds belong to (always 0 on a coordinator).
    pub campaign: u64,
    /// The leased corpus entry ids.
    pub seed_ids: Vec<usize>,
    deadline: Instant,
    issued: Instant,
    /// Results arrived and are being verified outside the daemon's lock.
    checking: bool,
}

/// What a results frame may do, decided by [`LeaseTable::claim`].
pub enum Plan {
    /// A live lease owned by the sender, now marked `checking`.
    Lease {
        /// The seeds the lease covers.
        seed_ids: Vec<usize>,
        /// Issue → claim, taken before any verification so the daemon's
        /// own time is never billed to the worker.
        turnaround: Duration,
    },
    /// Another worker's lease, or one already being verified: the items
    /// are not the sender's to count.
    Collision,
    /// The lease already expired; seeds still queued can be salvaged.
    Expired,
}

/// Who holds which seeds until when.
pub struct LeaseTable {
    // BTreeMap, not HashMap: lease ids iterate in issue order, so
    // checkpoint snapshots, `seed_ids` and expiry sweeps are deterministic.
    leases: BTreeMap<u64, Lease>,
    next: u64,
    timeout: Duration,
}

impl LeaseTable {
    /// An empty table whose first lease id is `next` (a resumed
    /// checkpoint's: ids are never reused) and whose leases live `timeout`
    /// past their last sign of life.
    pub fn new(next: u64, timeout: Duration) -> Self {
        Self { leases: BTreeMap::new(), next, timeout }
    }

    /// The id the next grant will get.
    pub fn next_id(&self) -> u64 {
        self.next
    }

    /// Leases currently out.
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// Whether no lease is out.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }

    /// The lease with this id, if it is still on the books.
    pub fn get(&self, lease: u64) -> Option<&Lease> {
        self.leases.get(&lease)
    }

    /// Whether `worker` holds any lease.
    pub fn holds(&self, worker: usize) -> bool {
        self.leases.values().any(|l| l.worker == worker)
    }

    /// Every seed id out on a lease for `campaign`, in issue order: what
    /// the scheduler must exclude and a checkpoint must requeue.
    pub fn seed_ids(&self, campaign: u64) -> Vec<usize> {
        self.of(campaign).flat_map(|l| l.seed_ids.iter().copied()).collect()
    }

    /// Jobs out across all campaigns.
    pub fn total_jobs_out(&self) -> usize {
        self.leases.values().map(|l| l.seed_ids.len()).sum()
    }

    fn of(&self, campaign: u64) -> impl Iterator<Item = &Lease> {
        self.leases.values().filter(move |l| l.campaign == campaign)
    }

    /// Puts seeds `ids` out on a fresh lease and returns its id.
    pub fn grant(&mut self, worker: usize, campaign: u64, ids: Vec<usize>, now: Instant) -> u64 {
        let id = self.next;
        self.next += 1;
        let deadline = now + self.timeout;
        let lease =
            Lease { worker, campaign, seed_ids: ids, deadline, issued: now, checking: false };
        self.leases.insert(id, lease);
        id
    }

    /// Extends the lease's deadline if `worker` owns it, and says which
    /// campaign it belongs to.
    pub fn heartbeat(&mut self, lease: u64, worker: usize, now: Instant) -> Option<u64> {
        let l = self.leases.get_mut(&lease).filter(|l| l.worker == worker)?;
        l.deadline = now + self.timeout;
        Some(l.campaign)
    }

    /// Removes every lease past its deadline, except ones being verified.
    pub fn expire(&mut self, now: Instant) -> Vec<(u64, Lease)> {
        self.take(|l| now >= l.deadline && !l.checking)
    }

    /// Removes every lease held by `worker` (its connection died).
    pub fn orphan(&mut self, worker: usize) -> Vec<(u64, Lease)> {
        self.take(|l| l.worker == worker)
    }

    /// Removes every lease (the daemon is shutting down).
    pub fn clear(&mut self) -> Vec<(u64, Lease)> {
        self.take(|_| true)
    }

    fn take(&mut self, gone: impl Fn(&Lease) -> bool) -> Vec<(u64, Lease)> {
        let ids: Vec<u64> =
            self.leases.iter().filter(|(_, l)| gone(l)).map(|(&id, _)| id).collect();
        ids.into_iter().filter_map(|id| Some((id, self.leases.remove(&id)?))).collect()
    }

    /// Claims `lease` for a results frame from `worker`. A live lease the
    /// sender owns stays on the books marked `checking` until
    /// [`LeaseTable::release`]: its seeds stay excluded from scheduling, a
    /// drain still sees work in flight, expiry cannot pull it
    /// mid-verification, and a duplicate frame cannot absorb twice.
    ///
    /// # Errors
    ///
    /// An id this table never issued: a fabrication, not an expiry —
    /// nothing in such a frame (coverage included) is credible.
    pub fn claim(&mut self, lease: u64, worker: usize, now: Instant) -> Result<Plan, &'static str> {
        if lease >= self.next {
            return Err("unknown lease id");
        }
        Ok(match self.leases.get_mut(&lease) {
            Some(l) if l.worker == worker && !l.checking => {
                l.checking = true;
                l.deadline = now + self.timeout;
                Plan::Lease {
                    seed_ids: l.seed_ids.clone(),
                    turnaround: now.duration_since(l.issued),
                }
            }
            Some(_) => Plan::Collision,
            None => Plan::Expired,
        })
    }

    /// Takes a claimed lease off the books, before its results are
    /// absorbed or its seeds requeued.
    pub fn release(&mut self, lease: u64) -> Option<Lease> {
        self.leases.remove(&lease)
    }
}

/// Spot-checks a worker must accumulate before its fabrication rate can
/// evict it — one unlucky sample should not kill a fleet member.
const TRUST_MIN_CHECKS: usize = 2;

/// What the spot-checks found of one worker's claims, and the verdict.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Trust {
    /// Claimed diffs the daemon re-executed.
    pub checked: usize,
    /// Re-executions that failed to reproduce (fabrications).
    pub failed: usize,
    /// Evicted for crossing the trust threshold; refused at admission.
    pub evicted: bool,
}

impl Trust {
    /// Adds a batch of `checked` spot-checks, `failed` of which did not
    /// reproduce. A batch with failures evicts once there are
    /// `TRUST_MIN_CHECKS` checks and more than `threshold` of them failed.
    pub fn record(&mut self, checked: usize, failed: usize, threshold: f32) {
        self.checked += checked;
        self.failed += failed;
        let rate = self.failed as f32 / self.checked.max(1) as f32;
        self.evicted |= failed > 0 && self.checked >= TRUST_MIN_CHECKS && rate > threshold;
    }
}

/// One worker's record in the fleet's books.
#[derive(Clone, Debug, Default)]
pub struct Worker {
    /// The identity it sent at hello; empty for an older checkpoint's
    /// unbound slot, a placeholder no `hello` can claim.
    pub identity: String,
    /// Whether a connection holds it right now.
    pub live: bool,
    /// Its spot-check record.
    pub trust: Trust,
    /// Seed steps it completed.
    pub steps: usize,
    /// Difference-inducing inputs it found.
    pub diffs: usize,
    /// Coverage units it was first to cover in a campaign's union.
    pub contributed: usize,
    /// Its adaptive lease size (`None`: the configured `lease_size`).
    pub quota: Option<usize>,
}

/// Why [`Fleet::admit`] refused an identity.
#[derive(Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The identity's worker (at this position) is evicted.
    Burned(usize),
    /// A live connection already holds this identity.
    Duplicate,
}

/// The fleet-wide books behind a daemon's lock: one [`Worker`] per
/// identity, and the leases they hold.
pub struct Fleet {
    /// Every worker so far, in admission order. A position never changes
    /// and no identity is ever rebound: [`Fleet::admit`] gives a returning
    /// identity its record (trust, tallies and the RNG stream its position
    /// numbers), refuses an evicted one — reconnecting under the same name
    /// cannot shed a record — and appends a fresh one.
    pub workers: Vec<Worker>,
    /// The outstanding leases.
    pub leases: LeaseTable,
}

impl Fleet {
    /// Currently admitted connections.
    pub fn connected(&self) -> usize {
        self.workers.iter().filter(|w| w.live).count()
    }

    /// Finds `identity`'s worker, or appends a fresh one, and marks it
    /// live; returns its position.
    ///
    /// # Errors
    ///
    /// [`Refusal`] for an evicted or already-connected identity.
    pub fn admit(&mut self, identity: &str) -> Result<usize, Refusal> {
        match self.workers.iter_mut().enumerate().find(|(_, w)| w.identity == identity) {
            Some((position, w)) if w.trust.evicted => Err(Refusal::Burned(position)),
            Some((_, w)) if w.live => Err(Refusal::Duplicate),
            Some((position, w)) => {
                w.live = true;
                Ok(position)
            }
            None => {
                let fresh = Worker { identity: identity.into(), live: true, ..Worker::default() };
                self.workers.push(fresh);
                Ok(self.workers.len() - 1)
            }
        }
    }

    /// Drops `position`'s connection (its record stays); a dead worker's
    /// leases come back for the caller to requeue.
    pub fn disconnect(&mut self, position: usize) -> Vec<(u64, Lease)> {
        if let Some(w) = self.workers.get_mut(position) {
            w.live = false;
        }
        self.leases.orphan(position)
    }

    /// Nothing connected and nothing out: a draining daemon may stop.
    pub fn idle(&self) -> bool {
        self.leases.is_empty() && self.connected() == 0
    }
}

impl Plan {
    /// Whether this claim entitles its frame to count a result for
    /// `seed_id`: a seed the claimed lease covers, or — the lease having
    /// expired — one still queued in `ledger` (a re-leased one is someone
    /// else's now).
    pub fn absorbable(&self, ledger: &Ledger, seed_id: usize) -> bool {
        match self {
            Plan::Lease { seed_ids, .. } => seed_ids.contains(&seed_id),
            Plan::Expired => ledger.pending.contains(&seed_id),
            Plan::Collision => false,
        }
    }

    /// Folds a [`check`]ed results frame into `ledger`: the coverage delta
    /// always (the worker saw those units whatever became of its lease),
    /// then the items this claim entitles the sender to. Under
    /// [`Plan::Expired`] seeds still queued are salvaged (counted instead
    /// of redone), so one step that outlasts the timeout cannot livelock a
    /// budgeted campaign.
    pub fn absorb(&self, ledger: &mut Ledger, items: &[JobResult], cov: &CovDelta) -> Absorbed {
        let take: Vec<&JobResult> =
            items.iter().filter(|i| self.absorbable(ledger, i.seed_id)).collect();
        if matches!(self, Plan::Expired) {
            ledger.pending.retain(|id| !take.iter().any(|i| i.seed_id == *id));
        }
        ledger.absorb(take.iter().map(|i| (i.seed_id, &i.run)), cov)
    }
}

/// Validates a results frame against the union `global` before anything
/// touches it: delta indices in range, every tensor shaped `sample_shape`
/// (a fabricated one would otherwise panic a forward pass, at a
/// spot-check or in whatever resumes the corpus).
///
/// # Errors
///
/// The reason to reject the connection with.
pub fn check(
    global: &[CoverageSignal],
    cov: &CovDelta,
    items: &[JobResult],
    sample_shape: &[usize],
) -> Result<(), &'static str> {
    for (m, idx) in cov.iter().enumerate() {
        let total = global.get(m).map_or(0, CoverageSignal::total);
        if m >= global.len() || idx.iter().any(|&i| i >= total) {
            return Err("coverage delta out of range");
        }
    }
    let shape_ok = items.iter().all(|i| {
        i.run.test.as_ref().is_none_or(|t| t.input.shape() == sample_shape)
            && i.run.corpus_candidate.as_ref().is_none_or(|c| c.shape() == sample_shape)
    });
    if !shape_ok {
        return Err("result tensor shape mismatch");
    }
    Ok(())
}

/// The `lease` frame's jobs for ids picked from `ledger`.
pub fn jobs(ledger: &Ledger, ids: &[usize]) -> Vec<Job> {
    ids.iter()
        .filter_map(|&id| Some(Job { seed_id: id, input: ledger.corpus.get(id)?.input.clone() }))
        .collect()
}

// ---------------------------------------------------------------------
// The shell: sockets, threads, files and the clock start here. Nothing
// above this line may use them (`books_are_sans_io` holds it to that).
// ---------------------------------------------------------------------

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

use dx_campaign::ModelSuite;
use dx_telemetry::events::{emit, Level};
use dx_telemetry::phase::{Phase, TIME_BUCKETS};
use dx_telemetry::{names, MetricsRegistry};

use crate::proto::{coverage_news, Fingerprint, Msg, TelemetrySnapshot, PROTOCOL_VERSION};
use crate::wire::{write_frame, FrameReader, MAX_FRAME};
use crate::{auth, suite_fingerprint};

/// How often connection handlers and the accept loop wake up to check
/// deadlines and flags.
const POLL: Duration = Duration::from_millis(100);

/// Idle polls (no traffic from a drained, lease-less worker) before its
/// connection is closed server-side.
const DRAIN_GRACE_POLLS: u32 = 20;

/// Frame cap for connections that have not completed admission: big
/// enough for any hello/auth frame, small enough that a stranger's
/// four-byte length prefix cannot demand a quarter-gigabyte allocation.
pub(crate) const HELLO_FRAME_CAP: usize = 1 << 16;
const _: () =
    assert!(HELLO_FRAME_CAP < MAX_FRAME, "the pre-admission cap must stay below MAX_FRAME");

/// What `hello` takes as a worker identity, which becomes a `fleet.json`
/// key, a metric label value and a report column.
fn valid_identity(id: &str) -> bool {
    (1..=128).contains(&id.len()) && id.bytes().all(|b| b.is_ascii_graphic())
}

/// How long a connection may sit without completing admission before it
/// is closed — a garbage or silent client must not park a handler thread
/// (and a listener backlog entry) forever.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// What the handler does with a daemon's answer.
pub enum Reply {
    /// Send and keep serving.
    Send(Msg),
    /// Send, then close the connection.
    SendThenClose(Msg),
    /// Close without a word.
    Close,
}

impl Reply {
    /// A `reject` that closes the connection.
    pub fn reject(reason: impl Into<String>) -> Self {
        Reply::SendThenClose(Msg::Reject { reason: reason.into() })
    }
}

/// An admitted connection's worker.
pub struct Peer {
    /// Its position in the [`Fleet`].
    pub worker: usize,
    /// Its authenticated identity.
    pub worker_id: String,
}

/// The payload of a `results` frame.
pub struct ResultsFrame {
    /// The lease reported on.
    pub lease: u64,
    /// The campaign the worker says it belongs to.
    pub campaign: u64,
    /// One result per job run.
    pub items: Vec<JobResult>,
    /// Units the worker newly covered.
    pub cov: CovDelta,
    /// The worker's generator RNG state after the lease.
    pub rng_state: [u64; 4],
    /// Advisory worker telemetry.
    pub telemetry: Option<TelemetrySnapshot>,
}

/// What a connection's worker is known to know about each campaign's
/// union; `cov` news is computed against it. Per campaign, because
/// workers keep one generator context per campaign and cross-campaign
/// news would corrupt them.
pub struct Views<'a> {
    template: &'a [CoverageSignal],
    known: BTreeMap<u64, Vec<CoverageSignal>>,
}

impl Views<'_> {
    fn of(&mut self, campaign: u64) -> &mut Vec<CoverageSignal> {
        self.known.entry(campaign).or_insert_with(|| self.template.to_vec())
    }

    /// Everything `global` covers that the worker has not been told,
    /// after which the view catches up.
    pub fn news(&mut self, campaign: u64, global: &[CoverageSignal]) -> CovDelta {
        coverage_news(global, self.of(campaign))
    }

    /// Folds the worker's own delta in — it evidently knows that
    /// coverage already, and the next news must not echo it back.
    pub fn learn(&mut self, campaign: u64, cov: &CovDelta) {
        for (v, idx) in self.of(campaign).iter_mut().zip(cov) {
            v.apply_covered_indices(idx);
        }
    }
}

/// What the shell guards a daemon's door with, and the flags that stop
/// it.
pub struct Gate {
    /// The admission fingerprint workers must present.
    pub fingerprint: Fingerprint,
    /// Shared secret workers must prove; `None` admits any
    /// fingerprint-matching peer.
    pub auth_token: Option<String>,
    /// How long a drained daemon waits for leases before force-closing.
    pub lease_timeout: Duration,
    /// Empty signals: the shape of every union and view.
    pub template: Vec<CoverageSignal>,
    drain: Arc<AtomicBool>,
    force_close: AtomicBool,
}

impl Gate {
    /// The gate of a daemon fuzzing `suite` under `label`, not draining.
    pub fn new(
        suite: &ModelSuite,
        label: &str,
        auth_token: Option<String>,
        lease_timeout: Duration,
    ) -> Self {
        Self {
            fingerprint: suite_fingerprint(suite, label),
            auth_token,
            lease_timeout,
            template: suite.signal.build(&suite.models),
            drain: Arc::new(AtomicBool::new(false)),
            force_close: AtomicBool::new(false),
        }
    }

    /// The drain flag, for a handle that sets it from another thread.
    pub fn drain_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.drain)
    }

    /// Starts a graceful drain: every following lease request is answered
    /// `drain`, and [`serve`] returns once the fleet is idle.
    pub fn drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
    }

    /// Whether a drain was requested.
    pub fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    /// The answer to a handled frame: fresh coverage news, or `drain`.
    pub fn ack(&self, cov: CovDelta) -> Reply {
        Reply::Send(if self.draining() { Msg::Drain } else { Msg::Ack { cov } })
    }
}

/// The policy a daemon plugs into the shell — never framing, the
/// handshake, admission or lease bookkeeping, which the shell and the
/// books do.
pub trait Daemon: Sync {
    /// The component named on its events and in its reject reasons.
    const COMPONENT: &'static str;
    /// A snapshot taken under the lock, written after the reply is sent.
    type Checkpoint;

    /// The daemon's gate.
    fn gate(&self) -> &Gate;
    /// Reads the fleet books under the daemon's lock.
    fn fleet<R>(&self, read: impl FnOnce(&Fleet) -> R) -> R;
    /// Bookkeeping once per accept-loop turn: expire leases, trip stops.
    fn tick(&self) -> Vec<Self::Checkpoint>;
    /// [`Fleet::admit`]s `worker_id` under the daemon's lock; returns its
    /// position and the `welcome` to send.
    ///
    /// # Errors
    ///
    /// The admission's [`Refusal`].
    fn enroll(&self, worker_id: &str) -> Result<(usize, Msg), Refusal>;
    /// The connection of the worker at `position` is gone:
    /// [`Fleet::disconnect`] it and requeue what it held.
    fn worker_gone(&self, position: usize);
    /// Answers a lease request for `want` jobs (advisory since v4) with
    /// `lease`, `wait` or `drain`. Never called while draining — the
    /// shell answers `drain` itself.
    fn lease(&self, peer: &Peer, want: usize, views: &mut Views<'_>) -> Msg;
    /// Extends `lease` for its owner and answers with coverage news.
    fn heartbeat(&self, peer: &Peer, lease: u64, views: &mut Views<'_>) -> Msg;
    /// Folds in a results frame.
    fn results(
        &self,
        peer: &Peer,
        frame: ResultsFrame,
        views: &mut Views<'_>,
    ) -> (Reply, Vec<Self::Checkpoint>);
    /// Writes a snapshot.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O failures (the shell logs them).
    fn write_checkpoint(&self, job: Self::Checkpoint) -> io::Result<()>;
}

/// Serves `daemon`'s fleet on `listener` until its gate drains and the
/// fleet is idle (or stayed away a lease timeout past the drain).
///
/// # Errors
///
/// Listener failures. Individual connection errors only drop that worker.
///
/// # Panics
///
/// Re-raises a connection handler's panic, after force-closing the other
/// connections: a handler that died silently would leave its worker
/// retrying and this loop waiting for a fleet that never goes idle.
pub fn serve<D: Daemon>(daemon: &D, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let gate = daemon.gate();
    let mut drained_at: Option<Instant> = None;
    std::thread::scope(|scope| -> io::Result<()> {
        let mut handlers: Vec<ScopedJoinHandle<'_, ()>> = Vec::new();
        loop {
            let (done, live): (Vec<_>, Vec<_>) =
                handlers.into_iter().partition(ScopedJoinHandle::is_finished);
            handlers = live;
            for handler in done {
                if let Err(panic) = handler.join() {
                    gate.force_close.store(true, Ordering::SeqCst);
                    std::panic::resume_unwind(panic);
                }
            }
            write_checkpoints(daemon, daemon.tick());
            let sweeping = gate.draining() && {
                let since = *drained_at.get_or_insert_with(Instant::now);
                let idle = daemon.fleet(Fleet::idle);
                if !idle && since.elapsed() > gate.lease_timeout + 10 * POLL {
                    // Workers that never came back: stop waiting.
                    gate.force_close.store(true, Ordering::SeqCst);
                }
                idle
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    let peer = peer.to_string();
                    emit(Level::Debug, D::COMPONENT, "connection", &[("peer", peer.into())]);
                    handlers.push(scope.spawn(move || handle(daemon, stream)));
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // An idle, drained fleet sweeps the accept backlog
                    // before closing the listener: a worker whose
                    // connection is still queued gets a polite `drain`
                    // instead of a reset.
                    if sweeping {
                        return Ok(());
                    }
                    dx_telemetry::sync::sleep(POLL);
                }
                Err(e) => return Err(e),
            }
        }
    })
}

fn write_checkpoints<D: Daemon>(daemon: &D, jobs: Vec<D::Checkpoint>) {
    for job in jobs {
        if let Err(e) = daemon.write_checkpoint(job) {
            let error = e.to_string();
            emit(Level::Error, D::COMPONENT, "checkpoint_failed", &[("error", error.into())]);
        }
    }
}

/// Per-connection protocol state, owned by the handler thread.
struct Conn<'a> {
    /// The worker, once admitted.
    admitted: Option<Peer>,
    /// Parked at `hello` until the auth proof arrives: the fingerprint
    /// (even its verdict waits until the peer proves it holds the
    /// secret), the announced identity the proof must be bound to, and
    /// the outstanding nonce.
    challenged: Option<(Fingerprint, String, String)>,
    views: Views<'a>,
}

/// One worker connection, request/response until it closes.
///
/// Hostile-input posture: unadmitted connections read through a small
/// frame cap (no length-prefix allocation bombs) and are closed after
/// [`HELLO_TIMEOUT`] if admission never completes; a malformed or
/// oversized frame gets a best-effort `reject` and closes only *this*
/// connection — the accept loop and every other worker keep going.
fn handle<D: Daemon>(daemon: &D, mut stream: TcpStream) {
    let gate = daemon.gate();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = FrameReader::with_cap(HELLO_FRAME_CAP);
    let views = Views { template: &gate.template, known: BTreeMap::new() };
    let mut conn = Conn { admitted: None, challenged: None, views };
    let opened = Instant::now();
    let mut idle_polls: u32 = 0;
    let result: io::Result<()> = (|| loop {
        match reader.poll(&mut stream) {
            Ok(None) => {
                if gate.force_close.load(Ordering::SeqCst) {
                    return Ok(());
                }
                if conn.admitted.is_none() && opened.elapsed() >= HELLO_TIMEOUT {
                    send_reject(&mut stream, "admission timed out".into());
                    return Ok(());
                }
                let holds_lease = |p: &Peer| daemon.fleet(|f| f.leases.holds(p.worker));
                if gate.draining() && !conn.admitted.as_ref().is_some_and(holds_lease) {
                    idle_polls += 1;
                    if idle_polls > DRAIN_GRACE_POLLS {
                        // The worker went quiet after the drain; close
                        // from our side.
                        return Ok(());
                    }
                }
            }
            Ok(Some(doc)) => {
                idle_polls = 0;
                let msg = match Msg::from_json(&doc) {
                    Ok(m) => m,
                    Err(e) => {
                        // Well-framed JSON that is not a protocol
                        // message: say why, then drop the connection.
                        send_reject(&mut stream, format!("malformed message: {e}"));
                        return Err(e);
                    }
                };
                let (reply, jobs) = reply_for(daemon, msg, &mut conn);
                if conn.admitted.is_some() {
                    // Admitted: results frames carry tensors, so the
                    // connection earns the full frame allowance.
                    reader.set_cap(MAX_FRAME);
                }
                // Reply first — checkpoint writes are this handler's own
                // time, not the worker's.
                let (msg, closing) = match reply {
                    Reply::Send(m) => (Some(m), false),
                    Reply::SendThenClose(m) => (Some(m), true),
                    Reply::Close => (None, true),
                };
                if let Some(m) = msg {
                    write_frame(&mut stream, &m.to_json())?;
                }
                write_checkpoints(daemon, jobs);
                if closing {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized length prefix or a non-JSON payload: a clean
                // per-connection error, never a panic or a stalled
                // accept loop.
                send_reject(&mut stream, format!("bad frame: {e}"));
                return Err(e);
            }
            Err(e) => return Err(e),
        }
    })();
    if let Err(e) = &result {
        if e.kind() != io::ErrorKind::UnexpectedEof {
            let error = e.to_string();
            emit(Level::Warn, D::COMPONENT, "connection_error", &[("error", error.into())]);
        }
    }
    if let Some(peer) = conn.admitted {
        daemon.worker_gone(peer.worker);
        let worker = [("worker", peer.worker_id.into())];
        emit(Level::Debug, D::COMPONENT, "worker_disconnected", &worker);
    }
}

/// A best-effort `reject` to a peer that is about to be dropped.
fn send_reject(stream: &mut TcpStream, reason: String) {
    let _ = write_frame(stream, &Msg::Reject { reason }.to_json());
}

/// Verifies the fingerprint and admits the worker — the step that first
/// reveals campaign state, so an auth-enabled daemon only gets here after
/// a valid proof.
fn admit<D: Daemon>(
    daemon: &D,
    fingerprint: Fingerprint,
    worker_id: String,
    conn: &mut Conn<'_>,
) -> Reply {
    let ours = &daemon.gate().fingerprint;
    if fingerprint != *ours {
        let who = D::COMPONENT;
        return Reply::reject(format!("suite fingerprint {fingerprint:?} != {who} {ours:?}"));
    }
    match daemon.enroll(&worker_id) {
        Ok((worker, welcome)) => {
            let fields = [("worker", worker_id.clone().into())];
            emit(Level::Info, D::COMPONENT, "worker_joined", &fields);
            conn.admitted = Some(Peer { worker, worker_id });
            Reply::Send(welcome)
        }
        Err(Refusal::Burned(_)) => {
            let fields = [("worker", worker_id.into())];
            emit(Level::Warn, D::COMPONENT, "evicted_identity_rejected", &fields);
            Reply::reject("worker identity is evicted")
        }
        Err(Refusal::Duplicate) => Reply::reject("worker identity already connected"),
    }
}

fn reply_for<D: Daemon>(daemon: &D, msg: Msg, conn: &mut Conn<'_>) -> (Reply, Vec<D::Checkpoint>) {
    let gate = daemon.gate();
    // A request frame must carry the slot this connection was welcomed
    // with: its worker's position.
    fn peer(admitted: &Option<Peer>, slot: u64) -> Option<&Peer> {
        admitted.as_ref().filter(|p| u64::try_from(p.worker) == Ok(slot))
    }
    let hello_first = || Reply::reject("say hello first");
    let reply = match msg {
        Msg::Hello { version, fingerprint, worker_id } => {
            if conn.admitted.is_some() {
                Reply::reject("already admitted")
            } else if version != PROTOCOL_VERSION {
                let who = D::COMPONENT;
                Reply::reject(format!("protocol version {version} != {who} {PROTOCOL_VERSION}"))
            } else if !valid_identity(&worker_id) {
                Reply::reject("worker identity must be 1-128 printable ASCII characters")
            } else if gate.auth_token.is_some() {
                // Authentication first: even the fingerprint verdict
                // waits until the peer proves it holds the secret.
                let nonce = auth::nonce();
                conn.challenged = Some((fingerprint, worker_id, nonce.clone()));
                Reply::Send(Msg::Challenge { nonce })
            } else {
                admit(daemon, fingerprint, worker_id, conn)
            }
        }
        Msg::AuthProof { proof } => match (&gate.auth_token, conn.challenged.take()) {
            (Some(token), Some((fingerprint, worker_id, nonce))) => {
                if auth::verify(token, &nonce, &worker_id, &proof) {
                    admit(daemon, fingerprint, worker_id, conn)
                } else {
                    emit(Level::Warn, D::COMPONENT, "auth_failed", &[]);
                    Reply::reject("authentication failed")
                }
            }
            _ => Reply::reject("no challenge outstanding"),
        },
        Msg::LeaseRequest { slot, want } => match peer(&conn.admitted, slot) {
            None => hello_first(),
            Some(_) if gate.draining() => Reply::Send(Msg::Drain),
            Some(p) => Reply::Send(daemon.lease(p, want, &mut conn.views)),
        },
        Msg::Heartbeat { slot, lease } => match peer(&conn.admitted, slot) {
            None => hello_first(),
            Some(p) => Reply::Send(daemon.heartbeat(p, lease, &mut conn.views)),
        },
        Msg::Results { slot, lease, campaign, items, cov, rng_state, telemetry } => {
            let frame = ResultsFrame { lease, campaign, items, cov, rng_state, telemetry };
            match peer(&conn.admitted, slot) {
                None => hello_first(),
                Some(p) => return daemon.results(p, frame, &mut conn.views),
            }
        }
        Msg::Bye => Reply::Close,
        // Worker-bound messages arriving at a daemon.
        Msg::Welcome { .. }
        | Msg::Lease { .. }
        | Msg::Wait { .. }
        | Msg::Ack { .. }
        | Msg::Drain
        | Msg::Challenge { .. }
        | Msg::Reject { .. } => Reply::reject("unexpected message"),
    };
    (reply, Vec::new())
}

/// Folds a worker's advisory telemetry into `registry`: its per-phase
/// histograms, and its heartbeat round trips under its identity `worker`. Phase names
/// are matched against the known set, so a hostile worker cannot mint
/// unbounded label values; histograms with a foreign bucket layout are
/// dropped by `merge_local` for the same reason.
pub fn merge_worker_telemetry(registry: &MetricsRegistry, worker: &str, t: &TelemetrySnapshot) {
    for (name, hist) in &t.phases {
        let Some(phase) = Phase::ALL.iter().find(|p| p.name() == name) else { continue };
        registry
            .histogram(names::PHASE_SECONDS.name, &[("phase", phase.name())], &TIME_BUCKETS)
            .merge_local(hist);
    }
    if let Some(rtt) = &t.heartbeat {
        let name = names::HEARTBEAT_RTT_SECONDS.name;
        registry.histogram(name, &[("worker", worker)], &TIME_BUCKETS).merge_local(rtt);
    }
}

#[cfg(test)]
mod tests {
    /// The layering the module docs promise, held mechanically: the books
    /// above the shell banner — the lease engine's here, a campaign's in
    /// `dx-campaign`'s ledger — name no clock read, thread, socket, file,
    /// sleep or lock.
    #[test]
    fn books_are_sans_io() {
        let files = [
            ("engine.rs", include_str!("engine.rs"), "pub struct LeaseTable", "pub fn serve"),
            (
                "ledger.rs",
                include_str!("../../campaign/src/ledger.rs"),
                "pub struct Ledger",
                "pub struct CheckpointGate",
            ),
        ];
        let banned = [
            "Instant::now()",
            ".elapsed()",
            "thread::",
            "TcpStream",
            "File",
            "sleep",
            "Mutex",
            "Ranked",
        ];
        for (file, source, book, shell_item) in files {
            let (books, shell) = source.split_once("\n// The shell:").expect("shell banner");
            assert!(books.contains(book), "{file}: `{book}` left the books");
            assert!(shell.contains(shell_item), "{file}: `{shell_item}` left the shell");
            for (n, line) in
                books.lines().enumerate().filter(|(_, l)| !l.trim_start().starts_with("//"))
            {
                for word in banned {
                    assert!(!line.contains(word), "{file}:{}: `{word}` in the pure half", n + 1);
                }
            }
        }
    }
}
