//! The daemon's policy: the one [`Daemon`] implementation, for whatever
//! campaign map a [`Coordinator`] holds.
//!
//! * **Campaign choice** is stride scheduling: every running campaign
//!   carries a virtual-time `pass`, a grant advances it by
//!   `granted / weight`, and the smallest pass goes next, so fleet shares
//!   converge to the weight ratio under contention.
//! * **Grant size** is the worker's `want` capped at `lease_size` — with
//!   adaptive sizing (`lease_max` above `lease_size`), the worker's
//!   learned quota instead — then capped by the campaign's quota of all
//!   in-flight jobs (`quota_allowance`), never below one lease.
//! * **Coverage news is per campaign**, against what the connection's
//!   worker knows of *that* campaign's union (the engine's views).
//! * **Trust sits between claim and absorb**: sampled difference claims
//!   are re-executed through the daemon's own models outside its lock; a
//!   claim that does not reproduce is quarantined, its lease's seeds are
//!   requeued, and every verdict lands on the worker's record in the
//!   fleet's books, which evict it past the trust threshold. The service
//!   runs this at rate 0.
//! * **Drain**: a coordinator drains once every campaign is done or its
//!   `duration` runs out; a service parks idle workers on `wait`. Both
//!   drain on a [`crate::DrainHandle`] or a SIGTERM/SIGINT
//!   ([`crate::shutdown`]).

use std::io;
use std::time::{Duration, Instant};

use dx_telemetry::events::Level;

use crate::coordinator::{requeue, Books, Ckpt, Coordinator, Outbox, COMPONENT, QUARANTINE_KEEP};
use crate::engine::{self, Daemon, Fleet, Gate, Peer, Plan, Refusal, Reply, ResultsFrame, Views};
use crate::engine::{Trust, Worker};
use crate::proto::Msg;
use crate::shutdown;
use crate::tenant::Status;

/// How long a worker is told to wait when nothing is schedulable.
const IDLE_WAIT_MILLIS: u64 = 50;

/// How many jobs a campaign with `outstanding` in-flight jobs may be
/// granted (up to `cap`) without its share of all in-flight jobs
/// exceeding `quota`. A campaign with nothing outstanding is always
/// granted up to `cap` — the one-lease minimum that keeps a tiny quota
/// from starving it (and bootstraps an idle fleet, where every share
/// would otherwise be 0/0).
pub(crate) fn quota_allowance(
    outstanding: usize,
    total_outstanding: usize,
    quota: f32,
    cap: usize,
) -> usize {
    if outstanding == 0 || quota >= 1.0 {
        return cap;
    }
    // Largest g with (outstanding + g) <= quota * (total + g):
    // g * (1 - quota) <= quota * total - outstanding.
    let headroom = f64::from(quota) * total_outstanding as f64 - outstanding as f64;
    if headroom <= 0.0 {
        return 0;
    }
    ((headroom / f64::from(1.0 - quota)).floor() as usize).min(cap)
}

impl Coordinator {
    /// Jobs to grant worker `w`: the fixed `lease_size`, or — with
    /// adaptive sizing on — its quota learned from observed throughput.
    /// Under adaptive sizing the worker's `want` is advisory (protocol
    /// v4): a fast worker is deliberately granted more than it asks for.
    fn lease_grant(&self, w: Option<&Worker>, want: usize) -> usize {
        if self.cfg.lease_max > self.cfg.lease_size {
            w.and_then(|w| w.quota).unwrap_or(self.cfg.lease_size).max(1)
        } else {
            want.clamp(1, self.cfg.lease_size)
        }
    }

    /// Learns a worker's next lease size from how fast it turned the last
    /// one around: aim for leases that take about a quarter of the lease
    /// timeout, moving at most a factor of two per lease so one noisy
    /// measurement cannot whipsaw the quota. `turnaround` is measured at
    /// results arrival, so spot-check time is excluded.
    fn update_lease_quota(
        &self,
        w: &mut Worker,
        turnaround: Duration,
        absorbed: usize,
        out: &mut Outbox,
    ) {
        if self.cfg.lease_max <= self.cfg.lease_size {
            return;
        }
        let quota = w.quota.unwrap_or(self.cfg.lease_size);
        let per_step = (turnaround.as_secs_f64() / absorbed.max(1) as f64).max(1e-6);
        let target = (self.cfg.lease_timeout.as_secs_f64() / 4.0).max(1e-3);
        let ideal = (target / per_step) as usize;
        let next =
            ideal.clamp((quota / 2).max(1), quota.saturating_mul(2)).clamp(1, self.cfg.lease_max);
        if next != quota {
            let worker = w.identity.clone().into();
            let fields = vec![("worker", worker), ("from", quota.into()), ("to", next.into())];
            out.emit(Level::Debug, "coordinator", "lease_quota", fields);
        }
        w.quota = Some(next);
    }

    /// Folds a checked frame's results into its campaign under `plan`,
    /// and closes the campaign's round when full.
    fn absorb(
        &self,
        st: &mut Books,
        out: &mut Outbox,
        peer: &Peer,
        frame: &ResultsFrame,
        plan: &Plan,
        views: &mut Views<'_>,
    ) {
        let Some(t) = st.tenants.get_mut(&frame.campaign) else { return };
        let absorbed = plan.absorb(&mut t.ledger, &frame.items, &frame.cov);
        views.learn(frame.campaign, &frame.cov);
        t.worker_rng.insert(peer.worker_id.clone(), frame.rng_state);
        t.metrics.sync(&t.ledger);
        if t.close_round(out, self.cfg.batch_per_round) {
            out.checkpoint(self.snapshot(st, frame.campaign));
        }
        let Some(w) = st.fleet.workers.get_mut(peer.worker) else { return };
        w.contributed += absorbed.newly_covered;
        w.steps += absorbed.steps;
        w.diffs += absorbed.diffs;
        match plan {
            Plan::Lease { turnaround, .. } => {
                self.metrics.turnaround(&w.identity).observe(turnaround.as_secs_f64());
                self.update_lease_quota(w, *turnaround, absorbed.steps, out);
            }
            Plan::Collision => {}
            Plan::Expired => {
                let dropped = frame.items.len() - absorbed.steps;
                out.emit(
                    Level::Debug,
                    "coordinator",
                    "lease_salvaged",
                    vec![
                        ("lease", frame.lease.into()),
                        ("worker", peer.worker_id.clone().into()),
                        ("salvaged", absorbed.steps.into()),
                        ("dropped", dropped.into()),
                    ],
                );
            }
        }
    }
}

impl Daemon for Coordinator {
    const COMPONENT: &'static str = COMPONENT;
    type Checkpoint = Ckpt;

    fn gate(&self) -> &Gate {
        &self.gate
    }

    fn fleet<R>(&self, read: impl FnOnce(&Fleet) -> R) -> R {
        self.locked(|st, _| read(&st.fleet)).0
    }

    /// Trips the stop conditions, expires overdue leases back to their
    /// campaigns' queues, and retires campaigns that are done.
    fn tick(&self) -> Vec<Ckpt> {
        if shutdown::requested() {
            self.gate.drain();
        }
        let ((), ckpts) = self.locked(|st, out| {
            let now = Instant::now();
            if st.serve_until.is_some_and(|t| now >= t) {
                self.gate.drain();
            }
            for (id, lease) in st.fleet.leases.expire(now) {
                self.metrics.lease_expired.inc();
                let worker = st.fleet.workers.get(lease.worker).map(|w| w.identity.clone());
                out.emit(
                    Level::Info,
                    "coordinator",
                    "lease_expired",
                    vec![
                        ("lease", id.into()),
                        ("worker", worker.unwrap_or_default().into()),
                        ("campaign", lease.campaign.into()),
                        ("seeds", lease.seed_ids.len().into()),
                    ],
                );
                requeue(st, lease.campaign, lease.seed_ids);
            }
            self.retire_finished(st, out);
        });
        ckpts
    }

    /// The welcome's seed and RNG state are advisory since v6 — a worker
    /// seeds its context for each campaign from that campaign's first
    /// `lease` frame — so the daemon sends none.
    /// The position goes out as the welcome's `slot`: a worker numbers
    /// its generator streams by it.
    fn enroll(&self, worker_id: &str) -> Result<(usize, Msg), Refusal> {
        self.locked(|st, _| {
            let worker = st.fleet.admit(worker_id)?;
            st.joined.insert(worker);
            self.metrics.connected.set(st.fleet.connected() as f64);
            let slot = worker as u64;
            Ok((worker, Msg::Welcome { slot, campaign_seed: 0, rng_state: None }))
        })
        .0
    }

    fn worker_gone(&self, worker: usize) {
        self.locked(|st, _| {
            // A dead worker's leases go straight back to their campaigns.
            for (_, lease) in st.fleet.disconnect(worker) {
                requeue(st, lease.campaign, lease.seed_ids);
            }
            self.metrics.connected.set(st.fleet.connected() as f64);
        });
    }

    /// Picks the campaign and seeds for one lease: stride order over
    /// running campaigns, quota-capped grant, requeue-first seed draw.
    fn lease(&self, peer: &Peer, want: usize, views: &mut Views<'_>) -> Msg {
        self.locked(|st, out| {
            let cap = self.lease_grant(st.fleet.workers.get(peer.worker), want);
            let total_out = st.fleet.leases.total_jobs_out();
            let mut order: Vec<(u64, f64)> = st
                .tenants
                .values()
                .filter(|t| t.status == Status::Running)
                .map(|t| (t.id, t.pass))
                .collect();
            order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            for (id, _) in order {
                let leased = st.fleet.leases.seed_ids(id);
                let Some(t) = st.tenants.get_mut(&id) else { continue };
                let allowed = quota_allowance(leased.len(), total_out, t.spec.quota, cap);
                let ids = t.ledger.pick_seeds(&leased, allowed);
                if ids.is_empty() {
                    continue;
                }
                let (granted, jobs) = (ids.len(), engine::jobs(&t.ledger, &ids));
                t.pass += granted as f64 / f64::from(t.spec.weight);
                t.metrics.leases.inc();
                t.metrics.sync(&t.ledger);
                let lease = st.fleet.leases.grant(peer.worker, id, ids, Instant::now());
                out.emit(
                    Level::Debug,
                    "coordinator",
                    "lease_granted",
                    vec![
                        ("lease", lease.into()),
                        ("campaign", id.into()),
                        ("worker", peer.worker_id.clone().into()),
                        ("seeds", granted.into()),
                    ],
                );
                return Msg::Lease {
                    lease,
                    jobs,
                    cov: views.news(id, &t.ledger.global),
                    campaign: id,
                    campaign_seed: t.spec.seed,
                    rng_state: t.worker_rng.get(&peer.worker_id).copied(),
                };
            }
            // Nothing schedulable right now — paused, quota-capped,
            // everything leased, or no running campaign. A finished
            // coordinator drains at the next tick; a service parks the
            // worker until new campaigns arrive.
            Msg::Wait { millis: IDLE_WAIT_MILLIS }
        })
        .0
    }

    fn heartbeat(&self, peer: &Peer, lease: u64, views: &mut Views<'_>) -> Msg {
        self.metrics.heartbeats.inc();
        self.locked(|st, _| {
            let campaign = st.fleet.leases.heartbeat(lease, peer.worker, Instant::now());
            // The ack's news must be for the campaign the worker is
            // heartbeating — it applies the delta to that lease's
            // generator context.
            let cov = match campaign.and_then(|c| st.tenants.get(&c)) {
                Some(t) => views.news(t.id, &t.ledger.global),
                // Expired lease: a well-formed empty delta (the worker
                // validates the model count).
                None => vec![Vec::new(); self.gate.template.len()],
            };
            Msg::Ack { cov }
        })
        .0
    }

    /// Handles a `results` frame in three phases: validate and claim under
    /// the lock, re-execute sampled diff claims *outside* it (model forward
    /// passes must not stall every other connection), then absorb or
    /// punish under the lock again.
    fn results(
        &self,
        peer: &Peer,
        frame: ResultsFrame,
        views: &mut Views<'_>,
    ) -> (Reply, Vec<Ckpt>) {
        let (w, campaign, lease) = (peer.worker, frame.campaign, frame.lease);
        // Phase 1 (locked): validate the frame, claim the lease, sample
        // which claimed diffs to re-execute.
        let (claimed, _) = self.locked(|st, _| {
            let Some(t) = st.tenants.get_mut(&campaign) else {
                return Err(format!("unknown campaign {campaign}"));
            };
            engine::check(&t.ledger.global, &frame.cov, &frame.items, &self.sample_shape)?;
            if st.fleet.leases.get(lease).is_some_and(|l| l.worker == w && l.campaign != campaign) {
                return Err(format!("lease {lease} is not for campaign {campaign}"));
            }
            let plan = st.fleet.leases.claim(lease, w, Instant::now())?;
            let mut checks = Vec::new();
            if self.cfg.spot_check_rate > 0.0 {
                use rand::Rng as _;
                for item in &frame.items {
                    if !plan.absorbable(&t.ledger, item.seed_id) || !item.run.found_difference() {
                        continue;
                    }
                    if t.spot_rng.gen_range(0.0f32..1.0) < self.cfg.spot_check_rate {
                        if let Some(test) = item.run.test.as_ref() {
                            checks.push((item.seed_id, test.clone()));
                        }
                    }
                }
            }
            Ok((plan, checks))
        });
        let (plan, checks) = match claimed {
            Ok(claimed) => claimed,
            Err(reason) => return (Reply::reject(reason), Vec::new()),
        };
        // Phase 2 (unlocked): re-execute the sampled claims through the
        // daemon's own models.
        let failed: Vec<_> = checks
            .iter()
            .filter(|(_, t)| !self.suite.reproduces_difference(&t.input, &t.predictions))
            .collect();
        // Phase 3 (locked): record the verdicts on the worker's trust,
        // then punish or apply.
        let (reply, ckpts) = self.locked(|st, out| {
            if matches!(plan, Plan::Lease { .. }) {
                st.fleet.leases.release(lease);
            }
            let worker = st.fleet.workers.get_mut(w).filter(|_| !checks.is_empty());
            let trust = worker.map(|rec| {
                let (n, bad) = (checks.len(), failed.len());
                rec.trust.record(n, bad, self.cfg.trust_threshold);
                self.metrics.publish(&rec.identity, n - bad, bad, rec.trust.evicted);
                rec.trust
            });
            if !failed.is_empty() {
                // Nothing from this frame is trusted: no coverage union, no
                // corpus absorption, no RNG persistence. The lease's seeds
                // go back to the queue for an honest worker.
                if let Some(t) = st.tenants.get_mut(&campaign) {
                    for (seed_id, test) in &failed {
                        t.quarantined_total += 1;
                        if t.quarantined.len() < QUARANTINE_KEEP {
                            let diff = t.ledger.diff_of(*seed_id, test);
                            t.quarantined.push(diff);
                        }
                    }
                }
                if let Plan::Lease { seed_ids, .. } = plan {
                    requeue(st, campaign, seed_ids);
                }
                out.emit(
                    Level::Warn,
                    "coordinator",
                    "spot_check_failed",
                    vec![
                        ("worker", peer.worker_id.clone().into()),
                        ("lease", lease.into()),
                        ("failed", failed.len().into()),
                        ("sampled", checks.len().into()),
                    ],
                );
                if let Some(Trust { checked, failed: bad, evicted: true }) = trust {
                    let fields = vec![
                        ("worker", peer.worker_id.clone().into()),
                        ("failed", bad.into()),
                        ("checked", checked.into()),
                    ];
                    out.emit(Level::Warn, "coordinator", "worker_evicted", fields);
                    let reason = format!(
                        "evicted: {bad} of {checked} spot-checked diffs failed to reproduce"
                    );
                    return Reply::reject(reason);
                }
            } else {
                // All sampled claims reproduced: fold the frame in,
                // advisory telemetry included.
                if let Some(t) = &frame.telemetry {
                    engine::merge_worker_telemetry(&self.cfg.registry, &peer.worker_id, t);
                }
                self.absorb(st, out, peer, &frame, &plan, views);
                self.retire_finished(st, out);
            }
            let t = st.tenants.get(&campaign);
            let cov = t.map_or_else(Vec::new, |t| views.news(campaign, &t.ledger.global));
            self.gate.ack(cov)
        });
        (reply, ckpts)
    }

    fn write_checkpoint(&self, job: Ckpt) -> io::Result<()> {
        self.write(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_allowance_caps_the_share_of_in_flight_jobs() {
        // Nothing outstanding: always the full cap (one-lease minimum).
        assert_eq!(quota_allowance(0, 100, 0.01, 4), 4);
        // Full quota: never constrained.
        assert_eq!(quota_allowance(50, 50, 1.0, 4), 4);
        // Half quota, balanced fleet: 4 out of 12 in flight is under
        // half of 16 after an 4-grant, so the whole cap fits.
        assert_eq!(quota_allowance(4, 12, 0.5, 4), 4);
        // Over quota already: nothing more.
        assert_eq!(quota_allowance(8, 12, 0.5, 4), 0);
        // Partially constrained: g*(1-q) <= q*total - out with q=0.25,
        // total=30, out=6 gives g <= 2.
        assert_eq!(quota_allowance(6, 30, 0.25, 4), 2);
    }

    #[test]
    fn quota_allowance_never_exceeds_the_cap() {
        for out in 0..10 {
            for total in out..30 {
                for &q in &[0.1f32, 0.3, 0.5, 0.9, 1.0] {
                    let g = quota_allowance(out, total, q, 3);
                    assert!(g <= 3, "allowance {g} over cap for out={out} total={total} q={q}");
                    // The invariant the cap exists for: a nonzero grant
                    // to a campaign with outstanding work keeps it within
                    // quota.
                    if g > 0 && out > 0 && q < 1.0 {
                        assert!(
                            (out + g) as f32 <= q * (total + g) as f32 + 1e-4,
                            "grant {g} breaks quota for out={out} total={total} q={q}"
                        );
                    }
                }
            }
        }
    }
}
