//! The worker-facing half of the daemon: tenant choice on the shared
//! lease engine.
//!
//! The accept loop, per-connection handler, handshake, admission and
//! lease bookkeeping are [`dx_dist::engine`]'s — the code a dedicated
//! coordinator serves with — and every tenant's campaign state is a
//! [`dx_campaign::ledger::Ledger`]. What this file adds is drawing
//! leases from *many* tenants instead of one campaign:
//!
//! * **Tenant choice** is stride scheduling. Every runnable tenant
//!   carries a virtual-time `pass`; a grant advances it by
//!   `granted / weight`, and the smallest pass goes next, so fleet
//!   shares converge to the weight ratio under contention.
//! * **Quota** caps a tenant's share of all in-flight leased jobs
//!   ([`quota_allowance`]), with a one-lease minimum so a small quota
//!   shrinks a tenant's share without ever starving it.
//! * **Coverage news is per campaign**: the `cov` on a lease, heartbeat
//!   ack, or results ack is computed against what this connection's
//!   worker knows about *that tenant's* union (the engine's per-campaign
//!   views).
//!
//! Unlike the dedicated coordinator, the dispatcher never drains itself
//! when tenants finish — a daemon with zero runnable tenants parks its
//! workers on `wait` and keeps serving the API. Only a [`StopHandle`]
//! or a SIGTERM/SIGINT (via `dx_dist::shutdown`) drains the fleet. The
//! service also does not spot-check claimed diffs: it claims, releases
//! and absorbs a results frame under one lock.
//!
//! [`StopHandle`]: crate::StopHandle

use std::io;
use std::net::TcpListener;
use std::time::Instant;

use dx_campaign::checkpoint::write_atomic;
use dx_campaign::json::build;
use dx_dist::engine::{
    self, Daemon, Fleet, Gate, Lease, Peer, Plan, Refusal, Reply, ResultsFrame, Views,
};
use dx_dist::proto::Msg;
use dx_dist::shutdown;
use dx_telemetry::events::{emit, Level};

use crate::tenant::{Status, TenantCkpt};
use crate::{Service, SvcState};

/// How long workers are told to wait when nothing is schedulable.
const IDLE_WAIT_MILLIS: u64 = 200;

/// How many jobs a tenant with `outstanding` in-flight jobs may be
/// granted (up to `cap`) without its share of all in-flight jobs
/// exceeding `quota`. A tenant with nothing outstanding is always
/// granted up to `cap` — the one-lease minimum that keeps a tiny quota
/// from starving it (and bootstraps an idle fleet, where every share
/// would otherwise be 0/0).
pub(crate) fn quota_allowance(
    outstanding: usize,
    total_outstanding: usize,
    quota: f32,
    cap: usize,
) -> usize {
    if outstanding == 0 {
        return cap;
    }
    if quota >= 1.0 {
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

/// A lost lease's seeds go back to its tenant's queue — unless the tenant
/// is finished and nothing will ever schedule them again.
fn requeue(st: &mut SvcState, lease: Lease) {
    if let Some(t) = st.tenants.get_mut(&lease.campaign) {
        if !t.status.is_terminal() {
            t.ledger.requeue(lease.seed_ids);
        }
        t.metrics.requeue_depth.set(t.ledger.pending.len() as f64);
    }
}

impl Service {
    /// Serves the worker fleet on `listener` until a [`crate::StopHandle`]
    /// or an installed SIGTERM/SIGINT handler requests a drain; then
    /// waits for in-flight leases, checkpoints every tenant, and returns.
    /// Tenants finishing never drains the fleet — idle workers park on
    /// `wait` frames until new tenants arrive.
    ///
    /// # Errors
    ///
    /// Listener failures and final-checkpoint I/O errors. Individual
    /// connection errors only drop that worker.
    pub fn serve(&self, listener: TcpListener) -> io::Result<()> {
        engine::serve(self, listener)?;
        self.finish()
    }

    /// Moves every `Running` tenant that hit a stop condition to `Done`,
    /// snapshotting each for the checkpoint writer.
    fn retire_finished(&self, st: &mut SvcState) -> Vec<TenantCkpt> {
        let ids: Vec<u64> = st.tenants.keys().copied().collect();
        let mut jobs = Vec::new();
        for id in ids {
            let leased = st.fleet.leases.seed_ids(id);
            let Some(t) = st.tenants.get_mut(&id) else { continue };
            if t.status != Status::Running {
                continue;
            }
            let in_flight = !leased.is_empty();
            let Some(reason) =
                t.ledger.done_reason(t.spec.max_steps, t.spec.target_coverage, in_flight)
            else {
                continue;
            };
            t.status = Status::Done;
            t.event("done", vec![("reason", build::str(reason))]);
            emit(
                Level::Info,
                "service",
                "tenant_done",
                &[("id", id.into()), ("reason", reason.to_string().into())],
            );
            if self.cfg.state_dir.is_some() {
                jobs.push(t.snapshot(leased));
            }
        }
        self.metrics.tenants_live.set(st.live_tenants() as f64);
        jobs
    }

    /// Requeues whatever is still leased, flushes partial rounds, and
    /// writes every tenant's final checkpoint.
    fn finish(&self) -> io::Result<()> {
        let jobs = {
            let mut st = self.state.lock();
            for (_, lease) in st.fleet.leases.clear() {
                requeue(&mut st, lease);
            }
            let mut jobs = self.retire_finished(&mut st);
            let now = Instant::now();
            for t in st.tenants.values_mut() {
                t.close_round(1, now);
                if self.cfg.state_dir.is_some() {
                    jobs.push(t.snapshot(Vec::new()));
                }
            }
            jobs
        };
        for job in jobs {
            self.write_checkpoint(job)?;
        }
        Ok(())
    }
}

impl Daemon for Service {
    const COMPONENT: &'static str = "service";
    type Checkpoint = TenantCkpt;

    fn gate(&self) -> &Gate {
        &self.gate
    }

    fn fleet<R>(&self, read: impl FnOnce(&Fleet) -> R) -> R {
        read(&self.state.lock().fleet)
    }

    /// Expires overdue leases back to their tenants' requeues, and retires
    /// tenants that hit a stop condition.
    fn tick(&self) -> Vec<TenantCkpt> {
        if shutdown::requested() {
            self.gate.drain();
        }
        let mut st = self.state.lock();
        for (id, lease) in st.fleet.leases.expire(Instant::now()) {
            self.metrics.lease_expired.inc();
            emit(
                Level::Info,
                "service",
                "lease_expired",
                &[
                    ("lease", id.into()),
                    ("campaign", lease.campaign.into()),
                    ("seeds", lease.seed_ids.len().into()),
                ],
            );
            requeue(&mut st, lease);
        }
        self.retire_finished(&mut st)
    }

    /// The service keeps no per-worker trust records, so no slot is ever
    /// burned. The welcome's seed is advisory in v6 (workers build
    /// generator contexts lazily from the per-campaign seed on each
    /// `lease` frame), so a multi-campaign daemon has nothing meaningful
    /// to put there.
    fn enroll(&self, worker_id: &str) -> Result<(u64, Msg), Refusal> {
        let mut st = self.state.lock();
        let slot = st.fleet.admit(worker_id, |_| false)?;
        self.metrics.connected.set(st.fleet.connected() as f64);
        Ok((slot, Msg::Welcome { slot, campaign_seed: 0, rng_state: None }))
    }

    fn worker_gone(&self, slot: u64) {
        let mut st = self.state.lock();
        // A dead worker's leases go straight back to their tenants.
        for (_, lease) in st.fleet.disconnect(slot) {
            requeue(&mut st, lease);
        }
        self.metrics.connected.set(st.fleet.connected() as f64);
    }

    /// Picks the tenant and seeds for one lease: stride scheduling over
    /// runnable tenants, quota-capped grant size, requeue-first seed draw.
    fn lease(&self, peer: &Peer, want: usize, views: &mut Views<'_>) -> Msg {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let cap = want.clamp(1, self.cfg.lease_size);
        let total_out = st.fleet.leases.total_jobs_out();
        let mut order: Vec<(u64, f64)> = st
            .tenants
            .values()
            .filter(|t| t.status == Status::Running)
            .map(|t| (t.id, t.pass))
            .collect();
        order.sort_by(|a, b| {
            a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        for (id, _) in order {
            let leased = st.fleet.leases.seed_ids(id);
            let Some(t) = st.tenants.get_mut(&id) else { continue };
            let allowed = quota_allowance(leased.len(), total_out, t.spec.quota, cap);
            if allowed == 0 {
                continue;
            }
            let ids = t.ledger.pick_seeds(&leased, allowed);
            if ids.is_empty() {
                continue;
            }
            let granted = ids.len();
            let jobs = engine::jobs(&t.ledger, &ids);
            t.pass += granted as f64 / f64::from(t.spec.weight);
            t.metrics.leases.inc();
            t.metrics.requeue_depth.set(t.ledger.pending.len() as f64);
            let lease = st.fleet.leases.grant(peer.slot, id, ids, Instant::now());
            self.metrics.leases.inc();
            emit(
                Level::Debug,
                "service",
                "lease_granted",
                &[
                    ("lease", lease.into()),
                    ("campaign", id.into()),
                    ("slot", peer.slot.into()),
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
        // Nothing schedulable right now — paused, quota-capped, everything
        // leased, or no live tenants at all. The daemon outlives its
        // tenants, so the worker parks instead of draining.
        Msg::Wait { millis: IDLE_WAIT_MILLIS }
    }

    fn heartbeat(&self, peer: &Peer, lease: u64, views: &mut Views<'_>) -> Msg {
        self.metrics.heartbeats.inc();
        let mut st = self.state.lock();
        let campaign = st.fleet.leases.heartbeat(lease, peer.slot, Instant::now());
        // The ack's news must be for the campaign the worker is
        // heartbeating — it applies the delta to that lease's generator
        // context.
        let cov = match campaign.and_then(|c| st.tenants.get(&c)) {
            Some(t) => views.news(t.id, &t.ledger.global),
            // Expired lease: a well-formed empty delta (the worker
            // validates the model count).
            None => vec![Vec::new(); self.gate.template.len()],
        };
        Msg::Ack { cov }
    }

    /// Folds a `results` frame into its tenant. One locked phase — the
    /// service runs no spot-checks, so claim, release and absorb happen
    /// back to back.
    fn results(
        &self,
        peer: &Peer,
        frame: ResultsFrame,
        views: &mut Views<'_>,
    ) -> (Reply, Vec<TenantCkpt>) {
        let ResultsFrame { lease, campaign, items, cov, rng_state, telemetry } = frame;
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let Some(t) = st.tenants.get_mut(&campaign) else {
            return (Reply::reject(format!("unknown campaign {campaign}")), Vec::new());
        };
        if let Err(reason) = engine::check(&t.ledger.global, &cov, &items, &self.sample_shape) {
            return (Reply::reject(reason), Vec::new());
        }
        if st.fleet.leases.get(lease).is_some_and(|l| l.slot == peer.slot && l.campaign != campaign)
        {
            let reason = format!("lease {lease} is not for campaign {campaign}");
            return (Reply::reject(reason), Vec::new());
        }
        let plan = match st.fleet.leases.claim(lease, peer.slot, Instant::now()) {
            Ok(plan) => plan,
            Err(reason) => return (Reply::reject(reason), Vec::new()),
        };
        if matches!(plan, Plan::Lease { .. }) {
            st.fleet.leases.release(lease);
        }
        if let Some(snap) = &telemetry {
            engine::merge_worker_telemetry(&self.cfg.registry, snap);
        }
        let absorbed = plan.absorb(&mut t.ledger, &items, &cov);
        views.learn(campaign, &cov);
        t.worker_rng.insert(peer.worker_id.clone(), rng_state);
        t.metrics.requeue_depth.set(t.ledger.pending.len() as f64);
        t.metrics.steps.inc_by(absorbed.steps as u64);
        t.metrics.diffs.inc_by(absorbed.diffs as u64);
        t.metrics.corpus_size.set(t.ledger.corpus.len() as f64);
        let mut jobs = Vec::new();
        if t.close_round(self.cfg.batch_per_round, Instant::now()) && self.cfg.state_dir.is_some() {
            jobs.push(t.snapshot(st.fleet.leases.seed_ids(campaign)));
        }
        t.metrics.coverage_mean.set(f64::from(t.ledger.mean_coverage()));
        let cov = views.news(campaign, &t.ledger.global);
        jobs.extend(self.retire_finished(st));
        (self.gate.ack(cov), jobs)
    }

    /// Writes a tenant snapshot under `state_dir/<id>/`.
    fn write_checkpoint(&self, job: TenantCkpt) -> io::Result<()> {
        let Some(root) = self.cfg.state_dir.as_deref() else { return Ok(()) };
        let dir = root.join(job.tenant.to_string());
        self.ckpt_io.write(job.tenant, &job.snapshot, &dir, || {
            write_atomic(&dir.join("tenant.json"), &(job.doc.to_string() + "\n"))?;
            write_atomic(&dir.join("events.jsonl"), &job.events)
        })
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
                    // to a tenant with outstanding work keeps it within
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
