//! The lease engine's books on virtual time: the test supplies every
//! `now`, so deadlines, expiry and late results are exact — no socket, no
//! thread, no sleep, no model (results are synthetic).

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use deepxplore::diff::Prediction;
use deepxplore::generator::GeneratedTest;
use deepxplore::SeedRun;
use dx_campaign::ledger::Ledger;
use dx_campaign::Corpus;
use dx_coverage::{CoverageConfig, CoverageSignal, SignalSpec};
use dx_dist::engine::{check, Fleet, LeaseTable, Plan, Refusal, Trust};
use dx_dist::proto::{CovDelta, JobResult};
use dx_nn::layer::Layer;
use dx_nn::Network;
use dx_tensor::{rng, Tensor};
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRunner};
use rand::Rng as _;

const TIMEOUT: Duration = Duration::from_secs(30);
const SECOND: Duration = Duration::from_secs(1);

/// An empty union shaped by a network that is never run.
fn template() -> Vec<CoverageSignal> {
    let net = Network::new(&[4], vec![Layer::dense(4, 6), Layer::relu(), Layer::dense(6, 2)]);
    SignalSpec::neuron(CoverageConfig::default()).build(&[net])
}

fn ledger(seeds: usize, campaign_seed: u64, now: Instant) -> Ledger {
    let inputs = (0..seeds).map(|i| Tensor::full(&[1, 4], i as f32 / 10.0)).collect();
    Ledger::new(Corpus::new(inputs, 12), template(), campaign_seed, now)
}

/// A step that ran `iterations` iterates and found nothing.
fn barren(seed_id: usize, iterations: usize) -> JobResult {
    let run = SeedRun {
        test: None,
        preexisting: false,
        iterations,
        newly_covered: 0,
        newly_by_component: vec![0],
        corpus_candidate: None,
    };
    JobResult { seed_id, run }
}

fn results(ids: &[usize]) -> Vec<JobResult> {
    ids.iter().map(|&id| barren(id, 3)).collect()
}

fn no_cov() -> CovDelta {
    vec![Vec::new()]
}

/// Grants `want` seeds of `ledger` to `worker`, as a daemon does.
fn grant(
    table: &mut LeaseTable,
    ledger: &mut Ledger,
    worker: usize,
    want: usize,
    now: Instant,
) -> (u64, Vec<usize>) {
    let ids = ledger.pick_seeds(&table.seed_ids(0), want);
    assert!(!ids.is_empty(), "nothing schedulable");
    (table.grant(worker, 0, ids.clone(), now), ids)
}

#[test]
fn an_expired_lease_requeues_exactly_its_seeds() {
    let t0 = Instant::now();
    let (mut table, mut ledger) = (LeaseTable::new(0, TIMEOUT), ledger(6, 1, t0));
    let (a, a_ids) = grant(&mut table, &mut ledger, 0, 2, t0);
    let (b, b_ids) = grant(&mut table, &mut ledger, 1, 2, t0 + 10 * SECOND);
    assert!(a_ids.iter().all(|id| !b_ids.contains(id)), "a seed was leased twice");
    assert!(table.expire(t0 + TIMEOUT - SECOND).is_empty(), "expired before its deadline");
    // A is due, B (granted ten seconds later) is not.
    let due = table.expire(t0 + TIMEOUT);
    assert_eq!(due.len(), 1);
    let (id, lease) = due.into_iter().next().unwrap();
    assert_eq!((id, lease.worker, &lease.seed_ids), (a, 0, &a_ids));
    ledger.requeue(lease.seed_ids);
    assert_eq!(Vec::from(ledger.pending.clone()), a_ids);
    assert_eq!(table.seed_ids(0), b_ids, "the live lease lost seeds");
    assert!(table.get(b).is_some() && table.get(a).is_none());
    // The requeue is served first, in order, before any fresh draw.
    let (_, again) = grant(&mut table, &mut ledger, 2, 2, t0 + TIMEOUT);
    assert_eq!(again, a_ids);
}

#[test]
fn only_the_owners_heartbeat_moves_the_deadline() {
    let t0 = Instant::now();
    let (mut table, mut ledger) = (LeaseTable::new(0, TIMEOUT), ledger(4, 2, t0));
    let (lease, _) = grant(&mut table, &mut ledger, 0, 2, t0);
    // Another worker's heartbeat, and one for a lease that does not exist.
    assert_eq!(table.heartbeat(lease, 1, t0 + 20 * SECOND), None);
    assert_eq!(table.heartbeat(lease + 1, 0, t0 + 20 * SECOND), None);
    // The owner's extends the lease to 25 s + timeout.
    assert_eq!(table.heartbeat(lease, 0, t0 + 25 * SECOND), Some(0));
    assert!(table.expire(t0 + TIMEOUT + 24 * SECOND).is_empty(), "the owner's heartbeat was lost");
    assert_eq!(table.expire(t0 + TIMEOUT + 25 * SECOND).len(), 1, "a stranger's heartbeat counted");
}

#[test]
fn late_results_salvage_only_seeds_still_in_the_requeue() {
    let t0 = Instant::now();
    let (mut table, mut ledger) = (LeaseTable::new(0, TIMEOUT), ledger(3, 3, t0));
    let (a, a_ids) = grant(&mut table, &mut ledger, 0, 3, t0);
    let late = t0 + TIMEOUT + SECOND;
    for (_, lease) in table.expire(late) {
        ledger.requeue(lease.seed_ids);
    }
    // One of the requeued seeds is re-leased to another worker.
    let (b, b_ids) = grant(&mut table, &mut ledger, 1, 1, late);
    assert_eq!(b_ids, a_ids[..1]);
    // Then the first worker's results arrive after all.
    let plan = table.claim(a, 0, late).unwrap();
    assert!(matches!(plan, Plan::Expired));
    let absorbed = plan.absorb(&mut ledger, &results(&a_ids), &no_cov());
    assert_eq!(absorbed.steps, 2, "salvage took a re-leased seed");
    assert!(ledger.pending.is_empty());
    assert_eq!(table.seed_ids(0), b_ids, "the re-lease was disturbed");
    // The re-leased seed is counted when *its* lease reports: once each.
    let plan = table.claim(b, 1, late + SECOND).unwrap();
    table.release(b);
    assert_eq!(plan.absorb(&mut ledger, &results(&b_ids), &no_cov()).steps, 1);
    assert_eq!(ledger.steps_done, 3);
    assert!(ledger.corpus.entries().iter().all(|e| e.times_fuzzed == 1));
}

#[test]
fn another_slots_lease_id_absorbs_nothing_and_stays_with_its_owner() {
    let t0 = Instant::now();
    let (mut table, mut ledger) = (LeaseTable::new(0, TIMEOUT), ledger(4, 4, t0));
    let (lease, ids) = grant(&mut table, &mut ledger, 0, 2, t0);
    let plan = table.claim(lease, 1, t0 + SECOND).unwrap();
    assert!(matches!(plan, Plan::Collision));
    let absorbed = plan.absorb(&mut ledger, &results(&ids), &no_cov());
    assert_eq!((absorbed.steps, ledger.steps_done), (0, 0));
    assert_eq!(table.get(lease).map(|l| l.worker), Some(0));
    // The collision did not touch the deadline either.
    assert_eq!(table.expire(t0 + TIMEOUT).len(), 1);
    // An id the table never issued is not a collision but a fabrication.
    assert!(table.claim(lease + 1, 0, t0).is_err());
}

#[test]
fn a_duplicate_results_frame_absorbs_once() {
    let t0 = Instant::now();
    let (mut table, mut ledger) = (LeaseTable::new(0, TIMEOUT), ledger(4, 5, t0));
    let (lease, ids) = grant(&mut table, &mut ledger, 0, 2, t0);
    let first = table.claim(lease, 0, t0 + SECOND).unwrap();
    // A duplicate racing the verification of the first reads as a collision…
    let racing = table.claim(lease, 0, t0 + SECOND).unwrap();
    assert!(matches!(racing, Plan::Collision));
    assert_eq!(racing.absorb(&mut ledger, &results(&ids), &no_cov()).steps, 0);
    table.release(lease);
    assert_eq!(first.absorb(&mut ledger, &results(&ids), &no_cov()).steps, 2);
    // …and one arriving after it as an expiry with nothing left to salvage.
    let after = table.claim(lease, 0, t0 + 2 * SECOND).unwrap();
    assert!(matches!(after, Plan::Expired));
    assert_eq!(after.absorb(&mut ledger, &results(&ids), &no_cov()).steps, 0);
    assert_eq!(ledger.steps_done, 2);
}

#[test]
fn a_lease_being_verified_is_not_expired() {
    let t0 = Instant::now();
    let (mut table, mut ledger) = (LeaseTable::new(0, TIMEOUT), ledger(4, 6, t0));
    let (lease, ids) = grant(&mut table, &mut ledger, 0, 2, t0);
    let plan = table.claim(lease, 0, t0 + SECOND).unwrap();
    let Plan::Lease { seed_ids, turnaround } = plan else { panic!("not claimed") };
    assert_eq!((seed_ids, turnaround), (ids.clone(), SECOND));
    // Far past any deadline, housekeeping leaves it alone and the
    // scheduler still sees its seeds as taken.
    assert!(table.expire(t0 + 10 * TIMEOUT).is_empty());
    assert_eq!(table.seed_ids(0), ids);
    assert!(table.holds(0) && !table.is_empty());
    assert_eq!(table.release(lease).map(|l| l.seed_ids), Some(ids));
    assert!(table.is_empty());
}

/// A ledger restored from a checkpoint of round `r` picks what the
/// uninterrupted one picks in round `r` and after: the scheduler stream is
/// keyed by the round, not restarted with the process.
#[test]
fn a_restored_ledger_schedules_like_the_uninterrupted_one() {
    let t0 = Instant::now();
    let fold_round = |l: &mut Ledger| {
        let ids = l.pick_seeds(&[], 3);
        let items = results(&ids);
        l.absorb(items.iter().map(|i| (i.seed_id, &i.run)), &no_cov());
        l.flush_round(0, t0);
        ids
    };
    let mut straight = ledger(8, 7, t0);
    for _ in 0..3 {
        fold_round(&mut straight);
    }
    let mut restored = Ledger::new(Corpus::clone(&straight.corpus), template(), 7, t0);
    let (diffs, epochs) = (straight.diffs.to_vec(), straight.report.epochs.clone());
    restored.restore(diffs, epochs, None, straight.steps_done, Vec::new());
    for round in 3..6 {
        assert_eq!(fold_round(&mut restored), fold_round(&mut straight), "round {round}");
    }
}

#[test]
fn admission_keeps_identities_on_their_slots_and_skips_burned_ones() {
    let mut fleet = Fleet { workers: Vec::new(), leases: LeaseTable::new(0, TIMEOUT) };
    assert_eq!(fleet.admit("ann"), Ok(0));
    assert_eq!(fleet.admit("bob"), Ok(1));
    assert_eq!(fleet.admit("ann"), Err(Refusal::Duplicate));
    assert!(fleet.disconnect(0).is_empty());
    assert_eq!(fleet.connected(), 1);
    fleet.disconnect(1);
    assert_eq!(fleet.admit("bob"), Ok(1), "a returning identity lost its position");
    // Evicted: ann is refused, and a fresh identity is appended.
    let ann = &mut fleet.workers[0].trust;
    ann.record(2, 2, 0.5);
    assert!(ann.evicted);
    assert_eq!(fleet.admit("ann"), Err(Refusal::Burned(0)));
    assert_eq!(fleet.admit("cy"), Ok(2));
}

#[test]
fn eviction_needs_enough_checks_and_a_failing_batch() {
    let mut trust = Trust::default();
    let mut check = |checked, failed| {
        trust.record(checked, failed, 0.4);
        trust
    };
    // One failed check: a rate of 1, but below the minimum.
    assert_eq!(check(1, 1), Trust { checked: 1, failed: 1, evicted: false });
    // A clean batch never evicts, whatever the rate so far (1 of 2).
    assert_eq!(check(1, 0), Trust { checked: 2, failed: 1, evicted: false });
    // The next failing batch past the threshold does, for good.
    assert_eq!(check(1, 1), Trust { checked: 3, failed: 2, evicted: true });
    assert_eq!(check(9, 0), Trust { checked: 12, failed: 2, evicted: true });
}

// ---------------------------------------------------------------------
// Seeded schedules: a driver that owns virtual time interleaves grant,
// heartbeat, results (on time, late, duplicated, from the wrong worker),
// disconnect and expiry, and checks the books after every step.

/// A lease as the worker that received it remembers it — which it keeps
/// doing after the table has forgotten (late and duplicate results).
#[derive(Clone)]
struct Held {
    lease: u64,
    worker: usize,
    campaign: usize,
    ids: Vec<usize>,
}

/// A final ledger: corpus `(id, energy bits, exhausted)`, requeue, steps
/// done, covered masks.
type Outcome = (Vec<(usize, u32, bool)>, Vec<usize>, usize, Vec<Vec<bool>>);

/// What the driver has seen the engine do, per campaign.
#[derive(Default)]
struct Tally {
    leased: BTreeSet<usize>,
    granted: usize,
    requeued: usize,
    absorbed_live: usize,
    salvaged: usize,
    covered: usize,
}

struct Sim {
    rng: rng::Rng,
    now: Instant,
    table: LeaseTable,
    ledgers: Vec<Ledger>,
    tallies: Vec<Tally>,
    workers: usize,
    held: Vec<Held>,
}

impl Sim {
    fn new(schedule: u64, t0: Instant) -> Self {
        let mut rng = rng::rng(schedule);
        let campaigns = rng.gen_range(1..3usize);
        let ledgers: Vec<Ledger> =
            (0..campaigns).map(|c| ledger(rng.gen_range(2..7), schedule ^ c as u64, t0)).collect();
        let workers = rng.gen_range(1..4usize);
        Self {
            rng,
            now: t0,
            table: LeaseTable::new(0, TIMEOUT),
            tallies: ledgers.iter().map(|_| Tally::default()).collect(),
            ledgers,
            workers,
            held: Vec::new(),
        }
    }

    /// A synthetic honest results frame for `ids`: some steps find a diff,
    /// some a corpus candidate, some nothing, and the frame covers a few
    /// random units.
    fn frame(&mut self, ids: &[usize]) -> (Vec<JobResult>, CovDelta) {
        let units = self.ledgers[0].global[0].total();
        let cov: Vec<usize> =
            (0..self.rng.gen_range(0..3)).map(|_| self.rng.gen_range(0..units)).collect();
        let items = ids
            .iter()
            .map(|&id| {
                let mut item = barren(id, self.rng.gen_range(0..5));
                let input = Tensor::full(&[1, 4], self.rng.gen_range(0.0f32..1.0));
                match self.rng.gen_range(0..4) {
                    0 => {
                        item.run.test = Some(GeneratedTest {
                            seed_index: id,
                            input,
                            iterations: item.run.iterations,
                            predictions: vec![Prediction::Class(0), Prediction::Class(1)],
                            target_model: 0,
                        });
                    }
                    1 => {
                        item.run.newly_covered = 2;
                        item.run.newly_by_component = vec![2];
                        item.run.corpus_candidate = Some(input);
                    }
                    _ => {}
                }
                item
            })
            .collect();
        (items, vec![cov])
    }

    fn requeue(&mut self, gone: Vec<(u64, dx_dist::engine::Lease)>) -> Result<(), TestCaseError> {
        for (_, lease) in gone {
            let c = lease.campaign as usize;
            for id in &lease.seed_ids {
                prop_assert!(
                    self.tallies[c].leased.remove(id),
                    "lost lease held unleased seed {id}"
                );
            }
            self.tallies[c].requeued += lease.seed_ids.len();
            self.ledgers[c].requeue(lease.seed_ids);
        }
        Ok(())
    }

    fn step(&mut self) -> Result<(), TestCaseError> {
        match self.rng.gen_range(0..10) {
            // Grant.
            0..=3 => {
                let c = self.rng.gen_range(0..self.ledgers.len());
                let worker = self.rng.gen_range(0..self.workers);
                let want = self.rng.gen_range(1..4);
                let ids = self.ledgers[c].pick_seeds(&self.table.seed_ids(c as u64), want);
                if !ids.is_empty() {
                    for id in &ids {
                        prop_assert!(self.tallies[c].leased.insert(*id), "seed {id} leased twice");
                    }
                    self.tallies[c].granted += ids.len();
                    let lease = self.table.grant(worker, c as u64, ids.clone(), self.now);
                    self.held.push(Held { lease, worker, campaign: c, ids });
                }
            }
            // Results: usually from the owner, sometimes from a stranger;
            // sometimes the worker keeps the frame and sends it again.
            4..=6 if !self.held.is_empty() => {
                let i = self.rng.gen_range(0..self.held.len());
                let held = if self.rng.gen_range(0..4) == 0 {
                    self.held[i].clone()
                } else {
                    self.held.swap_remove(i)
                };
                let sender = if self.rng.gen_range(0..6) == 0 {
                    (held.worker + 1) % self.workers
                } else {
                    held.worker
                };
                let (items, cov) = self.frame(&held.ids);
                let c = held.campaign;
                prop_assert!(check(&self.ledgers[c].global, &cov, &items, &[1, 4]).is_ok());
                let pending_before: Vec<usize> = self.ledgers[c].pending.iter().copied().collect();
                let plan = self.table.claim(held.lease, sender, self.now);
                let Ok(plan) = plan else { return Err(TestCaseError::fail("issued id refused")) };
                if matches!(plan, Plan::Lease { .. }) {
                    self.table.release(held.lease);
                }
                let absorbed = plan.absorb(&mut self.ledgers[c], &items, &cov);
                let tally = &mut self.tallies[c];
                match &plan {
                    Plan::Lease { seed_ids, .. } => {
                        prop_assert_eq!(sender, held.worker, "a stranger claimed the lease");
                        prop_assert_eq!(absorbed.steps, seed_ids.len());
                        for id in seed_ids {
                            prop_assert!(tally.leased.remove(id));
                        }
                        tally.absorbed_live += absorbed.steps;
                    }
                    Plan::Collision => prop_assert_eq!(absorbed.steps, 0),
                    Plan::Expired => {
                        let salvaged: Vec<usize> = pending_before
                            .iter()
                            .copied()
                            .filter(|id| !self.ledgers[c].pending.contains(id))
                            .collect();
                        prop_assert_eq!(absorbed.steps, salvaged.len());
                        prop_assert!(salvaged.iter().all(|id| held.ids.contains(id)));
                        tally.salvaged += absorbed.steps;
                    }
                }
            }
            // Heartbeat, from the owner or not.
            7 if !self.held.is_empty() => {
                let held = &self.held[self.rng.gen_range(0..self.held.len())];
                let worker = self.rng.gen_range(0..self.workers);
                let beat = self.table.heartbeat(held.lease, worker, self.now);
                prop_assert!(beat.is_none() || worker == held.worker);
            }
            // A connection dies: its leases are orphaned.
            8 => {
                let worker = self.rng.gen_range(0..self.workers);
                let gone = self.table.orphan(worker);
                self.requeue(gone)?;
                prop_assert!(!self.table.holds(worker));
            }
            // Time passes; housekeeping expires what is overdue.
            _ => {
                self.now += TIMEOUT.mul_f64(self.rng.gen_range(0.0..1.2));
                let gone = self.table.expire(self.now);
                self.requeue(gone)?;
            }
        }
        self.check_books()
    }

    fn check_books(&mut self) -> Result<(), TestCaseError> {
        for (c, (ledger, tally)) in self.ledgers.iter().zip(&mut self.tallies).enumerate() {
            // No seed sits in two live leases, or in a lease and the
            // requeue at once.
            let leased = self.table.seed_ids(c as u64);
            let distinct: BTreeSet<usize> = leased.iter().copied().collect();
            prop_assert_eq!(distinct.len(), leased.len(), "a seed is in two live leases");
            prop_assert_eq!(&distinct, &tally.leased);
            let queued: BTreeSet<usize> = ledger.pending.iter().copied().collect();
            prop_assert_eq!(queued.len(), ledger.pending.len(), "a seed is queued twice");
            prop_assert!(queued.is_disjoint(&distinct), "a seed is leased and queued");
            // Every granted seed is absorbed or requeued exactly once (or
            // still out), and a requeued one is salvaged at most once.
            prop_assert_eq!(tally.granted, tally.absorbed_live + tally.requeued + leased.len());
            prop_assert!(tally.salvaged <= tally.requeued);
            prop_assert_eq!(ledger.steps_done, tally.absorbed_live + tally.salvaged);
            // The union only grows.
            let covered: usize = ledger.global.iter().map(CoverageSignal::covered_count).sum();
            prop_assert!(covered >= tally.covered, "the union shrank");
            tally.covered = covered;
        }
        Ok(())
    }

    /// Everything a checkpoint would persist of the final ledgers.
    fn outcome(&self) -> Vec<Outcome> {
        self.ledgers
            .iter()
            .map(|l| {
                let corpus =
                    l.corpus.entries().iter().map(|e| (e.id, e.energy.to_bits(), e.exhausted));
                let masks = l.global.iter().map(CoverageSignal::covered_mask).collect();
                (corpus.collect(), Vec::from(l.pending.clone()), l.steps_done, masks)
            })
            .collect()
    }
}

fn run_schedule(schedule: u64, t0: Instant) -> Result<Sim, TestCaseError> {
    let mut sim = Sim::new(schedule, t0);
    for _ in 0..sim.rng.gen_range(20..60) {
        sim.step()?;
    }
    Ok(sim)
}

/// 2 000 schedules (each run twice), well under ten seconds.
#[test]
fn seeded_schedules_keep_the_books_straight() {
    let mut seen = Tally::default();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(2000));
    runner.run(&mut |case_rng| {
        let schedule = case_rng.gen_range(0..u64::MAX);
        let t0 = Instant::now();
        let sim = run_schedule(schedule, t0)?;
        // The same schedule, replayed from a different origin of time, ends
        // in equal ledgers: the books read no clock of their own.
        let replay = run_schedule(schedule, t0 + 1000 * SECOND)?;
        prop_assert_eq!(sim.outcome(), replay.outcome());
        for t in &sim.tallies {
            seen.granted += t.granted;
            seen.requeued += t.requeued;
            seen.absorbed_live += t.absorbed_live;
            seen.salvaged += t.salvaged;
            seen.covered += t.covered;
        }
        Ok(())
    });
    // Not vacuous: every path the invariants guard was taken, often.
    for (what, n) in [
        ("granted", seen.granted),
        ("requeued", seen.requeued),
        ("absorbed on a live lease", seen.absorbed_live),
        ("salvaged after expiry", seen.salvaged),
        ("covered", seen.covered),
    ] {
        assert!(n > 2000, "only {n} seeds {what} across all schedules");
    }
}
