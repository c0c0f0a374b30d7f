//! The coordinator/worker message protocol.
//!
//! Strict request/response, always initiated by the worker over its own
//! connection:
//!
//! ```text
//! worker                          coordinator
//!   | -- hello {version, fp} ------> |   version check
//!   | <- challenge {nonce} --------- |   (only when auth is enabled)
//!   | -- auth {proof} -------------> |   HMAC-SHA256(token, nonce)
//!   | <- welcome {slot, seed, rng} - |   verify fp, assign a slot
//!   | -- lease_req {slot, want} ---> |   energy-weighted batch + cov delta
//!   | <- lease {id, jobs, cov} ----- |   (or wait / drain)
//!   | -- heartbeat {slot, lease} --> |   extends the lease deadline
//!   | <- ack {cov} ----------------- |
//!   | -- results {lease, items,   -> |   absorb runs, union coverage
//!   |             cov, rng}          |
//!   | <- ack {cov} ----------------- |   (or drain)
//!   | -- bye ----------------------> |   connection closes
//! ```
//!
//! Coverage flows as sparse per-model index deltas
//! ([`dx_coverage::CoverageSignal::diff_indices`]) relative to what each
//! side already told the other, so steady-state sync cost is proportional
//! to *new* coverage, not model size. Seeds (`u64`) and RNG words travel
//! as decimal strings — JSON numbers cannot carry 64-bit integers exactly.

use std::io;

use deepxplore::SeedRun;
use dx_campaign::codec::{
    rng_state_from_json, rng_state_json, seed_run_from_json, seed_run_json, tensor_fields,
    tensor_from_json, u64_json,
};
use dx_campaign::json::{build, invalid, Json};
use dx_coverage::CoverageSignal;
use dx_telemetry::phase::LocalHist;
use dx_tensor::Tensor;

/// Bumped on any incompatible message or codec change; a mismatch is
/// rejected at `hello` time. v2: metric-generic coverage units plus
/// hyperparameter/constraint fingerprinting. v3: composite metric specs
/// (component-prefixed coverage deltas) and per-component
/// `newly_by_component` splits in seed-run results. v4: the
/// challenge/auth admission handshake (shared-secret worker
/// authentication), and `want` in `lease_req` became advisory — an
/// adaptive coordinator may grant larger leases than requested. v5:
/// `results` may carry an advisory `telemetry` snapshot (per-phase
/// hot-path histogram deltas plus heartbeat round-trip times), which the
/// coordinator folds into its metrics registry. v6: multi-tenant
/// dispatch — `hello` carries a persistent `worker_id` (bound into the
/// auth proof, and what eviction/quarantine records are keyed by), and
/// `lease`/`results` are tagged with a campaign id; each lease also
/// carries its campaign's master seed plus the worker's saved generator
/// RNG state for that campaign, so one fleet serves many campaigns and
/// a worker builds per-campaign generator state lazily from the leases
/// it is handed.
pub const PROTOCOL_VERSION: u64 = 6;

/// What the coordinator checks before admitting a worker: both sides must
/// be fuzzing the same model suite, under the same coverage metric, with
/// the same generation hyperparameters and domain constraint — a worker
/// with a mismatched step size or iteration budget would silently pollute
/// the corpus with irreproducible results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Human-readable suite label (e.g. `mnist@test`).
    pub label: String,
    /// The coverage metric spec, in `MetricSpec` display form
    /// (`neuron`, `multisection:<k>`, `boundary`, or a `+`-joined
    /// composite like `multisection:4+boundary`). A worker steering by a
    /// different spec — or the same components in a different order, which
    /// changes the composite unit-space layout — is rejected at hello.
    pub metric: String,
    /// Per-model tracked-unit totals (neurons, or neuron-sections) — a
    /// cheap structural hash of the models and the coverage configuration.
    pub units: Vec<usize>,
    /// Digest of the multisection profile ranges (`none` for the neuron
    /// metric). Two processes sectioning the same neurons at different
    /// boundaries would union semantically different indices; the digest
    /// rejects them at admission instead.
    pub profiles: String,
    /// Canonical digest of the Algorithm 1 hyperparameters.
    pub hyper: String,
    /// Canonical digest of the domain constraint (parameters included).
    pub constraint: String,
}

impl Fingerprint {
    fn to_json(&self) -> Json {
        build::obj(vec![
            ("label", build::str(&self.label)),
            ("metric", build::str(&self.metric)),
            ("units", build::ints(&self.units)),
            ("profiles", build::str(&self.profiles)),
            ("hyper", build::str(&self.hyper)),
            ("constraint", build::str(&self.constraint)),
        ])
    }

    fn from_json(v: &Json) -> io::Result<Self> {
        Ok(Self {
            label: v.field("label")?,
            metric: v.field("metric")?,
            units: v.field("units")?,
            profiles: v.field("profiles")?,
            hyper: v.field("hyper")?,
            constraint: v.field("constraint")?,
        })
    }
}

/// Per-model sparse coverage delta: newly covered flat unit offsets
/// (neurons under the paper's metric, neuron-sections under
/// multisection, corners under boundary — whichever metric the
/// fingerprint admitted). Under a composite metric the offsets are
/// component-prefixed: each component's units are shifted by the
/// preceding components' totals, so one flat list carries every
/// component's news (see `dx_coverage::CoverageSignal::diff_indices`).
pub type CovDelta = Vec<Vec<usize>>;

/// The delta routine both protocol sides share: everything `source`
/// covers that `view` (the model of what the peer already knows) does
/// not, after which the view catches up. The coordinator calls it with
/// the global union against a per-connection view; the worker with its
/// local signals against its known-to-coordinator view.
pub fn coverage_news(source: &[CoverageSignal], view: &mut [CoverageSignal]) -> CovDelta {
    source
        .iter()
        .zip(view.iter_mut())
        .map(|(s, v)| {
            let delta = s.diff_indices(v);
            v.apply_covered_indices(&delta);
            delta
        })
        .collect()
}

/// Advisory worker-side telemetry shipped with `results` (protocol v5):
/// per-phase hot-path histogram deltas and heartbeat round-trip times
/// accumulated since the worker's previous report, all over the shared
/// [`dx_telemetry::phase::TIME_BUCKETS`] layout. Advisory means the
/// coordinator merges what fits into its registry and ignores the rest —
/// fabricated timing can only distort its own slot's latency series,
/// never campaign state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// `(phase name, delta)` pairs in [`dx_telemetry::phase::Phase`]
    /// naming (`forward`, `gradient`, `constraint`, `coverage`).
    pub phases: Vec<(String, LocalHist)>,
    /// Heartbeat round-trip delta, when any heartbeats were sent.
    pub heartbeat: Option<LocalHist>,
}

impl TelemetrySnapshot {
    /// Whether there is anything to ship.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|(_, h)| h.is_empty()) && self.heartbeat.is_none()
    }
}

/// One leased fuzzing job.
#[derive(Clone, Debug)]
pub struct Job {
    /// Corpus entry id.
    pub seed_id: usize,
    /// The entry's input, batched `[1, ...]`.
    pub input: Tensor,
}

/// One completed fuzzing job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Corpus entry id the job ran on.
    pub seed_id: usize,
    /// The step outcome.
    pub run: SeedRun,
}

/// A protocol message.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Worker introduction; the coordinator verifies the fingerprint.
    Hello {
        /// Sender's [`PROTOCOL_VERSION`].
        version: u64,
        /// Sender's model-suite fingerprint.
        fingerprint: Fingerprint,
        /// The worker's persistent identity. Stable across reconnects
        /// (configured, or derived once per process), bound into the
        /// auth proof when the fleet runs a shared secret, and the key
        /// for the coordinator's trust records — an evicted identity
        /// stays evicted no matter how often it reconnects.
        worker_id: String,
    },
    /// Admission: the worker's slot and the campaign master seed (the
    /// worker derives its generator stream from them, exactly like an
    /// in-process pool worker would).
    Welcome {
        /// Assigned worker slot.
        slot: u64,
        /// Campaign master seed.
        campaign_seed: u64,
        /// Saved generator RNG state for this slot — present when resuming
        /// a checkpointed fleet, so streams continue instead of restarting.
        rng_state: Option<[u64; 4]>,
    },
    /// Admission refused (version/fingerprint/auth mismatch, malformed
    /// frame, or an eviction).
    Reject {
        /// Human-readable cause.
        reason: String,
    },
    /// Authentication demanded before admission proceeds: the coordinator
    /// runs with a shared secret and reveals no campaign state (not even
    /// the fingerprint verdict) until the peer proves it holds the same
    /// secret. Sent in reply to `hello`.
    Challenge {
        /// Fresh per-connection nonce the proof must cover.
        nonce: String,
    },
    /// The worker's answer to a `challenge`:
    /// `hex(HMAC-SHA256(token, nonce))` (see [`crate::auth::proof`]).
    AuthProof {
        /// The hex-encoded MAC.
        proof: String,
    },
    /// Worker asks for jobs. `want` is advisory: a coordinator running
    /// adaptive lease sizing may grant more (workers process whatever a
    /// lease carries), a busy corpus may yield fewer.
    LeaseRequest {
        /// Sender's slot.
        slot: u64,
        /// Jobs wanted.
        want: usize,
    },
    /// A batch of jobs on a deadline, plus the coordinator's coverage news.
    Lease {
        /// Lease id, echoed in heartbeats and results.
        lease: u64,
        /// The campaign these jobs belong to (`0` on a single-campaign
        /// coordinator; a tenant id under the service daemon).
        campaign: u64,
        /// The campaign's master seed. The worker derives its generator
        /// stream for this campaign from `(campaign_seed, slot)` on the
        /// first lease that mentions the campaign.
        campaign_seed: u64,
        /// The worker's saved generator RNG state for this campaign —
        /// present when the dispatcher checkpointed one (fleet resume),
        /// honored only on the lease that first introduces the campaign
        /// to this worker.
        rng_state: Option<[u64; 4]>,
        /// The leased jobs.
        jobs: Vec<Job>,
        /// Global-union coverage (of this campaign) the worker hasn't
        /// seen yet.
        cov: CovDelta,
    },
    /// Nothing schedulable right now (everything leased out); retry after
    /// the given pause.
    Wait {
        /// Suggested pause before the next `lease_req`.
        millis: u64,
    },
    /// The campaign is over (budget, coverage target, or drain request);
    /// the worker should send `bye` and exit.
    Drain,
    /// Keep-alive for a long-running lease; extends its deadline.
    Heartbeat {
        /// Sender's slot.
        slot: u64,
        /// The lease being worked on.
        lease: u64,
    },
    /// Completed lease: per-seed outcomes, local coverage delta, and the
    /// worker's generator RNG state (persisted for fleet resume).
    Results {
        /// Sender's slot.
        slot: u64,
        /// The lease these results answer.
        lease: u64,
        /// The campaign the lease was issued under, echoed back.
        campaign: u64,
        /// Per-seed outcomes, in lease order.
        items: Vec<JobResult>,
        /// Coverage the worker found (in the lease's campaign) that it
        /// hasn't reported yet.
        cov: CovDelta,
        /// Worker generator RNG state for the lease's campaign, after
        /// the lease.
        rng_state: [u64; 4],
        /// Advisory timing deltas since the previous report (`None` from
        /// workers with nothing to report, e.g. timing disabled).
        telemetry: Option<TelemetrySnapshot>,
    },
    /// Acknowledgement carrying the coordinator's coverage news.
    Ack {
        /// Global-union coverage the worker hasn't seen yet.
        cov: CovDelta,
    },
    /// Clean goodbye; the connection closes.
    Bye,
}

fn cov_json(cov: &CovDelta) -> Json {
    Json::Arr(cov.iter().map(|m| build::ints(m)).collect())
}

fn job_json(j: &Job) -> Json {
    let (shape, data) = tensor_fields(&j.input);
    build::obj(vec![("seed_id", build::int(j.seed_id)), ("shape", shape), ("data", data)])
}

fn job_from_json(v: &Json) -> io::Result<Job> {
    Ok(Job { seed_id: v.field("seed_id")?, input: tensor_from_json(v)? })
}

fn item_json(r: &JobResult) -> Json {
    build::obj(vec![("seed_id", build::int(r.seed_id)), ("run", seed_run_json(&r.run))])
}

fn item_from_json(v: &Json) -> io::Result<JobResult> {
    Ok(JobResult { seed_id: v.field("seed_id")?, run: v.field_with("run", seed_run_from_json)? })
}

fn hist_json(h: &LocalHist) -> Json {
    let counts: Vec<usize> = h.counts.iter().map(|&c| c as usize).collect();
    build::obj(vec![
        ("counts", build::ints(&counts)),
        ("sum", build::num(h.sum)),
        ("count", u64_json(h.count)),
    ])
}

fn hist_from_json(v: &Json) -> io::Result<LocalHist> {
    Ok(LocalHist { counts: v.field("counts")?, sum: v.field("sum")?, count: v.field("count")? })
}

fn telemetry_json(t: &TelemetrySnapshot) -> Json {
    let phases = t
        .phases
        .iter()
        .map(|(name, h)| build::obj(vec![("phase", build::str(name)), ("hist", hist_json(h))]))
        .collect();
    build::obj(vec![
        ("phases", Json::Arr(phases)),
        ("heartbeat", t.heartbeat.as_ref().map_or(Json::Null, hist_json)),
    ])
}

fn telemetry_from_json(v: &Json) -> io::Result<TelemetrySnapshot> {
    Ok(TelemetrySnapshot {
        phases: v.list_with("phases", |p| {
            Ok((p.field("phase")?, p.field_with("hist", hist_from_json)?))
        })?,
        heartbeat: v.opt_field_with("heartbeat", hist_from_json)?,
    })
}

fn tagged(tag: &str, mut fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("type", build::str(tag))];
    all.append(&mut fields);
    build::obj(all)
}

impl Msg {
    /// Encodes the message as one JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Msg::Hello { version, fingerprint, worker_id } => tagged(
                "hello",
                vec![
                    ("version", u64_json(*version)),
                    ("fp", fingerprint.to_json()),
                    ("worker_id", build::str(worker_id)),
                ],
            ),
            Msg::Welcome { slot, campaign_seed, rng_state } => tagged(
                "welcome",
                vec![
                    ("slot", u64_json(*slot)),
                    ("campaign_seed", u64_json(*campaign_seed)),
                    ("rng_state", rng_state.as_ref().map_or(Json::Null, rng_state_json)),
                ],
            ),
            Msg::Reject { reason } => tagged("reject", vec![("reason", build::str(reason))]),
            Msg::Challenge { nonce } => tagged("challenge", vec![("nonce", build::str(nonce))]),
            Msg::AuthProof { proof } => tagged("auth", vec![("proof", build::str(proof))]),
            Msg::LeaseRequest { slot, want } => {
                tagged("lease_req", vec![("slot", u64_json(*slot)), ("want", build::int(*want))])
            }
            Msg::Lease { lease, campaign, campaign_seed, rng_state, jobs, cov } => tagged(
                "lease",
                vec![
                    ("lease", u64_json(*lease)),
                    ("campaign", u64_json(*campaign)),
                    ("campaign_seed", u64_json(*campaign_seed)),
                    ("rng_state", rng_state.as_ref().map_or(Json::Null, rng_state_json)),
                    ("jobs", Json::Arr(jobs.iter().map(job_json).collect())),
                    ("cov", cov_json(cov)),
                ],
            ),
            Msg::Wait { millis } => tagged("wait", vec![("millis", u64_json(*millis))]),
            Msg::Drain => tagged("drain", vec![]),
            Msg::Heartbeat { slot, lease } => {
                tagged("heartbeat", vec![("slot", u64_json(*slot)), ("lease", u64_json(*lease))])
            }
            Msg::Results { slot, lease, campaign, items, cov, rng_state, telemetry } => {
                let mut fields = vec![
                    ("slot", u64_json(*slot)),
                    ("lease", u64_json(*lease)),
                    ("campaign", u64_json(*campaign)),
                    ("items", Json::Arr(items.iter().map(item_json).collect())),
                    ("cov", cov_json(cov)),
                    ("rng_state", rng_state_json(rng_state)),
                ];
                if let Some(t) = telemetry {
                    fields.push(("telemetry", telemetry_json(t)));
                }
                tagged("results", fields)
            }
            Msg::Ack { cov } => tagged("ack", vec![("cov", cov_json(cov))]),
            Msg::Bye => tagged("bye", vec![]),
        }
    }

    /// Decodes a message encoded by [`Msg::to_json`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on an unknown tag or missing/malformed field.
    pub fn from_json(v: &Json) -> io::Result<Msg> {
        Ok(match v.field::<String>("type")?.as_str() {
            "hello" => Msg::Hello {
                version: v.field("version")?,
                fingerprint: v.field_with("fp", Fingerprint::from_json)?,
                worker_id: v.field("worker_id")?,
            },
            "welcome" => Msg::Welcome {
                slot: v.field("slot")?,
                campaign_seed: v.field("campaign_seed")?,
                rng_state: v.opt_field_with("rng_state", rng_state_from_json)?,
            },
            "reject" => Msg::Reject { reason: v.field("reason")? },
            "challenge" => Msg::Challenge { nonce: v.field("nonce")? },
            "auth" => Msg::AuthProof { proof: v.field("proof")? },
            "lease_req" => Msg::LeaseRequest { slot: v.field("slot")?, want: v.field("want")? },
            "lease" => Msg::Lease {
                lease: v.field("lease")?,
                campaign: v.field("campaign")?,
                campaign_seed: v.field("campaign_seed")?,
                rng_state: v.opt_field_with("rng_state", rng_state_from_json)?,
                jobs: v.list_with("jobs", job_from_json)?,
                cov: v.field("cov")?,
            },
            "wait" => Msg::Wait { millis: v.field("millis")? },
            "drain" => Msg::Drain,
            "heartbeat" => Msg::Heartbeat { slot: v.field("slot")?, lease: v.field("lease")? },
            "results" => Msg::Results {
                slot: v.field("slot")?,
                lease: v.field("lease")?,
                campaign: v.field("campaign")?,
                items: v.list_with("items", item_from_json)?,
                cov: v.field("cov")?,
                rng_state: v.field_with("rng_state", rng_state_from_json)?,
                telemetry: v.opt_field_with("telemetry", telemetry_from_json)?,
            },
            "ack" => Msg::Ack { cov: v.field("cov")? },
            "bye" => Msg::Bye,
            other => return Err(invalid(format!("unknown message type `{other}`"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_campaign::json::parse_doc;
    use dx_tensor::rng;

    fn round_trip(msg: &Msg) -> Msg {
        let text = msg.to_json().to_string();
        Msg::from_json(&parse_doc(&text).unwrap()).unwrap()
    }

    fn fp() -> Fingerprint {
        Fingerprint {
            label: "mnist@test".into(),
            metric: "multisection:4".into(),
            units: vec![52, 148, 268],
            profiles: "fnv:00000000deadbeef".into(),
            hyper: "l1=1 l2=0.1 s=0.04 iters=50 dc=None pre=false pick=Random npm=1".into(),
            constraint: "clip".into(),
        }
    }

    #[test]
    fn hello_welcome_round_trip() {
        match round_trip(&Msg::Hello {
            version: PROTOCOL_VERSION,
            fingerprint: fp(),
            worker_id: "w-cafe".into(),
        }) {
            Msg::Hello { version, fingerprint, worker_id } => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(fingerprint, fp());
                assert_eq!(worker_id, "w-cafe");
            }
            other => panic!("{other:?}"),
        }
        // A v5-style hello without an identity is malformed in v6.
        let text = r#"{"type":"hello","version":"6","fp":{"label":"x","metric":"neuron","units":[],"profiles":"none","hyper":"h","constraint":"c"}}"#;
        assert!(Msg::from_json(&parse_doc(text).unwrap()).is_err());
        match round_trip(&Msg::Welcome {
            slot: 3,
            campaign_seed: u64::MAX,
            rng_state: Some([1, 2, 3, u64::MAX]),
        }) {
            Msg::Welcome { slot, campaign_seed, rng_state } => {
                assert_eq!(slot, 3);
                assert_eq!(campaign_seed, u64::MAX, "seeds above 2^53 must survive");
                assert_eq!(rng_state, Some([1, 2, 3, u64::MAX]));
            }
            other => panic!("{other:?}"),
        }
        match round_trip(&Msg::Welcome { slot: 0, campaign_seed: 42, rng_state: None }) {
            Msg::Welcome { rng_state: None, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lease_and_results_round_trip() {
        let input = rng::uniform(&mut rng::rng(1), &[1, 6], 0.0, 1.0);
        let lease = Msg::Lease {
            lease: 9,
            campaign: 7,
            campaign_seed: u64::MAX - 1,
            rng_state: Some([4, 3, 2, 1]),
            jobs: vec![Job { seed_id: 4, input: input.clone() }],
            cov: vec![vec![0, 5, 9], vec![]],
        };
        match round_trip(&lease) {
            Msg::Lease { lease, campaign, campaign_seed, rng_state, jobs, cov } => {
                assert_eq!(lease, 9);
                assert_eq!(campaign, 7);
                assert_eq!(campaign_seed, u64::MAX - 1, "seeds above 2^53 must survive");
                assert_eq!(rng_state, Some([4, 3, 2, 1]));
                assert_eq!(jobs[0].seed_id, 4);
                assert_eq!(jobs[0].input, input);
                assert_eq!(cov, vec![vec![0, 5, 9], vec![]]);
            }
            other => panic!("{other:?}"),
        }
        match round_trip(&Msg::Lease {
            lease: 1,
            campaign: 0,
            campaign_seed: 42,
            rng_state: None,
            jobs: vec![],
            cov: vec![],
        }) {
            Msg::Lease { rng_state: None, .. } => {}
            other => panic!("{other:?}"),
        }
        let results = Msg::Results {
            slot: 1,
            lease: 9,
            campaign: 7,
            items: vec![JobResult {
                seed_id: 4,
                run: SeedRun {
                    test: None,
                    preexisting: false,
                    iterations: 12,
                    newly_covered: 3,
                    newly_by_component: vec![3],
                    corpus_candidate: Some(input.clone()),
                },
            }],
            cov: vec![vec![1], vec![2, 3]],
            rng_state: [9, 8, 7, 6],
            telemetry: None,
        };
        match round_trip(&results) {
            Msg::Results { campaign, items, cov, rng_state, telemetry, .. } => {
                assert_eq!(campaign, 7);
                assert_eq!(items[0].run.iterations, 12);
                assert_eq!(items[0].run.corpus_candidate.as_ref(), Some(&input));
                assert_eq!(cov, vec![vec![1], vec![2, 3]]);
                assert_eq!(rng_state, [9, 8, 7, 6]);
                assert_eq!(telemetry, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn results_telemetry_round_trips() {
        let mut forward = LocalHist::new();
        forward.record(0.0001);
        forward.record(0.02);
        let mut heartbeat = LocalHist::new();
        heartbeat.record(0.0005);
        let snapshot = TelemetrySnapshot {
            phases: vec![("forward".into(), forward.clone())],
            heartbeat: Some(heartbeat.clone()),
        };
        let results = Msg::Results {
            slot: 2,
            lease: 11,
            campaign: 0,
            items: vec![],
            cov: vec![],
            rng_state: [1, 2, 3, 4],
            telemetry: Some(snapshot.clone()),
        };
        match round_trip(&results) {
            Msg::Results { telemetry: Some(t), .. } => {
                assert_eq!(t, snapshot);
                assert_eq!(t.phases[0].1.count, 2);
                assert_eq!(t.heartbeat.as_ref().unwrap().counts, heartbeat.counts);
            }
            other => panic!("{other:?}"),
        }
        // A frame without a telemetry field decodes as None.
        let text = r#"{"type":"results","slot":"0","lease":"1","campaign":"0","items":[],"cov":[],"rng_state":["1","2","3","4"]}"#;
        match Msg::from_json(&parse_doc(text).unwrap()).unwrap() {
            Msg::Results { telemetry: None, .. } => {}
            other => panic!("{other:?}"),
        }
        // A malformed snapshot is InvalidData, like any other bad field.
        let text = r#"{"type":"results","slot":"0","lease":"1","campaign":"0","items":[],"cov":[],"rng_state":["1","2","3","4"],"telemetry":{"phases":[{"phase":"forward"}]}}"#;
        assert!(Msg::from_json(&parse_doc(text).unwrap()).is_err());
    }

    /// The position of `m`'s variant among all of them. No `_` arm: a new
    /// variant does not compile until it has a position here, and then
    /// [`every_variant_round_trips_byte_equal`] fails until it has a
    /// sample too.
    fn variant_index(m: &Msg) -> usize {
        match m {
            Msg::Hello { .. } => 0,
            Msg::Welcome { .. } => 1,
            Msg::Reject { .. } => 2,
            Msg::Challenge { .. } => 3,
            Msg::AuthProof { .. } => 4,
            Msg::LeaseRequest { .. } => 5,
            Msg::Lease { .. } => 6,
            Msg::Wait { .. } => 7,
            Msg::Drain => 8,
            Msg::Heartbeat { .. } => 9,
            Msg::Results { .. } => 10,
            Msg::Ack { .. } => 11,
            Msg::Bye => 12,
        }
    }

    #[test]
    fn every_variant_round_trips_byte_equal() {
        let input = rng::uniform(&mut rng::rng(2), &[1, 6], 0.0, 1.0);
        let mut hist = LocalHist::new();
        hist.record(0.02);
        let test = deepxplore::GeneratedTest {
            seed_index: 4,
            input: input.clone(),
            iterations: 9,
            predictions: vec![
                deepxplore::diff::Prediction::Class(1),
                deepxplore::diff::Prediction::Value(0.25),
            ],
            target_model: 1,
        };
        // Every field holds a non-default value, so a field the reader
        // drops or defaults changes the second encoding.
        let samples = [
            Msg::Hello { version: PROTOCOL_VERSION, fingerprint: fp(), worker_id: "w-cafe".into() },
            Msg::Welcome { slot: 3, campaign_seed: u64::MAX, rng_state: Some([1, 2, 3, u64::MAX]) },
            Msg::Reject { reason: "fingerprint mismatch".into() },
            Msg::Challenge { nonce: "00ff".into() },
            Msg::AuthProof { proof: "deadbeef".into() },
            Msg::LeaseRequest { slot: 2, want: 5 },
            Msg::Lease {
                lease: 9,
                campaign: 7,
                campaign_seed: u64::MAX - 1,
                rng_state: Some([4, 3, 2, 1]),
                jobs: vec![Job { seed_id: 4, input: input.clone() }],
                cov: vec![vec![0, 5, 9], vec![1]],
            },
            Msg::Wait { millis: 50 },
            Msg::Drain,
            Msg::Heartbeat { slot: 2, lease: 7 },
            Msg::Results {
                slot: 1,
                lease: 9,
                campaign: 7,
                items: vec![JobResult {
                    seed_id: 4,
                    run: SeedRun {
                        test: Some(test),
                        preexisting: true,
                        iterations: 12,
                        newly_covered: 3,
                        newly_by_component: vec![2, 1],
                        corpus_candidate: Some(input),
                    },
                }],
                cov: vec![vec![1], vec![2, 3]],
                rng_state: [9, 8, 7, 6],
                telemetry: Some(TelemetrySnapshot {
                    phases: vec![("forward".into(), hist.clone())],
                    heartbeat: Some(hist),
                }),
            },
            Msg::Ack { cov: vec![vec![2], vec![4, 8]] },
            Msg::Bye,
        ];
        let mut seen = [false; 13];
        for msg in &samples {
            seen[variant_index(msg)] = true;
            let first = msg.to_json().to_string();
            let second = round_trip(msg).to_json().to_string();
            assert_eq!(first, second, "{msg:?} does not round-trip");
        }
        assert!(seen.iter().all(|&s| s), "a variant has no sample: {seen:?}");
    }

    #[test]
    fn message_decoder_survives_mutation() {
        let input = rng::uniform(&mut rng::rng(3), &[1, 3], 0.0, 1.0);
        let mut hist = LocalHist::new();
        hist.record(0.02);
        let run = SeedRun {
            test: Some(deepxplore::GeneratedTest {
                seed_index: 4,
                input: input.clone(),
                iterations: 9,
                predictions: vec![deepxplore::diff::Prediction::Class(1)],
                target_model: 1,
            }),
            preexisting: false,
            iterations: 12,
            newly_covered: 3,
            newly_by_component: vec![2, 1],
            corpus_candidate: Some(input.clone()),
        };
        let samples = [
            Msg::Hello { version: PROTOCOL_VERSION, fingerprint: fp(), worker_id: "w-1".into() },
            Msg::Welcome { slot: 3, campaign_seed: u64::MAX, rng_state: Some([1, 2, 3, 4]) },
            Msg::Reject { reason: "no".into() },
            Msg::Challenge { nonce: "00ff".into() },
            Msg::AuthProof { proof: "beef".into() },
            Msg::LeaseRequest { slot: 2, want: 5 },
            Msg::Lease {
                lease: 9,
                campaign: 7,
                campaign_seed: 42,
                rng_state: None,
                jobs: vec![Job { seed_id: 4, input }],
                cov: vec![vec![0, 5], vec![]],
            },
            Msg::Wait { millis: 50 },
            Msg::Drain,
            Msg::Heartbeat { slot: 2, lease: 7 },
            Msg::Results {
                slot: 1,
                lease: 9,
                campaign: 7,
                items: vec![JobResult { seed_id: 4, run }],
                cov: vec![vec![1]],
                rng_state: [9, 8, 7, 6],
                telemetry: Some(TelemetrySnapshot {
                    phases: vec![("forward".into(), hist.clone())],
                    heartbeat: Some(hist),
                }),
            },
            Msg::Ack { cov: vec![vec![2, 8]] },
            Msg::Bye,
        ];
        let seeds: Vec<String> = samples.iter().map(|m| m.to_json().to_string()).collect();
        dx_integration::fuzz::check_decoder(&seeds, 8192, |text| {
            Ok(Msg::from_json(&parse_doc(text)?)?.to_json().to_string())
        });
    }

    #[test]
    fn control_messages_round_trip() {
        assert!(matches!(round_trip(&Msg::Drain), Msg::Drain));
        assert!(matches!(round_trip(&Msg::Bye), Msg::Bye));
        assert!(matches!(round_trip(&Msg::Wait { millis: 50 }), Msg::Wait { millis: 50 }));
        assert!(matches!(
            round_trip(&Msg::Heartbeat { slot: 2, lease: 7 }),
            Msg::Heartbeat { slot: 2, lease: 7 }
        ));
    }

    #[test]
    fn auth_messages_round_trip() {
        match round_trip(&Msg::Challenge { nonce: "00ff".into() }) {
            Msg::Challenge { nonce } => assert_eq!(nonce, "00ff"),
            other => panic!("{other:?}"),
        }
        match round_trip(&Msg::AuthProof { proof: "deadbeef".into() }) {
            Msg::AuthProof { proof } => assert_eq!(proof, "deadbeef"),
            other => panic!("{other:?}"),
        }
        for text in [r#"{"type":"challenge"}"#, r#"{"type":"auth","proof":7}"#] {
            let doc = parse_doc(text).unwrap();
            assert!(Msg::from_json(&doc).is_err(), "accepted `{text}`");
        }
    }

    #[test]
    fn unknown_or_malformed_messages_are_rejected() {
        for text in [
            r#"{"type":"warp"}"#,
            r#"{"no_type":1}"#,
            r#"{"type":"lease","lease":"1"}"#,
            // A v5-style lease with no campaign tag.
            r#"{"type":"lease","lease":"1","jobs":[],"cov":[]}"#,
            // A v5-style results frame with no campaign tag.
            r#"{"type":"results","slot":"0","lease":"1","items":[],"cov":[],"rng_state":["1","2","3","4"]}"#,
            r#"{"type":"results","slot":"0","lease":"1","campaign":"0","items":[{"seed_id":0}],"cov":[],"rng_state":["1","2","3","4"]}"#,
        ] {
            let doc = parse_doc(text).unwrap();
            assert!(Msg::from_json(&doc).is_err(), "accepted `{text}`");
        }
    }
}
