//! The benchmark's definition: workloads, budgets and metric tables.
//!
//! `BENCHMARK.json` at the repo root carries the same names, units,
//! directions and bounds (a self-test holds the two together); the sizes
//! here are part of the definition and change only in a
//! benchmark-correcting PR.

/// Sub-seed `k` of a run: repetition `k` of a workload hands this to the
/// CLI as `--rng`. Repetition 0 uses the run's `--seed` itself.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(7919))
}

/// Which sub-seed repetition `rep` uses: the first two repetitions share
/// sub-seed 0 (their outputs must be byte-identical — the determinism
/// check), every later one moves on, so one run averages search luck
/// over several campaigns.
pub fn sub_seed_index(rep: usize) -> u64 {
    rep.saturating_sub(1) as u64
}

/// Repetitions every end-to-end run completes, however short `--seconds`
/// is: the determinism pair plus four more sub-seeds. Fewer than five
/// distinct sub-seeds cannot average search luck to within the bounds
/// (measured: with three, `diffs_per_s` spread 23% across seeds).
pub const MIN_REPS: usize = 6;

/// What one repetition is sized to take on the 2-core sandbox (1.9 to
/// 2.4 s, by workload).
const REP_NOMINAL_S: f64 = 2.0;

/// Repetitions of a run that measures for `seconds`: one per nominal
/// repetition time, so that two runs with one `--seconds` cover the same
/// sub-seeds and their outputs can be held to the same bytes.
pub fn reps_for(seconds: f64) -> usize {
    ((seconds / REP_NOMINAL_S).round() as usize).max(MIN_REPS)
}

/// How a workload drives the CLI. All sizes are per repetition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One `campaign --checkpoint D` invocation.
    Pool {
        /// `--seeds`.
        seeds: usize,
        /// `--epochs`.
        epochs: usize,
        /// `--batch-per-epoch`.
        batch_per_epoch: usize,
    },
    /// `campaign --checkpoint D`, then `resumes` × `campaign --resume D`,
    /// each leg running `epochs` small epochs (one checkpoint per epoch).
    Ckpt {
        /// `--seeds`.
        seeds: usize,
        /// `--epochs` of every leg.
        epochs: usize,
        /// `--batch-per-epoch`.
        batch_per_epoch: usize,
        /// Resume legs after the first.
        resumes: usize,
    },
    /// `coordinator` plus one `worker` process, launched the way a
    /// two-machine fleet is (not through the `dist` wrapper: its fleet
    /// watcher polls for child exit every 500 ms, which quantizes the
    /// wall of a two-second run to 2.1 or 2.6 s).
    Dist1 {
        /// `coordinator --seeds`.
        seeds: usize,
        /// `coordinator --steps`.
        steps: usize,
        /// `coordinator --batch` (absorbed steps per statistics round).
        batch: usize,
    },
    /// `serve` + one `worker`, two tenants submitted back to back:
    /// `alpha` (weight 2) on pool rows `0..tenant_seeds`, `beta`
    /// (weight 1) on the next `tenant_seeds` rows.
    Svc2t {
        /// `serve --seeds` (the shared pool).
        pool: usize,
        /// `submit --seeds` of each tenant.
        tenant_seeds: usize,
        /// `submit --steps` of each tenant.
        tenant_steps: usize,
    },
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it is in the set (one line).
    pub why: &'static str,
    /// `--dataset`.
    pub dataset: &'static str,
    /// `--metric`, when not the default `neuron`.
    pub metric: Option<&'static str>,
    /// Invocation shape and sizes.
    pub kind: Kind,
}

impl Workload {
    /// Seed-steps one repetition is budgeted to absorb.
    pub fn budget_steps(&self) -> usize {
        match self.kind {
            Kind::Pool { epochs, batch_per_epoch, .. } => epochs * batch_per_epoch,
            Kind::Ckpt { epochs, batch_per_epoch, resumes, .. } => {
                (1 + resumes) * epochs * batch_per_epoch
            }
            Kind::Dist1 { steps, .. } => steps,
            Kind::Svc2t { tenant_steps, .. } => 2 * tenant_steps,
        }
    }

    /// Whether the workload runs the campaign engine inside the one CLI
    /// process (as opposed to a coordinator/daemon plus a worker).
    pub fn in_process(&self) -> bool {
        matches!(self.kind, Kind::Pool { .. } | Kind::Ckpt { .. })
    }
}

/// Step budgets are the issue's sizes divided by this, so that one run
/// fits several repetitions (and three cold set-ups) into the driver's
/// per-run time; every workload is scaled by the same factor.
pub const SCALE_DIVISOR: usize = 8;

/// The workload set. Every initial pool is at least twice the per-epoch
/// batch, so a seed retiring early (the models already disagree on it)
/// can never leave an epoch short of its budget.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "mnist_pool",
        why: "LeNet trio, big epochs: forward+gradient conv-dominated, campaign/codec ~0; where a tensor/nn conv change must show",
        dataset: "mnist",
        metric: None,
        kind: Kind::Pool { seeds: 64, epochs: 3, batch_per_epoch: 32 },
    },
    Workload {
        name: "pdf_ms_pool",
        why: "Dense MLP trio under multisection:4+boundary: no conv at all, most iterates/s, largest coverage and loop share; a conv change must not move it",
        dataset: "pdf",
        metric: Some("multisection:4+boundary"),
        kind: Kind::Pool { seeds: 128, epochs: 4, batch_per_epoch: 64 },
    },
    Workload {
        name: "mnist_ckpt",
        why: "Same engine and models as mnist_pool but 4-step epochs, a checkpoint after each and two resumes: checkpoint encode/write, resume parse and process start show here only",
        dataset: "mnist",
        metric: None,
        kind: Kind::Ckpt { seeds: 64, epochs: 8, batch_per_epoch: 4, resumes: 2 },
    },
    Workload {
        name: "mnist_dist1",
        why: "Coordinator + one worker process: every lease pays encode, wire, decode, absorb, grant with nothing to hide behind; the dist layer's workload",
        dataset: "mnist",
        metric: None,
        kind: Kind::Dist1 { seeds: 64, steps: 96, batch: 32 },
    },
    Workload {
        name: "mnist_svc2t",
        why: "Service daemon + one worker, two tenants at weights 2:1: the second lease engine and stride scheduling under contention, over the same worker code as mnist_dist1",
        dataset: "mnist",
        metric: None,
        kind: Kind::Svc2t { pool: 64, tenant_seeds: 32, tenant_steps: 48 },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the CLI sees.
#[derive(Clone, Copy, Debug)]
pub struct E2eMetric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it measures and how repetitions combine into one value.
    pub meaning: &'static str,
}

/// The end-to-end metrics; every workload reports all of them.
pub const E2E: [E2eMetric; 7] = [
    E2eMetric {
        name: "iters_per_s",
        unit: "iters/s",
        better: Better::Higher,
        bound: 0.2,
        meaning: "gradient-ascent iterates / wall, the quiet (upper) quartile of the repetitions; nearly free of search luck, so the throughput gate",
    },
    E2eMetric {
        name: "seeds_per_s",
        unit: "seed-steps/s",
        better: Better::Higher,
        bound: 0.2,
        meaning: "absorbed seed-steps per iterate (pooled over the sub-seeds, exact) x iters_per_s; moves with how early seeds find a difference",
    },
    E2eMetric {
        name: "diffs_per_s",
        unit: "diffs/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "difference-inducing inputs per iterate (pooled, exact) x iters_per_s; the paper's 'one per second', and the luckiest number here",
    },
    E2eMetric {
        name: "cpu_s_per_kiter",
        unit: "s",
        better: Better::Lower,
        bound: 0.2,
        meaning: "user+sys CPU of the whole process tree per 1000 iterates, the quiet (lower) quartile of the repetitions; catches speed bought with extra cores",
    },
    E2eMetric {
        name: "coverage_pct",
        unit: "%",
        better: Better::Higher,
        bound: 0.04,
        meaning: "final mean coverage at the fixed budget, mean over repetitions; guards 'faster by searching worse'",
    },
    E2eMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        meaning: "VmHWM summed over the workload's process tree, polled, median over repetitions",
    },
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "cold `deepxplore train --dataset <ds>` into an empty cache, median of three",
    },
];

/// A per-layer metric of the traced run.
#[derive(Clone, Copy, Debug)]
pub struct LayerMetric {
    /// Name: `<layer>.<what>`; the layer is a crate name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Which end-to-end metric it is predicted to move, on which workload
    /// (written down before measuring).
    pub moves: &'static str,
}

impl LayerMetric {
    /// The layer (crate) the metric belongs to: the name's first segment.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, better, moves }
}

const CONV: &str = "iters_per_s, cpu_s_per_kiter on mnist_* (most on mnist_pool); not pdf_ms_pool";
const DENSE: &str =
    "iters_per_s, cpu_s_per_kiter on pdf_ms_pool; mnist_* only through the dense head";
const COV: &str = "iters_per_s on pdf_ms_pool (<= ~13%); mnist_* <= ~5%";
const LOOP: &str = "iters_per_s on pdf_ms_pool first, others proportionally; not coverage_pct";
const SEARCH: &str = "seeds_per_s, diffs_per_s, coverage_pct on all; not iters_per_s";
const CKPT: &str = "iters_per_s, peak_rss_mb on mnist_ckpt; not the pool workloads";
const DIST: &str =
    "iters_per_s, cpu_s_per_kiter on mnist_dist1, mnist_svc2t; not the in-process workloads";
const SVC: &str = "seeds_per_s, iters_per_s on mnist_svc2t; not mnist_dist1";
const SETUP: &str = "setup_s on all; not iters_per_s";

use Better::{Higher, Lower};

/// The per-layer metrics, outermost layer last within each group.
pub const PER_LAYER: [LayerMetric; 62] = [
    lm("tensor.matmul_acc.gflops", "GFLOP/s", Higher, CONV),
    lm("tensor.matmul_bt_acc.gflops", "GFLOP/s", Higher, DENSE),
    lm("tensor.matmul_bias_act.gflops", "GFLOP/s", Higher, DENSE),
    lm("tensor.kernel_share", "%", Higher, "explains nn.*: the part of a pass the kernels account for"),
    lm("nn.forward.us_per_sample.b1", "us", Lower, CONV),
    lm("nn.forward.us_per_sample.b8", "us", Lower, CONV),
    lm("nn.gradient.us_per_sample.b1", "us", Lower, CONV),
    lm("nn.gradient.us_per_sample.b8", "us", Lower, CONV),
    lm("nn.batch_gain", "x", Higher, CONV),
    lm("nn.conv_fwd.us", "us", Lower, CONV),
    lm("nn.conv_bwd_input.us", "us", Lower, CONV),
    lm("nn.dense_fwd.us", "us", Lower, DENSE),
    lm("nn.dense_bwd_input.us", "us", Lower, DENSE),
    lm("nn.share.conv", "%", Lower, CONV),
    lm("nn.share.dense", "%", Lower, DENSE),
    lm("nn.share.pool", "%", Lower, CONV),
    lm("nn.share.act", "%", Lower, LOOP),
    lm("nn.share.other", "%", Lower, LOOP),
    lm("nn.conv.non_matmul_share", "%", Lower, CONV),
    lm("coverage.units", "count", Higher, "none: the size the coverage costs scale with"),
    lm("coverage.update.us_per_pass", "us", Lower, COV),
    lm("coverage.pick.us", "us", Lower, COV),
    lm("coverage.merge.us", "us", Lower, COV),
    lm("coverage.delta.us", "us", Lower, DIST),
    lm("coverage.prime.ms", "ms", Lower, "start-up of pdf_ms_pool (inside iters_per_s's wall); not mnist_*"),
    lm("core.seed_ms.p50", "ms", Lower, SEARCH),
    lm("core.seed_ms.p95", "ms", Lower, SEARCH),
    lm("core.iters_per_seed", "count", Lower, SEARCH),
    lm("core.diff_yield", "ratio", Higher, SEARCH),
    lm("core.iter_us", "us", Lower, LOOP),
    lm("core.loop_self_share", "%", Lower, LOOP),
    lm("core.tile_gain", "x", Higher, LOOP),
    lm("campaign.step_ms.p50", "ms", Lower, LOOP),
    lm("campaign.schedule.us", "us", Lower, CKPT),
    lm("campaign.absorb.us", "us", Lower, CKPT),
    lm("campaign.checkpoint.ms.p50", "ms", Lower, CKPT),
    lm("campaign.checkpoint.ms.p90", "ms", Lower, CKPT),
    lm("campaign.checkpoint.mb_per_s", "MB/s", Higher, CKPT),
    lm("campaign.checkpoint.bytes_per_kseed", "B", Lower, CKPT),
    lm("campaign.checkpoint.share", "%", Lower, CKPT),
    lm("campaign.resume.ms", "ms", Lower, CKPT),
    lm("campaign.json.encode_mb_per_s", "MB/s", Higher, CKPT),
    lm("campaign.json.parse_mb_per_s", "MB/s", Higher, CKPT),
    lm("campaign.closure_pct", "%", Higher, "none: replay time / the CLI's own fuzz time; outside 90-105 the replay does not stand for the run"),
    lm("dist.encode.us_per_job", "us", Lower, DIST),
    lm("dist.decode.us_per_job", "us", Lower, DIST),
    lm("dist.bytes_per_seed", "B", Lower, DIST),
    lm("dist.worker_wait_share", "%", Lower, DIST),
    lm("dist.coordinator_cpu_ms_per_seed", "ms", Lower, DIST),
    lm("service.submit_ms", "ms", Lower, SVC),
    lm("service.status_ms.p50", "ms", Lower, SVC),
    lm("service.status_ms.p95", "ms", Lower, SVC),
    lm("service.first_step_ms", "ms", Lower, SVC),
    lm("service.share_ratio", "x", Higher, "none: alpha/beta steps when alpha finishes; the spec is 2.0"),
    lm("service.makespan_s.alpha", "s", Lower, SVC),
    lm("service.makespan_s.beta", "s", Lower, SVC),
    lm("models.train_s", "s", Lower, SETUP),
    lm("models.load_ms", "ms", Lower, CKPT),
    lm("datasets.synth_ms", "ms", Lower, CKPT),
    lm("telemetry.timer_overhead_pct", "%", Lower, LOOP),
    lm("cli.startup_ms", "ms", Lower, CKPT),
    lm("probe.trace_overhead_pct", "%", Lower, "none: the cost of this benchmark's own spans"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` fits the benchmark contract's name rule: starts with a
    /// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_metric_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` fits the contract's unit rule: at most 16 of
    /// `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_fit_the_charset_and_are_unique() {
        assert!(valid_metric_name("nn.share.conv"));
        assert!(valid_metric_name("9lives"));
        for bad in ["", ".x", "a b", "a/b", "ünits", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "`{bad}` should be refused");
        }
        let mut seen = BTreeSet::new();
        for name in E2E.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
        for w in &WORKLOADS {
            assert!(valid_metric_name(w.name));
            assert!(seen.insert(w.name), "workload name {} collides", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for unit in E2E.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(valid_unit(unit), "{unit}");
        }
    }

    #[test]
    fn bounds_and_set_up_follow_the_contract() {
        let setup = E2E.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &E2E {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "setup_s carries the largest bound");
        }
    }

    #[test]
    fn every_layer_is_a_crate_name() {
        let layers: BTreeSet<_> = PER_LAYER.iter().map(LayerMetric::layer).collect();
        let want = [
            "campaign",
            "cli",
            "core",
            "coverage",
            "datasets",
            "dist",
            "models",
            "nn",
            "probe",
            "service",
            "telemetry",
            "tensor",
        ];
        assert_eq!(layers, want.into_iter().collect());
    }

    #[test]
    fn budgets_are_the_issue_sizes_over_the_divisor() {
        let steps: Vec<_> = WORKLOADS.iter().map(Workload::budget_steps).collect();
        assert_eq!(steps, [768 / 8, 2048 / 8, 768 / 8, 768 / 8, 768 / 8]);
        assert_eq!(SCALE_DIVISOR, 8);
        for w in &WORKLOADS {
            // No epoch can come up short: the pool is twice the batch.
            if let Kind::Pool { seeds, batch_per_epoch, .. }
            | Kind::Ckpt { seeds, batch_per_epoch, .. } = w.kind
            {
                assert!(seeds >= 2 * batch_per_epoch, "{}", w.name);
            }
        }
    }

    #[test]
    fn benchmark_json_says_what_this_file_says() {
        use crate::json::{parse, Json};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .unwrap();
        let keys: Vec<_> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let text = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let list = |k: &str| doc.get(k).and_then(Json::as_arr).unwrap().to_vec();
        let got: Vec<_> =
            list("workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
        let want: Vec<_> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(got, want);
        let got: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect();
        let want: Vec<_> = E2E
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(got, want);
        let got: Vec<_> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.as_str().to_string()))
            .collect();
        assert_eq!(got, want);
        assert_eq!(doc.get("paths"), Some(&Json::Arr(vec![Json::str("benchmark")])));
    }

    #[test]
    fn repetitions_follow_the_seconds() {
        assert_eq!(reps_for(12.0), 6);
        assert_eq!(reps_for(1.0), MIN_REPS);
        assert_eq!(reps_for(20.0), 10);
    }

    #[test]
    fn the_first_two_repetitions_share_a_sub_seed() {
        let idx: Vec<_> = (0..5).map(sub_seed_index).collect();
        assert_eq!(idx, [0, 0, 1, 2, 3]);
        assert_eq!(sub_seed(42, 0), 42);
        assert_ne!(sub_seed(42, 1), sub_seed(43, 0));
    }
}
