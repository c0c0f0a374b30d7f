//! Algorithm 1: test-input generation via joint optimization.

use std::time::{Duration, Instant};

use dx_coverage::neuron::injection_for_neuron;
use dx_coverage::{CoverageConfig, CoverageSignal};
use dx_nn::network::{ForwardPass, Network};
use dx_nn::util::gather_rows;
use dx_telemetry::phase::{Phase, PhaseAccum};
use dx_telemetry::phase_timer;
use dx_tensor::{rng, Tensor, Workspace};
use rand::Rng as _;

use crate::constraints::Constraint;
use crate::diff::{class_of, differs, value_of, Prediction};
use crate::hyper::Hyperparams;

/// What the models under test compute.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TaskKind {
    /// Softmax classifiers; the oracle compares argmax classes.
    Classification,
    /// Scalar regressors (steering); the oracle compares directions with
    /// the embedded dead-zone threshold.
    Regression {
        /// Direction dead zone.
        direction_threshold: f32,
    },
}

impl TaskKind {
    /// The oracle's reading of one input's model output: the argmax class
    /// of a classifier, the steering value of a regressor.
    pub fn prediction(self, output: &[f32]) -> Prediction {
        match self {
            TaskKind::Classification => class_of(output),
            TaskKind::Regression { .. } => value_of(output),
        }
    }

    /// The oracle's disagreement dead zone: zero for classifiers, the
    /// direction threshold for steering regressors.
    pub fn oracle_threshold(self) -> f32 {
        match self {
            TaskKind::Classification => 0.0,
            TaskKind::Regression { direction_threshold } => direction_threshold,
        }
    }
}

/// One generated difference-inducing test.
#[derive(Clone, Debug)]
pub struct GeneratedTest {
    /// Index of the seed input this test was grown from.
    pub seed_index: usize,
    /// The difference-inducing input (batched `[1, ...]`).
    pub input: Tensor,
    /// Gradient-ascent iterations taken.
    pub iterations: usize,
    /// Each model's prediction on the generated input.
    pub predictions: Vec<Prediction>,
    /// Which model Algorithm 1 chose to push away (the `j` of Eq. 2).
    pub target_model: usize,
}

/// Aggregate statistics of a generation run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Seeds consumed (including skipped ones).
    pub seeds_tried: usize,
    /// Seeds skipped because the models already disagreed.
    pub seeds_skipped_preexisting: usize,
    /// Difference-inducing inputs found.
    pub differences_found: usize,
    /// Gradient-ascent steps actually taken, summed over seeds
    /// (Σ [`SeedRun::iterations`], the definition campaign epoch stats
    /// use). An iterate on which the constraint admitted no movement is
    /// not a step and is not counted (it was, before the loops merged;
    /// nothing asserts the value).
    pub total_iterations: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// What the growth loop made of one seed — one entry per job of
/// [`Generator::run_batch_tiled`].
///
/// Richer than the boolean found/not-found view of [`Generator::run`]:
/// campaign engines schedule seeds by how much *progress* a step made, so
/// the step reports coverage gained and DLFuzz-style corpus candidates —
/// intermediate inputs that activated new neurons while the models still
/// agreed, which make good future seeds. Both count against coverage
/// folded at every iterate, the batched entry point's policy; under
/// [`Generator::run`]'s (coverage on differences only) the same loop
/// reports only what the recorded test covered and never a candidate.
#[derive(Clone, Debug)]
pub struct SeedRun {
    /// The difference-inducing test, when one was found.
    pub test: Option<GeneratedTest>,
    /// Whether the models disagreed on the unmutated seed (Algorithm 1
    /// line 4-5 assumes agreement; such seeds cannot be grown further).
    pub preexisting: bool,
    /// Gradient-ascent iterations taken.
    pub iterations: usize,
    /// Coverage units (neurons, multisection range sections, or boundary
    /// corners) newly covered across all models during this step.
    pub newly_covered: usize,
    /// [`SeedRun::newly_covered`] split by metric component, in the
    /// signal's component order (one entry for simple metrics). Campaign
    /// energy models use this to reward progress per component — a rare
    /// boundary corner is worth more than yet another neuron section.
    pub newly_by_component: Vec<usize>,
    /// The last intermediate input that covered new neurons while the
    /// models still agreed — a coverage-guided corpus candidate.
    pub corpus_candidate: Option<Tensor>,
}

impl SeedRun {
    /// Whether the step produced a difference-inducing input.
    pub fn found_difference(&self) -> bool {
        self.test.is_some() && !self.preexisting
    }
}

/// Result of a generation run.
#[derive(Clone, Debug)]
pub struct GenResult {
    /// The difference-inducing tests, in discovery order.
    pub tests: Vec<GeneratedTest>,
    /// Run statistics.
    pub stats: RunStats,
    /// Final per-model neuron coverage.
    pub coverage: Vec<f32>,
}

/// The DeepXplore test generator (Algorithm 1).
///
/// Holds the models under test, their coverage signals (`cov_tracker` —
/// the paper's neuron metric or any other [`CoverageSignal`]), the
/// joint-optimization hyperparameters and the domain constraint; it is
/// deterministic given its construction seed.
pub struct Generator {
    models: Vec<Network>,
    kind: TaskKind,
    hp: Hyperparams,
    constraint: Constraint,
    signals: Vec<CoverageSignal>,
    rng: rng::Rng,
    /// Per-phase hot-path timing since the last
    /// [`Generator::take_phase_stats`]; plain (non-atomic) because each
    /// generator is owned by exactly one worker thread.
    phases: PhaseAccum,
    /// Buffer arena of the growth loop; every intermediate activation and
    /// gradient is drawn from (and recycled into) this pool, so
    /// steady-state iterates allocate nothing.
    ws: Workspace,
}

impl Generator {
    /// Creates a generator over at least two models with identical
    /// input/output shapes, steering by the paper's neuron metric.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two models or mismatched shapes.
    pub fn new(
        models: Vec<Network>,
        kind: TaskKind,
        hp: Hyperparams,
        constraint: Constraint,
        coverage: CoverageConfig,
        seed: u64,
    ) -> Self {
        let signals = models.iter().map(|m| CoverageSignal::neuron(m, coverage)).collect();
        Self::with_signals(models, kind, hp, constraint, signals, seed)
    }

    /// [`Generator::new`] over explicit per-model coverage signals — the
    /// metric-generic constructor campaign engines use (e.g. with
    /// `dx_coverage::SignalSpec::build`).
    ///
    /// # Panics
    ///
    /// Panics with fewer than two models, mismatched shapes, or a signal
    /// count different from the model count.
    pub fn with_signals(
        models: Vec<Network>,
        kind: TaskKind,
        hp: Hyperparams,
        constraint: Constraint,
        signals: Vec<CoverageSignal>,
        seed: u64,
    ) -> Self {
        assert!(models.len() >= 2, "differential testing needs at least two models");
        assert_eq!(signals.len(), models.len(), "one coverage signal per model");
        let in_shape = models[0].input_shape().to_vec();
        let out_shape = models[0].activation_shapes().last().expect("nonempty").clone();
        for m in &models[1..] {
            assert_eq!(m.input_shape(), in_shape.as_slice(), "input shapes differ");
            assert_eq!(
                m.activation_shapes().last().expect("nonempty"),
                &out_shape,
                "output shapes differ"
            );
        }
        Self {
            models,
            kind,
            hp,
            constraint,
            signals,
            rng: rng::rng(seed),
            phases: PhaseAccum::new(),
            ws: Workspace::new(),
        }
    }

    /// The models under test.
    pub fn models(&self) -> &[Network] {
        &self.models
    }

    /// Per-model coverage so far (under whatever metric the signals use).
    pub fn coverage(&self) -> Vec<f32> {
        self.signals.iter().map(|t| t.coverage()).collect()
    }

    /// The per-model coverage signals (same order as [`Generator::models`]).
    pub fn signals(&self) -> &[CoverageSignal] {
        &self.signals
    }

    /// Folds this generator's coverage into a global per-model union;
    /// returns how many units were new to the global view.
    ///
    /// # Panics
    ///
    /// Panics when `global` has a different model count or incompatible
    /// signals.
    pub fn sync_coverage_into(&self, global: &mut [CoverageSignal]) -> usize {
        assert_eq!(global.len(), self.signals.len(), "one global signal per model");
        global.iter_mut().zip(self.signals.iter()).map(|(g, local)| g.merge(local)).sum()
    }

    /// Adopts a global per-model coverage union into this generator, so it
    /// stops targeting units other workers already covered.
    ///
    /// # Panics
    ///
    /// Panics when `global` has a different model count or incompatible
    /// signals.
    pub fn adopt_coverage(&mut self, global: &[CoverageSignal]) {
        assert_eq!(global.len(), self.signals.len(), "one global signal per model");
        for (local, g) in self.signals.iter_mut().zip(global.iter()) {
            local.merge(g);
        }
    }

    /// Exports the generator's RNG state (neuron picks and target-model
    /// draws) for checkpointing; restore with
    /// [`Generator::set_rng_state`] to continue the exact stream.
    pub fn rng_state(&self) -> [u64; 4] {
        rng::rng_state(&self.rng)
    }

    /// Restores an RNG state exported by [`Generator::rng_state`].
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = rng::rng_from_state(state);
    }

    /// Drains the per-phase timing the growth loop accumulated (under
    /// either entry point) since the last call — the delta a campaign
    /// worker folds into its registry (or ships to its coordinator) at a
    /// sync boundary.
    pub fn take_phase_stats(&mut self) -> PhaseAccum {
        self.phases.take()
    }

    /// Mean neuron coverage across models.
    pub fn mean_coverage(&self) -> f32 {
        let c = self.coverage();
        c.iter().sum::<f32>() / c.len() as f32
    }

    /// Runs Algorithm 1 over a batch of seeds (one cycle), stopping early
    /// if `desired_coverage` is reached.
    ///
    /// Seeds grow one at a time through the same loop as
    /// [`Generator::run_batch_tiled`], under the paper's coverage policy:
    /// `cov_tracker` is updated only by recorded tests (lines 15-19), each
    /// seed steers against everything earlier seeds covered, and every
    /// random decision comes straight from the generator's RNG.
    pub fn run(&mut self, seeds: &Tensor) -> GenResult {
        let started = Instant::now();
        let mut stats = RunStats::default();
        let mut tests = Vec::new();
        let n = seeds.shape()[0];
        for i in 0..n {
            stats.seeds_tried += 1;
            let grown = self.grow_alone(i, gather_rows(seeds, &[i]));
            stats.total_iterations += grown.iterations;
            match grown.test {
                Some(test) => {
                    stats.differences_found += 1;
                    tests.push(test);
                }
                None if grown.preexisting => stats.seeds_skipped_preexisting += 1,
                None => {}
            }
            if let Some(p) = self.hp.desired_coverage {
                if self.mean_coverage() >= p {
                    break;
                }
            }
        }
        stats.elapsed = started.elapsed();
        GenResult { tests, stats, coverage: self.coverage() }
    }

    /// Attempts to grow one difference-inducing input from one seed — one
    /// seed's worth of [`Generator::run`].
    pub fn generate_from_seed(
        &mut self,
        seed_index: usize,
        seed: &Tensor,
    ) -> Option<GeneratedTest> {
        self.grow_alone(seed_index, seed.clone()).test
    }

    /// Grows one seed as a one-job tile that is lent the generator's own
    /// RNG as its lane and the generator's own signals as its coverage.
    fn grow_alone(&mut self, seed_index: usize, seed_x: Tensor) -> SeedRun {
        let signals = std::mem::take(&mut self.signals);
        let mut job = [Job::new(seed_index, self.rng.clone(), signals)];
        self.run_tile(&mut job, seed_x, CoveragePolicy::DifferencesOnly);
        let [Job { lane, signals, run, .. }] = job;
        self.rng = lane;
        self.signals = signals;
        run
    }

    /// Campaign step: grows every seed in `seeds` (`[N, ...]`, one row per
    /// entry of `seed_indices`), `batch` rows at a time (the last tile may
    /// be narrower) with one stacked forward and one batched
    /// joint-objective backward per model per iterate.
    ///
    /// Unlike [`Generator::run`], every iterate's activations fold into
    /// coverage (the feedback coverage-guided scheduling needs), which is
    /// what [`SeedRun::newly_covered`] and [`SeedRun::corpus_candidate`]
    /// report.
    ///
    /// `batch` is pure execution tiling — for a fixed job list the results
    /// are bit-identical for every width, because the per-job random and
    /// coverage state is fixed at call entry:
    ///
    /// - One RNG lane seed is drawn from the generator RNG per job,
    ///   upfront, in job order; every per-job random decision (the target
    ///   model `j`, obj2 neuron picks) comes from that job's own lane in
    ///   (iterate, model) order.
    /// - Each job steers against a clone of the coverage signals as of
    ///   call entry; the clones merge back into the generator's signals in
    ///   job order before the call returns, and each job's
    ///   [`SeedRun::newly_covered`] counts against its own clone.
    ///
    /// The CI batch-parity smoke holds a whole campaign to this contract
    /// (`--batch 1` vs `--batch 8` checkpoints diff bit-identical).
    ///
    /// # Panics
    ///
    /// Panics unless `seeds` has one row per seed index.
    pub fn run_batch_tiled(
        &mut self,
        seed_indices: &[usize],
        seeds: &Tensor,
        batch: usize,
    ) -> Vec<SeedRun> {
        assert_eq!(seeds.shape()[0], seed_indices.len(), "one seed row per seed index");
        let mut jobs: Vec<Job> = seed_indices
            .iter()
            .map(|&seed_index| {
                let lane = rng::rng(self.rng.gen_range(0..u64::MAX));
                Job::new(seed_index, lane, self.signals.clone())
            })
            .collect();
        let batch = batch.max(1);
        for (t, tile) in jobs.chunks_mut(batch).enumerate() {
            let rows: Vec<usize> = (t * batch..t * batch + tile.len()).collect();
            self.run_tile(tile, gather_rows(seeds, &rows), CoveragePolicy::EveryIterate);
        }
        jobs.into_iter()
            .map(|job| {
                for (global, local) in self.signals.iter_mut().zip(job.signals.iter()) {
                    global.merge(local);
                }
                job.run
            })
            .collect()
    }

    /// The growth loop — Algorithm 1's gradient ascent over one tile of
    /// jobs in lockstep. Row `a` of `x` is the seed of `jobs[a]`.
    fn run_tile(&mut self, jobs: &mut [Job], mut x: Tensor, policy: CoveragePolicy) {
        let threshold = self.kind.oracle_threshold();
        // `rows[a]` is the job whose input occupies row `a` of `x` (and of
        // every batched pass); `live[a]` is false once that job retired. A
        // retired row keeps its slot (with zeroed objectives) until the
        // next constraint step rebuilds `x` from live rows only — batched
        // passes cannot drop rows in place. The passes are the tile's only
        // copy of its activations: the oracle, coverage and obj2 read row
        // `a` of them in place (`ForwardPass::row`).
        let mut rows: Vec<usize> = (0..jobs.len()).collect();
        let mut passes = phase_timer!(self.phases, Phase::Forward, self.forward_all_lite(&x));
        // Algorithm 1 lines 4-6 per job: agreement check, common class c,
        // target model j (from the job's own lane).
        let mut live = vec![false; rows.len()];
        for (a, job) in jobs.iter_mut().enumerate() {
            let initial = self.predictions_of(&passes, a);
            if differs(&initial, threshold) {
                job.run.preexisting = true;
                if self.hp.count_preexisting {
                    job.run.test = Some(GeneratedTest {
                        seed_index: job.seed_index,
                        input: gather_rows(&x, &[a]),
                        iterations: 0,
                        predictions: initial,
                        target_model: 0,
                    });
                }
                continue;
            }
            job.c = match initial[0] {
                Prediction::Class(c) => c,
                Prediction::Value(_) => 0,
            };
            job.j = job.lane.gen_range(0..self.models.len());
            live[a] = true;
        }
        self.fold_coverage(jobs, &rows, &passes, policy);
        for iter in 1..=self.hp.max_iters {
            if !live.iter().any(|&l| l) {
                break;
            }
            let grad = phase_timer!(
                self.phases,
                Phase::Gradient,
                self.tile_gradient(jobs, &rows, &live, &passes)
            );
            // Per-row constraint steps, in job order; exhausted rows (and
            // rows already retired) drop out of the next tile.
            let mut kept: Vec<usize> = Vec::with_capacity(rows.len());
            let mut next_rows: Vec<Tensor> = Vec::with_capacity(rows.len());
            phase_timer!(self.phases, Phase::Constraint, {
                for (a, &ji) in rows.iter().enumerate() {
                    if !live[a] {
                        continue;
                    }
                    let xa = gather_rows(&x, &[a]);
                    let ga = gather_rows(&grad, &[a]);
                    let next = self.constraint.step(&xa, &ga, self.hp.step);
                    if next == xa {
                        // The constraint admits no further movement.
                        continue;
                    }
                    kept.push(ji);
                    next_rows.push(next);
                }
            });
            self.ws.put_tensor(grad);
            self.recycle_tile(passes);
            self.ws.put_tensor(x);
            if kept.is_empty() {
                return;
            }
            for &ji in &kept {
                jobs[ji].run.iterations = iter;
            }
            x = stack_rows(&next_rows, &mut self.ws);
            for t in next_rows {
                self.ws.put_tensor(t);
            }
            rows = kept;
            live = vec![true; rows.len()];
            passes = phase_timer!(self.phases, Phase::Forward, self.forward_all_lite(&x));
            // The oracle, then coverage (which under `DifferencesOnly`
            // needs the oracle's verdict), then corpus candidates.
            for (a, &ji) in rows.iter().enumerate() {
                let preds = self.predictions_of(&passes, a);
                if differs(&preds, threshold) {
                    let job = &mut jobs[ji];
                    job.run.test = Some(GeneratedTest {
                        seed_index: job.seed_index,
                        input: gather_rows(&x, &[a]),
                        iterations: iter,
                        predictions: preds,
                        target_model: job.j,
                    });
                    live[a] = false;
                }
            }
            let newly = self.fold_coverage(jobs, &rows, &passes, policy);
            for (a, &ji) in rows.iter().enumerate() {
                if live[a] && newly[a] > 0 {
                    jobs[ji].run.corpus_candidate = Some(gather_rows(&x, &[a]));
                }
            }
        }
        self.recycle_tile(passes);
        self.ws.put_tensor(x);
    }

    /// Folds each row's activations into its job's coverage where `policy`
    /// says so and returns the units newly covered per row. One timer per
    /// call: timing the phase per row instead measurably slows the
    /// campaign loop.
    fn fold_coverage(
        &mut self,
        jobs: &mut [Job],
        rows: &[usize],
        passes: &[ForwardPass],
        policy: CoveragePolicy,
    ) -> Vec<usize> {
        let mut newly = vec![0usize; rows.len()];
        phase_timer!(self.phases, Phase::Coverage, {
            for (a, &ji) in rows.iter().enumerate() {
                let Job { signals, run, .. } = &mut jobs[ji];
                if policy == CoveragePolicy::DifferencesOnly && run.test.is_none() {
                    continue;
                }
                for (pass, tracker) in passes.iter().zip(signals.iter_mut()) {
                    let nc = tracker.update_accum(pass.row(a), &mut run.newly_by_component);
                    run.newly_covered += nc;
                    newly[a] += nc;
                }
            }
        });
        newly
    }

    /// One cache-light forward per model, all buffers from the arena.
    fn forward_all_lite(&mut self, x: &Tensor) -> Vec<ForwardPass> {
        let Self { models, ws, .. } = self;
        models.iter().map(|m| m.forward_lite(x, ws)).collect()
    }

    /// Returns a tile's batched passes to the arena.
    fn recycle_tile(&mut self, passes: Vec<ForwardPass>) {
        for p in passes {
            p.recycle(&mut self.ws);
        }
    }

    /// The gradient of Equation 3 with respect to every live row's input:
    /// `∂[(Σ_{k≠j} F_k(x)[c] − λ1·F_j(x)[c]) + λ2·Σ_m f_{n_m}(x)]/∂x`.
    /// One batched backward per model, with the rows' obj1/obj2 injections
    /// accumulated into one shared `[A, ...]` seed tensor per activation
    /// site, drawn from the arena.
    fn tile_gradient(
        &mut self,
        jobs: &mut [Job],
        rows: &[usize],
        live: &[bool],
        passes: &[ForwardPass],
    ) -> Tensor {
        let mut total = self.ws.take_tensor(passes[0].input().shape());
        for (m, model) in self.models.iter().enumerate() {
            let pass = &passes[m];
            // obj1 rows at the output layer.
            let out_shape = pass.output().shape().to_vec();
            let k: usize = out_shape[1..].iter().product();
            let mut out_seed = self.ws.take_tensor(&out_shape);
            for (a, &ji) in rows.iter().enumerate() {
                if !live[a] {
                    continue;
                }
                let weight = if m == jobs[ji].j { -self.hp.lambda1 } else { 1.0 };
                match self.kind {
                    TaskKind::Classification => out_seed.data_mut()[a * k + jobs[ji].c] = weight,
                    TaskKind::Regression { .. } => {
                        out_seed.data_mut()[a * k..(a + 1) * k].fill(weight);
                    }
                }
            }
            let mut sites = vec![(model.num_layers(), out_seed)];
            // obj2 rows: uncovered neuron(s) per model (line 33; the paper
            // picks one, `neurons_per_model` generalizes per §4.2), picked
            // per live job from the job's own coverage and RNG lane — the
            // same (iterate, model) draw order at every tile width.
            if self.hp.lambda2 != 0.0 {
                for (a, &ji) in rows.iter().enumerate() {
                    if !live[a] {
                        continue;
                    }
                    let Job { signals, lane, .. } = &mut jobs[ji];
                    let (tracker, row) = (&signals[m], pass.row(a));
                    let picked: Vec<_> = match self.hp.neuron_pick {
                        crate::hyper::NeuronPick::Random => {
                            tracker.pick_uncovered_k(lane, self.hp.neurons_per_model.max(1))
                        }
                        crate::hyper::NeuronPick::Nearest => {
                            tracker.pick_uncovered_nearest(row).into_iter().collect()
                        }
                    };
                    for neuron in picked {
                        let inj = injection_for_neuron(model, neuron, tracker.granularity());
                        // Steer toward the metric's actual gap: the neuron
                        // metric always raises activations, multisection
                        // may need to lower one to reach an unhit low
                        // section.
                        let scale = self.hp.lambda2 * tracker.target_direction(neuron, row);
                        let at = inj.activation;
                        let site = sites.iter().position(|(i, _)| *i == at).unwrap_or_else(|| {
                            sites.push((at, self.ws.take_tensor(pass.activations[at].shape())));
                            sites.len() - 1
                        });
                        let seed = &mut sites[site].1;
                        let per = seed.len() / rows.len();
                        for d in &mut seed.data_mut()[a * per..][inj.range] {
                            *d += inj.value * scale;
                        }
                    }
                }
            }
            let g = model.input_gradient_ws(pass, &sites, &mut self.ws);
            total += &g;
            self.ws.put_tensor(g);
            for (_, t) in sites {
                self.ws.put_tensor(t);
            }
        }
        total
    }

    /// Every model's prediction on row `a` of the tile.
    fn predictions_of(&self, passes: &[ForwardPass], a: usize) -> Vec<Prediction> {
        passes.iter().map(|pass| self.kind.prediction(pass.row(a).output())).collect()
    }
}

/// When the growth loop folds an input's activations into `cov_tracker` —
/// the one behavioural difference between the generator's two entry
/// points, each of which passes a constant.
#[derive(Clone, Copy, PartialEq)]
enum CoveragePolicy {
    /// Every iterate, the unmutated seed included: the DLFuzz-style
    /// feedback campaigns schedule by ([`Generator::run_batch_tiled`]).
    EveryIterate,
    /// Only inputs recorded as tests, Algorithm 1 lines 15-19 as printed
    /// ([`Generator::run`], [`Generator::generate_from_seed`]).
    DifferencesOnly,
}

/// One seed's private state in the growth loop.
struct Job {
    seed_index: usize,
    /// Source of this seed's random decisions (target model, obj2 neuron
    /// picks), consumed in (iterate, model) order.
    lane: rng::Rng,
    /// The coverage this seed steers against and folds into, one signal
    /// per model.
    signals: Vec<CoverageSignal>,
    /// The class the models agree on for the seed (line 5; 0 for
    /// regression).
    c: usize,
    /// The model to push away (line 6).
    j: usize,
    run: SeedRun,
}

impl Job {
    fn new(seed_index: usize, lane: rng::Rng, signals: Vec<CoverageSignal>) -> Self {
        let run = SeedRun {
            test: None,
            preexisting: false,
            iterations: 0,
            newly_covered: 0,
            newly_by_component: vec![0; signals[0].n_components()],
            corpus_candidate: None,
        };
        Self { seed_index, lane, signals, c: 0, j: 0, run }
    }
}

/// Concatenates `[1, ...]` rows into one `[A, ...]` batch, buffer from the
/// arena.
fn stack_rows(rows: &[Tensor], ws: &mut Workspace) -> Tensor {
    let mut buf = ws.take_empty(rows.len() * rows[0].len());
    for r in rows {
        buf.extend_from_slice(r.data());
    }
    let mut shape = rows[0].shape().to_vec();
    shape[0] = rows.len();
    Tensor::from_vec(buf, &shape)
}

/// Average iterations to the first difference between exactly two models —
/// the Table 12 measurement. Returns `None` (the paper's `-`) when no seed
/// yields a difference within `max_iters`.
pub fn mean_iterations_to_difference(
    a: &Network,
    b: &Network,
    seeds: &Tensor,
    hp: Hyperparams,
    constraint: Constraint,
    rng_seed: u64,
) -> Option<f32> {
    let mut gen = Generator::new(
        vec![a.clone(), b.clone()],
        TaskKind::Classification,
        hp,
        constraint,
        CoverageConfig::default(),
        rng_seed,
    );
    let n = seeds.shape()[0];
    let mut total = 0usize;
    let mut found = 0usize;
    for i in 0..n {
        let seed = gather_rows(seeds, &[i]);
        if let Some(test) = gen.generate_from_seed(i, &seed) {
            total += test.iterations;
            found += 1;
        }
    }
    if found == 0 {
        None
    } else {
        Some(total as f32 / found as f32)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use dx_nn::layer::Layer;

    fn mk_classifier(seed: u64) -> Network {
        let mut n = Network::new(
            &[20],
            vec![Layer::dense(20, 16), Layer::relu(), Layer::dense(16, 3), Layer::softmax()],
        );
        n.init_weights(&mut rng::rng(seed));
        n
    }

    /// Three similar-but-different classifiers — the setting differential
    /// testing assumes (models mostly agree, boundaries differ slightly).
    fn similar_trio(seed: u64) -> Vec<Network> {
        let base = mk_classifier(seed);
        vec![base.clone(), base.perturbed(0.1, seed + 1), base.perturbed(0.1, seed + 2)]
    }

    fn mk_regressor(seed: u64) -> Network {
        let mut n = Network::new(
            &[20],
            vec![Layer::dense(20, 12), Layer::tanh(), Layer::dense(12, 1), Layer::tanh()],
        );
        n.init_weights(&mut rng::rng(seed));
        n
    }

    fn default_gen(seeds: u64) -> Generator {
        Generator::new(
            similar_trio(1),
            TaskKind::Classification,
            Hyperparams { step: 0.2, lambda1: 2.0, max_iters: 100, ..Default::default() },
            Constraint::Clip,
            CoverageConfig::default(),
            seeds,
        )
    }

    #[test]
    fn finds_differences_on_random_models() {
        let mut g = default_gen(7);
        let seeds = rng::uniform(&mut rng::rng(4), &[12, 20], 0.2, 0.8);
        let result = g.run(&seeds);
        assert!(result.stats.differences_found > 0, "no differences found: {:?}", result.stats);
        // Every reported test really is a disagreement.
        for t in &result.tests {
            assert!(differs(&t.predictions, 0.0));
            assert!(t.iterations >= 1);
        }
    }

    #[test]
    fn generated_inputs_respect_box_constraint() {
        let mut g = default_gen(8);
        let seeds = rng::uniform(&mut rng::rng(5), &[8, 20], 0.2, 0.8);
        let result = g.run(&seeds);
        for t in &result.tests {
            assert!(t.input.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn coverage_grows_during_run() {
        let mut g = default_gen(9);
        assert_eq!(g.mean_coverage(), 0.0);
        let seeds = rng::uniform(&mut rng::rng(6), &[10, 20], 0.2, 0.8);
        let _ = g.run(&seeds);
        assert!(g.mean_coverage() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let seeds = rng::uniform(&mut rng::rng(10), &[6, 20], 0.2, 0.8);
        let r1 = default_gen(11).run(&seeds);
        let r2 = default_gen(11).run(&seeds);
        assert_eq!(r1.stats.differences_found, r2.stats.differences_found);
        for (a, b) in r1.tests.iter().zip(r2.tests.iter()) {
            assert_eq!(a.input, b.input);
            assert_eq!(a.iterations, b.iterations);
        }
    }

    #[test]
    fn desired_coverage_stops_early() {
        let base = mk_classifier(1);
        let mut g = Generator::new(
            vec![base.clone(), base.perturbed(0.08, 2)],
            TaskKind::Classification,
            Hyperparams {
                step: 0.2,
                lambda1: 2.0,
                desired_coverage: Some(0.01),
                ..Default::default()
            },
            Constraint::Clip,
            CoverageConfig::default(),
            12,
        );
        let seeds = rng::uniform(&mut rng::rng(13), &[50, 20], 0.2, 0.8);
        let result = g.run(&seeds);
        assert!(result.stats.seeds_tried < 50, "should stop before exhausting seeds");
        assert!(g.mean_coverage() >= 0.01);
    }

    #[test]
    fn regression_task_finds_direction_differences() {
        let base = mk_regressor(20);
        let mut g = Generator::new(
            vec![base.clone(), base.perturbed(0.1, 21)],
            TaskKind::Regression { direction_threshold: 0.1 },
            Hyperparams { step: 0.2, max_iters: 120, lambda1: 2.0, ..Default::default() },
            Constraint::Clip,
            CoverageConfig::default(),
            22,
        );
        let seeds = rng::uniform(&mut rng::rng(23), &[15, 20], 0.2, 0.8);
        let result = g.run(&seeds);
        for t in &result.tests {
            assert!(differs(&t.predictions, 0.1));
        }
        // Untrained tanh regressors centred near zero should be easy to
        // split in 15 seeds.
        assert!(result.stats.differences_found > 0, "{:?}", result.stats);
    }

    #[test]
    fn identical_models_never_differ() {
        let m = mk_classifier(30);
        let mut g = Generator::new(
            vec![m.clone(), m],
            TaskKind::Classification,
            Hyperparams { step: 0.2, max_iters: 10, ..Default::default() },
            Constraint::Clip,
            CoverageConfig::default(),
            31,
        );
        let seeds = rng::uniform(&mut rng::rng(32), &[5, 20], 0.2, 0.8);
        let result = g.run(&seeds);
        assert_eq!(result.stats.differences_found, 0);
    }

    #[test]
    fn lambda2_zero_skips_neuron_objective() {
        // With λ2 = 0 the run must still work (Table 5's ablation arm).
        let base = mk_classifier(1);
        let mut g = Generator::new(
            vec![base.clone(), base.perturbed(0.08, 2)],
            TaskKind::Classification,
            Hyperparams { lambda2: 0.0, step: 0.2, lambda1: 2.0, ..Default::default() },
            Constraint::Clip,
            CoverageConfig::default(),
            33,
        );
        let seeds = rng::uniform(&mut rng::rng(34), &[8, 20], 0.2, 0.8);
        let result = g.run(&seeds);
        assert!(result.stats.seeds_tried > 0);
        // Coverage still updates from found differences.
        let _ = result.coverage;
    }

    #[test]
    fn mean_iterations_between_identical_models_is_none() {
        let m = mk_classifier(40);
        let seeds = rng::uniform(&mut rng::rng(41), &[4, 20], 0.2, 0.8);
        let out = mean_iterations_to_difference(
            &m,
            &m.clone(),
            &seeds,
            Hyperparams { max_iters: 15, step: 0.2, ..Default::default() },
            Constraint::Clip,
            42,
        );
        assert!(out.is_none());
    }

    #[test]
    fn multi_neuron_objective_runs() {
        // The §4.2 extension: several uncovered neurons jointly maximized.
        let mut g = Generator::new(
            similar_trio(60),
            TaskKind::Classification,
            Hyperparams { step: 0.2, lambda1: 2.0, neurons_per_model: 4, ..Default::default() },
            Constraint::Clip,
            CoverageConfig::default(),
            61,
        );
        let seeds = rng::uniform(&mut rng::rng(62), &[10, 20], 0.2, 0.8);
        let result = g.run(&seeds);
        assert!(result.stats.seeds_tried == 10);
        for t in &result.tests {
            assert!(differs(&t.predictions, 0.0));
        }
    }

    #[test]
    fn run_batch_is_deterministic() {
        let seeds = rng::uniform(&mut rng::rng(70), &[6, 20], 0.2, 0.8);
        let indices: Vec<usize> = (0..6).collect();
        let step = |mut g: Generator| -> Vec<SeedRun> { g.run_batch_tiled(&indices, &seeds, 4) };
        let r1 = step(default_gen(71));
        let r2 = step(default_gen(71));
        for (a, b) in r1.iter().zip(r2.iter()) {
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.newly_covered, b.newly_covered);
            assert_eq!(a.test.is_some(), b.test.is_some());
            if let (Some(ta), Some(tb)) = (&a.test, &b.test) {
                assert_eq!(ta.input, tb.input);
            }
        }
    }

    #[test]
    fn coverage_sync_round_trips() {
        let mut a = default_gen(76);
        let mut b = default_gen(77);
        let seeds = rng::uniform(&mut rng::rng(78), &[6, 20], 0.2, 0.8);
        a.run_batch_tiled(&[0, 2, 4], &gather_rows(&seeds, &[0, 2, 4]), 4);
        b.run_batch_tiled(&[1, 3, 5], &gather_rows(&seeds, &[1, 3, 5]), 4);
        let mut global: Vec<_> = a.signals().to_vec();
        let new_from_b = b.sync_coverage_into(&mut global);
        assert!(b.signals().iter().map(|t| t.covered_count()).sum::<usize>() >= new_from_b);
        // After adopting, both see at least the union's coverage.
        a.adopt_coverage(&global);
        b.adopt_coverage(&global);
        for (g, (ta, tb)) in global.iter().zip(a.signals().iter().zip(b.signals())) {
            assert_eq!(ta.covered_count(), g.covered_count());
            assert_eq!(tb.covered_count(), g.covered_count());
        }
    }

    #[test]
    fn run_batch_is_invariant_to_tile_width() {
        let seeds = rng::uniform(&mut rng::rng(80), &[9, 20], 0.2, 0.8);
        let indices: Vec<usize> = (0..9).collect();
        let runs_of = |batch: usize| {
            let mut g = default_gen(81);
            let runs = g.run_batch_tiled(&indices, &seeds, batch);
            (runs, g.rng_state(), g.coverage())
        };
        let (r1, s1, c1) = runs_of(1);
        for batch in [3, 8, 9, 16] {
            let (rb, sb, cb) = runs_of(batch);
            assert_eq!(s1, sb, "rng state differs at batch {batch}");
            assert_eq!(c1, cb, "coverage differs at batch {batch}");
            for (i, (a, b)) in r1.iter().zip(rb.iter()).enumerate() {
                assert_eq!(a.preexisting, b.preexisting, "seed {i} batch {batch}");
                assert_eq!(a.iterations, b.iterations, "seed {i} batch {batch}");
                assert_eq!(a.newly_covered, b.newly_covered, "seed {i} batch {batch}");
                assert_eq!(a.newly_by_component, b.newly_by_component, "seed {i} batch {batch}");
                assert_eq!(a.corpus_candidate, b.corpus_candidate, "seed {i} batch {batch}");
                assert_eq!(a.test.is_some(), b.test.is_some(), "seed {i} batch {batch}");
                if let (Some(ta), Some(tb)) = (&a.test, &b.test) {
                    assert_eq!(ta.input, tb.input, "seed {i} batch {batch}");
                    assert_eq!(ta.predictions, tb.predictions, "seed {i} batch {batch}");
                    assert_eq!(ta.target_model, tb.target_model, "seed {i} batch {batch}");
                    assert_eq!(ta.iterations, tb.iterations, "seed {i} batch {batch}");
                }
            }
        }
    }

    #[test]
    fn run_batch_tile_width_invariance_holds_for_multi_neuron_objective() {
        // Wider obj2 injections exercise the shared-seed accumulation path.
        let mk = || {
            Generator::new(
                similar_trio(1),
                TaskKind::Classification,
                Hyperparams {
                    step: 0.2,
                    lambda1: 2.0,
                    max_iters: 60,
                    neurons_per_model: 4,
                    ..Default::default()
                },
                Constraint::Clip,
                CoverageConfig::default(),
                86,
            )
        };
        let seeds = rng::uniform(&mut rng::rng(87), &[6, 20], 0.2, 0.8);
        let indices: Vec<usize> = (0..6).collect();
        let mut g1 = mk();
        let mut g8 = mk();
        let r1 = g1.run_batch_tiled(&indices, &seeds, 1);
        let r8 = g8.run_batch_tiled(&indices, &seeds, 8);
        assert_eq!(g1.rng_state(), g8.rng_state());
        assert_eq!(g1.coverage(), g8.coverage());
        for (a, b) in r1.iter().zip(r8.iter()) {
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.newly_covered, b.newly_covered);
            assert_eq!(
                a.test.as_ref().map(|t| t.input.clone()),
                b.test.as_ref().map(|t| t.input.clone())
            );
        }
    }

    #[test]
    fn run_batch_reports_real_differences() {
        let mut g = default_gen(82);
        let seeds = rng::uniform(&mut rng::rng(83), &[12, 20], 0.2, 0.8);
        let indices: Vec<usize> = (0..12).collect();
        let runs = g.run_batch_tiled(&indices, &seeds, 4);
        let mut found = 0;
        let mut covered = 0;
        for (i, run) in runs.iter().enumerate() {
            covered += run.newly_covered;
            if let Some(t) = &run.test {
                found += 1;
                assert_eq!(t.seed_index, i);
                assert!(differs(&t.predictions, 0.0));
                assert!(t.iterations >= 1);
                assert_eq!(t.iterations, run.iterations);
            }
            if let Some(c) = &run.corpus_candidate {
                assert!(!differs(&g.predict_all(c), 0.0));
            }
        }
        assert!(found > 0, "no differences found via run_batch_tiled");
        // Per-iterate tracking must actually move coverage.
        assert!(covered > 0);
        assert!(g.mean_coverage() > 0.0);
    }

    /// A clean seed (job 7) next to a known difference-inducing input
    /// re-fed as a seed (job 8), grown as one tile.
    fn clean_and_preexisting_rows(g: &mut Generator) -> Vec<SeedRun> {
        let seeds = rng::uniform(&mut rng::rng(85), &[40, 20], 0.2, 0.8);
        let diff = (0..40)
            .find_map(|i| g.generate_from_seed(i, &gather_rows(&seeds, &[i])))
            .expect("needs at least one difference");
        let mut data = gather_rows(&seeds, &[0]).data().to_vec();
        data.extend_from_slice(diff.input.data());
        g.run_batch_tiled(&[7, 8], &Tensor::from_vec(data, &[2, 20]), 2)
    }

    #[test]
    fn run_batch_flags_preexisting_rows() {
        let runs = clean_and_preexisting_rows(&mut default_gen(84));
        assert!(!runs[0].preexisting);
        assert!(runs[1].preexisting);
        assert!(runs[1].test.is_none(), "count_preexisting is off by default");
        assert_eq!(runs[1].iterations, 0);
    }

    #[test]
    fn run_batch_keeps_preexisting_rows_when_counted() {
        let mut g = Generator::new(
            similar_trio(1),
            TaskKind::Classification,
            Hyperparams {
                step: 0.2,
                lambda1: 2.0,
                max_iters: 100,
                count_preexisting: true,
                ..Default::default()
            },
            Constraint::Clip,
            CoverageConfig::default(),
            84,
        );
        let runs = clean_and_preexisting_rows(&mut g);
        assert!(!runs[0].preexisting);
        let run = &runs[1];
        assert!(run.preexisting && !run.found_difference());
        assert_eq!(run.iterations, 0);
        let test = run.test.as_ref().expect("count_preexisting keeps the seed as a test");
        assert_eq!((test.seed_index, test.iterations, test.target_model), (8, 0, 0));
        assert!(differs(&test.predictions, 0.0));
        // The seed's own activations are covered: replaying them is no news.
        for (model, signal) in g.models().iter().zip(g.signals()) {
            assert_eq!(signal.clone().update(&model.forward(&test.input)), 0);
        }
    }

    #[test]
    fn run_batch_of_nothing_is_empty() {
        let mut g = default_gen(88);
        assert!(g.run_batch_tiled(&[], &Tensor::zeros(&[0, 20]), 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two models")]
    fn single_model_rejected() {
        Generator::new(
            vec![mk_classifier(50)],
            TaskKind::Classification,
            Hyperparams::default(),
            Constraint::Clip,
            CoverageConfig::default(),
            51,
        );
    }
}
