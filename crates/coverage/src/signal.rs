//! The metric-generic coverage signal campaigns steer by.
//!
//! DeepXplore's generator, the campaign engine and the distributed
//! coordinator all need the same operations from a coverage metric:
//! fold a forward pass in, report progress, union state across workers,
//! ship sparse deltas over the wire, and pick a target for the obj2
//! gradient term. [`CoverageSignal`] is that interface over the metrics
//! this workspace implements — the paper's binary neuron coverage
//! ([`CoverageTracker`]), DeepGauge's k-multisection refinement
//! ([`MultisectionTracker`]) and its boundary/corner complement
//! ([`BoundaryTracker`]) — so every engine layer is written once against
//! the signal, not a concrete tracker type.
//!
//! Metrics also **compose**: a [`MetricSpec`] like `multisection:4+boundary`
//! builds one [`CoverageSignal::Composite`] per model whose flat unit
//! space is the concatenation of its components' spaces (component-major),
//! so the same sparse-index deltas, bitmap checkpoints and union merges
//! flow through unchanged while the campaign steers by the union of
//! several signals at once.
//!
//! [`SignalSpec`] is the serializable-ish recipe (metric spec, coverage
//! config, and — for profile-based metrics — the per-model training-set
//! profiles) from which per-model signals are built.

use dx_nn::network::{ForwardPass, Network};
use dx_tensor::rng::Rng;

use crate::boundary::BoundaryTracker;
use crate::multisection::{MultisectionTracker, NeuronProfile};
use crate::neuron::{Granularity, NeuronId};
use crate::tracker::{CoverageConfig, CoverageTracker};

/// One atomic coverage metric a campaign can steer by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MetricKind {
    /// The paper's binary neuron coverage (§4.1): a neuron is covered once
    /// its output exceeds the threshold anywhere.
    #[default]
    Neuron,
    /// DeepGauge k-multisection coverage: each neuron's profiled output
    /// range is split into `k` sections, and units are neuron-sections.
    Multisection {
        /// Sections per neuron.
        k: usize,
    },
    /// DeepGauge boundary/corner coverage: two units per profiled neuron —
    /// activation below the profiled `low`, and above the profiled `high`.
    /// Exactly the region the multisection metric skips.
    Boundary,
}

impl MetricKind {
    /// The default section count for `multisection` given without `:k`.
    pub const DEFAULT_K: usize = 4;

    /// Whether this metric needs training-set neuron profiles.
    pub fn needs_profile(self) -> bool {
        self != MetricKind::Neuron
    }
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricKind::Neuron => write!(f, "neuron"),
            MetricKind::Multisection { k } => write!(f, "multisection:{k}"),
            MetricKind::Boundary => write!(f, "boundary"),
        }
    }
}

impl std::str::FromStr for MetricKind {
    type Err = String;

    /// Parses `neuron`, `multisection`, `multisection:<k>`, or `boundary`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "neuron" => Ok(MetricKind::Neuron),
            "multisection" => Ok(MetricKind::Multisection { k: Self::DEFAULT_K }),
            "boundary" => Ok(MetricKind::Boundary),
            other => match other.strip_prefix("multisection:") {
                Some(k) => match k.parse::<usize>() {
                    Ok(k) if k > 0 => Ok(MetricKind::Multisection { k }),
                    _ => Err(format!("multisection needs a positive k, got `{k}`")),
                },
                None => Err(format!("unknown metric `{other}` (neuron|multisection[:k]|boundary)")),
            },
        }
    }
}

/// A coverage metric specification: one or more [`MetricKind`] components
/// joined with `+`, e.g. `neuron`, `multisection:8+boundary`. A
/// single-component spec behaves exactly like the bare metric; a
/// multi-component spec builds [`CoverageSignal::Composite`] signals that
/// steer by the union of their components.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSpec {
    /// The component metrics, in declaration order (which fixes the
    /// composite unit-space layout — order is part of the spec identity).
    pub components: Vec<MetricKind>,
}

impl MetricSpec {
    /// A single-metric spec.
    pub fn single(kind: MetricKind) -> Self {
        Self { components: vec![kind] }
    }

    /// Whether any component needs training-set neuron profiles.
    pub fn needs_profiles(&self) -> bool {
        self.components.iter().any(|m| m.needs_profile())
    }

    /// Number of component metrics.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the spec has no components (never true for a parsed or
    /// constructed spec; exists for the `len`/`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

impl Default for MetricSpec {
    fn default() -> Self {
        Self::single(MetricKind::default())
    }
}

impl From<MetricKind> for MetricSpec {
    fn from(kind: MetricKind) -> Self {
        Self::single(kind)
    }
}

impl std::fmt::Display for MetricSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, m) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, "+")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for MetricSpec {
    type Err = String;

    /// Parses a `+`-joined list of metrics: `neuron`, `boundary`,
    /// `multisection:8+boundary`, `neuron+multisection+boundary`, …
    /// Rejects empty components (`+boundary`, `neuron++boundary`) and
    /// exact duplicates (`boundary+boundary` would double-count units).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err("empty metric spec".into());
        }
        let mut components = Vec::new();
        for part in s.split('+') {
            if part.is_empty() {
                return Err(format!(
                    "empty metric component in `{s}` (stray `+`?); \
                     expected metric[+metric...], metric = neuron|multisection[:k]|boundary"
                ));
            }
            let kind: MetricKind = part.parse()?;
            if components.contains(&kind) {
                return Err(format!("duplicate metric component `{kind}` in `{s}`"));
            }
            components.push(kind);
        }
        Ok(Self { components })
    }
}

/// The recipe a campaign builds its per-model coverage signals from.
#[derive(Clone, Debug)]
pub struct SignalSpec {
    /// Threshold/scaling/granularity knobs. The threshold and per-layer
    /// scaling apply to the neuron metric; granularity applies to all.
    pub config: CoverageConfig,
    /// Which metric(s) to steer by.
    pub metric: MetricSpec,
    /// Per-model training-set profiles, one per model in suite order,
    /// shared by every profile-based component (multisection sections and
    /// boundary corners are cut from the same ranges). Required (and
    /// primed) when [`MetricSpec::needs_profiles`]; empty otherwise.
    pub profiles: Vec<NeuronProfile>,
}

impl SignalSpec {
    /// The paper's neuron-coverage signal under `config`.
    pub fn neuron(config: CoverageConfig) -> Self {
        Self { config, metric: MetricKind::Neuron.into(), profiles: Vec::new() }
    }

    /// A k-multisection signal over primed per-model profiles.
    pub fn multisection(config: CoverageConfig, k: usize, profiles: Vec<NeuronProfile>) -> Self {
        Self { config, metric: MetricKind::Multisection { k }.into(), profiles }
    }

    /// A boundary/corner signal over primed per-model profiles.
    pub fn boundary(config: CoverageConfig, profiles: Vec<NeuronProfile>) -> Self {
        Self { config, metric: MetricKind::Boundary.into(), profiles }
    }

    /// A signal for any metric spec, composite or not, over (possibly
    /// still unprimed) per-model profiles.
    pub fn of(config: CoverageConfig, metric: MetricSpec, profiles: Vec<NeuronProfile>) -> Self {
        Self { config, metric, profiles }
    }

    /// Builds one component signal for one model.
    fn build_component(&self, kind: MetricKind, model: &Network, index: usize) -> CoverageSignal {
        match kind {
            MetricKind::Neuron => {
                CoverageSignal::Neuron(CoverageTracker::for_network(model, self.config))
            }
            MetricKind::Multisection { k } => CoverageSignal::Multisection(
                MultisectionTracker::new(self.profiles[index].clone(), k),
            ),
            MetricKind::Boundary => {
                CoverageSignal::Boundary(BoundaryTracker::new(self.profiles[index].clone()))
            }
        }
    }

    /// Builds one signal per model.
    ///
    /// # Panics
    ///
    /// For profile-based metrics: when the profile count does not match
    /// the model count, or a profile is unprimed. For an empty spec.
    pub fn build(&self, models: &[Network]) -> Vec<CoverageSignal> {
        assert!(!self.metric.is_empty(), "metric spec needs at least one component");
        if self.metric.needs_profiles() {
            assert_eq!(
                self.profiles.len(),
                models.len(),
                "profile-based metrics need one primed profile per model"
            );
        }
        models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut components: Vec<CoverageSignal> = self
                    .metric
                    .components
                    .iter()
                    .map(|&kind| self.build_component(kind, m, i))
                    .collect();
                if components.len() == 1 {
                    components.remove(0)
                } else {
                    CoverageSignal::Composite(components)
                }
            })
            .collect()
    }

    /// Primes per-model profiles from training inputs (rows of `train_x`)
    /// and returns the spec with them attached. A no-op for specs without
    /// profile-based components. Every process of a distributed fleet
    /// primes from the same rows, so profiles agree bit-for-bit.
    pub fn primed(mut self, models: &[Network], train_x: &dx_tensor::Tensor, rows: usize) -> Self {
        if !self.metric.needs_profiles() {
            return self;
        }
        let n = rows.min(train_x.shape()[0]);
        self.profiles = models
            .iter()
            .map(|m| {
                let mut p = NeuronProfile::new(m, self.config.granularity);
                for i in 0..n {
                    p.observe(&m.forward(&dx_nn::util::gather_rows(train_x, &[i])));
                }
                p
            })
            .collect();
        self
    }
}

/// One model's coverage state under a campaign's chosen metric spec.
///
/// Every method panics on mixed-metric operations (merging a neuron
/// signal into a multisection one), exactly as the underlying trackers
/// panic on incompatible shapes — metric agreement is established once at
/// admission/construction time, not re-negotiated per call.
///
/// A [`CoverageSignal::Composite`] concatenates its components' flat unit
/// spaces in component order: component `c`'s unit `u` lives at flat
/// offset `Σ_{c' < c} total(c') + u`. Sparse deltas, masks and covered
/// indices all use this combined space, so wire and checkpoint handling
/// is identical for simple and composite signals.
#[derive(Clone, Debug)]
pub enum CoverageSignal {
    /// Binary neuron coverage.
    Neuron(CoverageTracker),
    /// k-multisection coverage.
    Multisection(MultisectionTracker),
    /// Boundary/corner coverage.
    Boundary(BoundaryTracker),
    /// The union of several component signals (never nested; built by
    /// [`SignalSpec::build`] for multi-component specs).
    Composite(Vec<CoverageSignal>),
}

impl CoverageSignal {
    /// The metric spec this signal implements.
    pub fn metric(&self) -> MetricSpec {
        match self {
            CoverageSignal::Composite(cs) => {
                MetricSpec { components: cs.iter().map(CoverageSignal::component_kind).collect() }
            }
            other => MetricSpec::single(other.component_kind()),
        }
    }

    /// The atomic metric of a non-composite signal.
    ///
    /// # Panics
    ///
    /// Panics on a composite (components are never nested).
    fn component_kind(&self) -> MetricKind {
        match self {
            CoverageSignal::Neuron(_) => MetricKind::Neuron,
            CoverageSignal::Multisection(t) => MetricKind::Multisection { k: t.k() },
            CoverageSignal::Boundary(_) => MetricKind::Boundary,
            CoverageSignal::Composite(_) => unreachable!("composite signals are never nested"),
        }
    }

    /// The component signals: the signal itself for simple metrics, the
    /// component list for composites.
    pub fn components(&self) -> &[CoverageSignal] {
        match self {
            CoverageSignal::Composite(cs) => cs,
            other => std::slice::from_ref(other),
        }
    }

    /// Number of component metrics (1 for simple signals).
    pub fn n_components(&self) -> usize {
        self.components().len()
    }

    /// The neuron granularity the signal tracks at.
    pub fn granularity(&self) -> Granularity {
        match self {
            CoverageSignal::Neuron(t) => t.config().granularity,
            CoverageSignal::Multisection(t) => t.profile().granularity(),
            CoverageSignal::Boundary(t) => t.profile().granularity(),
            CoverageSignal::Composite(cs) => cs[0].granularity(),
        }
    }

    /// Total tracked units — the flat index bound for
    /// [`CoverageSignal::apply_covered_indices`]. For composites, the sum
    /// of the components' totals.
    pub fn total(&self) -> usize {
        match self {
            CoverageSignal::Neuron(t) => t.total(),
            CoverageSignal::Multisection(t) => t.total(),
            CoverageSignal::Boundary(t) => t.total(),
            CoverageSignal::Composite(cs) => cs.iter().map(CoverageSignal::total).sum(),
        }
    }

    /// Units that can actually be covered — the coverage denominator
    /// (equals [`CoverageSignal::total`] for the neuron metric; excludes
    /// constant/unprofiled neurons' units for profile-based metrics).
    pub fn coverable_total(&self) -> usize {
        match self {
            CoverageSignal::Neuron(t) => t.total(),
            CoverageSignal::Multisection(t) => t.coverable_units(),
            CoverageSignal::Boundary(t) => t.coverable_units(),
            CoverageSignal::Composite(cs) => cs.iter().map(CoverageSignal::coverable_total).sum(),
        }
    }

    /// Units covered so far.
    pub fn covered_count(&self) -> usize {
        match self {
            CoverageSignal::Neuron(t) => t.covered_count(),
            CoverageSignal::Multisection(t) => t.covered_count(),
            CoverageSignal::Boundary(t) => t.covered_count(),
            CoverageSignal::Composite(cs) => cs.iter().map(CoverageSignal::covered_count).sum(),
        }
    }

    /// Coverage in `[0, 1]` (fraction of coverable units; for composites,
    /// pooled over all components' coverable units).
    pub fn coverage(&self) -> f32 {
        match self {
            CoverageSignal::Neuron(t) => t.coverage(),
            CoverageSignal::Multisection(t) => t.coverage(),
            CoverageSignal::Boundary(t) => t.coverage(),
            CoverageSignal::Composite(_) => {
                let coverable = self.coverable_total();
                if coverable == 0 {
                    0.0
                } else {
                    self.covered_count() as f32 / coverable as f32
                }
            }
        }
    }

    /// Per-component coverage, in component order (one entry for simple
    /// signals).
    pub fn coverage_by_component(&self) -> Vec<f32> {
        self.components().iter().map(CoverageSignal::coverage).collect()
    }

    /// Whether every coverable unit is covered.
    pub fn is_full(&self) -> bool {
        match self {
            CoverageSignal::Neuron(t) => t.is_full(),
            CoverageSignal::Multisection(t) => t.is_full(),
            CoverageSignal::Boundary(t) => t.is_full(),
            CoverageSignal::Composite(cs) => cs.iter().all(CoverageSignal::is_full),
        }
    }

    /// Folds one (batch-size-1) pass in; returns newly covered units.
    pub fn update(&mut self, pass: &ForwardPass) -> usize {
        match self {
            CoverageSignal::Neuron(t) => t.update(pass),
            CoverageSignal::Multisection(t) => t.update(pass),
            CoverageSignal::Boundary(t) => t.update(pass),
            CoverageSignal::Composite(cs) => cs.iter_mut().map(|c| c.update(pass)).sum(),
        }
    }

    /// [`CoverageSignal::update`], additionally accumulating each
    /// component's newly covered units into `per_component` (length
    /// [`CoverageSignal::n_components`]) — allocation-free, for the
    /// campaign's hot per-iterate loop.
    ///
    /// # Panics
    ///
    /// Panics when `per_component` has the wrong length.
    pub fn update_accum(&mut self, pass: &ForwardPass, per_component: &mut [usize]) -> usize {
        assert_eq!(per_component.len(), self.n_components(), "one counter per component");
        match self {
            CoverageSignal::Composite(cs) => {
                let mut total = 0;
                for (c, acc) in cs.iter_mut().zip(per_component) {
                    let n = c.update(pass);
                    *acc += n;
                    total += n;
                }
                total
            }
            simple => {
                let n = simple.update(pass);
                per_component[0] += n;
                n
            }
        }
    }

    /// Whether `other` tracks the same units under the same metric spec —
    /// the precondition for [`CoverageSignal::merge`].
    pub fn compatible(&self, other: &CoverageSignal) -> bool {
        match (self, other) {
            (CoverageSignal::Neuron(a), CoverageSignal::Neuron(b)) => a.compatible(b),
            (CoverageSignal::Multisection(a), CoverageSignal::Multisection(b)) => a.compatible(b),
            (CoverageSignal::Boundary(a), CoverageSignal::Boundary(b)) => a.compatible(b),
            (CoverageSignal::Composite(a), CoverageSignal::Composite(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.compatible(y))
            }
            _ => false,
        }
    }

    /// Unions another signal's covered set into this one; returns newly
    /// covered units. Commutative, idempotent and monotone.
    ///
    /// # Panics
    ///
    /// Panics when the signals are not [`CoverageSignal::compatible`]
    /// (different metrics, networks, or profiles).
    pub fn merge(&mut self, other: &CoverageSignal) -> usize {
        match (self, other) {
            (CoverageSignal::Neuron(a), CoverageSignal::Neuron(b)) => a.merge(b),
            (CoverageSignal::Multisection(a), CoverageSignal::Multisection(b)) => a.merge(b),
            (CoverageSignal::Boundary(a), CoverageSignal::Boundary(b)) => a.merge(b),
            (CoverageSignal::Composite(a), CoverageSignal::Composite(b)) if a.len() == b.len() => {
                a.iter_mut().zip(b).map(|(x, y)| x.merge(y)).sum()
            }
            _ => panic!("cannot merge coverage signals of different metrics"),
        }
    }

    /// The covered mask, one flag per unit, in the combined flat space —
    /// for checkpointing. Owned because a composite's mask is the
    /// concatenation of its components'.
    pub fn covered_mask(&self) -> Vec<bool> {
        match self {
            CoverageSignal::Neuron(t) => t.covered_mask().to_vec(),
            CoverageSignal::Multisection(t) => t.covered_mask().to_vec(),
            CoverageSignal::Boundary(t) => t.covered_mask().to_vec(),
            CoverageSignal::Composite(cs) => {
                cs.iter().flat_map(CoverageSignal::covered_mask).collect()
            }
        }
    }

    /// Replaces the covered set with a previously exported mask.
    ///
    /// # Panics
    ///
    /// Panics when `mask` has the wrong length.
    pub fn set_covered_mask(&mut self, mask: &[bool]) {
        match self {
            CoverageSignal::Neuron(t) => t.set_covered_mask(mask),
            CoverageSignal::Multisection(t) => t.set_covered_mask(mask),
            CoverageSignal::Boundary(t) => t.set_covered_mask(mask),
            CoverageSignal::Composite(cs) => {
                assert_eq!(
                    mask.len(),
                    cs.iter().map(CoverageSignal::total).sum::<usize>(),
                    "composite coverage mask length mismatch"
                );
                let mut offset = 0;
                for c in cs {
                    let n = c.total();
                    c.set_covered_mask(&mask[offset..offset + n]);
                    offset += n;
                }
            }
        }
    }

    /// Flat offsets of all covered units, ascending (component-offset for
    /// composites).
    pub fn covered_indices(&self) -> Vec<usize> {
        match self {
            CoverageSignal::Neuron(t) => t.covered_indices(),
            CoverageSignal::Multisection(t) => t.covered_indices(),
            CoverageSignal::Boundary(t) => t.covered_indices(),
            CoverageSignal::Composite(cs) => {
                let mut out = Vec::new();
                let mut offset = 0;
                for c in cs {
                    out.extend(c.covered_indices().into_iter().map(|i| i + offset));
                    offset += c.total();
                }
                out
            }
        }
    }

    /// Offsets covered here but not in `base` — the sparse per-metric
    /// delta the distributed campaign ships over the wire. Composite
    /// deltas are component-prefixed: each component's indices are shifted
    /// by the preceding components' totals, so one flat index list carries
    /// every component's news.
    ///
    /// # Panics
    ///
    /// Panics when the signals are not [`CoverageSignal::compatible`].
    pub fn diff_indices(&self, base: &CoverageSignal) -> Vec<usize> {
        match (self, base) {
            (CoverageSignal::Neuron(a), CoverageSignal::Neuron(b)) => a.diff_indices(b),
            (CoverageSignal::Multisection(a), CoverageSignal::Multisection(b)) => a.diff_indices(b),
            (CoverageSignal::Boundary(a), CoverageSignal::Boundary(b)) => a.diff_indices(b),
            (CoverageSignal::Composite(a), CoverageSignal::Composite(b)) if a.len() == b.len() => {
                let mut out = Vec::new();
                let mut offset = 0;
                for (x, y) in a.iter().zip(b) {
                    out.extend(x.diff_indices(y).into_iter().map(|i| i + offset));
                    offset += x.total();
                }
                out
            }
            _ => panic!("cannot diff coverage signals of different metrics"),
        }
    }

    /// Marks the given offsets covered; returns newly covered units. The
    /// inverse of [`CoverageSignal::diff_indices`].
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range offset; wire handlers must validate
    /// indices against [`CoverageSignal::total`] before applying.
    pub fn apply_covered_indices(&mut self, indices: &[usize]) -> usize {
        match self {
            CoverageSignal::Neuron(t) => t.apply_covered_indices(indices),
            CoverageSignal::Multisection(t) => t.apply_covered_indices(indices),
            CoverageSignal::Boundary(t) => t.apply_covered_indices(indices),
            CoverageSignal::Composite(cs) => {
                // Route each flat offset to its component. Deltas are
                // usually short; per-index routing beats materializing
                // per-component sublists.
                let bounds: Vec<usize> = cs
                    .iter()
                    .scan(0usize, |acc, c| {
                        *acc += c.total();
                        Some(*acc)
                    })
                    .collect();
                let total = *bounds.last().expect("composite has components");
                let mut newly = 0;
                for &i in indices {
                    assert!(i < total, "covered index {i} out of range {total}");
                    let comp = bounds.partition_point(|&b| b <= i);
                    let start = if comp == 0 { 0 } else { bounds[comp - 1] };
                    newly += cs[comp].apply_covered_indices(&[i - start]);
                }
                newly
            }
        }
    }

    /// Replaces this signal's covered set with `other`'s.
    ///
    /// # Panics
    ///
    /// Panics when the signals are not [`CoverageSignal::compatible`].
    pub fn copy_covered_from(&mut self, other: &CoverageSignal) {
        match (self, other) {
            (CoverageSignal::Neuron(a), CoverageSignal::Neuron(b)) => a.copy_covered_from(b),
            (CoverageSignal::Multisection(a), CoverageSignal::Multisection(b)) => {
                a.copy_covered_from(b)
            }
            (CoverageSignal::Boundary(a), CoverageSignal::Boundary(b)) => a.copy_covered_from(b),
            (CoverageSignal::Composite(a), CoverageSignal::Composite(b)) if a.len() == b.len() => {
                for (x, y) in a.iter_mut().zip(b) {
                    x.copy_covered_from(y);
                }
            }
            _ => panic!("cannot copy coverage between signals of different metrics"),
        }
    }

    /// Resets the covered set.
    pub fn reset(&mut self) {
        match self {
            CoverageSignal::Neuron(t) => t.reset(),
            CoverageSignal::Multisection(t) => t.reset(),
            CoverageSignal::Boundary(t) => t.reset(),
            CoverageSignal::Composite(cs) => cs.iter_mut().for_each(CoverageSignal::reset),
        }
    }

    /// Whether the obj2 term can still make progress on `id` under this
    /// signal: uncovered (neuron metric), unhit sections (multisection),
    /// or an unhit corner (boundary). Composites want a neuron when any
    /// component does.
    pub fn wants(&self, id: NeuronId) -> bool {
        match self {
            CoverageSignal::Neuron(t) => t.is_uncovered(id),
            CoverageSignal::Multisection(t) => t.neuron_incomplete(id),
            CoverageSignal::Boundary(t) => t.neuron_incomplete(id),
            CoverageSignal::Composite(cs) => cs.iter().any(|c| c.wants(id)),
        }
    }

    /// Picks up to `k` distinct obj2 target neurons: uncovered neurons
    /// under the neuron metric, neurons with unhit range sections under
    /// multisection, neurons with unhit corners under boundary. A
    /// composite interleaves its components' picks (first pick of each
    /// component, then second picks, …) and dedups, so no component
    /// starves while another still has work.
    pub fn pick_uncovered_k(&self, r: &mut Rng, k: usize) -> Vec<NeuronId> {
        match self {
            CoverageSignal::Neuron(t) => t.pick_uncovered_k(r, k),
            CoverageSignal::Multisection(t) => t.pick_incomplete_k(r, k),
            CoverageSignal::Boundary(t) => t.pick_incomplete_k(r, k),
            CoverageSignal::Composite(cs) => {
                let per: Vec<Vec<NeuronId>> = cs.iter().map(|c| c.pick_uncovered_k(r, k)).collect();
                let mut out = Vec::with_capacity(k);
                let deepest = per.iter().map(Vec::len).max().unwrap_or(0);
                'fill: for i in 0..deepest {
                    for picks in &per {
                        if let Some(&id) = picks.get(i) {
                            if !out.contains(&id) {
                                out.push(id);
                                if out.len() == k {
                                    break 'fill;
                                }
                            }
                        }
                    }
                }
                out
            }
        }
    }

    /// Picks the obj2 target nearest to progress in `pass` (highest
    /// current value among still-improvable neurons). A composite asks its
    /// components in declaration order and takes the first answer, so
    /// earlier components saturate before later ones start steering.
    pub fn pick_uncovered_nearest(&self, pass: &ForwardPass) -> Option<NeuronId> {
        match self {
            CoverageSignal::Neuron(t) => t.pick_uncovered_nearest(pass),
            CoverageSignal::Multisection(t) => t.pick_incomplete_nearest(pass),
            CoverageSignal::Boundary(t) => t.pick_incomplete_nearest(pass),
            CoverageSignal::Composite(cs) => cs.iter().find_map(|c| c.pick_uncovered_nearest(pass)),
        }
    }

    /// Which way the obj2 gradient term should push `id`'s activation:
    /// always up (`1.0`) under the neuron metric; toward the nearest
    /// unhit range section under multisection; past the nearest unhit
    /// range edge under boundary. A composite delegates to its first
    /// component that still [`CoverageSignal::wants`] the neuron (matching
    /// how composite picks interleave), falling back to `1.0`.
    pub fn target_direction(&self, id: NeuronId, pass: &ForwardPass) -> f32 {
        match self {
            CoverageSignal::Neuron(_) => 1.0,
            CoverageSignal::Multisection(t) => t.target_direction(id, pass),
            CoverageSignal::Boundary(t) => t.target_direction(id, pass),
            CoverageSignal::Composite(cs) => {
                cs.iter().find(|c| c.wants(id)).map(|c| c.target_direction(id, pass)).unwrap_or(1.0)
            }
        }
    }

    /// The shared neuron profile of a profile-based signal (`None` for the
    /// pure neuron metric). All profile-based components of one model's
    /// composite are cut from the same profile, so the first is canonical.
    pub fn profile(&self) -> Option<&NeuronProfile> {
        match self {
            CoverageSignal::Neuron(_) => None,
            CoverageSignal::Multisection(t) => Some(t.profile()),
            CoverageSignal::Boundary(t) => Some(t.profile()),
            CoverageSignal::Composite(cs) => cs.iter().find_map(CoverageSignal::profile),
        }
    }

    /// The underlying neuron tracker, when this is the neuron metric.
    pub fn as_neuron(&self) -> Option<&CoverageTracker> {
        match self {
            CoverageSignal::Neuron(t) => Some(t),
            _ => None,
        }
    }

    /// The underlying multisection tracker, when this is that metric.
    pub fn as_multisection(&self) -> Option<&MultisectionTracker> {
        match self {
            CoverageSignal::Multisection(t) => Some(t),
            _ => None,
        }
    }

    /// The underlying boundary tracker, when this is that metric.
    pub fn as_boundary(&self) -> Option<&BoundaryTracker> {
        match self {
            CoverageSignal::Boundary(t) => Some(t),
            _ => None,
        }
    }
}

/// Mean coverage across a set of per-model signals (0 for an empty set).
pub fn mean_coverage(signals: &[CoverageSignal]) -> f32 {
    if signals.is_empty() {
        return 0.0;
    }
    signals.iter().map(CoverageSignal::coverage).sum::<f32>() / signals.len() as f32
}

/// Mean coverage per component across a set of per-model signals (the
/// campaign's per-component progress view, used for report columns and
/// per-component rarity energy). All signals must share a metric spec.
pub fn mean_component_coverage(signals: &[CoverageSignal]) -> Vec<f32> {
    let Some(first) = signals.first() else { return Vec::new() };
    let mut sums = vec![0.0f32; first.n_components()];
    for s in signals {
        for (acc, c) in sums.iter_mut().zip(s.coverage_by_component()) {
            *acc += c;
        }
    }
    for acc in &mut sums {
        *acc /= signals.len() as f32;
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_nn::layer::Layer;
    use dx_tensor::rng;

    fn net(seed: u64) -> Network {
        let mut n = Network::new(
            &[6],
            vec![Layer::dense(6, 8), Layer::tanh(), Layer::dense(8, 3), Layer::softmax()],
        );
        n.init_weights(&mut rng::rng(seed));
        n
    }

    fn ms_spec(k: usize) -> MetricSpec {
        MetricKind::Multisection { k }.into()
    }

    #[test]
    fn metric_kind_parses_and_displays() {
        assert_eq!("neuron".parse::<MetricKind>().unwrap(), MetricKind::Neuron);
        assert_eq!("boundary".parse::<MetricKind>().unwrap(), MetricKind::Boundary);
        assert_eq!(
            "multisection".parse::<MetricKind>().unwrap(),
            MetricKind::Multisection { k: MetricKind::DEFAULT_K }
        );
        assert_eq!(
            "multisection:7".parse::<MetricKind>().unwrap(),
            MetricKind::Multisection { k: 7 }
        );
        assert!("multisection:0".parse::<MetricKind>().is_err());
        assert!("multisection:x".parse::<MetricKind>().is_err());
        assert!("sections".parse::<MetricKind>().is_err());
        for m in [MetricKind::Neuron, MetricKind::Multisection { k: 12 }, MetricKind::Boundary] {
            assert_eq!(m.to_string().parse::<MetricKind>().unwrap(), m);
        }
    }

    #[test]
    fn metric_spec_parses_composites_and_round_trips() {
        let spec: MetricSpec = "multisection:8+boundary".parse().unwrap();
        assert_eq!(spec.components, vec![MetricKind::Multisection { k: 8 }, MetricKind::Boundary]);
        assert!(spec.needs_profiles());
        assert!(!MetricSpec::single(MetricKind::Neuron).needs_profiles());
        // Display ↔ FromStr round-trips for every composite form.
        for s in [
            "neuron",
            "boundary",
            "multisection:4",
            "neuron+boundary",
            "multisection:8+boundary",
            "boundary+multisection:2",
            "neuron+multisection:4+boundary",
        ] {
            let spec: MetricSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
            assert_eq!(spec.to_string().parse::<MetricSpec>().unwrap(), spec);
        }
        // Order is identity: a+b is not b+a.
        assert_ne!(
            "neuron+boundary".parse::<MetricSpec>().unwrap(),
            "boundary+neuron".parse::<MetricSpec>().unwrap()
        );
    }

    #[test]
    fn metric_spec_rejects_malformed_composites_with_clear_errors() {
        for (input, needle) in [
            ("", "empty metric spec"),
            ("+boundary", "empty metric component"),
            ("neuron+", "empty metric component"),
            ("neuron++boundary", "empty metric component"),
            ("neuron+warp", "unknown metric"),
            ("multisection:0+boundary", "positive k"),
            ("boundary+boundary", "duplicate metric component"),
            ("neuron+multisection:4+neuron", "duplicate metric component"),
        ] {
            let err = input.parse::<MetricSpec>().unwrap_err();
            assert!(err.contains(needle), "`{input}` → `{err}` (wanted `{needle}`)");
        }
        // Distinct k values are distinct components, not duplicates.
        assert!("multisection:2+multisection:4".parse::<MetricSpec>().is_ok());
    }

    #[test]
    fn spec_builds_one_signal_per_model() {
        let models = vec![net(1), net(2)];
        let train = rng::uniform(&mut rng::rng(3), &[20, 6], 0.0, 1.0);
        let neuron = SignalSpec::neuron(CoverageConfig::scaled(0.25)).build(&models);
        assert_eq!(neuron.len(), 2);
        assert_eq!(neuron[0].metric(), MetricSpec::single(MetricKind::Neuron));

        let spec = SignalSpec::of(CoverageConfig::default(), ms_spec(4), Vec::new())
            .primed(&models, &train, 10);
        let ms = spec.build(&models);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].metric(), ms_spec(4));
        assert!(ms[0].total() > 0);

        let boundary =
            SignalSpec::of(CoverageConfig::default(), MetricKind::Boundary.into(), Vec::new())
                .primed(&models, &train, 10)
                .build(&models);
        assert_eq!(boundary[0].metric(), MetricSpec::single(MetricKind::Boundary));
        assert!(boundary[0].total() > 0);

        let composite = SignalSpec::of(
            CoverageConfig::scaled(0.25),
            "neuron+multisection:3+boundary".parse().unwrap(),
            Vec::new(),
        )
        .primed(&models, &train, 10)
        .build(&models);
        assert_eq!(composite[0].n_components(), 3);
        let comp_totals: usize = composite[0].components().iter().map(CoverageSignal::total).sum();
        assert_eq!(composite[0].total(), comp_totals);
        // Boundary tracks 2 units per neuron over the same profile the
        // multisection component sections.
        let ms_t = composite[0].components()[1].as_multisection().unwrap();
        let b_t = composite[0].components()[2].as_boundary().unwrap();
        assert_eq!(b_t.total(), ms_t.profile().total() * 2);
    }

    #[test]
    fn signal_ops_work_for_every_metric() {
        let m = net(4);
        let train = rng::uniform(&mut rng::rng(5), &[20, 6], 0.0, 1.0);
        let specs = [
            SignalSpec::neuron(CoverageConfig::scaled(0.25)),
            SignalSpec::of(CoverageConfig::default(), ms_spec(3), Vec::new()).primed(
                std::slice::from_ref(&m),
                &train,
                15,
            ),
            SignalSpec::of(CoverageConfig::default(), MetricKind::Boundary.into(), Vec::new())
                .primed(std::slice::from_ref(&m), &train, 15),
            SignalSpec::of(
                CoverageConfig::scaled(0.25),
                "multisection:3+boundary".parse().unwrap(),
                Vec::new(),
            )
            .primed(std::slice::from_ref(&m), &train, 15),
        ];
        for spec in specs {
            let mut a = spec.build(std::slice::from_ref(&m)).remove(0);
            let mut b = a.clone();
            let mut r = rng::rng(6);
            a.update(&m.forward(&rng::uniform(&mut r, &[1, 6], -1.0, 0.5)));
            b.update(&m.forward(&rng::uniform(&mut r, &[1, 6], 0.5, 2.0)));
            assert!(a.compatible(&b));
            // Sparse-delta sync converges to the same union as merge.
            let mut merged = a.clone();
            merged.merge(&b);
            let mut synced = a.clone();
            let delta = b.diff_indices(&a);
            assert!(delta.iter().all(|&i| i < b.total()));
            synced.apply_covered_indices(&delta);
            assert_eq!(synced.covered_mask(), merged.covered_mask());
            assert_eq!(synced.coverage(), merged.coverage());
            // Mask round trip.
            let mut fresh = spec.build(std::slice::from_ref(&m)).remove(0);
            fresh.set_covered_mask(&merged.covered_mask());
            assert_eq!(fresh.covered_count(), merged.covered_count());
            // Covered indices live in the combined flat space.
            let idx = merged.covered_indices();
            assert_eq!(idx.len(), merged.covered_count());
            assert!(idx.iter().all(|&i| i < merged.total()));
            // Per-component accounting is consistent with the totals.
            let per = merged.coverage_by_component();
            assert_eq!(per.len(), merged.n_components());
            // Picks stay within the tracked space.
            let picks = merged.pick_uncovered_k(&mut r, 3);
            assert!(picks.len() <= 3);
            let probe = m.forward(&rng::uniform(&mut r, &[1, 6], 0.0, 1.0));
            for p in &picks {
                assert!(merged.wants(*p));
                let d = merged.target_direction(*p, &probe);
                assert!(d == 1.0 || d == -1.0);
            }
            merged.reset();
            assert_eq!(merged.covered_count(), 0);
        }
    }

    #[test]
    fn composite_update_accum_tracks_components() {
        let m = net(7);
        let train = rng::uniform(&mut rng::rng(8), &[20, 6], 0.2, 0.8);
        let spec = SignalSpec::of(
            CoverageConfig::scaled(0.25),
            "neuron+boundary".parse().unwrap(),
            Vec::new(),
        )
        .primed(std::slice::from_ref(&m), &train, 15);
        let mut s = spec.build(std::slice::from_ref(&m)).remove(0);
        let mut per = vec![0usize; s.n_components()];
        // An in-distribution input covers neurons but no corners...
        let inside = m.forward(&rng::uniform(&mut rng::rng(9), &[1, 6], 0.2, 0.8));
        let total = s.update_accum(&inside, &mut per);
        assert_eq!(total, per.iter().sum::<usize>());
        assert_eq!(per[1], 0, "in-distribution input must not hit corners");
        // ...and a wild one reaches the boundary component.
        let outside = m.forward(&rng::uniform(&mut rng::rng(10), &[1, 6], -6.0, 6.0));
        let before = per.clone();
        s.update_accum(&outside, &mut per);
        assert!(per[1] > before[1], "out-of-range input must hit corners");
        // The composite's covered units equal the component sum.
        assert_eq!(
            s.covered_count(),
            s.components().iter().map(CoverageSignal::covered_count).sum::<usize>()
        );
    }

    #[test]
    fn composite_covers_strictly_more_than_its_multisection_part() {
        // The acceptance property at signal level: the composite's unit
        // space strictly contains the multisection one, and inputs outside
        // the profiled ranges cover units multisection alone cannot.
        let m = net(11);
        let train = rng::uniform(&mut rng::rng(12), &[20, 6], 0.3, 0.7);
        let ms_only = SignalSpec::of(CoverageConfig::default(), ms_spec(4), Vec::new()).primed(
            std::slice::from_ref(&m),
            &train,
            15,
        );
        let composite = SignalSpec::of(
            CoverageConfig::default(),
            "multisection:4+boundary".parse().unwrap(),
            ms_only.profiles.clone(),
        );
        let mut a = ms_only.build(std::slice::from_ref(&m)).remove(0);
        let mut b = composite.build(std::slice::from_ref(&m)).remove(0);
        let mut r = rng::rng(13);
        for _ in 0..10 {
            let pass = m.forward(&rng::uniform(&mut r, &[1, 6], -4.0, 4.0));
            a.update(&pass);
            b.update(&pass);
        }
        assert!(b.total() > a.total());
        assert!(
            b.covered_count() > a.covered_count(),
            "composite must find corner units multisection misses ({} vs {})",
            b.covered_count(),
            a.covered_count()
        );
    }

    #[test]
    fn mean_component_coverage_averages_models() {
        let models = vec![net(20), net(21)];
        let train = rng::uniform(&mut rng::rng(22), &[20, 6], 0.0, 1.0);
        let spec = SignalSpec::of(
            CoverageConfig::scaled(0.25),
            "neuron+boundary".parse().unwrap(),
            Vec::new(),
        )
        .primed(&models, &train, 10);
        let mut signals = spec.build(&models);
        for (s, m) in signals.iter_mut().zip(&models) {
            s.update(&m.forward(&rng::uniform(&mut rng::rng(23), &[1, 6], -2.0, 2.0)));
        }
        let comp = mean_component_coverage(&signals);
        assert_eq!(comp.len(), 2);
        let expected: f32 = signals.iter().map(|s| s.coverage_by_component()[0]).sum::<f32>() / 2.0;
        assert!((comp[0] - expected).abs() < 1e-6);
        assert!(mean_component_coverage(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "different metrics")]
    fn mixed_metric_merge_panics() {
        let m = net(30);
        let train = rng::uniform(&mut rng::rng(31), &[10, 6], 0.0, 1.0);
        let mut a =
            SignalSpec::neuron(CoverageConfig::default()).build(std::slice::from_ref(&m)).remove(0);
        let b = SignalSpec::of(CoverageConfig::default(), ms_spec(2), Vec::new())
            .primed(std::slice::from_ref(&m), &train, 10)
            .build(std::slice::from_ref(&m))
            .remove(0);
        a.merge(&b);
    }
}
