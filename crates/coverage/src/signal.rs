//! The metric-generic coverage signal campaigns steer by.
//!
//! DeepXplore's generator, the campaign engine and the distributed
//! coordinator all need the same operations from a coverage metric:
//! fold a forward pass in, report progress, union state across workers,
//! ship sparse deltas over the wire, and pick a target for the obj2
//! gradient term. [`CoverageSignal`] is that interface over the metrics
//! this workspace implements — the paper's binary neuron coverage,
//! DeepGauge's k-multisection refinement ([`crate::multisection`]) and its
//! boundary/corner complement ([`crate::boundary`]) — so every engine
//! layer is written once against the signal.
//!
//! Metrics also **compose**: a [`MetricSpec`] like `multisection:4+boundary`
//! builds one signal per model whose flat unit space is the concatenation
//! of its components' spaces (component-major), so the same sparse-index
//! deltas, bitmap checkpoints and union merges flow through unchanged
//! while the campaign steers by the union of several signals at once. A
//! simple metric is just a one-component list.
//!
//! [`SignalSpec`] is the serializable-ish recipe (metric spec, coverage
//! config, and — for profile-based metrics — the per-model training-set
//! profiles) from which per-model signals are built.

use dx_nn::network::{Network, PassRow};
use dx_tensor::rng::Rng;

use crate::neuron::{Granularity, Layout, NeuronId};
use crate::profile::NeuronProfile;
use crate::tracker::{fraction, Component, CoverageConfig, Rule};

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
/// multi-component spec builds signals that steer by the union of their
/// components.
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

    /// Builds one signal per model.
    ///
    /// # Panics
    ///
    /// For profile-based metrics: when the profile count does not match
    /// the model count, or a profile is unprimed. For an empty spec.
    pub fn build(&self, models: &[Network]) -> Vec<CoverageSignal> {
        assert!(!self.metric.is_empty(), "metric spec needs at least one component");
        let profiled = self.metric.needs_profiles();
        if profiled {
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
                let activations = m.coverage_activation_indices();
                let profile = profiled.then(|| self.profiles[i].clone());
                CoverageSignal::new(m, &activations, &self.metric.components, self.config, profile)
            })
            .collect()
    }

    /// Primes per-model profiles from the first `rows` training inputs
    /// (rows of `train_x`, read through [`Network::for_each_row`]) and
    /// returns the spec with them attached. A no-op for specs without
    /// profile-based components. Every process of a distributed fleet
    /// primes from the same rows, so profiles agree bit-for-bit.
    pub fn primed(mut self, models: &[Network], train_x: &dx_tensor::Tensor, rows: usize) -> Self {
        if !self.metric.needs_profiles() {
            return self;
        }
        let rows: Vec<usize> = (0..rows.min(train_x.shape()[0])).collect();
        self.profiles = models
            .iter()
            .map(|m| {
                let mut p = NeuronProfile::new(m, self.config.granularity);
                m.for_each_row(train_x, &rows, |row| p.observe(row));
                p
            })
            .collect();
        self
    }
}

/// One model's coverage state under a campaign's chosen metric spec: one
/// hit-set per component metric, plus the training-set profile every
/// profile-based component is cut from (held once, however many share it).
///
/// The flat unit space concatenates the components' spaces in declaration
/// order: component `c`'s unit `u` lives at flat offset
/// `Σ_{c' < c} total(c') + u`. Sparse deltas, masks and covered indices all
/// use this combined space, so wire and checkpoint handling is identical
/// for simple (one-component) and composite signals.
///
/// Binary operations panic on signals of different metrics, networks or
/// profiles — agreement is established once at admission/construction
/// time, not re-negotiated per call.
#[derive(Clone, Debug)]
pub struct CoverageSignal {
    components: Vec<Component>,
    profile: Option<NeuronProfile>,
}

impl CoverageSignal {
    /// The paper's neuron-coverage signal over the network's default
    /// coverage layers (post-activation outputs; see
    /// `Network::coverage_activation_indices`).
    pub fn neuron(net: &Network, config: CoverageConfig) -> Self {
        Self::neuron_over(net, &net.coverage_activation_indices(), config)
    }

    /// [`CoverageSignal::neuron`] over an explicit set of activation
    /// indices — Table 8 uses this to exclude dense layers, whose neurons
    /// are very hard to activate.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or the list is unsorted or empty.
    pub fn neuron_over(net: &Network, activations: &[usize], config: CoverageConfig) -> Self {
        Self::new(net, activations, &[MetricKind::Neuron], config, None)
    }

    /// One component per metric in `kinds`: profile-based ones laid out by
    /// (and cut from) `profile`, the rest over `activations`.
    fn new(
        net: &Network,
        activations: &[usize],
        kinds: &[MetricKind],
        config: CoverageConfig,
        profile: Option<NeuronProfile>,
    ) -> Self {
        if let Some(p) = &profile {
            assert!(p.is_primed(), "profile must observe training inputs first");
        }
        let components = kinds
            .iter()
            .map(|&kind| {
                let layout = match profile.as_ref().filter(|_| kind.needs_profile()) {
                    Some(p) => p.layout().clone(),
                    None => Layout::new(net, activations, config.granularity),
                };
                Component::new(layout, Rule::of(kind, config), profile.as_ref())
            })
            .collect();
        Self { components, profile }
    }

    /// Concatenates what `units` lists for each component (given its
    /// position) into the combined flat space.
    fn flat_units<'s, I: Iterator<Item = usize>>(
        &'s self,
        units: impl Fn(usize, &'s Component) -> I,
    ) -> Vec<usize> {
        let (mut out, mut offset) = (Vec::new(), 0);
        for (i, c) in self.components.iter().enumerate() {
            out.extend(units(i, c).map(|u| u + offset));
            offset += c.total();
        }
        out
    }

    /// The metric spec this signal implements.
    pub fn metric(&self) -> MetricSpec {
        MetricSpec { components: self.components.iter().map(Component::kind).collect() }
    }

    /// Number of component metrics (1 for simple signals).
    pub fn n_components(&self) -> usize {
        self.components.len()
    }

    /// The neuron granularity the signal tracks at.
    pub fn granularity(&self) -> Granularity {
        self.components[0].granularity()
    }

    /// Total tracked units — the flat index bound for
    /// [`CoverageSignal::apply_covered_indices`]: the sum of the
    /// components' totals.
    pub fn total(&self) -> usize {
        self.components.iter().map(Component::total).sum()
    }

    /// Units that can actually be covered — the coverage denominator
    /// (equals [`CoverageSignal::total`] for the neuron metric; excludes
    /// constant/unprofiled neurons' units for profile-based metrics).
    pub fn coverable_total(&self) -> usize {
        self.components.iter().map(Component::coverable_units).sum()
    }

    /// Units covered so far.
    pub fn covered_count(&self) -> usize {
        self.components.iter().map(Component::covered_count).sum()
    }

    /// Coverage in `[0, 1]`: the fraction of coverable units covered,
    /// pooled over all components.
    pub fn coverage(&self) -> f32 {
        fraction(self.covered_count(), self.coverable_total())
    }

    /// Per-component coverage, in component order (one entry for simple
    /// signals).
    pub fn coverage_by_component(&self) -> Vec<f32> {
        self.components.iter().map(Component::coverage).collect()
    }

    /// Whether every coverable unit is covered.
    pub fn is_full(&self) -> bool {
        self.components.iter().all(Component::is_full)
    }

    /// Units (flat offsets) one input hits, without updating the signal.
    /// The input is a batch-size-1 pass or one [`PassRow`] of a batched
    /// pass, as for every method here that reads activations.
    ///
    /// # Panics
    ///
    /// Panics when a whole pass holds more than one input.
    pub fn activated_by<'p>(&self, pass: impl Into<PassRow<'p>>) -> Vec<usize> {
        let row = pass.into();
        self.flat_units(|_, c| c.activated_by(row, self.profile.as_ref()).into_iter())
    }

    /// Folds one input in; returns newly covered units.
    pub fn update<'p>(&mut self, pass: impl Into<PassRow<'p>>) -> usize {
        let (row, profile) = (pass.into(), self.profile.as_ref());
        self.components.iter_mut().map(|c| c.update(row, profile)).sum()
    }

    /// [`CoverageSignal::update`], additionally accumulating each
    /// component's newly covered units into `per_component` (length
    /// [`CoverageSignal::n_components`]) — allocation-free, for the
    /// campaign's hot per-iterate loop.
    ///
    /// # Panics
    ///
    /// Panics when `per_component` has the wrong length.
    pub fn update_accum<'p>(
        &mut self,
        pass: impl Into<PassRow<'p>>,
        per_component: &mut [usize],
    ) -> usize {
        assert_eq!(per_component.len(), self.n_components(), "one counter per component");
        let (row, profile) = (pass.into(), self.profile.as_ref());
        let mut total = 0;
        for (c, acc) in self.components.iter_mut().zip(per_component) {
            let n = c.update(row, profile);
            *acc += n;
            total += n;
        }
        total
    }

    /// Whether `other` tracks the same units under the same metric spec —
    /// the precondition for [`CoverageSignal::merge`].
    pub fn compatible(&self, other: &CoverageSignal) -> bool {
        self.components.len() == other.components.len()
            && self.components.iter().zip(&other.components).all(|(x, y)| x.compatible(y))
            && match (&self.profile, &other.profile) {
                (Some(p), Some(q)) => p.same_ranges(q),
                (None, None) => true,
                _ => false,
            }
    }

    /// The one precondition check behind every binary operation.
    fn assert_compatible(&self, other: &CoverageSignal, verb: &str) {
        assert!(
            self.compatible(other),
            "cannot {verb} coverage signals of different metrics, profiles or over different \
             neuron sets ({} `{}` vs {} `{}` units)",
            self.total(),
            self.metric(),
            other.total(),
            other.metric()
        );
    }

    /// Unions another signal's covered set into this one; returns newly
    /// covered units.
    ///
    /// Merging is the campaign engine's synchronization primitive: each
    /// worker accumulates coverage on a private clone and periodically folds
    /// it into a shared global signal. The operation is commutative,
    /// idempotent and monotone in the covered count.
    ///
    /// # Panics
    ///
    /// Panics when the signals are not [`CoverageSignal::compatible`]
    /// (different metrics, networks, tracked-activation sets or profiles).
    pub fn merge(&mut self, other: &CoverageSignal) -> usize {
        self.assert_compatible(other, "merge");
        self.components.iter_mut().zip(&other.components).map(|(x, y)| x.merge(y)).sum()
    }

    /// The covered mask, one flag per unit, in the combined flat space —
    /// for checkpointing. Restore with [`CoverageSignal::set_covered_mask`].
    pub fn covered_mask(&self) -> Vec<bool> {
        let mut mask = Vec::with_capacity(self.total());
        for c in &self.components {
            mask.extend_from_slice(c.covered_mask());
        }
        mask
    }

    /// Replaces the covered set with a previously exported mask. Mask bits
    /// on uncoverable units are dropped, keeping coverage within `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when `mask` has the wrong length.
    pub fn set_covered_mask(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.total(), "coverage mask length mismatch");
        let mut offset = 0;
        for c in &mut self.components {
            let n = c.total();
            c.set_covered_mask(&mask[offset..offset + n]);
            offset += n;
        }
    }

    /// Flat offsets of all covered units, ascending.
    pub fn covered_indices(&self) -> Vec<usize> {
        self.flat_units(|_, c| c.covered_indices())
    }

    /// Offsets covered here but not in `base` — the sparse delta the
    /// distributed campaign ships over the wire instead of full bitmaps.
    /// Each component's indices are shifted by the preceding components'
    /// totals, so one flat index list carries every component's news.
    /// Applying the result to `base` via
    /// [`CoverageSignal::apply_covered_indices`] makes `base`'s covered set
    /// a superset of this signal's.
    ///
    /// # Panics
    ///
    /// Panics when the signals are not [`CoverageSignal::compatible`].
    pub fn diff_indices(&self, base: &CoverageSignal) -> Vec<usize> {
        self.assert_compatible(base, "diff");
        self.flat_units(|i, c| c.diff_indices(&base.components[i]))
    }

    /// Marks the given offsets covered; returns newly covered units. The
    /// inverse of [`CoverageSignal::diff_indices`]. Offsets of uncoverable
    /// neurons are ignored.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range offset; wire handlers must validate
    /// indices against [`CoverageSignal::total`] before applying.
    pub fn apply_covered_indices(&mut self, indices: &[usize]) -> usize {
        let total = self.total();
        let mut newly = 0;
        for &i in indices {
            assert!(i < total, "covered index {i} out of range {total}");
            // Route the flat offset to its component. Deltas are usually
            // short; per-index routing beats materializing per-component
            // sublists.
            let mut unit = i;
            for c in &mut self.components {
                if unit < c.total() {
                    newly += usize::from(c.apply_covered_index(unit));
                    break;
                }
                unit -= c.total();
            }
        }
        newly
    }

    /// Replaces this signal's covered set with `other`'s.
    ///
    /// Used by campaign workers to adopt the freshly-merged global union so
    /// they stop chasing units another worker already covered.
    ///
    /// # Panics
    ///
    /// Panics when the signals are not [`CoverageSignal::compatible`].
    pub fn copy_covered_from(&mut self, other: &CoverageSignal) {
        self.assert_compatible(other, "copy coverage between");
        for (x, y) in self.components.iter_mut().zip(&other.components) {
            x.copy_covered_from(y);
        }
    }

    /// Resets the covered set.
    pub fn reset(&mut self) {
        self.components.iter_mut().for_each(Component::reset);
    }

    /// Whether the obj2 term can still make progress on `id` under any
    /// component: uncovered (neuron metric), unhit sections (multisection),
    /// or an unhit corner (boundary).
    pub fn wants(&self, id: NeuronId) -> bool {
        self.components.iter().any(|c| c.wants(id))
    }

    /// Every neuron a component can still make progress on, component by
    /// component in flat order (a neuron two components both want appears
    /// once per component) — under the neuron metric, the uncovered neurons.
    pub fn uncovered(&self) -> Vec<NeuronId> {
        self.components.iter().flat_map(Component::uncovered).collect()
    }

    /// Picks up to `k` distinct obj2 target neurons (Algorithm 1 line 33;
    /// `k > 1` is §4.2's joint maximization): uncovered neurons under the
    /// neuron metric, neurons with unhit range sections under
    /// multisection, neurons with unhit corners under boundary. Each
    /// component draws its own up-to-`k` picks from `r` in declaration
    /// order; the lists are then interleaved (first pick of each
    /// component, then second picks, …) and deduped, so no component
    /// starves while another still has work. Pair each pick with
    /// [`CoverageSignal::target_direction`].
    pub fn pick_uncovered_k(&self, r: &mut Rng, k: usize) -> Vec<NeuronId> {
        if let [only] = self.components.as_slice() {
            return only.pick_k(r, k); // One list: nothing to interleave.
        }
        let per: Vec<Vec<NeuronId>> = self.components.iter().map(|c| c.pick_k(r, k)).collect();
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

    /// Picks the obj2 target nearest to progress in `pass` (highest
    /// current value among still-improvable neurons). Components are asked
    /// in declaration order and the first answer wins, so earlier
    /// components saturate before later ones start steering.
    pub fn pick_uncovered_nearest<'p>(&self, pass: impl Into<PassRow<'p>>) -> Option<NeuronId> {
        let row = pass.into();
        self.components.iter().find_map(|c| c.pick_nearest(row))
    }

    /// Which way the obj2 gradient term should push `id`'s activation:
    /// always up (`1.0`) under the neuron metric; toward the nearest
    /// unhit range section under multisection; past the nearest unhit
    /// range edge under boundary. The first component that still
    /// [`CoverageSignal::wants`] the neuron decides (matching how picks
    /// interleave); `1.0` when none does, and for a neuron whose current
    /// value is NaN or ±inf.
    pub fn target_direction<'p>(&self, id: NeuronId, pass: impl Into<PassRow<'p>>) -> f32 {
        let (row, profile) = (pass.into(), self.profile.as_ref());
        self.components
            .iter()
            .find(|c| c.wants(id))
            .map_or(1.0, |c| c.target_direction(id, row, profile))
    }

    /// The neuron profile every profile-based component is cut from
    /// (`None` for the pure neuron metric).
    pub fn profile(&self) -> Option<&NeuronProfile> {
        self.profile.as_ref()
    }
}

/// Mean coverage across a set of per-model signals (0 for an empty set).
pub fn mean_coverage(signals: &[CoverageSignal]) -> f32 {
    if signals.is_empty() {
        return 0.0;
    }
    signals.iter().map(CoverageSignal::coverage).sum::<f32>() / signals.len() as f32
}

/// Restores checkpointed per-model masks into `signals` when they fit (one
/// mask per signal, each [`CoverageSignal::total`] long); returns whether
/// they did. Masks that do not fit — an older checkpoint, or a changed
/// coverage config — leave the signals untouched for the caller's fallback.
pub fn restore_masks(signals: &mut [CoverageSignal], masks: &[Vec<bool>]) -> bool {
    let fit = masks.len() == signals.len()
        && masks.iter().zip(signals.iter()).all(|(m, s)| m.len() == s.total());
    if fit {
        for (s, mask) in signals.iter_mut().zip(masks) {
            s.set_covered_mask(mask);
        }
    }
    fit
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
pub(crate) mod tests {
    use super::*;
    use dx_nn::layer::Layer;
    use dx_tensor::{rng, Tensor};

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

    // Fixtures and laws shared with the per-metric test modules
    // (`tracker`, `multisection`, `boundary`): each law is written once
    // and takes the metric spec as an input.

    /// The 6-input MLP the profile-rule tests run on.
    pub(crate) fn mlp(seed: u64) -> Network {
        let mut n = Network::new(
            &[6],
            vec![Layer::dense(6, 10), Layer::tanh(), Layer::dense(10, 3), Layer::softmax()],
        );
        n.init_weights(&mut rng::rng(seed));
        n
    }

    /// A unit-granularity profile of `n` over `inputs` uniform rows in
    /// `[lo, hi)`.
    pub(crate) fn primed_profile(
        n: &Network,
        inputs: usize,
        seed: u64,
        lo: f32,
        hi: f32,
    ) -> NeuronProfile {
        let mut profile = NeuronProfile::new(n, Granularity::Unit);
        let mut r = rng::rng(seed);
        for _ in 0..inputs {
            let x = rng::uniform(&mut r, &[1, 6], lo, hi);
            profile.observe(&n.forward(&x));
        }
        profile
    }

    /// One signal for `spec` over `n`, cut from `profile`.
    pub(crate) fn signal_over(n: &Network, spec: &str, profile: NeuronProfile) -> CoverageSignal {
        let config = CoverageConfig { granularity: Granularity::Unit, ..Default::default() };
        SignalSpec::of(config, spec.parse().expect("metric spec"), vec![profile])
            .build(std::slice::from_ref(n))
            .remove(0)
    }

    /// The `i`-th tracked neuron of `n` in flat order.
    pub(crate) fn neuron(n: &Network, i: usize) -> NeuronId {
        Layout::new(n, &n.coverage_activation_indices(), Granularity::Unit).id_of(i)
    }

    /// Merge and sparse-delta sync of two independently fed compatible
    /// signals reach the same union, idempotently.
    pub(crate) fn assert_merge_and_delta_sync(a: &CoverageSignal, b: &CoverageSignal) {
        let (ca, cb) = (a.covered_count(), b.covered_count());
        let mut merged = a.clone();
        let newly = merged.merge(b);
        assert!(merged.covered_count() >= ca.max(cb));
        assert_eq!(merged.covered_count(), ca + newly);
        assert_eq!(merged.merge(b), 0, "merge must be idempotent");
        // Every delta index is covered in `b` and uncovered in `a`.
        let delta = b.diff_indices(a);
        for &i in &delta {
            assert!(b.covered_mask()[i]);
            assert!(!a.covered_mask()[i]);
        }
        // Delta sync converges to the same union: a second delta is empty,
        // merging adds nothing, and applying again is idempotent.
        let mut synced = a.clone();
        assert_eq!(synced.apply_covered_indices(&delta), delta.len());
        assert_eq!(synced.covered_mask(), merged.covered_mask());
        assert!(b.diff_indices(&synced).is_empty());
        assert_eq!(synced.merge(b), 0);
        assert_eq!(synced.apply_covered_indices(&delta), 0);
    }

    /// Units of constant and unprofiled neurons are in the index space but
    /// not in the coverage denominator.
    pub(crate) fn uncoverable_neurons_are_excluded(n: &Network, spec: &str, mut p: NeuronProfile) {
        p.high[0] = p.low[0]; // Constant neuron.
        p.low[1] = f32::INFINITY; // Unprofiled neuron.
        p.high[1] = f32::NEG_INFINITY;
        let neurons = p.total();
        let mut t = signal_over(n, spec, p);
        let units = t.total() / neurons;
        assert_eq!(t.coverable_total(), (neurons - 2) * units);
        assert_eq!(t.total(), neurons * units);
        // Saturate every coverable unit: exactly full.
        t.set_covered_mask(&vec![true; neurons * units]);
        assert_eq!(t.covered_count(), (neurons - 2) * units);
        assert_eq!(t.coverage(), 1.0);
        assert!(t.is_full());
    }

    /// A restored mask reproduces the hit-set, minus bits it claims on
    /// uncoverable units.
    pub(crate) fn mask_round_trips_and_drops_uncoverable_bits(
        n: &Network,
        spec: &str,
        mut p: NeuronProfile,
        x: &Tensor,
    ) {
        p.high[0] = p.low[0]; // Constant neuron: its units are uncoverable.
        let mut t = signal_over(n, spec, p.clone());
        t.update(&n.forward(x));
        let mask = t.covered_mask();
        let mut fresh = signal_over(n, spec, p);
        let mut bad_mask = mask.clone();
        bad_mask[0] = true; // Claim an uncoverable unit.
        fresh.set_covered_mask(&bad_mask);
        assert_eq!(fresh.covered_mask(), mask, "uncoverable bit must be dropped");
        assert_eq!(fresh.covered_count(), t.covered_count());
    }

    /// Signals cut from different ranges are incompatible, and merging
    /// them panics.
    pub(crate) fn incompatible_profiles_rejected(
        n: &Network,
        spec: &str,
        p1: NeuronProfile,
        p2: NeuronProfile,
    ) {
        let mut a = signal_over(n, spec, p1);
        let b = signal_over(n, spec, p2);
        assert!(!a.compatible(&b));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.merge(&b)));
        assert!(result.is_err(), "merge of incompatible signals must panic");
    }

    /// Neither pick strategy returns an uncoverable neuron or one whose
    /// units are all hit.
    pub(crate) fn picks_skip_complete_and_uncoverable_neurons(
        n: &Network,
        spec: &str,
        mut p: NeuronProfile,
        seed: u64,
    ) {
        p.high[0] = p.low[0]; // Neuron 0 can never be picked.
        let neurons = p.total();
        let mut t = signal_over(n, spec, p);
        // Neuron 1: every unit hit — also never picked.
        let units = t.total() / neurons;
        t.apply_covered_indices(&(units..2 * units).collect::<Vec<_>>());
        let mut r = rng::rng(seed);
        let picks = t.pick_uncovered_k(&mut r, 5);
        assert_eq!(picks.len(), 5);
        let mut sorted = picks.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "picks must be distinct: {picks:?}");
        let (constant, complete) = (neuron(n, 0), neuron(n, 1));
        assert!(!picks.contains(&constant) && !picks.contains(&complete));
        let x = rng::uniform(&mut r, &[1, 6], 0.0, 1.0);
        let nearest = t.pick_uncovered_nearest(&n.forward(&x)).unwrap();
        assert_ne!(nearest, constant);
        assert_ne!(nearest, complete);
        assert!(!t.wants(constant) && !t.wants(complete));
        assert!(t.wants(nearest));
    }

    #[test]
    fn hit_set_laws_hold_for_every_spec() {
        // The per-metric modules run each law on their own metric; here the
        // same laws run where no single-metric module can: the threshold
        // rule inside a composite, and three rules sharing one profile.
        let n = mlp(70);
        for spec in ["neuron+boundary", "multisection:3+boundary", "neuron+multisection:2+boundary"]
        {
            let p = primed_profile(&n, 20, 71, 0.2, 0.8);
            let (mut a, mut b) = (signal_over(&n, spec, p.clone()), signal_over(&n, spec, p));
            let mut r = rng::rng(72);
            a.update(&n.forward(&rng::uniform(&mut r, &[1, 6], -3.0, 0.5)));
            b.update(&n.forward(&rng::uniform(&mut r, &[1, 6], 0.5, 4.0)));
            assert_merge_and_delta_sync(&a, &b);
            incompatible_profiles_rejected(
                &n,
                spec,
                primed_profile(&n, 20, 73, 0.2, 0.8),
                primed_profile(&n, 20, 74, 0.2, 0.8),
            );
            if !spec.starts_with("neuron") {
                // Unit 0 belongs to a profile rule: the uncoverable-bit
                // law applies to the composite's combined mask.
                let x = rng::uniform(&mut r, &[1, 6], -4.0, 4.0);
                let p = primed_profile(&n, 20, 75, 0.2, 0.8);
                mask_round_trips_and_drops_uncoverable_bits(&n, spec, p, &x);
            }
        }
    }

    #[test]
    fn non_finite_activations_hit_nothing_and_steer_nowhere() {
        let n = mlp(80);
        let first = neuron(&n, 0);
        // A real pass whose first tracked activation is then poisoned.
        let mut pass = n.forward(&rng::uniform(&mut rng::rng(81), &[1, 6], 0.0, 1.0));
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        pass.activations[first.activation].data_mut()[..3].copy_from_slice(&poison);
        let poisoned: Vec<NeuronId> = (0..3).map(|i| neuron(&n, i)).collect();
        let profile = primed_profile(&n, 20, 82, 0.0, 1.0);
        for spec in ["neuron", "multisection:4", "boundary", "neuron+multisection:4+boundary"] {
            let mut s = signal_over(&n, spec, profile.clone());
            let hit = s.activated_by(&pass);
            s.update(&pass);
            assert_eq!(s.covered_indices(), hit, "{spec}");
            let kinds = s.metric().components;
            let mut offset = 0;
            for (c, kind) in s.components.iter().zip(kinds) {
                let units = c.total() / profile.total();
                let of_poisoned: Vec<usize> = hit
                    .iter()
                    .filter(|&&u| (offset..offset + 3 * units).contains(&u))
                    .map(|u| u - offset)
                    .collect();
                if kind == MetricKind::Neuron {
                    // The threshold rule is a bare `v > t` (t = 0 here): NaN
                    // never covers, +inf does, -inf does not.
                    assert_eq!(of_poisoned, [1], "{spec}");
                } else {
                    // Profile rules: a non-finite value hits no unit...
                    assert!(of_poisoned.is_empty(), "{spec}: {kind} hit {of_poisoned:?}");
                }
                offset += c.total();
            }
            // ...and gives obj2 nothing to aim at: always up.
            for &id in &poisoned {
                assert_eq!(s.target_direction(id, &pass), 1.0, "{spec} {id:?}");
            }
        }
        // The case the sections rule used to get wrong: `f32::min(NaN, k-1)`
        // read a NaN as "in the top section", so once that section was hit
        // obj2 was steered down by garbage.
        let mut s = signal_over(&n, "multisection:4", profile);
        s.apply_covered_indices(&[3]);
        assert_eq!(s.target_direction(poisoned[0], &pass), 1.0);
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
        let comp_totals: usize = composite[0].components.iter().map(Component::total).sum();
        assert_eq!(composite[0].total(), comp_totals);
        // Boundary tracks 2 units per neuron over the same profile the
        // multisection component sections.
        let b_t = &composite[0].components[2];
        assert_eq!(b_t.total(), composite[0].profile().unwrap().total() * 2);
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
            s.components.iter().map(Component::covered_count).sum::<usize>()
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
