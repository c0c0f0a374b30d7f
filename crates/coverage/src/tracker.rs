//! The one hit-set every coverage metric keeps (Algorithm 1's
//! `cov_tracker`), and the per-metric `Rule` that says what a unit is.
//!
//! A `Component` is a neuron `Layout`, a rule and `units-per-neuron`
//! flags per neuron, neuron-major. Everything a campaign does with coverage
//! state — fold a pass in, count, union, ship sparse deltas, restore masks,
//! pick an obj2 target — is written here once; a rule only answers how many
//! units a neuron has, whether a neuron is coverable at all, which unit a
//! value hits, and which way obj2 should push.

use dx_nn::network::PassRow;
use dx_tensor::rng::Rng;
use rand::Rng as _;

use crate::neuron::{for_each_value, Granularity, Layout, NeuronId};
use crate::profile::NeuronProfile;
use crate::signal::MetricKind;
use crate::{boundary, multisection};

/// Configuration of the coverage metric.
#[derive(Clone, Copy, Debug)]
pub struct CoverageConfig {
    /// Activation threshold `t` (§4.1).
    pub threshold: f32,
    /// Min-max scale each tracked activation to `[0, 1]` before
    /// thresholding (§7.1); required when layer output ranges differ.
    pub scale_per_layer: bool,
    /// Neuron granularity for convolutional activations.
    pub granularity: Granularity,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        Self { threshold: 0.0, scale_per_layer: false, granularity: Granularity::ChannelMean }
    }
}

impl CoverageConfig {
    /// The paper's scaled-coverage setting with the given threshold.
    pub fn scaled(threshold: f32) -> Self {
        Self { threshold, scale_per_layer: true, ..Default::default() }
    }
}

/// What a unit is under one metric. The two profile rules read the signal's
/// [`NeuronProfile`] (passed in by the caller, so several rules share one
/// copy of the ranges); the threshold rule needs none.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Rule {
    /// The paper's metric: one unit per neuron, hit once its (optionally
    /// per-layer scaled) value exceeds `threshold`. The comparison is a bare
    /// `v > t`: NaN never covers, `+inf` does.
    Threshold { threshold: f32, scale_per_layer: bool },
    /// [`crate::multisection`]: `k` units per neuron, one per section of
    /// its profiled range.
    Sections { k: usize },
    /// [`crate::boundary`]: two units per neuron, one per corner region
    /// outside its profiled range.
    Corners,
}

impl Rule {
    /// The rule implementing `kind` under `config`.
    ///
    /// # Panics
    ///
    /// Panics on a zero section count.
    pub(crate) fn of(kind: MetricKind, config: CoverageConfig) -> Self {
        match kind {
            MetricKind::Neuron => Rule::Threshold {
                threshold: config.threshold,
                scale_per_layer: config.scale_per_layer,
            },
            MetricKind::Multisection { k } => {
                assert!(k > 0, "need at least one section per neuron");
                Rule::Sections { k }
            }
            MetricKind::Boundary => Rule::Corners,
        }
    }

    /// The metric this rule implements (thresholds are not part of a
    /// metric's identity, section counts are).
    pub(crate) fn kind(self) -> MetricKind {
        match self {
            Rule::Threshold { .. } => MetricKind::Neuron,
            Rule::Sections { k } => MetricKind::Multisection { k },
            Rule::Corners => MetricKind::Boundary,
        }
    }

    #[inline]
    fn units_per_neuron(self) -> usize {
        match self {
            Rule::Threshold { .. } => 1,
            Rule::Sections { k } => k,
            Rule::Corners => boundary::UNITS_PER_NEURON,
        }
    }

    /// Whether any of neuron `n`'s units can ever be hit.
    fn coverable(self, profile: Option<&NeuronProfile>, n: usize) -> bool {
        match self {
            Rule::Threshold { .. } => true,
            Rule::Sections { .. } | Rule::Corners => profile.is_some_and(|p| p.coverable(n)),
        }
    }

    /// Calls `on_hit(unit)` for every unit one input hits.
    fn for_each_hit(
        self,
        layout: &Layout,
        profile: Option<&NeuronProfile>,
        row: PassRow<'_>,
        mut on_hit: impl FnMut(usize),
    ) {
        match (self, profile) {
            (Rule::Threshold { threshold, scale_per_layer }, _) => {
                layout.walk(row, scale_per_layer, |n, v| {
                    if v > threshold {
                        on_hit(n);
                    }
                });
            }
            (Rule::Sections { k }, Some(p)) => layout.walk(row, false, |n, v| {
                let range = p.range_for(n, v);
                if let Some(s) = range.and_then(|(lo, hi)| multisection::section_of(lo, hi, k, v)) {
                    on_hit(n * k + s);
                }
            }),
            (Rule::Corners, Some(p)) => layout.walk(row, false, |n, v| {
                let range = p.range_for(n, v);
                if let Some(c) = range.and_then(|(lo, hi)| boundary::corner_of(lo, hi, v)) {
                    on_hit(n * boundary::UNITS_PER_NEURON + c);
                }
            }),
            // Not constructible: a signal with a profile rule carries its profile.
            (Rule::Sections { .. } | Rule::Corners, None) => {}
        }
    }
}

/// `covered / coverable` in `[0, 1]` (0 when nothing is coverable).
pub(crate) fn fraction(covered: usize, coverable: usize) -> f32 {
    if coverable == 0 {
        0.0
    } else {
        covered as f32 / coverable as f32
    }
}

/// One metric's coverage state over one network.
#[derive(Clone, Debug)]
pub(crate) struct Component {
    layout: Layout,
    rule: Rule,
    /// `neurons × units-per-neuron` hit flags, neuron-major.
    hit: Vec<bool>,
    /// Per neuron: whether any of its units can ever be hit. Units of
    /// constant or unprofiled neurons cannot, so counting them would make
    /// 100% coverage unreachable and `is_full`-style drain targets would
    /// never fire.
    coverable: Vec<bool>,
    /// Units of coverable neurons — the coverage denominator.
    coverable_units: usize,
}

impl Component {
    /// An empty hit-set for `rule` over `layout`; `profile` is the signal's
    /// (required by the profile rules, ignored by the threshold rule).
    pub(crate) fn new(layout: Layout, rule: Rule, profile: Option<&NeuronProfile>) -> Self {
        let units = rule.units_per_neuron();
        let coverable: Vec<bool> =
            (0..layout.total()).map(|n| rule.coverable(profile, n)).collect();
        Self {
            hit: vec![false; layout.total() * units],
            coverable_units: coverable.iter().filter(|&&c| c).count() * units,
            coverable,
            layout,
            rule,
        }
    }

    pub(crate) fn kind(&self) -> MetricKind {
        self.rule.kind()
    }

    pub(crate) fn granularity(&self) -> Granularity {
        self.layout.granularity
    }

    pub(crate) fn coverable_units(&self) -> usize {
        self.coverable_units
    }

    /// Total units, the flat index bound. Includes units of uncoverable
    /// neurons, which stay permanently unhit.
    #[inline]
    pub(crate) fn total(&self) -> usize {
        self.hit.len()
    }

    pub(crate) fn covered_count(&self) -> usize {
        self.hit.iter().filter(|&&h| h).count()
    }

    /// Fraction of *coverable* units hit.
    pub(crate) fn coverage(&self) -> f32 {
        fraction(self.covered_count(), self.coverable_units)
    }

    pub(crate) fn is_full(&self) -> bool {
        self.covered_count() == self.coverable_units
    }

    /// The raw hit flags, one per unit.
    pub(crate) fn covered_mask(&self) -> &[bool] {
        &self.hit
    }

    /// Units one input hits, without recording them.
    pub(crate) fn activated_by(
        &self,
        row: PassRow<'_>,
        profile: Option<&NeuronProfile>,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        self.rule.for_each_hit(&self.layout, profile, row, |unit| out.push(unit));
        out
    }

    /// Folds one input into the hit-set; returns how many units were newly
    /// hit.
    pub(crate) fn update(&mut self, row: PassRow<'_>, profile: Option<&NeuronProfile>) -> usize {
        let (hit, mut newly) = (&mut self.hit, 0);
        self.rule.for_each_hit(&self.layout, profile, row, |unit| {
            if !hit[unit] {
                hit[unit] = true;
                newly += 1;
            }
        });
        newly
    }

    /// Whether `other` keeps the same units of the same network under the
    /// same metric (the ranges behind profile rules are the signal's to
    /// compare).
    pub(crate) fn compatible(&self, other: &Component) -> bool {
        self.kind() == other.kind() && self.layout == other.layout
    }

    /// Unions a [`Component::compatible`] hit-set into this one; returns
    /// how many units were newly hit here.
    pub(crate) fn merge(&mut self, other: &Component) -> usize {
        let mut newly = 0;
        for (mine, &theirs) in self.hit.iter_mut().zip(&other.hit) {
            if theirs && !*mine {
                *mine = true;
                newly += 1;
            }
        }
        newly
    }

    /// Offsets of all hit units, ascending.
    pub(crate) fn covered_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.hit.iter().enumerate().filter(|(_, &h)| h).map(|(i, _)| i)
    }

    /// Units hit here but not in the [`Component::compatible`] `base`.
    pub(crate) fn diff_indices<'a>(
        &'a self,
        base: &'a Component,
    ) -> impl Iterator<Item = usize> + 'a {
        let pairs = self.hit.iter().zip(&base.hit).enumerate();
        pairs.filter(|(_, (&mine, &theirs))| mine && !theirs).map(|(i, _)| i)
    }

    /// Marks one unit hit; returns whether it newly was. Units of
    /// uncoverable neurons are ignored (a well-formed peer never sends
    /// them, and accepting them would push coverage past 1.0).
    #[inline]
    pub(crate) fn apply_covered_index(&mut self, unit: usize) -> bool {
        let fresh = !self.hit[unit] && self.coverable[unit / self.rule.units_per_neuron()];
        if fresh {
            self.hit[unit] = true;
        }
        fresh
    }

    /// Replaces the hit-set with an exported mask of the right length. Bits
    /// on uncoverable units are dropped, keeping coverage within `[0, 1]`.
    pub(crate) fn set_covered_mask(&mut self, mask: &[bool]) {
        let units = self.rule.units_per_neuron();
        for (i, (mine, &theirs)) in self.hit.iter_mut().zip(mask).enumerate() {
            *mine = theirs && self.coverable[i / units];
        }
    }

    /// Replaces the hit-set with a [`Component::compatible`] one's.
    pub(crate) fn copy_covered_from(&mut self, other: &Component) {
        self.hit.copy_from_slice(&other.hit);
    }

    pub(crate) fn reset(&mut self) {
        self.hit.fill(false);
    }

    /// Neuron `n`'s unit flags.
    fn units_of(&self, n: usize) -> &[bool] {
        let units = self.rule.units_per_neuron();
        &self.hit[n * units..(n + 1) * units]
    }

    /// Whether neuron `n` still has an unhit coverable unit.
    fn incomplete(&self, n: usize) -> bool {
        self.coverable[n] && self.units_of(n).iter().any(|&h| !h)
    }

    /// Whether the obj2 term can still make progress on `id` here (`false`
    /// for neurons on untracked activations).
    pub(crate) fn wants(&self, id: NeuronId) -> bool {
        self.layout.flat_of(id).is_some_and(|n| self.incomplete(n))
    }

    /// Every neuron that is still incomplete, in flat order.
    fn incomplete_neurons(&self) -> Vec<usize> {
        let per_neuron = self.hit.chunks_exact(self.rule.units_per_neuron()).zip(&self.coverable);
        let open = per_neuron.enumerate().filter(|(_, (units, &c))| c && units.contains(&false));
        open.map(|(n, _)| n).collect()
    }

    /// [`NeuronId`]s of every neuron that is still incomplete, in flat order.
    pub(crate) fn uncovered(&self) -> impl Iterator<Item = NeuronId> + '_ {
        self.incomplete_neurons().into_iter().map(|n| self.layout.id_of(n))
    }

    /// Picks up to `k` distinct random incomplete neurons — Algorithm 1
    /// line 33, and for `k > 1` the paper's "jointly maximize multiple
    /// neurons simultaneously" extension (§4.2).
    pub(crate) fn pick_k(&self, r: &mut Rng, k: usize) -> Vec<NeuronId> {
        let mut candidates = self.incomplete_neurons();
        let take = k.min(candidates.len());
        // Partial Fisher–Yates: shuffle only the prefix we need.
        for i in 0..take {
            let j = r.gen_range(i..candidates.len());
            candidates.swap(i, j);
        }
        candidates[..take].iter().map(|&n| self.layout.id_of(n)).collect()
    }

    /// Picks the incomplete neuron with the highest value in `row` — the
    /// "nearest to activating" strategy of the neuron-pick ablation.
    pub(crate) fn pick_nearest(&self, row: PassRow<'_>) -> Option<NeuronId> {
        let scale_per_layer = matches!(self.rule, Rule::Threshold { scale_per_layer: true, .. });
        let mut best: Option<(usize, f32)> = None;
        self.layout.walk(row, scale_per_layer, |n, v| {
            if best.is_none_or(|(_, bv)| v > bv) && self.incomplete(n) {
                best = Some((n, v));
            }
        });
        best.map(|(n, _)| self.layout.id_of(n))
    }

    /// Which way the obj2 gradient term should push `id`'s activation given
    /// its current value in `row`: `1.0` to raise it, `-1.0` to lower it.
    /// Always up under the threshold rule, and for neurons that are
    /// untracked, uncoverable or currently non-finite under any rule.
    pub(crate) fn target_direction(
        &self,
        id: NeuronId,
        row: PassRow<'_>,
        profile: Option<&NeuronProfile>,
    ) -> f32 {
        let toward_unhit = match self.rule {
            Rule::Threshold { .. } => return 1.0,
            Rule::Sections { .. } => multisection::direction,
            Rule::Corners => boundary::direction,
        };
        let (Some(n), Some(p)) = (self.layout.flat_of(id), profile) else { return 1.0 };
        let mut value = None;
        for_each_value(row, id.activation, self.layout.granularity, false, |j, v| {
            value = value.or((j == id.index).then_some(v));
        });
        let Some(v) = value else { return 1.0 };
        let Some((lo, hi)) = p.range_for(n, v) else { return 1.0 };
        toward_unhit(lo, hi, v, self.units_of(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::tests::neuron_values;
    use crate::signal::tests::assert_merge_and_delta_sync;
    use crate::signal::CoverageSignal;
    use dx_nn::layer::Layer;
    use dx_nn::network::Network;
    use dx_tensor::rng;

    fn cnn(seed: u64) -> Network {
        let mut net = Network::new(
            &[1, 6, 6],
            vec![
                Layer::conv2d(1, 3, 3, 1, 0),
                Layer::relu(),
                Layer::maxpool2d(2),
                Layer::flatten(),
                Layer::dense(3 * 2 * 2, 4),
                Layer::softmax(),
            ],
        );
        net.init_weights(&mut rng::rng(seed));
        net
    }

    #[test]
    fn total_counts_tracked_neurons() {
        let net = cnn(0);
        let t = CoverageSignal::neuron(&net, CoverageConfig::default());
        // relu (3 channels) + pool (3 channels) + softmax (4 units).
        assert_eq!(t.total(), 10);
        let unit = CoverageSignal::neuron(
            &net,
            CoverageConfig { granularity: Granularity::Unit, ..Default::default() },
        );
        // relu 3*4*4 + pool 3*2*2 + softmax 4.
        assert_eq!(unit.total(), 48 + 12 + 4);
    }

    #[test]
    fn update_accumulates_monotonically() {
        let net = cnn(1);
        let mut t = CoverageSignal::neuron(&net, CoverageConfig::default());
        let mut r = rng::rng(2);
        let mut last = 0.0;
        for _ in 0..10 {
            let x = rng::uniform(&mut r, &[1, 1, 6, 6], 0.0, 1.0);
            let pass = net.forward(&x);
            t.update(&pass);
            let c = t.coverage();
            assert!(c >= last, "coverage must be monotone");
            last = c;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn update_returns_newly_covered() {
        let net = cnn(3);
        let mut t = CoverageSignal::neuron(&net, CoverageConfig::default());
        let x = rng::uniform(&mut rng::rng(4), &[1, 1, 6, 6], 0.5, 1.0);
        let pass = net.forward(&x);
        let first = t.update(&pass);
        assert!(first > 0);
        // The same input covers nothing new.
        assert_eq!(t.update(&pass), 0);
    }

    #[test]
    fn higher_threshold_covers_fewer() {
        let net = cnn(5);
        let x = rng::uniform(&mut rng::rng(6), &[1, 1, 6, 6], 0.0, 1.0);
        let pass = net.forward(&x);
        let mut low = CoverageSignal::neuron(&net, CoverageConfig::scaled(0.1));
        let mut high = CoverageSignal::neuron(&net, CoverageConfig::scaled(0.9));
        low.update(&pass);
        high.update(&pass);
        assert!(low.covered_count() >= high.covered_count());
    }

    #[test]
    fn uncovered_plus_covered_is_total() {
        let net = cnn(7);
        let mut t = CoverageSignal::neuron(&net, CoverageConfig::default());
        let x = rng::uniform(&mut rng::rng(8), &[1, 1, 6, 6], 0.0, 1.0);
        t.update(&net.forward(&x));
        assert_eq!(t.uncovered().len() + t.covered_count(), t.total());
    }

    #[test]
    fn pick_uncovered_is_really_uncovered() {
        let net = cnn(9);
        let mut t = CoverageSignal::neuron(&net, CoverageConfig::default());
        let x = rng::uniform(&mut rng::rng(10), &[1, 1, 6, 6], 0.0, 1.0);
        t.update(&net.forward(&x));
        let mut r = rng::rng(11);
        if let Some(id) = t.pick_uncovered_k(&mut r, 1).into_iter().next() {
            assert!(t.uncovered().contains(&id));
        } else {
            assert!(t.is_full());
        }
    }

    #[test]
    fn restricted_activations_shrink_total() {
        let net = cnn(12);
        let full = CoverageSignal::neuron(&net, CoverageConfig::default());
        let conv_only = CoverageSignal::neuron_over(&net, &[2, 3], CoverageConfig::default());
        assert!(conv_only.total() < full.total());
        assert_eq!(conv_only.total(), 6);
    }

    #[test]
    fn nearest_pick_prefers_higher_value() {
        let net = cnn(13);
        let t = CoverageSignal::neuron(
            &net,
            CoverageConfig { threshold: 10.0, ..Default::default() }, // Nothing covers.
        );
        let x = rng::uniform(&mut rng::rng(14), &[1, 1, 6, 6], 0.0, 1.0);
        let pass = net.forward(&x);
        let picked = t.pick_uncovered_nearest(&pass).unwrap();
        // The picked neuron's value must be the global maximum.
        let mut max_v = f32::NEG_INFINITY;
        for &a in &[2usize, 3, 6] {
            let vals = neuron_values(&pass, a, Granularity::ChannelMean, false);
            for &v in &vals {
                max_v = max_v.max(v);
            }
        }
        let picked_vals = neuron_values(&pass, picked.activation, Granularity::ChannelMean, false);
        assert!((picked_vals[picked.index] - max_v).abs() < 1e-6);
    }

    #[test]
    fn pick_k_returns_distinct_uncovered() {
        let net = cnn(20);
        let t = CoverageSignal::neuron(&net, CoverageConfig::default());
        let mut r = rng::rng(21);
        let picks = t.pick_uncovered_k(&mut r, 5);
        assert_eq!(picks.len(), 5);
        let mut sorted = picks.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "picks must be distinct: {picks:?}");
    }

    #[test]
    fn pick_k_caps_at_remaining() {
        let net = cnn(22);
        let t = CoverageSignal::neuron(&net, CoverageConfig::default());
        let mut r = rng::rng(23);
        let picks = t.pick_uncovered_k(&mut r, 10_000);
        assert_eq!(picks.len(), t.total());
    }

    #[test]
    fn merge_unions_covered_sets() {
        let net = cnn(30);
        let mut a = CoverageSignal::neuron(&net, CoverageConfig::default());
        let mut b = CoverageSignal::neuron(&net, CoverageConfig::default());
        a.update(&net.forward(&rng::uniform(&mut rng::rng(31), &[1, 1, 6, 6], 0.0, 0.4)));
        b.update(&net.forward(&rng::uniform(&mut rng::rng(32), &[1, 1, 6, 6], 0.6, 1.0)));
        assert_merge_and_delta_sync(&a, &b);
    }

    #[test]
    fn merge_from_empty_is_identity() {
        let net = cnn(33);
        let mut a = CoverageSignal::neuron(&net, CoverageConfig::default());
        let empty = CoverageSignal::neuron(&net, CoverageConfig::default());
        a.update(&net.forward(&rng::uniform(&mut rng::rng(34), &[1, 1, 6, 6], 0.2, 1.0)));
        let before = a.covered_count();
        assert_eq!(a.merge(&empty), 0);
        assert_eq!(a.covered_count(), before);
    }

    #[test]
    fn copy_covered_from_adopts_union() {
        let net = cnn(35);
        let mut a = CoverageSignal::neuron(&net, CoverageConfig::default());
        let mut b = CoverageSignal::neuron(&net, CoverageConfig::default());
        a.update(&net.forward(&rng::uniform(&mut rng::rng(36), &[1, 1, 6, 6], 0.3, 1.0)));
        b.copy_covered_from(&a);
        assert_eq!(b.covered_count(), a.covered_count());
        assert_eq!(b.merge(&a), 0);
    }

    #[test]
    fn index_delta_round_trips() {
        let net = cnn(38);
        let mut local = CoverageSignal::neuron(&net, CoverageConfig::default());
        let mut base = CoverageSignal::neuron(&net, CoverageConfig::default());
        local.update(&net.forward(&rng::uniform(&mut rng::rng(39), &[1, 1, 6, 6], 0.3, 1.0)));
        base.update(&net.forward(&rng::uniform(&mut rng::rng(40), &[1, 1, 6, 6], 0.0, 0.5)));
        assert_merge_and_delta_sync(&base, &local);
    }

    #[test]
    fn covered_indices_match_mask() {
        let net = cnn(41);
        let mut t = CoverageSignal::neuron(&net, CoverageConfig::default());
        t.update(&net.forward(&rng::uniform(&mut rng::rng(42), &[1, 1, 6, 6], 0.2, 1.0)));
        let idx = t.covered_indices();
        assert_eq!(idx.len(), t.covered_count());
        let empty = CoverageSignal::neuron(&net, CoverageConfig::default());
        assert_eq!(t.diff_indices(&empty), idx);
    }

    #[test]
    #[should_panic(expected = "different neuron sets")]
    fn merge_rejects_mismatched_trackers() {
        let net = cnn(37);
        let mut full = CoverageSignal::neuron(&net, CoverageConfig::default());
        let partial = CoverageSignal::neuron_over(&net, &[2, 3], CoverageConfig::default());
        full.merge(&partial);
    }

    #[test]
    fn reset_clears() {
        let net = cnn(15);
        let mut t = CoverageSignal::neuron(&net, CoverageConfig::default());
        let x = rng::uniform(&mut rng::rng(16), &[1, 1, 6, 6], 0.5, 1.0);
        t.update(&net.forward(&x));
        assert!(t.covered_count() > 0);
        t.reset();
        assert_eq!(t.covered_count(), 0);
    }
}
