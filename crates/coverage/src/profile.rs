//! Training-set neuron profiles — the ranges DeepGauge's metrics are cut
//! from.

use dx_nn::network::{Network, PassRow};

use crate::neuron::{Granularity, Layout};

/// Profiled output range `[low, high]` of every tracked neuron. One profile
/// per model is shared by every profile-based rule of its signal: the
/// multisection rule sections the *inside* of each range
/// ([`crate::multisection`]), the boundary rule watches the corner regions
/// *outside* it ([`crate::boundary`]).
#[derive(Clone, Debug)]
pub struct NeuronProfile {
    layout: Layout,
    pub(crate) low: Vec<f32>,
    pub(crate) high: Vec<f32>,
}

impl NeuronProfile {
    /// Starts an empty profile over the network's coverage layers.
    pub fn new(net: &Network, granularity: Granularity) -> Self {
        let layout = Layout::new(net, &net.coverage_activation_indices(), granularity);
        let total = layout.total();
        Self { layout, low: vec![f32::INFINITY; total], high: vec![f32::NEG_INFINITY; total] }
    }

    /// Rebuilds a profile from checkpointed ranges. The network and
    /// granularity re-derive the tracked-activation layout; `low`/`high`
    /// must have one entry per tracked neuron.
    ///
    /// # Errors
    ///
    /// When the range vectors do not match the network's neuron count.
    pub fn restore(
        net: &Network,
        granularity: Granularity,
        low: Vec<f32>,
        high: Vec<f32>,
    ) -> Result<Self, String> {
        let fresh = Self::new(net, granularity);
        if low.len() != fresh.total() || high.len() != fresh.total() {
            return Err(format!(
                "profile ranges ({}/{} entries) do not fit the network ({} neurons)",
                low.len(),
                high.len(),
                fresh.total()
            ));
        }
        Ok(Self { low, high, ..fresh })
    }

    /// Extends the ranges with one input (a batch-size-1 pass or a
    /// [`PassRow`]) — call once per training input.
    ///
    /// # Panics
    ///
    /// Panics when a whole pass holds more than one input.
    pub fn observe<'p>(&mut self, pass: impl Into<PassRow<'p>>) {
        let (low, high) = (&mut self.low, &mut self.high);
        self.layout.walk(pass.into(), false, |i, v| {
            low[i] = low[i].min(v);
            high[i] = high[i].max(v);
        });
    }

    /// Number of profiled neurons.
    pub fn total(&self) -> usize {
        self.low.len()
    }

    /// Whether any input has been observed.
    pub fn is_primed(&self) -> bool {
        self.low.iter().any(|v| v.is_finite())
    }

    /// The profiled `(low, high)` ranges, one pair per tracked neuron —
    /// for checkpoint persistence; rebuild with [`NeuronProfile::restore`].
    pub fn ranges(&self) -> (&[f32], &[f32]) {
        (&self.low, &self.high)
    }

    /// The neuron granularity the profile was built with.
    pub fn granularity(&self) -> Granularity {
        self.layout.granularity
    }

    /// The flat neuron space the ranges are indexed by.
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Whether a neuron's profiled range can be cut into units at all:
    /// finite bounds with `high > low`. Constant and unprofiled neurons are
    /// not.
    #[inline]
    pub(crate) fn coverable(&self, i: usize) -> bool {
        self.low[i].is_finite() && self.high[i].is_finite() && self.high[i] > self.low[i]
    }

    /// Neuron `i`'s `(low, high)` when value `v` can be held against it —
    /// the one guard every profile rule shares. `None` for an uncoverable
    /// neuron and for NaN/±inf: a numerically broken pass is not "outside
    /// the profiled range", it is outside the number line (and `NaN as
    /// usize` would read as section 0).
    #[inline]
    pub(crate) fn range_for(&self, i: usize, v: f32) -> Option<(f32, f32)> {
        (self.coverable(i) && v.is_finite()).then(|| (self.low[i], self.high[i]))
    }

    /// Whether `other` profiles the same neurons to bitwise-equal ranges —
    /// bounds include ±infinity for unprofiled neurons, and resumes must
    /// match checkpoints exactly.
    pub(crate) fn same_ranges(&self, other: &NeuronProfile) -> bool {
        let bits_eq =
            |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        self.layout == other.layout
            && bits_eq(&self.low, &other.low)
            && bits_eq(&self.high, &other.high)
    }
}
