//! Neuron identity, value extraction, per-layer scaling and the flat
//! neuron-space layout of a network's tracked activations.

use std::ops::Range;

use dx_nn::network::{Network, PassRow};

/// How neurons are counted in spatial (convolutional) activations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// One neuron per channel; its value is the spatial mean of the feature
    /// map. This matches the original DeepXplore implementation and is the
    /// workspace default.
    ChannelMean,
    /// One neuron per scalar activation unit.
    Unit,
}

/// Identifies one neuron: a tracked activation plus an index within it.
///
/// For rank-4 activations the index is a channel (`ChannelMean`) or a flat
/// `c·H·W + y·W + x` offset (`Unit`); for rank-2 activations it is the
/// feature index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NeuronId {
    /// Activation index in the network (`1..=num_layers`).
    pub activation: usize,
    /// Neuron index within the activation.
    pub index: usize,
}

/// Number of neurons a given activation shape contributes.
pub fn neuron_count(shape: &[usize], granularity: Granularity) -> usize {
    match (shape.len(), granularity) {
        (3, Granularity::ChannelMean) => shape[0],
        (3, Granularity::Unit) => shape.iter().product(),
        (1, _) => shape[0],
        _ => panic!("unsupported activation shape {shape:?}"),
    }
}

/// Calls `f(index, value)` for every neuron of one activation of `row`, in
/// index order, reading the row in place.
///
/// With `scale_per_layer` the values are min-max scaled to `[0, 1]` within
/// the activation, as the paper does when layer output ranges differ (§7.1):
/// the same `f32` operations, in the same order, as `Tensor::minmax_scaled`
/// on the activation followed by a channel mean.
pub(crate) fn for_each_value(
    row: PassRow<'_>,
    activation: usize,
    granularity: Granularity,
    scale_per_layer: bool,
    mut f: impl FnMut(usize, f32),
) {
    let (data, shape) = (row.activation(activation), row.shape(activation));
    let scale = scale_per_layer.then(|| {
        let lo = data.iter().copied().fold(f32::INFINITY, f32::min);
        (lo, data.iter().copied().fold(f32::NEG_INFINITY, f32::max) - lo)
    });
    let value = |v: f32| match scale {
        None => v,
        // A constant activation scales to all-zeros (`Tensor::minmax_scaled`).
        Some((_, range)) if range <= f32::EPSILON => 0.0,
        Some((lo, range)) => (v - lo) / range,
    };
    match (shape.len(), granularity) {
        (3, Granularity::ChannelMean) => {
            let hw = shape[1] * shape[2];
            for (ch, plane) in data.chunks_exact(hw).enumerate() {
                f(ch, plane.iter().map(|&v| value(v)).sum::<f32>() / hw as f32);
            }
        }
        (3, Granularity::Unit) | (1, _) => {
            for (i, &v) in data.iter().enumerate() {
                f(i, value(v));
            }
        }
        _ => panic!("unsupported activation rank {} for coverage", shape.len() + 1),
    }
}

/// Which activations of a network are tracked and where each one's neurons
/// sit in the flat neuron space: activation `activations[s]` owns offsets
/// `bases[s]..bases[s + 1]`. Every hit-set and every [`crate::NeuronProfile`]
/// is laid out by one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Layout {
    /// Tracked activation indices, ascending.
    activations: Vec<usize>,
    /// Base offset of each tracked activation in the flat neuron space.
    bases: Vec<usize>,
    total: usize,
    pub(crate) granularity: Granularity,
}

impl Layout {
    /// Lays out an explicit set of activation indices.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or the list is unsorted or empty.
    pub(crate) fn new(net: &Network, activations: &[usize], granularity: Granularity) -> Self {
        assert!(!activations.is_empty(), "no activations to track");
        assert!(
            activations.windows(2).all(|w| w[0] < w[1]),
            "activation indices must be strictly ascending: {activations:?}"
        );
        let shapes = net.activation_shapes();
        let mut bases = Vec::with_capacity(activations.len());
        let mut total = 0usize;
        for &a in activations {
            assert!(
                a >= 1 && a < shapes.len(),
                "activation index {a} out of range 1..{}",
                shapes.len()
            );
            bases.push(total);
            total += neuron_count(&shapes[a], granularity);
        }
        Self { activations: activations.to_vec(), bases, total, granularity }
    }

    /// Number of tracked neurons.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// Translates a flat neuron offset back to a [`NeuronId`].
    pub(crate) fn id_of(&self, flat: usize) -> NeuronId {
        let slot = match self.bases.binary_search(&flat) {
            Ok(s) => s,
            Err(s) => s - 1,
        };
        NeuronId { activation: self.activations[slot], index: flat - self.bases[slot] }
    }

    /// The inverse of [`Layout::id_of`]: the flat offset of a [`NeuronId`],
    /// or `None` when it names no tracked neuron.
    pub(crate) fn flat_of(&self, id: NeuronId) -> Option<usize> {
        let slot = self.activations.iter().position(|&a| a == id.activation)?;
        Some(self.bases[slot] + id.index).filter(|&flat| flat < self.total)
    }

    /// Calls `f(flat offset, value)` for every tracked neuron of one input,
    /// in flat order — the one walk every rule's update, the nearest pick
    /// and profiling share.
    pub(crate) fn walk(
        &self,
        row: PassRow<'_>,
        scale_per_layer: bool,
        mut f: impl FnMut(usize, f32),
    ) {
        for (&a, &base) in self.activations.iter().zip(&self.bases) {
            for_each_value(row, a, self.granularity, scale_per_layer, |j, v| f(base + j, v));
        }
    }
}

/// The gradient of one neuron with respect to its activation — the
/// `∂fn(x)/∂x` hook of the paper's `obj2`: `value` at the offsets `range`
/// of one input's sample of activation `activation`, zero elsewhere.
/// Callers add it, scaled, into their own injection tensor for
/// [`Network::input_gradient`].
#[derive(Clone, Debug, PartialEq)]
pub struct Injection {
    /// Activation index in the network (`1..=num_layers`).
    pub activation: usize,
    /// Offsets within one sample of the activation that the neuron reads.
    pub range: Range<usize>,
    /// `∂neuron/∂activation` at each of those offsets.
    pub value: f32,
}

/// The [`Injection`] that maximizes neuron `id`: one channel's plane at
/// `1/(H·W)` for a channel-mean neuron, a single `1.0` otherwise.
///
/// # Panics
///
/// Panics when `id` is out of range for its activation.
pub fn injection_for_neuron(net: &Network, id: NeuronId, granularity: Granularity) -> Injection {
    let shape = &net.activation_shapes()[id.activation];
    let count = neuron_count(shape, granularity);
    assert!(id.index < count, "neuron {} out of range for {count} in {shape:?}", id.index);
    let (range, value) = match (shape.len(), granularity) {
        (3, Granularity::ChannelMean) => {
            let hw = shape[1] * shape[2];
            (id.index * hw..(id.index + 1) * hw, 1.0 / hw as f32)
        }
        _ => (id.index..id.index + 1, 1.0),
    };
    Injection { activation: id.activation, range, value }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dx_nn::layer::Layer;
    use dx_nn::network::ForwardPass;
    use dx_tensor::{rng, Tensor};

    /// The tensor-level reference for the values of one activation of a
    /// batch-size-1 pass: a min-max-scaled copy of the activation, then
    /// channel means. Row reads are held to it bit for bit.
    pub(crate) fn neuron_values(
        pass: &ForwardPass,
        activation: usize,
        granularity: Granularity,
        scale_per_layer: bool,
    ) -> Vec<f32> {
        let act = &pass.activations[activation];
        assert_eq!(act.shape()[0], 1, "one input per pass");
        let act = if scale_per_layer { act.minmax_scaled() } else { act.clone() };
        match (act.rank(), granularity) {
            (4, Granularity::ChannelMean) => {
                let hw = act.shape()[2] * act.shape()[3];
                act.data().chunks_exact(hw).map(|p| p.iter().sum::<f32>() / hw as f32).collect()
            }
            _ => act.data().to_vec(),
        }
    }

    fn cnn(seed: u64) -> Network {
        let mut net = Network::new(
            &[1, 6, 6],
            vec![
                Layer::conv2d(1, 3, 3, 1, 0),
                Layer::relu(),
                Layer::flatten(),
                Layer::dense(3 * 4 * 4, 4),
                Layer::softmax(),
            ],
        );
        net.init_weights(&mut rng::rng(seed));
        net
    }

    #[test]
    fn counts_by_granularity() {
        assert_eq!(neuron_count(&[3, 4, 4], Granularity::ChannelMean), 3);
        assert_eq!(neuron_count(&[3, 4, 4], Granularity::Unit), 48);
        assert_eq!(neuron_count(&[10], Granularity::ChannelMean), 10);
    }

    #[test]
    fn channel_mean_matches_manual_average() {
        let net = cnn(0);
        let x = rng::uniform(&mut rng::rng(1), &[1, 1, 6, 6], 0.0, 1.0);
        let pass = net.forward(&x);
        let values = neuron_values(&pass, 2, Granularity::ChannelMean, false);
        assert_eq!(values.len(), 3);
        let act = &pass.activations[2];
        let manual: f32 = (0..4)
            .flat_map(|y| (0..4).map(move |x_| (y, x_)))
            .map(|(y, x_)| act.at(&[0, 1, y, x_]))
            .sum::<f32>()
            / 16.0;
        assert!((values[1] - manual).abs() < 1e-6);
    }

    #[test]
    fn scaling_maps_to_unit_interval() {
        let net = cnn(2);
        let x = rng::uniform(&mut rng::rng(3), &[1, 1, 6, 6], 0.0, 1.0);
        let pass = net.forward(&x);
        let values = neuron_values(&pass, 4, Granularity::Unit, true);
        assert!(values.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// The injection written out as the `[1, ...]` tensor it stands for.
    fn dense_seed(net: &Network, inj: &Injection) -> Tensor {
        let mut shape = vec![1];
        shape.extend_from_slice(&net.activation_shapes()[inj.activation]);
        let mut seed = Tensor::zeros(&shape);
        seed.data_mut()[inj.range.clone()].fill(inj.value);
        seed
    }

    #[test]
    fn injection_gradient_equals_channel_mean_derivative() {
        // d(mean of channel)/d(activation) is 1/(H·W) on that channel.
        let net = cnn(4);
        let id = NeuronId { activation: 2, index: 2 };
        let inj = injection_for_neuron(&net, id, Granularity::ChannelMean);
        assert_eq!(inj, Injection { activation: 2, range: 32..48, value: 1.0 / 16.0 });
        let seed = dense_seed(&net, &inj);
        assert_eq!(seed.shape(), &[1, 3, 4, 4]);
        assert!((seed.sum() - 1.0).abs() < 1e-6);
        assert_eq!(seed.at(&[0, 2, 0, 0]), 1.0 / 16.0);
        assert_eq!(seed.at(&[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn injection_for_dense_neuron_is_one_hot() {
        let net = cnn(5);
        let id = NeuronId { activation: 5, index: 3 };
        let inj = injection_for_neuron(&net, id, Granularity::ChannelMean);
        assert_eq!(inj, Injection { activation: 5, range: 3..4, value: 1.0 });
        let seed = dense_seed(&net, &inj);
        assert_eq!(seed.shape(), &[1, 4]);
        assert_eq!(seed.at(&[0, 3]), 1.0);
        assert_eq!(seed.sum(), 1.0);
    }

    #[test]
    fn row_values_match_a_single_input_pass_bit_for_bit() {
        // A row of a batched pass, read in place, yields the reference
        // values of the same input passed alone — scaled or not, per
        // channel or per unit.
        let net = cnn(8);
        let x = rng::uniform(&mut rng::rng(9), &[3, 1, 6, 6], 0.0, 1.0);
        let batched = net.forward(&x);
        for r in 0..3 {
            let alone = net.forward(&dx_nn::util::gather_rows(&x, &[r]));
            for (a, gran, scale) in [
                (2, Granularity::ChannelMean, false),
                (2, Granularity::ChannelMean, true),
                (2, Granularity::Unit, true),
                (5, Granularity::Unit, false),
            ] {
                let bits = |v: Vec<f32>| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let want = bits(neuron_values(&alone, a, gran, scale));
                let mut got = Vec::new();
                for_each_value(batched.row(r), a, gran, scale, |_, v| got.push(v));
                assert_eq!(bits(got), want);
            }
        }
    }

    #[test]
    fn injected_neuron_gradient_matches_finite_difference() {
        let net = cnn(6);
        let x = rng::uniform(&mut rng::rng(7), &[1, 1, 6, 6], 0.2, 0.8);
        let pass = net.forward(&x);
        let id = NeuronId { activation: 2, index: 1 };
        let inj = injection_for_neuron(&net, id, Granularity::ChannelMean);
        let grad = net.input_gradient(&pass, &[(inj.activation, dense_seed(&net, &inj))]);
        let value = |x: &Tensor| {
            let p = net.forward(x);
            neuron_values(&p, 2, Granularity::ChannelMean, false)[1]
        };
        let h = 1e-2;
        for i in (0..x.len()).step_by(7) {
            let mut plus = x.clone();
            plus.data_mut()[i] += h;
            let mut minus = x.clone();
            minus.data_mut()[i] -= h;
            let fd = (value(&plus) - value(&minus)) / (2.0 * h);
            assert!((fd - grad.data()[i]).abs() < 5e-3, "fd {fd} vs analytic {}", grad.data()[i]);
        }
    }
}
