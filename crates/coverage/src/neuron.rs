//! Neuron identity, value extraction, per-layer scaling and the flat
//! neuron-space layout of a network's tracked activations.

use dx_nn::network::{ForwardPass, Network};
use dx_tensor::Tensor;

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

/// Extracts neuron values from one activation of a batch-size-1 pass.
///
/// With `scale_per_layer` the values are min-max scaled to `[0, 1]` within
/// the activation, as the paper does when layer output ranges differ (§7.1).
///
/// # Panics
///
/// Panics unless the activation has batch size 1.
pub fn neuron_values(
    pass: &ForwardPass,
    activation: usize,
    granularity: Granularity,
    scale_per_layer: bool,
) -> Vec<f32> {
    let act = &pass.activations[activation];
    assert_eq!(act.shape()[0], 1, "neuron extraction expects batch size 1, got {:?}", act.shape());
    let scaled;
    let act = if scale_per_layer {
        scaled = act.minmax_scaled();
        &scaled
    } else {
        act
    };
    match (act.rank(), granularity) {
        (4, Granularity::ChannelMean) => {
            let (c, h, w) = (act.shape()[1], act.shape()[2], act.shape()[3]);
            let hw = h * w;
            (0..c)
                .map(|ch| act.data()[ch * hw..(ch + 1) * hw].iter().sum::<f32>() / hw as f32)
                .collect()
        }
        (4, Granularity::Unit) | (2, _) => act.data().to_vec(),
        _ => panic!("unsupported activation rank {} for coverage", act.rank()),
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

    /// Calls `f(flat offset, value)` for every tracked neuron of one
    /// (batch-size-1) pass, in flat order — the one walk every rule's
    /// update, the nearest pick and profiling share.
    pub(crate) fn walk(
        &self,
        pass: &ForwardPass,
        scale_per_layer: bool,
        mut f: impl FnMut(usize, f32),
    ) {
        for (&a, &base) in self.activations.iter().zip(&self.bases) {
            let values = neuron_values(pass, a, self.granularity, scale_per_layer);
            for (j, &v) in values.iter().enumerate() {
                f(base + j, v);
            }
        }
    }
}

/// Builds the gradient-injection seed that maximizes a single neuron — the
/// `∂fn(x)/∂x` hook of the paper's `obj2`.
///
/// Returns `(activation_index, ∂neuron/∂activation)` suitable for
/// [`Network::input_gradient`].
pub fn injection_for_neuron(
    net: &Network,
    id: NeuronId,
    granularity: Granularity,
) -> (usize, Tensor) {
    let shape = &net.activation_shapes()[id.activation];
    let mut batched = vec![1usize];
    batched.extend_from_slice(shape);
    let mut seed = Tensor::zeros(&batched);
    match (shape.len(), granularity) {
        (3, Granularity::ChannelMean) => {
            let (c, h, w) = (shape[0], shape[1], shape[2]);
            assert!(id.index < c, "channel {} out of range for {c} channels", id.index);
            let hw = h * w;
            let inv = 1.0 / hw as f32;
            let base = id.index * hw;
            for i in 0..hw {
                seed.data_mut()[base + i] = inv;
            }
        }
        (3, Granularity::Unit) | (1, _) => {
            assert!(
                id.index < seed.len(),
                "neuron index {} out of range for activation {:?}",
                id.index,
                shape
            );
            seed.data_mut()[id.index] = 1.0;
        }
        _ => panic!("unsupported activation shape {shape:?}"),
    }
    (id.activation, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_nn::layer::Layer;
    use dx_tensor::rng;

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

    #[test]
    fn injection_gradient_equals_channel_mean_derivative() {
        // d(mean of channel)/d(activation) is 1/(H·W) on that channel.
        let net = cnn(4);
        let (idx, seed) = injection_for_neuron(
            &net,
            NeuronId { activation: 2, index: 2 },
            Granularity::ChannelMean,
        );
        assert_eq!(idx, 2);
        assert_eq!(seed.shape(), &[1, 3, 4, 4]);
        assert!((seed.sum() - 1.0).abs() < 1e-6);
        assert_eq!(seed.at(&[0, 2, 0, 0]), 1.0 / 16.0);
        assert_eq!(seed.at(&[0, 0, 0, 0]), 0.0);
    }

    #[test]
    fn injection_for_dense_neuron_is_one_hot() {
        let net = cnn(5);
        let (idx, seed) = injection_for_neuron(
            &net,
            NeuronId { activation: 5, index: 3 },
            Granularity::ChannelMean,
        );
        assert_eq!(idx, 5);
        assert_eq!(seed.shape(), &[1, 4]);
        assert_eq!(seed.at(&[0, 3]), 1.0);
        assert_eq!(seed.sum(), 1.0);
    }

    #[test]
    fn injected_neuron_gradient_matches_finite_difference() {
        let net = cnn(6);
        let x = rng::uniform(&mut rng::rng(7), &[1, 1, 6, 6], 0.2, 0.8);
        let pass = net.forward(&x);
        let id = NeuronId { activation: 2, index: 1 };
        let (idx, seed) = injection_for_neuron(&net, id, Granularity::ChannelMean);
        let grad = net.input_gradient(&pass, &[(idx, seed)]);
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
