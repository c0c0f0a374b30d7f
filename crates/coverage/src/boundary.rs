//! Boundary/corner coverage — the regions the multisection metric is
//! blind to.
//!
//! DeepGauge (Ma et al. 2018) splits each neuron's behavior against its
//! training-set profile `[low, high]` into the *major function region*
//! (inside the range — what k-multisection sections) and the *corner
//! regions* outside it. Adversarial and difference-inducing inputs
//! concentrate exactly there: an activation below `low` or above `high`
//! is a neuron operating outside everything the training set exercised.
//! [`crate::multisection`] deliberately skips such values, so on its own
//! it never rewards a campaign for reaching them.
//!
//! The boundary rule closes that blind spot: **two units per coverable
//! neuron** — below-`low` and above-`high` — over the same
//! [`crate::NeuronProfile`] the multisection rule sections, so campaigns
//! can steer by it alone (`--metric boundary`) or compose it with other
//! rules (`--metric multisection:4+boundary`). The flat unit space is
//! neuron-major pairs: unit `2i` is neuron `i`'s below-low corner, unit
//! `2i + 1` its above-high corner.

/// Corner units per neuron: below-`low` and above-`high`.
pub(crate) const UNITS_PER_NEURON: usize = 2;

/// The corner `v` escapes `[lo, hi]` through — `0` below, `1` above;
/// `None` inside the range (multisection's territory).
#[inline]
pub(crate) fn corner_of(lo: f32, hi: f32, v: f32) -> Option<usize> {
    if v < lo {
        Some(0)
    } else if v > hi {
        Some(1)
    } else {
        None
    }
}

/// Which way obj2 should push a neuron currently at `v` to escape the
/// profiled range (`hits` is its `[below, above]` flags): `-1.0` to dive
/// below `lo`, `1.0` to climb past `hi`. With both corners unhit it heads
/// for the nearest edge (ties break downward: the low corner comes first
/// in the unit space, as in multisection's nearest-section tie-break);
/// with both hit it falls back to the threshold rule's always-up `1.0`.
pub(crate) fn direction(lo: f32, hi: f32, v: f32, hits: &[bool]) -> f32 {
    match (hits[0], hits[1]) {
        (false, true) => -1.0,
        (true, _) => 1.0,
        (false, false) if v - lo <= hi - v => -1.0,
        (false, false) => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use crate::neuron::tests::neuron_values;
    use crate::neuron::Granularity;
    use crate::signal::tests::{self as laws, mlp as net, signal_over};
    use crate::signal::CoverageSignal;
    use crate::NeuronProfile;
    use dx_nn::network::Network;
    use dx_tensor::{rng, Tensor};

    fn primed_profile(n: &Network, inputs: usize, seed: u64) -> NeuronProfile {
        laws::primed_profile(n, inputs, seed, 0.3, 0.7)
    }

    /// A `boundary` signal over `profile`.
    fn corners(n: &Network, profile: NeuronProfile) -> CoverageSignal {
        signal_over(n, "boundary", profile)
    }

    #[test]
    fn replayed_profile_inputs_hit_no_corners() {
        // Inputs inside the profiled distribution are, by construction,
        // inside every neuron's range: the corner region stays empty.
        let n = net(0);
        let mut profile = NeuronProfile::new(&n, Granularity::Unit);
        let mut r = rng::rng(1);
        let xs: Vec<_> = (0..10).map(|_| rng::uniform(&mut r, &[1, 6], 0.3, 0.7)).collect();
        for x in &xs {
            profile.observe(&n.forward(x));
        }
        let mut t = corners(&n, profile);
        for x in &xs {
            assert_eq!(t.update(&n.forward(x)), 0);
        }
        assert_eq!(t.coverage(), 0.0);
    }

    #[test]
    fn out_of_distribution_inputs_hit_corners() {
        // Inputs far outside the profiling distribution push activations
        // past the profiled ranges.
        let n = net(2);
        let t0 = primed_profile(&n, 15, 3);
        let mut t = corners(&n, t0);
        let mut r = rng::rng(4);
        let mut newly = 0;
        for _ in 0..10 {
            let x = rng::uniform(&mut r, &[1, 6], -3.0, 3.0);
            newly += t.update(&n.forward(&x));
        }
        assert!(newly > 0, "wild inputs must escape some profiled range");
        assert_eq!(t.covered_count(), newly);
        assert!(t.coverage() > 0.0 && t.coverage() <= 1.0);
        assert!(t.covered_count() <= t.coverable_total());
    }

    #[test]
    fn nan_activations_hit_no_corners() {
        // NaN compares false against both edges — it must not count as a
        // corner hit (a NaN is not "outside the range", it is garbage).
        let n = net(5);
        let mut t = corners(&n, primed_profile(&n, 15, 6));
        let pass = n.forward(&Tensor::from_vec(vec![f32::NAN; 6], &[1, 6]));
        assert_eq!(t.update(&pass), 0);
        assert_eq!(t.covered_count(), 0);
    }

    #[test]
    fn uncoverable_neurons_are_excluded() {
        let n = net(7);
        laws::uncoverable_neurons_are_excluded(&n, "boundary", primed_profile(&n, 15, 8));
    }

    #[test]
    fn merge_and_delta_sync_union_hit_sets() {
        let n = net(9);
        let p = primed_profile(&n, 15, 10);
        let mut a = corners(&n, p.clone());
        let mut b = corners(&n, p);
        let mut r = rng::rng(11);
        a.update(&n.forward(&rng::uniform(&mut r, &[1, 6], -4.0, 0.0)));
        b.update(&n.forward(&rng::uniform(&mut r, &[1, 6], 1.0, 5.0)));
        laws::assert_merge_and_delta_sync(&a, &b);
    }

    #[test]
    fn mask_round_trips_and_drops_uncoverable_bits() {
        let n = net(12);
        let x = rng::uniform(&mut rng::rng(14), &[1, 6], -4.0, 4.0);
        laws::mask_round_trips_and_drops_uncoverable_bits(
            &n,
            "boundary",
            primed_profile(&n, 15, 13),
            &x,
        );
    }

    #[test]
    fn incompatible_profiles_rejected() {
        let n = net(15);
        let (p1, p2) = (primed_profile(&n, 15, 16), primed_profile(&n, 15, 17));
        laws::incompatible_profiles_rejected(&n, "boundary", p1, p2);
    }

    #[test]
    fn picks_skip_complete_and_uncoverable_neurons() {
        let n = net(18);
        laws::picks_skip_complete_and_uncoverable_neurons(
            &n,
            "boundary",
            primed_profile(&n, 15, 19),
            20,
        );
    }

    #[test]
    fn target_direction_pushes_past_nearest_unhit_edge() {
        let n = net(21);
        let mut p = primed_profile(&n, 15, 22);
        let x = rng::uniform(&mut rng::rng(23), &[1, 6], 0.3, 0.7);
        let pass = n.forward(&x);
        let v = neuron_values(&pass, laws::neuron(&n, 0).activation, Granularity::Unit, false)[0];
        // Pin neuron 0's range so `v` sits nearer the low edge.
        p.low[0] = v - 1.0;
        p.high[0] = v + 3.0;
        let mut t = corners(&n, p);
        let id = laws::neuron(&n, 0);
        // Both corners unhit: nearest edge is low — push down.
        assert_eq!(t.target_direction(id, &pass), -1.0);
        // Low corner hit: only the high corner remains — push up.
        t.apply_covered_indices(&[0]);
        assert_eq!(t.target_direction(id, &pass), 1.0);
        // High corner hit instead: push down.
        t.reset();
        t.apply_covered_indices(&[1]);
        assert_eq!(t.target_direction(id, &pass), -1.0);
        // Both hit: fall back to up.
        t.apply_covered_indices(&[0]);
        assert_eq!(t.target_direction(id, &pass), 1.0);
    }

    #[test]
    #[should_panic(expected = "observe training inputs")]
    fn unprimed_profile_rejected() {
        let n = net(24);
        corners(&n, NeuronProfile::new(&n, Granularity::Unit));
    }
}
