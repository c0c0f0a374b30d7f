//! k-multisection neuron coverage — the finer-grained successor of the
//! paper's threshold metric.
//!
//! DeepXplore's neuron coverage is binary: a neuron is covered once its
//! output exceeds `t` anywhere. Follow-on work (DeepGauge, Ma et al. 2018
//! — directly building on this paper) refines it: profile each neuron's
//! output range `[low, high]` on the training set, split it into `k`
//! equal sections, and count the fraction of *sections* test inputs have
//! reached. This catches test suites that hammer one operating point of a
//! neuron and never explore the rest of its range.
//!
//! This module is the whole of what is specific to the metric: which
//! section a value lands in, and which way obj2 should push to reach an
//! unhit one. The hit-set around it is [`crate::tracker`]'s. The flat
//! *unit* space is neuron-major sections: unit `i` is section `i % k` of
//! neuron `i / k`.

/// The section of `[lo, hi]` (cut into `k`) that `v` lands in; `None`
/// outside the profiled range — the corner region, tracked by
/// [`crate::boundary`], not here.
#[inline]
pub(crate) fn section_of(lo: f32, hi: f32, k: usize, v: f32) -> Option<usize> {
    if v < lo || v > hi {
        return None;
    }
    Some((((v - lo) / (hi - lo)) * k as f32).floor().min((k - 1) as f32) as usize)
}

/// Which way obj2 should push a neuron currently at `v` to reach its
/// nearest unhit section (`hits` is the neuron's `k` flags): `1.0` to
/// raise it, `-1.0` to lower it; ties go to the lower section. Values
/// outside the profiled range steer back toward it.
///
/// Without this, section targeting would always maximize the activation —
/// actively moving *away* from unhit sections that sit below the current
/// operating point.
pub(crate) fn direction(lo: f32, hi: f32, v: f32, hits: &[bool]) -> f32 {
    let Some(current) = section_of(lo, hi, hits.len(), v) else {
        return if v < lo { 1.0 } else { -1.0 };
    };
    let current = current as isize;
    let nearest = (0..hits.len() as isize)
        .filter(|&s| !hits[s as usize])
        .min_by_key(|&s| ((s - current).abs(), s));
    match nearest {
        Some(s) if s < current => -1.0,
        _ => 1.0,
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
        laws::primed_profile(n, inputs, seed, 0.0, 1.0)
    }

    /// A `multisection:k` signal over `profile`.
    fn sections(n: &Network, profile: NeuronProfile, k: usize) -> CoverageSignal {
        signal_over(n, &format!("multisection:{k}"), profile)
    }

    #[test]
    fn profile_ranges_are_ordered() {
        let n = net(0);
        let p = primed_profile(&n, 20, 1);
        assert!(p.is_primed());
        for i in 0..p.total() {
            assert!(p.low[i] <= p.high[i]);
        }
    }

    #[test]
    fn coverage_grows_and_is_bounded() {
        let n = net(2);
        let p = primed_profile(&n, 30, 3);
        let mut t = sections(&n, p, 5);
        assert_eq!(t.coverage(), 0.0);
        let mut r = rng::rng(4);
        let mut last = 0.0;
        for _ in 0..20 {
            let x = rng::uniform(&mut r, &[1, 6], 0.0, 1.0);
            t.update(&n.forward(&x));
            let c = t.coverage();
            assert!(c >= last && c <= 1.0);
            last = c;
        }
        assert!(last > 0.0);
    }

    #[test]
    fn profiled_inputs_land_inside_sections() {
        // Replaying the profiling inputs must hit sections (never be
        // rejected as out of range).
        let n = net(5);
        let mut profile = NeuronProfile::new(&n, Granularity::Unit);
        let mut r = rng::rng(6);
        let xs: Vec<_> = (0..10).map(|_| rng::uniform(&mut r, &[1, 6], 0.0, 1.0)).collect();
        for x in &xs {
            profile.observe(&n.forward(x));
        }
        let mut t = sections(&n, profile, 4);
        let mut total_new = 0;
        for x in &xs {
            total_new += t.update(&n.forward(x));
        }
        assert!(total_new > 0);
    }

    #[test]
    fn k_one_degenerates_to_range_hit() {
        let n = net(7);
        let p = primed_profile(&n, 15, 8);
        let mut t = sections(&n, p, 1);
        let x = rng::uniform(&mut rng::rng(9), &[1, 6], 0.0, 1.0);
        t.update(&n.forward(&x));
        // With one section, coverage equals the fraction of neurons whose
        // replayed value fell inside the profiled range — nonzero here.
        assert!(t.coverage() > 0.0);
    }

    #[test]
    fn finer_sections_are_harder_to_cover() {
        let n = net(10);
        let make = |k: usize| {
            let p = primed_profile(&n, 25, 11);
            let mut t = sections(&n, p, k);
            let mut r = rng::rng(12);
            for _ in 0..10 {
                let x = rng::uniform(&mut r, &[1, 6], 0.0, 1.0);
                t.update(&n.forward(&x));
            }
            t.coverage()
        };
        assert!(make(2) >= make(10), "coarser sections should cover faster");
    }

    #[test]
    fn coverage_denominator_excludes_uncoverable_neurons() {
        // Regression: the denominator used to be `total * k` even though
        // `update` skips constant (`hi <= lo`) and unprofiled neurons, so
        // a network containing one could never report full coverage.
        let n = net(20);
        laws::uncoverable_neurons_are_excluded(&n, "multisection:3", primed_profile(&n, 20, 21));
    }

    #[test]
    fn constant_neuron_never_blocks_update_driven_saturation() {
        // The same denominator property, driven through `update` only: a
        // tracker whose constant neuron can never be hit still converges
        // toward 1.0 rather than an unreachable ceiling below it.
        let n = net(22);
        let mut p = primed_profile(&n, 40, 23);
        p.high[0] = p.low[0]; // One constant neuron.
        let mut t = sections(&n, p, 1);
        let mut r = rng::rng(24);
        for _ in 0..200 {
            let x = rng::uniform(&mut r, &[1, 6], 0.0, 1.0);
            t.update(&n.forward(&x));
        }
        // k = 1: replaying in-range inputs eventually hits every coverable
        // neuron once; with the buggy denominator this could only approach
        // (total-1)/total.
        assert!(t.coverage() > 0.95, "coverage stuck at {}", t.coverage());
        assert!(t.covered_count() <= t.coverable_total());
    }

    #[test]
    fn nan_activations_hit_no_sections() {
        // Regression: a NaN activation passed both `v < lo` and `v > hi`
        // guards, and `NaN as usize` saturates to 0 — so section 0 of every
        // NaN-valued neuron was spuriously marked hit.
        let n = net(60);
        let p = primed_profile(&n, 20, 61);
        let mut t = sections(&n, p, 4);
        // A NaN input propagates NaN through the whole forward pass.
        let nan_x = Tensor::from_vec(vec![f32::NAN; 6], &[1, 6]);
        let pass = n.forward(&nan_x);
        assert!(
            neuron_values(&pass, laws::neuron(&n, 0).activation, Granularity::Unit, false)
                .iter()
                .any(|v| v.is_nan()),
            "test needs a NaN-producing pass"
        );
        assert_eq!(t.update(&pass), 0, "NaN activations must not hit sections");
        assert_eq!(t.covered_count(), 0);
        // Idempotent: replaying the NaN pass stays at zero.
        assert_eq!(t.update(&pass), 0);
    }

    #[test]
    fn merge_unions_hit_sets() {
        let n = net(30);
        let p = primed_profile(&n, 20, 31);
        let mut a = sections(&n, p.clone(), 4);
        let mut b = sections(&n, p, 4);
        let mut r = rng::rng(32);
        a.update(&n.forward(&rng::uniform(&mut r, &[1, 6], 0.0, 0.5)));
        b.update(&n.forward(&rng::uniform(&mut r, &[1, 6], 0.5, 1.0)));
        laws::assert_merge_and_delta_sync(&a, &b);
    }

    #[test]
    fn index_delta_round_trips() {
        let n = net(33);
        let p = primed_profile(&n, 20, 34);
        let mut local = sections(&n, p.clone(), 3);
        let mut base = sections(&n, p, 3);
        let mut r = rng::rng(35);
        local.update(&n.forward(&rng::uniform(&mut r, &[1, 6], 0.3, 1.0)));
        base.update(&n.forward(&rng::uniform(&mut r, &[1, 6], 0.0, 0.6)));
        laws::assert_merge_and_delta_sync(&base, &local);
    }

    #[test]
    fn mask_round_trips_and_drops_uncoverable_bits() {
        let n = net(36);
        let x = rng::uniform(&mut rng::rng(38), &[1, 6], 0.0, 1.0);
        laws::mask_round_trips_and_drops_uncoverable_bits(
            &n,
            "multisection:2",
            primed_profile(&n, 20, 37),
            &x,
        );
    }

    #[test]
    fn incompatible_profiles_rejected() {
        let n = net(40);
        let p1 = primed_profile(&n, 20, 41);
        let p2 = primed_profile(&n, 20, 42); // Different inputs → ranges.
        laws::incompatible_profiles_rejected(&n, "multisection:4", p1.clone(), p2);
        let same_profile_other_k = sections(&n, p1.clone(), 2);
        assert!(!sections(&n, p1, 4).compatible(&same_profile_other_k));
    }

    #[test]
    fn pick_incomplete_returns_sectionable_neurons() {
        let n = net(43);
        laws::picks_skip_complete_and_uncoverable_neurons(
            &n,
            "multisection:4",
            primed_profile(&n, 20, 44),
            45,
        );
    }

    #[test]
    fn target_direction_steers_toward_nearest_unhit_section() {
        let n = net(50);
        let mut p = primed_profile(&n, 20, 51);
        let x = rng::uniform(&mut rng::rng(52), &[1, 6], 0.0, 1.0);
        let pass = n.forward(&x);
        let v = neuron_values(&pass, laws::neuron(&n, 0).activation, Granularity::Unit, false)[0];
        // Pin neuron 0's range so `v` lands in section 1 of k = 4
        // (sections are 1.0 wide on [v-1, v+3]).
        p.low[0] = v - 1.0;
        p.high[0] = v + 3.0;
        let k = 4;
        let mut t = sections(&n, p.clone(), k);
        let id = laws::neuron(&n, 0);
        // Only section 0 (below the current value) unhit: push down.
        t.apply_covered_indices(&[1, 2, 3]);
        assert_eq!(t.target_direction(id, &pass), -1.0);
        // Only section 3 (above) unhit: push up.
        t.reset();
        t.apply_covered_indices(&[0, 1, 2]);
        assert_eq!(t.target_direction(id, &pass), 1.0);
        // Out-of-range values steer back toward the profiled range.
        p.low[0] = v + 1.0;
        p.high[0] = v + 2.0;
        assert_eq!(sections(&n, p.clone(), k).target_direction(id, &pass), 1.0);
        p.low[0] = v - 2.0;
        p.high[0] = v - 1.0;
        assert_eq!(sections(&n, p, k).target_direction(id, &pass), -1.0);
    }

    #[test]
    fn profile_restore_round_trips() {
        let n = net(46);
        let p = primed_profile(&n, 15, 47);
        let (low, high) = p.ranges();
        let back =
            NeuronProfile::restore(&n, Granularity::Unit, low.to_vec(), high.to_vec()).unwrap();
        let a = sections(&n, p, 4);
        let b = sections(&n, back, 4);
        assert!(a.compatible(&b));
        // Wrong length is rejected.
        assert!(NeuronProfile::restore(&n, Granularity::Unit, vec![0.0], vec![1.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "observe training inputs")]
    fn unprimed_profile_rejected() {
        let n = net(13);
        sections(&n, NeuronProfile::new(&n, Granularity::Unit), 4);
    }
}
