//! Property-based tests of coverage-signal invariants. The hit-set algebra
//! (merge, sparse-delta sync, indices vs mask, bounded monotone coverage)
//! is one law suite run over a strategy of metric specs — the paper's
//! binary neuron metric, the DeepGauge multisection refinement, its
//! boundary/corner complement, and composites of them; properties of the
//! threshold rule alone follow it.

use dx_coverage::{CoverageConfig, CoverageSignal, Granularity, NeuronProfile, SignalSpec};
use dx_nn::layer::Layer;
use dx_nn::network::Network;
use dx_tensor::{rng, Tensor};
use proptest::prelude::*;

fn net(seed: u64) -> Network {
    let mut n = Network::new(
        &[1, 6, 6],
        vec![
            Layer::conv2d(1, 3, 3, 1, 0),
            Layer::relu(),
            Layer::flatten(),
            Layer::dense(3 * 4 * 4, 5),
            Layer::softmax(),
        ],
    );
    n.init_weights(&mut rng::rng(seed));
    n
}

fn input() -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(0.0f32..1.0, 36).prop_map(|v| Tensor::from_vec(v, &[1, 1, 6, 6]))
}

/// Inputs well outside the profiling distribution, so boundary corners
/// actually get hit.
fn wild_input() -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-4.0f32..4.0, 36).prop_map(|v| Tensor::from_vec(v, &[1, 1, 6, 6]))
}

/// A deterministically primed profile of `net(seed)` — every call with
/// the same arguments profiles identically, so trackers over it are
/// mutually compatible.
fn primed(n: &Network, prime_seed: u64) -> NeuronProfile {
    let mut profile = NeuronProfile::new(n, Granularity::ChannelMean);
    let mut r = rng::rng(prime_seed);
    for _ in 0..12 {
        profile.observe(&n.forward(&rng::uniform(&mut r, &[1, 1, 6, 6], 0.0, 1.0)));
    }
    profile
}

/// A signal for `spec` over a deterministically primed profile (scaled
/// threshold 0.25 for threshold components).
fn signal(n: &Network, prime_seed: u64, spec: &str) -> CoverageSignal {
    let spec = SignalSpec::of(
        CoverageConfig::scaled(0.25),
        spec.parse().expect("spec"),
        vec![primed(n, prime_seed)],
    );
    spec.build(std::slice::from_ref(n)).remove(0)
}

/// Folds every input into `s`.
fn feed(s: &mut CoverageSignal, n: &Network, xs: &[Tensor]) {
    for x in xs {
        s.update(&n.forward(x));
    }
}

/// Every shape of metric spec: each simple metric (`multisection:k` for
/// `k ∈ 1..6`) and two- and three-component composites.
fn any_spec() -> impl Strategy<Value = String> {
    (0usize..35).prop_map(|i| (i % 7, 1 + i / 7)).prop_map(|(shape, k)| match shape {
        0 => "neuron".to_string(),
        1 => format!("multisection:{k}"),
        2 => "boundary".to_string(),
        3 => format!("multisection:{k}+boundary"),
        4 => "neuron+boundary".to_string(),
        5 => format!("boundary+multisection:{k}"),
        _ => format!("neuron+multisection:{k}+boundary"),
    })
}

// The law suite. Each law takes the metric spec as an input; the
// `proptest!` block below runs it over `any_spec()` and, under the names
// the laws carried when each tracker type had its own copy, over that one
// metric's family.

fn merge_commutes_and_dominates(spec: &str, seed: u64, xa: &Tensor, xb: &Tensor) {
    let n = net(seed);
    let (mut a, mut b) = (signal(&n, 90 + seed, spec), signal(&n, 90 + seed, spec));
    a.update(&n.forward(xa));
    b.update(&n.forward(xb));
    assert!(a.compatible(&b));
    let mut ab = a.clone();
    let newly = ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab.covered_count(), ba.covered_count());
    assert_eq!(ab.covered_mask(), ba.covered_mask());
    assert_eq!(ab.uncovered(), ba.uncovered());
    // Monotone: the union grows by exactly `newly` and dominates each input.
    assert_eq!(ab.covered_count(), a.covered_count() + newly);
    assert!(ab.covered_count() >= a.covered_count().max(b.covered_count()));
}

fn merge_is_a_no_op_the_second_time(spec: &str, seed: u64, xa: &Tensor, xb: &Tensor) {
    let n = net(seed);
    let (mut a, mut b) = (signal(&n, 90 + seed, spec), signal(&n, 90 + seed, spec));
    a.update(&n.forward(xa));
    b.update(&n.forward(xb));
    a.merge(&b);
    let covered = a.covered_count();
    // Folding the same signal in again must be a no-op.
    assert_eq!(a.merge(&b), 0);
    assert_eq!(a.covered_count(), covered);
    // Self-merge is also a no-op.
    let self_clone = a.clone();
    assert_eq!(a.merge(&self_clone), 0);
}

/// Two workers accumulating independently: syncing their hit sets through
/// diff_indices/apply_covered_indices must reach exactly the union a direct
/// merge computes, in either sync order.
fn delta_sync_converges_to_merge(spec: &str, seed: u64, xs_a: &[Tensor], xs_b: &[Tensor]) {
    let n = net(seed);
    let (mut a, mut b) = (signal(&n, 90 + seed, spec), signal(&n, 90 + seed, spec));
    feed(&mut a, &n, xs_a);
    feed(&mut b, &n, xs_b);
    let mut merged = a.clone();
    merged.merge(&b);

    let mut synced = a.clone();
    let delta_b = b.diff_indices(&synced);
    assert!(delta_b.iter().all(|&i| i < b.total()));
    assert_eq!(synced.apply_covered_indices(&delta_b), delta_b.len());
    assert_eq!(synced.covered_mask(), merged.covered_mask());
    assert_eq!(synced.coverage(), merged.coverage());

    // Round trip back: b catches up to the union through a delta too.
    let delta_a = synced.diff_indices(&b);
    b.apply_covered_indices(&delta_a);
    assert_eq!(b.covered_mask(), merged.covered_mask());
    // Once converged, both deltas are empty (idempotent sync).
    assert!(synced.diff_indices(&b).is_empty());
    assert!(b.diff_indices(&synced).is_empty());
    assert!(merged.covered_count() <= merged.coverable_total());
}

fn indices_match_mask(spec: &str, seed: u64, xs: &[Tensor]) {
    let n = net(seed);
    let mut s = signal(&n, 90 + seed, spec);
    feed(&mut s, &n, xs);
    // A composite's units are its components' units, concatenated.
    let parts: Vec<CoverageSignal> = spec
        .split('+')
        .map(|part| {
            let mut c = signal(&n, 90 + seed, part);
            feed(&mut c, &n, xs);
            c
        })
        .collect();
    assert_eq!(s.total(), parts.iter().map(CoverageSignal::total).sum::<usize>());
    assert_eq!(s.covered_count(), parts.iter().map(CoverageSignal::covered_count).sum::<usize>());
    assert_eq!(
        s.covered_mask(),
        parts.iter().flat_map(CoverageSignal::covered_mask).collect::<Vec<_>>()
    );
    // Covered indices match the mask, stay in range, equal the delta
    // against an empty peer, and reproduce the signal when applied to one.
    let idx = s.covered_indices();
    assert_eq!(idx.len(), s.covered_count());
    assert!(idx.iter().all(|&i| i < s.total()));
    let mask = s.covered_mask();
    assert!(idx.iter().all(|&i| mask[i]));
    let mut fresh = signal(&n, 90 + seed, spec);
    assert_eq!(s.diff_indices(&fresh), idx);
    fresh.apply_covered_indices(&idx);
    assert_eq!(fresh.covered_mask(), mask);
    // Mask round trip through set_covered_mask.
    let mut restored = signal(&n, 90 + seed, spec);
    restored.set_covered_mask(&mask);
    assert_eq!(restored.covered_count(), s.covered_count());
}

fn coverage_is_bounded_and_monotone(spec: &str, seed: u64, xs: &[Tensor]) {
    let n = net(seed);
    let mut t = signal(&n, 90 + seed, spec);
    let mut last = 0.0f32;
    for x in xs {
        let before = t.covered_count();
        let newly = t.update(&n.forward(x));
        assert_eq!(t.covered_count(), before + newly);
        let c = t.coverage();
        assert!((0.0..=1.0).contains(&c));
        assert!(c >= last);
        last = c;
    }
    assert!(t.covered_count() <= t.coverable_total());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coverage_is_monotone(inputs in proptest::collection::vec(input(), 1..6)) {
        let n = net(0);
        let mut t = CoverageSignal::neuron(&n, CoverageConfig::scaled(0.25));
        let mut last = 0.0f32;
        for x in &inputs {
            t.update(&n.forward(x));
            let c = t.coverage();
            prop_assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn update_is_idempotent(x in input()) {
        let n = net(1);
        let mut t = CoverageSignal::neuron(&n, CoverageConfig::scaled(0.25));
        let pass = n.forward(&x);
        let first = t.update(&pass);
        prop_assert_eq!(t.update(&pass), 0);
        prop_assert_eq!(t.covered_count(), first);
    }

    #[test]
    fn covered_plus_uncovered_is_total(x in input(), threshold in 0.0f32..1.0) {
        let n = net(2);
        let mut t = CoverageSignal::neuron(&n, CoverageConfig::scaled(threshold));
        t.update(&n.forward(&x));
        prop_assert_eq!(t.covered_count() + t.uncovered().len(), t.total());
    }

    #[test]
    fn threshold_monotonicity(x in input(), t1 in 0.0f32..0.5, dt in 0.01f32..0.5) {
        // Coverage at a higher threshold never exceeds a lower one.
        let n = net(3);
        let mut low = CoverageSignal::neuron(&n, CoverageConfig::scaled(t1));
        let mut high = CoverageSignal::neuron(&n, CoverageConfig::scaled(t1 + dt));
        let pass = n.forward(&x);
        low.update(&pass);
        high.update(&pass);
        prop_assert!(high.covered_count() <= low.covered_count());
    }

    #[test]
    fn unit_granularity_tracks_at_least_as_many(x in input()) {
        let n = net(4);
        let channel = CoverageSignal::neuron(&n, CoverageConfig::default());
        let unit = CoverageSignal::neuron(
            &n,
            CoverageConfig { granularity: Granularity::Unit, ..Default::default() },
        );
        prop_assert!(unit.total() >= channel.total());
        let _ = x;
    }

    #[test]
    fn activated_by_matches_update(x in input()) {
        let n = net(5);
        let mut t = CoverageSignal::neuron(&n, CoverageConfig::scaled(0.5));
        let pass = n.forward(&x);
        let activated = t.activated_by(&pass);
        let newly = t.update(&pass);
        prop_assert_eq!(activated.len(), newly);
    }

    // The law suite over every spec shape.

    #[test]
    fn merge_is_commutative(xa in wild_input(), xb in wild_input(), spec in any_spec()) {
        merge_commutes_and_dominates(&spec, 6, &xa, &xb);
    }

    #[test]
    fn merge_is_idempotent(xa in wild_input(), xb in wild_input(), spec in any_spec()) {
        merge_is_a_no_op_the_second_time(&spec, 7, &xa, &xb);
    }

    #[test]
    fn merge_is_monotone_in_covered_count(
        inputs in proptest::collection::vec(wild_input(), 1..5),
        spec in any_spec(),
    ) {
        let n = net(8);
        let mut global = signal(&n, 98, &spec);
        let mut last = 0usize;
        for x in &inputs {
            let mut local = signal(&n, 98, &spec);
            local.update(&n.forward(x));
            let before = global.covered_count();
            let newly = global.merge(&local);
            // The count never decreases, grows by exactly `newly`, and the
            // union dominates both operands.
            prop_assert_eq!(global.covered_count(), before + newly);
            prop_assert!(global.covered_count() >= last);
            prop_assert!(global.covered_count() >= local.covered_count());
            last = global.covered_count();
        }
    }

    #[test]
    fn delta_sync_converges_to_merge_for_every_spec(
        xs_a in proptest::collection::vec(wild_input(), 1..4),
        xs_b in proptest::collection::vec(wild_input(), 1..4),
        spec in any_spec(),
    ) {
        delta_sync_converges_to_merge(&spec, 19, &xs_a, &xs_b);
    }

    #[test]
    fn covered_indices_match_mask_for_every_spec(
        xs in proptest::collection::vec(wild_input(), 1..4),
        spec in any_spec(),
    ) {
        indices_match_mask(&spec, 20, &xs);
    }

    #[test]
    fn coverage_stays_within_unit_interval_for_every_spec(
        xs in proptest::collection::vec(wild_input(), 1..6),
        spec in any_spec(),
    ) {
        coverage_is_bounded_and_monotone(&spec, 21, &xs);
    }

    // The same laws on one metric family each, under the names they had
    // when every tracker type carried its own copy of the algebra.

    #[test]
    fn ms_merge_is_commutative(xa in input(), xb in input(), k in 1usize..6) {
        merge_commutes_and_dominates(&format!("multisection:{k}"), 9, &xa, &xb);
    }

    #[test]
    fn ms_merge_is_idempotent(xa in input(), xb in input()) {
        merge_is_a_no_op_the_second_time("multisection:4", 10, &xa, &xb);
    }

    #[test]
    fn ms_sparse_delta_sync_converges_to_merge(
        xs_a in proptest::collection::vec(input(), 1..4),
        xs_b in proptest::collection::vec(input(), 1..4),
        k in 1usize..6,
    ) {
        delta_sync_converges_to_merge(&format!("multisection:{k}"), 11, &xs_a, &xs_b);
    }

    #[test]
    fn ms_covered_indices_match_mask(x in input()) {
        indices_match_mask("multisection:3", 12, &[x]);
    }

    #[test]
    fn ms_coverage_stays_within_unit_interval(
        xs in proptest::collection::vec(input(), 1..6),
        k in 1usize..6,
    ) {
        coverage_is_bounded_and_monotone(&format!("multisection:{k}"), 13, &xs);
    }

    #[test]
    fn boundary_merge_is_commutative_and_dominates_inputs(
        xa in wild_input(),
        xb in wild_input(),
    ) {
        merge_commutes_and_dominates("boundary", 14, &xa, &xb);
        merge_is_a_no_op_the_second_time("boundary", 14, &xa, &xb);
    }

    #[test]
    fn boundary_delta_sync_round_trips(
        xs_a in proptest::collection::vec(wild_input(), 1..4),
        xs_b in proptest::collection::vec(wild_input(), 1..4),
    ) {
        delta_sync_converges_to_merge("boundary", 15, &xs_a, &xs_b);
    }

    #[test]
    fn composite_merge_is_commutative_idempotent_and_monotone(
        xa in wild_input(),
        xb in wild_input(),
        k in 1usize..5,
    ) {
        let spec = format!("multisection:{k}+boundary");
        merge_commutes_and_dominates(&spec, 16, &xa, &xb);
        merge_is_a_no_op_the_second_time(&spec, 16, &xa, &xb);
    }

    #[test]
    fn composite_delta_sync_converges_to_merge(
        xs_a in proptest::collection::vec(wild_input(), 1..4),
        xs_b in proptest::collection::vec(wild_input(), 1..4),
        k in 1usize..5,
    ) {
        delta_sync_converges_to_merge(&format!("multisection:{k}+boundary"), 17, &xs_a, &xs_b);
    }

    #[test]
    fn composite_units_and_indices_are_component_consistent(
        xs in proptest::collection::vec(wild_input(), 1..4),
        k in 1usize..5,
    ) {
        indices_match_mask(&format!("multisection:{k}+boundary"), 18, &xs);
    }
}
