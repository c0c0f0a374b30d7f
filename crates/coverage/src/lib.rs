//! Neuron coverage — the paper's first contribution — plus an
//! operator-coverage analog of traditional line coverage.
//!
//! Neuron coverage (§4.1) is the fraction of a DNN's neurons whose output
//! exceeds a threshold `t` for at least one input in a test set:
//!
//! ```text
//! NCov(T) = |{n | ∃x ∈ T. out(n, x) > t}| / |N|
//! ```
//!
//! DeepGauge's refinements (k-multisection, boundary) change only *what a
//! unit is*, never the bookkeeping around it, and the crate is layered so:
//!
//! 1. **layout** — [`neuron`]: what a "neuron" is per layer kind (one per
//!    channel for convolutional feature maps, one per unit for dense
//!    layers), how values are scaled per layer before thresholding (§7.1),
//!    and where each tracked activation's neurons sit in the flat neuron
//!    space. A [`NeuronProfile`] is two training-set range vectors over it.
//! 2. **hit-set** — [`tracker`]: `units-per-neuron` flags per neuron (the
//!    `cov_tracker` of Algorithm 1) and, once, the whole algebra over them:
//!    update from a pass, count, merge, sparse deltas, masks, obj2 picks.
//! 3. **rule** — the private `tracker::Rule`: a unit is a threshold
//!    crossing, a section of the profiled range ([`multisection`]) or a
//!    corner outside it ([`boundary`]).
//! 4. **signal** — [`CoverageSignal`]: a list of (layout, rule, hit-set)
//!    components over one shared profile. A simple metric is a one-element
//!    list; a composite (`multisection:4+boundary`) concatenates unit
//!    spaces component-major.
//!
//! Adding a metric is one `Rule` variant — units per neuron, is a neuron
//! coverable, which unit a value hits, which way obj2 should push — plus
//! one [`MetricKind`] arm for its name on the command line, on the wire
//! and in checkpoints. Engines, codecs and campaigns see units, not
//! metrics, and do not change.
//!
//! Beside the signal, [`overlap`] computes the activated-neuron overlap
//! statistics of Table 7, and [`opcov`] instruments the inference engine's
//! operator kernels to reproduce the paper's "any single input reaches 100%
//! code coverage" comparison (Table 6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundary;
pub mod multisection;
pub mod neuron;
pub mod opcov;
pub mod overlap;
pub mod profile;
pub mod signal;
pub mod tracker;

pub use neuron::{Granularity, NeuronId};
pub use profile::NeuronProfile;
pub use signal::{
    mean_component_coverage, mean_coverage, restore_masks, CoverageSignal, MetricKind, MetricSpec,
    SignalSpec,
};
pub use tracker::CoverageConfig;
