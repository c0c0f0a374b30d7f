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
//! [`tracker::CoverageTracker`] maintains the covered set incrementally (the
//! `cov_tracker` of Algorithm 1), [`neuron`] defines what a "neuron" is for
//! each layer kind (one per channel for convolutional feature maps, one per
//! unit for dense layers) and how values are scaled per layer before
//! thresholding (§7.1), [`overlap`] computes the activated-neuron overlap
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
pub mod signal;
pub mod tracker;

pub use boundary::BoundaryTracker;
pub use multisection::{MultisectionTracker, NeuronProfile};
pub use neuron::{Granularity, NeuronId};
pub use signal::{
    mean_component_coverage, mean_coverage, CoverageSignal, MetricKind, MetricSpec, SignalSpec,
};
pub use tracker::{CoverageConfig, CoverageTracker};
