//! Shared, std-only building blocks of the `dx-bench` benchmark: the
//! workload and metric tables, sample statistics, the span recorder,
//! `/proc` accounting, and the parsers for the CLI's output.
//!
//! Nothing here depends on a repo crate: `dx-bench` drives the system
//! the way a user does, through the `deepxplore` binary, and only
//! `dx-probe` (`src/probe/`) calls into the crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod json;
pub mod parse;
pub mod procfs;
pub mod sha256;
pub mod spec;
pub mod stats;
pub mod trace;
