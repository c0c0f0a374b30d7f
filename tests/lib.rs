//! Cross-crate integration tests for deepxplore-rs.
//!
//! The tests live under `tests/tests/`; this library only hosts shared
//! fixtures. Everything runs at [`dx_models::Scale::Test`] so the whole
//! suite stays laptop-fast; the first run trains the needed zoo models and
//! caches their weights in `.dx-cache/`, later runs load them in
//! milliseconds.

use dx_models::{Scale, Zoo, ZooConfig};

/// A zoo at test scale sharing the workspace weight cache.
pub fn test_zoo() -> Zoo {
    Zoo::new(ZooConfig::new(Scale::Test))
}

pub mod fuzz;
