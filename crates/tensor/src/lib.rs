//! N-dimensional `f32` tensors and supporting numerics for deepxplore-rs.
//!
//! This crate is the lowest layer of the workspace. It provides:
//!
//! - [`Tensor`]: a dense, row-major, heap-allocated `f32` tensor with the
//!   elementwise, linear-algebra and reduction operations the neural-network
//!   engine (`dx-nn`) is built from.
//! - [`rng`]: seeded random sampling (uniform, normal, permutations) so every
//!   experiment in the workspace is reproducible from a single `u64` seed.
//! - [`image`]: a thin channel-height-width view over [`Tensor`] with raster
//!   primitives (rectangles, lines, disks) used by the synthetic dataset
//!   renderers, plus PGM/PPM encoding for inspecting generated tests.
//! - [`metrics`]: distances (L1/L2/L∞) and structural similarity (SSIM),
//!   used by the diversity experiment (Table 5 of the paper) and the
//!   training-data pollution detector (§7.3).
//! - [`kernels`]: blocked / transposed / fused matmul kernels over raw
//!   `&[f32]` slices — the autovectorization-friendly hot path behind
//!   [`Tensor::matmul`] and the batched campaign pipeline.
//! - [`workspace`]: a free-list buffer arena ([`Workspace`]) that lets the
//!   per-iterate forward/backward passes reuse intermediate activation and
//!   gradient buffers instead of allocating.
//!
//! The design goal is *auditability first, then speed*: everything is plain
//! safe Rust over contiguous `Vec<f32>` buffers, with shape errors reported
//! as panics carrying both offending shapes (they are programmer errors, not
//! runtime conditions). The kernels get their speed from cache blocking,
//! bounds-check-free iterator loops and buffer reuse — never from changing
//! float semantics (results stay bit-identical to the naive reference).
//!
//! # Examples
//!
//! ```
//! use dx_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod image;
pub mod kernels;
pub mod metrics;
pub mod rng;
pub mod tensor;
pub mod workspace;

pub use image::Image;
pub use kernels::FusedAct;
pub use tensor::Tensor;
pub use workspace::Workspace;
