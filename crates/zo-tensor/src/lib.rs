//! Tensor substrate for the ZeRO-Offload reproduction.
//!
//! This crate provides the numeric foundation the rest of the workspace
//! builds on:
//!
//! * [`F16`] — IEEE 754 binary16 implemented from scratch, the storage type
//!   of GPU-resident parameters and of the gradients streamed to CPU.
//! * [`Tensor`] — a dense row-major `f32` matrix used by the real-execution
//!   NN substrate.
//! * [`ops`] — elementwise/reduction kernels shared with the optimizers.
//! * [`mod@matmul`] — cache-blocked GEMM kernels (plain and transposed
//!   forms), parallelized over the shared worker pool with bit-identical
//!   results at any thread count.
//! * [`mod@pool`] — the persistent process-wide worker pool every parallel
//!   kernel in the workspace submits to (sized by `ZO_THREADS`).
//! * [`Init`] — deterministic, seeded parameter initialization.
//!
//! Nothing in this crate knows about devices or offloading; it is pure math.

#![warn(missing_docs)]

mod error;
mod f16;
mod init;
pub mod matmul;
pub mod microkernel;
pub mod ops;
pub mod pool;
mod tensor;

pub use error::TensorError;
pub use f16::{cast_f16_to_f32, cast_f16_to_f32_on, cast_f32_to_f16, F16};
pub use init::Init;
pub use matmul::{matmul, matmul_a_bt, matmul_at_b};
pub use pool::{Pool, PoolStats};
pub use tensor::Tensor;
