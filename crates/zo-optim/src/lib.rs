//! Optimizers for the ZeRO-Offload reproduction (paper Sec. 5).
//!
//! The centerpiece is [`CpuAdam`], the optimized CPU Adam of the paper's
//! Algorithm 1 — fused, vectorized, multithreaded, with tiled fp16 copy-back
//! — alongside [`NaiveAdam`], the op-by-op "PT-CPU" baseline it is measured
//! against in Table 4. [`DelayedUpdate`] implements the one-step delayed
//! parameter update (DPU) schedule of Sec. 5.2, and [`DynamicLossScaler`]
//! the fp16 loss-scaling recipe mixed-precision training requires.

#![warn(missing_docs)]

mod adam;
pub mod clip;
mod cpu_adam;
mod dpu;
mod error;
mod loss_scale;
mod naive;
mod schedule;
mod sgd;

pub use adam::{adam_element, adam_reference_step, AdamParams, AdamState};
pub use cpu_adam::{adam_range, CpuAdam, CpuAdamConfig, BLOCK};
pub use dpu::{DelayedUpdate, DpuAction};
pub use error::OptimError;
pub use loss_scale::{DynamicLossScaler, LossScaleConfig};
pub use naive::NaiveAdam;
pub use schedule::LrSchedule;
pub use sgd::{Sgd, SgdParams};
