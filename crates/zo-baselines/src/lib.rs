//! Baseline training systems the paper compares against.
//!
//! * [`System`] + [`memory`] — the memory model: every placement the repo
//!   sizes (PyTorch DDP, Megatron tensor slicing, ZeRO stages 1–3, L2L
//!   layer streaming, and ZeRO-Offload with its stage-3 and NVMe
//!   variants) as one descriptor, with its GPU/CPU/NVMe bytes, fit check
//!   and model-scale search (Fig. 7);
//! * [`stage_table`] — the ZeRO stage comparison read from that model;
//! * [`BaselinePerf`] — iteration-time models for the throughput figures
//!   (Figs. 8, 10, 11), composing the same calibrated hardware primitives
//!   as the core crate;
//! * [`DdpEngine`] — a real replicated data-parallel engine used to show
//!   ZeRO-2 + offload preserves the training trajectory while holding
//!   `1/N` of the state.

#![warn(missing_docs)]

mod ddp;
pub mod l2l;
pub mod memory;
mod perf;
pub mod zero_stages;

pub use ddp::DdpEngine;
pub use l2l::{BlockStack, L2lEngine};
pub use memory::{
    cpu_bytes, fits, gpu_bytes, largest_micro_batch, max_trainable_params, nvme_bytes, System,
};
pub use perf::{BaselinePerf, GPU_ADAM_SECS_PER_B};
pub use zero_stages::{stage_table, StageRow};
