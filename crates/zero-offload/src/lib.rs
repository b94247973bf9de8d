//! # ZeRO-Offload (reproduction)
//!
//! A Rust reproduction of *ZeRO-Offload: Democratizing Billion-Scale Model
//! Training* (Ren et al., USENIX ATC 2021): heterogeneous CPU+GPU training
//! that keeps fp16 parameters and forward/backward on the accelerator
//! while offloading fp16 gradients, fp32 optimizer states, and the Adam
//! update to the host — enabling ~10× larger models per GPU at comparable
//! efficiency.
//!
//! The crate has two execution modes:
//!
//! * **Real execution** — [`ZeroOffloadEngine`] trains actual models
//!   (from `zo-nn`) with the offload data placement faithfully emulated
//!   (fp16 device parameters, fp16 gradient wire format, host-side fp32
//!   master + [`CpuAdam`](zo_optim::CpuAdam), optional DPU);
//!   [`Zero2OffloadEngine`] adds real ZeRO-2 partitioned data parallelism
//!   with threads as ranks. Used for the convergence experiments.
//! * **Simulated hardware** — [`ZeroOffloadPerf`] builds the paper's
//!   schedule on the `zo-hetsim` stream simulator to project iteration
//!   time, TFLOPS and scalability on the paper's V100/DGX-2 testbed; the
//!   [`memory`] module computes trainable-model-scale limits.
//!
//! ```
//! use zero_offload::{ZeroOffloadConfig, ZeroOffloadEngine};
//! use zo_nn::{GptConfig, GptModel};
//!
//! let model = GptModel::new(
//!     GptConfig { vocab: 16, seq_len: 8, hidden: 8, heads: 2, layers: 2 },
//!     42,
//! );
//! let mut engine = ZeroOffloadEngine::new(model, ZeroOffloadConfig::default());
//! let mut data = zo_models::BigramLm::new(16, 0.1, 7);
//! let batch = data.batch(2, 8);
//! let out = engine
//!     .step(|m| m.train_step(&batch.inputs, &batch.targets, 2, 8, |_| {}))
//!     .unwrap();
//! println!("loss = {}", out.loss());
//! ```

#![warn(missing_docs)]

pub mod bucket;
pub mod checkpoint;
mod config;
mod engine;
pub mod framing;
pub mod memory;
mod overlap;
mod perf;
mod pipeline;
pub mod tier;
pub mod wire;
mod zero2;
mod zero3;

pub use checkpoint::{
    decode_checkpoint_bytes, encode_checkpoint_bytes, CheckpointError, DpuCheckpoint,
    TrainingCheckpoint,
};
pub use config::{FaultsRef, OffloadDevice, TracerRef, ZeroOffloadConfig};
pub use engine::{EngineStats, RankEngine, StepOutcome, ZeroOffloadEngine};
pub use framing::{FrameError, FrameSpec};
pub use perf::{IterStats, ZeroOffloadPerf};
pub use pipeline::{GradStream, StepError};
pub use tier::{DramTier, MemoryTier, NvmeTier, TierError, TierKind};
pub use zero2::{run_ranks, Zero2OffloadEngine};
pub use zero3::{run_zero3_ranks, Zero3Cache, Zero3Event, Zero3OffloadEngine, Zero3Plan};
