//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Sec. 6).
//!
//! Each experiment is a library function returning structured rows plus a
//! text renderer; the `table1`/`table4`/`fig7`…`fig13` binaries print the
//! measured-vs-paper comparison, and the module tests assert the *shape*
//! claims (who wins, by what factor, where the crossovers are).

#![warn(missing_docs)]

pub mod ablations;
pub mod adam_bench;
pub mod convergence;
pub mod scale;
mod table;
pub mod throughput;
pub mod trajectory;

pub use ablations::{bucket_sweep, dpu_warmup_sweep, BucketRow, WarmupRow};
pub use adam_bench::{measure_adam_rates, render_table4, table4_rows, AdamRates, Table4Row};
pub use convergence::{
    fig12_curves, fig12_curves_with_warmup, fig13_curves, render_curves, smooth, ConvergenceCurves,
    DPU_WARMUP,
};
pub use scale::{fig7_rows, render_fig7, ScaleRow};
pub use table::render_table;
pub use throughput::{
    fig10_rows, fig11_rows, fig8_rows, fig9_rows, render_fig10, render_fig11, render_fig8,
    render_fig9, Fig10Row, Fig11Row, Fig8Row, Fig9Row,
};
pub use trajectory::{
    run_single, run_zero2, run_zero3, verify_pinned, TrajectoryRun, PINNED_TRAJECTORY_FINGERPRINT,
};
