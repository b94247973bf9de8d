//! `fingerprint` — a deterministic trajectory hash for cross-process
//! thread-invariance checks.
//!
//! Trains a fixed GPT with the streamed engine for a fixed number of steps
//! and prints one FNV-1a hash over every per-step loss bit pattern and the
//! final master parameters. `optimizer_threads` is left at 0 (auto), so the
//! run picks up `ZO_THREADS` from the environment — CI runs this binary
//! under `ZO_THREADS=1` and `ZO_THREADS=4` and diffs the output, proving
//! the paper's claim that host-side parallelism never changes a single bit
//! of the trajectory.
//!
//! ```text
//! ZO_THREADS=4 fingerprint [--steps N]
//! ```
//!
//! `ZO_STAGE` picks the engine stage: unset or `1` is the single engine;
//! `2` and `3` compute the same fingerprint over a two-rank ZeRO-2 or
//! ZeRO-3 run (rank 0's per-step losses, then every rank's master shard
//! in rank order), so CI can prove the invariance claims for the sharded
//! engines too — and that stages 2 and 3 train the same bits. Any other
//! value is an error.
//!
//! With `ZO_TIER=nvme` the fp32 optimizer partitions spill to the
//! file-backed NVMe tier (`ZO_TIER_DIR` controls the spill directory).
//! The hash must not move: CI diffs the DRAM-resident and NVMe-spilled
//! fingerprints to prove tier placement is bitwise-invisible.
//!
//! The run itself (model, config, hash definition) lives in
//! `zo_bench::trajectory` so this binary and the pin test compute the
//! identical hash.

use std::process::ExitCode;

use zero_offload::TierKind;
use zo_bench::trajectory::{run_single, run_zero2, run_zero3};

fn main() -> ExitCode {
    let mut steps = 30usize;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--steps" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => steps = n,
                _ => {
                    eprintln!("--steps requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag {other}; usage: fingerprint [--steps N]");
                return ExitCode::FAILURE;
            }
        }
    }
    let tier = match std::env::var("ZO_TIER").as_deref() {
        Ok("nvme") => TierKind::Nvme,
        Ok("dram") | Ok("") | Err(_) => TierKind::Dram,
        Ok(other) => {
            eprintln!("unknown ZO_TIER value {other:?}; expected \"dram\" or \"nvme\"");
            return ExitCode::FAILURE;
        }
    };

    let (run, engine) = match std::env::var("ZO_STAGE").as_deref() {
        Err(_) | Ok("1") => (run_single(steps, tier), "single"),
        Ok("2") => (run_zero2(steps, tier), "zero2"),
        Ok("3") => (run_zero3(steps, tier), "zero3"),
        Ok(other) => {
            eprintln!("unknown ZO_STAGE value {other:?}; expected unset, \"1\", \"2\" or \"3\"");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "fingerprint {:016x} threads={} steps={steps} engine={} tier={}",
        run.hash,
        zo_tensor::pool::global().threads(),
        engine,
        match tier {
            TierKind::Dram => "dram",
            TierKind::Nvme => "nvme",
        }
    );
    ExitCode::SUCCESS
}
