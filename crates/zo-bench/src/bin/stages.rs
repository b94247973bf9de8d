//! Extension: ZeRO stage comparison (paper Sec. 2 context).
//!
//! Quantifies why ZeRO-Offload builds on stage 2: per-GPU model-state
//! bytes, communication volume, and the largest trainable model per stage,
//! versus ZeRO-Offload itself.

use zo_baselines::{stage_table, StageRow, System};
use zo_hetsim::presets;

fn print_row(label: &str, row: &StageRow, note: &str) {
    println!(
        "{:<10} {:>17.2}M {:>12} {:>14.1}{note}",
        label, row.state_per_gpu_m, row.comm_m, row.max_b
    );
}

fn main() {
    let node = presets::dgx2();
    for world in [1u32, 16, 64] {
        println!("-- {world} GPU(s) --");
        println!(
            "{:<10} {:>18} {:>12} {:>14}",
            "stage", "state bytes/GPU", "comm (xM)", "max model (B)"
        );
        for row in stage_table(world, &node) {
            print_row(&row.system.name(), &row, "");
        }
        let zo = StageRow::new(System::zero_offload(1), world, &node);
        print_row("ZO", &zo, "   <- stage 2 + host offload");
        println!();
    }
    println!("Stage 2 is the most aggressive partitioning that keeps the data-parallel");
    println!("communication volume (4M wire bytes); stage 3 pays 6M. ZeRO-Offload keeps");
    println!("stage-2 volume between GPUs AND reaches stage-3-class capacity by moving");
    println!("the partitioned 14M of states to host memory.");
}
