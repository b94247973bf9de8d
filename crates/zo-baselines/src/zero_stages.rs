//! The three ZeRO stages side by side (paper Sec. 2, "ZeRO powered data
//! parallel training"), as the `stages` bin prints them from the memory
//! model.
//!
//! ZeRO-1 partitions optimizer states only; ZeRO-2 adds gradients; ZeRO-3
//! adds parameters. ZeRO-Offload builds on stage 2 — the table reproduces
//! that design choice quantitatively: stage 2 is the most aggressive
//! partitioning that still keeps communication at the data-parallel
//! baseline volume, which is what lets the offload strategy keep its
//! 4M-byte CPU↔GPU minimum on top.

use zo_hetsim::NodeSpec;

use crate::memory::{max_trainable_params, state_bytes_per_gpu, System};

/// Per-GPU communication volume per iteration of a data-parallel
/// placement, in multiples of M bytes; `None` for Megatron and L2L, whose
/// traffic is activations and streamed layers.
///
/// Baseline data parallelism all-reduces the 2M fp16 gradients (ring:
/// ~2×2M on the wire). ZeRO-1/2 replace it with reduce-scatter + an
/// all-gather of updated parameters — the same 4M total, as does
/// ZeRO-Offload between GPUs. Sharding the parameters (stage 3) must also
/// all-gather them for forward *and* backward: 6M, a 1.5× increase (the
/// cost the paper's Sec. 2 alludes to when picking stage 2).
pub fn comm_volume_m(system: System) -> Option<u32> {
    match system {
        System::Zero { stage: 3.. } | System::ZeroOffload { stage3: true, .. } => Some(6),
        System::PyTorchDdp | System::Zero { .. } | System::ZeroOffload { .. } => Some(4),
        System::Megatron { .. } | System::L2l => None,
    }
}

/// One row of the stage-comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// The placement: a ZeRO stage, or ZeRO-Offload.
    pub system: System,
    /// Model-state bytes per GPU for an M-parameter model, as a formula
    /// evaluated at `world` (in multiples of M).
    pub state_per_gpu_m: f64,
    /// Communication volume, multiples of M.
    pub comm_m: u32,
    /// Largest trainable model on `world` GPUs, billions.
    pub max_b: f64,
}

impl StageRow {
    /// `system`'s row on `world` GPUs of `node`.
    ///
    /// # Panics
    /// If `system` is not a data-parallel placement (see
    /// [`comm_volume_m`]).
    pub fn new(system: System, world: u32, node: &NodeSpec) -> StageRow {
        let m = 1_000_000;
        StageRow {
            system,
            state_per_gpu_m: state_bytes_per_gpu(system, m, world) as f64 / m as f64,
            comm_m: comm_volume_m(system).expect("a data-parallel placement"),
            max_b: max_trainable_params(system, world, node) as f64 / 1e9,
        }
    }
}

/// Builds the comparison table of the three ZeRO stages on `world` GPUs
/// of `node`.
pub fn stage_table(world: u32, node: &NodeSpec) -> Vec<StageRow> {
    (1..=3)
        .map(|stage| StageRow::new(System::Zero { stage }, world, node))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zo_hetsim::presets;

    const STAGES: [System; 3] = [
        System::Zero { stage: 1 },
        System::Zero { stage: 2 },
        System::Zero { stage: 3 },
    ];

    #[test]
    fn state_formulas_match_paper_sec2() {
        let m = 1_000_000u64;
        // At world=1 every stage holds the full 16M (+4M temp).
        for stage in STAGES {
            assert_eq!(state_bytes_per_gpu(stage, m, 1), 20 * m, "{}", stage.name());
        }
        // At large world: stage1 → 4M, stage2 → 2M, stage3 → ~0.
        let n = 1024;
        let [s1, s2, s3] = STAGES.map(|stage| state_bytes_per_gpu(stage, m, n));
        assert!(s1 >= 4 * m);
        assert!(s1 < 4 * m + m);
        assert!(s2 >= 2 * m);
        assert!(s2 < 2 * m + m);
        assert!(s3 < m);
    }

    #[test]
    fn stage_ordering_on_memory_and_comm() {
        let m = 7_777_777u64;
        for world in [2u32, 8, 64] {
            let [s1, s2, s3] = STAGES.map(|stage| state_bytes_per_gpu(stage, m, world));
            assert!(s1 > s2 && s2 > s3, "world={world}");
        }
        let [c1, c2, c3] = STAGES.map(comm_volume_m);
        assert_eq!(c2, c1);
        assert!(c3 > c2);
    }

    #[test]
    fn stage3_trains_largest_models() {
        let node = presets::dgx2();
        let t = stage_table(16, &node);
        assert_eq!(t.len(), 3);
        assert!(t[2].max_b > t[1].max_b);
        assert!(t[1].max_b > t[0].max_b);
        // ZeRO-2 on 16 GPUs lands near the paper's ~9B (Fig. 7).
        assert!(
            (6.0..14.0).contains(&t[1].max_b),
            "ZeRO-2 {:.1}B",
            t[1].max_b
        );
    }

    #[test]
    fn offload_beats_every_pure_stage_below_32_gpus() {
        // The design argument: at modest GPU counts, offloading to host
        // memory dominates any pure GPU-partitioning stage.
        let node = presets::dgx2();
        for world in [1u32, 4, 16] {
            let zo = max_trainable_params(System::zero_offload(1), world, &node);
            for stage in STAGES {
                let pure = max_trainable_params(stage, world, &node);
                assert!(
                    zo > pure,
                    "world={world}: {} trains {:.1}B vs offload {:.1}B",
                    stage.name(),
                    pure as f64 / 1e9,
                    zo as f64 / 1e9
                );
            }
        }
    }
}
