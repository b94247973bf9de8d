//! Iteration-time models for the baseline systems (Figs. 8, 10, 11).
//!
//! Each baseline composes the same calibrated primitives ZeRO-Offload's
//! model uses — GPU kernel time with batch-dependent efficiency, ring
//! collectives, PCIe transfers, optimizer rates — according to that
//! system's schedule. ZeRO-Offload itself delegates to
//! [`ZeroOffloadPerf`] so every bar in a figure shares one hardware model.

use zero_offload::{IterStats, ZeroOffloadPerf};
use zo_collectives::RingCost;
use zo_hetsim::ClusterSpec;
use zo_models::TransformerConfig;

use crate::memory::System;

/// GPU Adam latency, seconds per billion parameters (Table 4 "PT-GPU":
/// 1.00 s at 10B).
pub const GPU_ADAM_SECS_PER_B: f64 = 0.10;

/// Throughput model for the baseline systems.
#[derive(Debug, Clone, Copy)]
pub struct BaselinePerf {
    /// The hardware.
    pub cluster: ClusterSpec,
}

impl BaselinePerf {
    /// Creates the model over `cluster`.
    pub fn new(cluster: ClusterSpec) -> BaselinePerf {
        BaselinePerf { cluster }
    }

    /// Steady-state iteration statistics, or `None` when the system does
    /// not support the configuration (L2L has no multi-GPU mode) or the
    /// model does not time the placement.
    pub fn iter_stats(
        &self,
        system: System,
        cfg: &TransformerConfig,
        micro_batch: u32,
        total_batch: u32,
        world: u32,
    ) -> Option<IterStats> {
        let node = self.cluster.node;
        let m = cfg.total_params() as f64;
        let dp_ring = |n: u32| RingCost::new(n, self.cluster.collective_gbps(world), 5e-6);

        match system {
            System::ZeroOffload {
                mp,
                stage3: false,
                nvme: None,
            } => Some(ZeroOffloadPerf::new(self.cluster).iter_stats(
                cfg,
                micro_batch,
                total_batch,
                world,
                mp,
                false,
            )),
            System::PyTorchDdp => {
                let k = (total_batch / (micro_batch * world)).max(1);
                let compute = node
                    .gpu
                    .compute_secs(cfg.flops_per_iter(micro_batch as u64), micro_batch as f64);
                // Gradient all-reduce overlaps with backward except its tail
                // (one layer's worth); optimizer runs on-device, replicated.
                let allreduce = dp_ring(world).all_reduce_secs(2.0 * m);
                let exposed_comm = if world > 1 {
                    (allreduce - 0.7 * compute * k as f64).max(allreduce / cfg.num_layers as f64)
                } else {
                    0.0
                };
                let adam = GPU_ADAM_SECS_PER_B * m / 1e9;
                let secs = k as f64 * compute + exposed_comm + adam;
                Some(stats(cfg, micro_batch, k, 1, secs, 0, 0))
            }
            System::Zero { stage: 2 } => {
                let k = (total_batch / (micro_batch * world)).max(1);
                let compute = node
                    .gpu
                    .compute_secs(cfg.flops_per_iter(micro_batch as u64), micro_batch as f64);
                let rs = dp_ring(world).reduce_scatter_secs(2.0 * m);
                let ag = dp_ring(world).all_gather_secs(2.0 * m);
                let exposed_rs = if world > 1 {
                    (rs - 0.7 * compute * k as f64).max(rs / cfg.num_layers as f64)
                } else {
                    0.0
                };
                // Fused, partitioned on-device update.
                let adam = GPU_ADAM_SECS_PER_B * (m / world as f64) / 1e9;
                let secs = k as f64 * compute + exposed_rs + adam + ag;
                Some(stats(cfg, micro_batch, k, 1, secs, 0, 0))
            }
            System::Megatron { mp } => {
                if !world.is_multiple_of(mp) || mp == 0 {
                    return None;
                }
                let dp = world / mp;
                let k = (total_batch / (micro_batch * dp)).max(1);
                // Thin-GEMM penalty of tensor slicing (see ZeroOffloadPerf).
                let eff_batch = micro_batch as f64 / (mp as f64).sqrt();
                let compute = node.gpu.compute_secs(
                    cfg.flops_per_iter(micro_batch as u64) / mp as f64,
                    eff_batch,
                );
                // Two activation all-reduces per layer in each direction,
                // on the critical path (tensor slicing synchronizes).
                let act_bytes = micro_batch as f64 * cfg.seq_len as f64 * cfg.hidden as f64 * 2.0;
                let mp_ring = RingCost::new(mp, node.nvlink_gbps, 5e-6);
                let mp_comm = 4.0 * cfg.num_layers as f64 * mp_ring.all_reduce_secs(act_bytes);
                let grad_ar = if dp > 1 {
                    dp_ring(dp).all_reduce_secs(2.0 * m / mp as f64)
                } else {
                    0.0
                };
                let adam = GPU_ADAM_SECS_PER_B * (m / mp as f64) / 1e9;
                let secs = k as f64 * (compute + mp_comm) + grad_ar + adam;
                Some(stats(cfg, micro_batch, k, mp, secs, 0, 0))
            }
            System::L2l => {
                if world != 1 {
                    return None; // "its implementation does not support multi-GPU training"
                }
                let k = (total_batch / micro_batch).max(1);
                let compute = node
                    .gpu
                    .compute_secs(cfg.flops_per_iter(micro_batch as u64), micro_batch as f64);
                // Synchronous layer-by-layer weight streaming: 2M bytes in
                // for forward and again for backward, every micro-batch,
                // unoverlapped (L2L moves tensors synchronously).
                let stream = 2.0 * node.pcie.transfer_secs(2.0 * m);
                // Optimizer exchange: gradients out, states in/out (the
                // remainder of L2L's 28M/iteration), plus on-device Adam.
                let opt_exchange = node.pcie.transfer_secs(24.0 * m);
                let adam = GPU_ADAM_SECS_PER_B * m / 1e9;
                let secs = k as f64 * (compute + stream) + opt_exchange + adam;
                let d2h = (k as u64 * 2 + 12) * cfg.total_params();
                let h2d = (k as u64 * 2 + 14) * cfg.total_params();
                Some(stats(cfg, micro_batch, k, 1, secs, d2h, h2d))
            }
            // ZeRO-1/3 and ZeRO-Offload's stage-3 and NVMe placements are
            // sized by the memory model but not timed.
            System::Zero { .. } | System::ZeroOffload { .. } => None,
        }
    }
}

fn stats(
    cfg: &TransformerConfig,
    micro_batch: u32,
    grad_accum: u32,
    mp: u32,
    secs: f64,
    d2h_bytes: u64,
    h2d_bytes: u64,
) -> IterStats {
    let useful = cfg.flops_per_iter(micro_batch as u64) * grad_accum as f64 / mp as f64;
    IterStats {
        secs,
        tflops_per_gpu: useful / secs / 1e12,
        d2h_bytes,
        h2d_bytes,
        grad_accum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zo_hetsim::presets;

    fn perf() -> BaselinePerf {
        BaselinePerf::new(presets::dgx2_cluster(8))
    }

    #[test]
    fn fig8_zero_offload_beats_l2l_single_gpu() {
        // Fig. 8: ZeRO-Offload outperforms L2L by ~14% on average
        // (up to 22%) across 1–13B on one GPU.
        let mut ratios = Vec::new();
        for label in [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 13.0] {
            let c = zo_models::by_label(label).unwrap();
            let zo = perf()
                .iter_stats(System::zero_offload(1), &c.model, c.batch_per_gpu, 512, 1)
                .unwrap();
            let l2l = perf()
                .iter_stats(System::L2l, &c.model, c.batch_per_gpu, 512, 1)
                .unwrap();
            let ratio = zo.tflops_per_gpu / l2l.tflops_per_gpu;
            assert!(ratio > 1.0, "{label}B: ZO/L2L = {ratio:.3}");
            ratios.push(ratio);
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(
            (1.05..1.35).contains(&avg),
            "average ZO/L2L speedup {avg:.3} (paper: ~1.14)"
        );
    }

    #[test]
    fn l2l_has_no_multi_gpu_mode() {
        let c = zo_models::by_label(1.0).unwrap();
        assert!(perf()
            .iter_stats(System::L2l, &c.model, 32, 512, 4)
            .is_none());
    }

    #[test]
    fn fig10_small_models_zero_offload_wins() {
        // On 16 GPUs at 1B, ZeRO-Offload (larger feasible micro-batch, no
        // GPU optimizer stall) beats PyTorch and Megatron.
        let c = zo_models::by_label(1.0).unwrap();
        let zo = perf()
            .iter_stats(System::zero_offload(1), &c.model, 32, 512, 16)
            .unwrap();
        let pt = perf()
            .iter_stats(System::PyTorchDdp, &c.model, 8, 512, 16)
            .unwrap();
        let mega = perf()
            .iter_stats(System::Megatron { mp: 16 }, &c.model, 32, 512, 16)
            .unwrap();
        assert!(
            zo.tflops_per_gpu > pt.tflops_per_gpu,
            "ZO {:.1} !> PyTorch {:.1}",
            zo.tflops_per_gpu,
            pt.tflops_per_gpu
        );
        assert!(
            zo.tflops_per_gpu > 1.3 * mega.tflops_per_gpu,
            "ZO {:.1} !>> Megatron {:.1}",
            zo.tflops_per_gpu,
            mega.tflops_per_gpu
        );
    }

    #[test]
    fn fig11_crossover_between_zero2_and_offload() {
        // Fig. 11, 10B model: ZeRO-2 OOMs below 16 GPUs (memory model),
        // ZeRO-Offload leads at 32, ZeRO-2 overtakes at 128 once both run
        // comparable batches and ZeRO-2 avoids PCIe traffic.
        let c = zo_models::by_label(10.0).unwrap();
        let node = presets::dgx2();
        // Memory: ZeRO-2 cannot fit 10B on few GPUs.
        let zero2 = System::Zero { stage: 2 };
        assert!(!crate::memory::fits(zero2, &c.model, 4, 1, &node));
        assert!(crate::memory::fits(zero2, &c.model, 32, 1, &node));

        let mb_z2 =
            crate::memory::largest_micro_batch(zero2, &c.model, 128, &node, 32).unwrap() as u32;
        let z2 = perf()
            .iter_stats(zero2, &c.model, mb_z2, 4096, 128)
            .unwrap();
        let zo = perf()
            .iter_stats(
                System::zero_offload(1),
                &c.model,
                c.batch_per_gpu,
                4096,
                128,
            )
            .unwrap();
        assert!(
            z2.tflops_per_gpu > 0.95 * zo.tflops_per_gpu,
            "at 128 GPUs ZeRO-2 ({:.1}) should at least match ZO ({:.1})",
            z2.tflops_per_gpu,
            zo.tflops_per_gpu
        );
    }

    #[test]
    fn megatron_invalid_mp_rejected() {
        let c = zo_models::by_label(1.0).unwrap();
        assert!(perf()
            .iter_stats(System::Megatron { mp: 3 }, &c.model, 8, 512, 16)
            .is_none());
    }
}
