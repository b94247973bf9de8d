//! The memory model: where each training system places the 16M bytes of
//! model states across GPU, CPU and NVMe, and the largest model that
//! placement trains (paper Sec. 3, Fig. 7).
//!
//! Every placement the repo sizes is one [`System`] value, and each
//! quantity is defined once over it, as ZeRO-Infinity writes one
//! memory-requirement equation per tier: [`gpu_bytes`], [`cpu_bytes`] and
//! [`nvme_bytes`]; the fit check over the three budgets ([`fits`]); the
//! micro-batch search ([`largest_micro_batch`]); and the model-scale
//! search ([`max_trainable_params`]). The placements differ in what they
//! replicate, partition and move off the GPU — those differences, not raw
//! capacity, determine the largest trainable model.

use zo_hetsim::NodeSpec;
use zo_models::TransformerConfig;

/// The training systems compared in the evaluation, each a placement of
/// the model states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// PyTorch DistributedDataParallel: full replication.
    PyTorchDdp,
    /// Megatron-LM tensor-slicing model parallelism of the given degree.
    Megatron {
        /// Model-parallel degree.
        mp: u32,
    },
    /// ZeRO data parallelism (Sec. 2): stage 1 partitions the optimizer
    /// states, stage 2 adds the gradients, stage 3 the fp16 parameters.
    Zero {
        /// ZeRO stage: 1, 2 or 3.
        stage: u8,
    },
    /// L2L: one transformer block resident at a time, states on host.
    L2l,
    /// ZeRO-Offload (Sec. 4): fp16 parameters on the GPU, the other 14M
    /// of states on the host.
    ZeroOffload {
        /// Model-parallel degree (1 = pure data parallel).
        mp: u32,
        /// Stage-3 sharding: each GPU holds `2M/world` of the fp16
        /// parameters and gathers layers just in time, instead of the full
        /// replica.
        stage3: bool,
        /// `Some(scratch)`: the fp32 optimizer states spill to NVMe and
        /// stream through `scratch` bytes of DRAM per rank.
        nvme: Option<u64>,
    },
}

impl System {
    /// ZeRO-Offload as the paper evaluates it: the fp16 replica on every
    /// GPU and every offloaded state in DRAM.
    pub const fn zero_offload(mp: u32) -> System {
        System::ZeroOffload {
            mp,
            stage3: false,
            nvme: None,
        }
    }

    /// Display name used in tables.
    pub fn name(&self) -> String {
        match self {
            System::PyTorchDdp => "PyTorch DDP".to_string(),
            System::Megatron { mp } => format!("Megatron (MP={mp})"),
            System::Zero { stage } => format!("ZeRO-{stage}"),
            System::L2l => "L2L".to_string(),
            System::ZeroOffload { mp: 1, .. } => "ZeRO-Offload".to_string(),
            System::ZeroOffload { mp, .. } => format!("ZeRO-Offload (MP={mp})"),
        }
    }

    /// Tensor-slicing degree (1 for the systems without model parallelism).
    fn mp(self) -> u64 {
        match self {
            System::Megatron { mp } | System::ZeroOffload { mp, .. } => mp.max(1) as u64,
            _ => 1,
        }
    }
}

/// fp32 workspace of an Adam step, bytes per parameter it updates: the
/// temporaries of an unfused (PyTorch-style) update, or the buffer of
/// ZeRO's fused partitioned one.
const UPDATE_WORKSPACE: u64 = 4;

/// fp32 master parameters, momentum and variance, bytes per parameter.
const OPTIMIZER_STATES: u64 = 12;

/// Bytes of ZeRO-Offload's transient GPU gradient-staging bucket.
///
/// "Only a small amount of memory is required to temporarily hold the
/// gradients on the GPU memory before they are transferred" (Sec. 4.1) —
/// two in-flight buckets of 32 MB.
pub const GRAD_BUCKET_BYTES: u64 = 2 * 32 * 1024 * 1024;

/// Usable fraction of device memory after allocator fragmentation, CUDA
/// context, and workspace reserves.
pub const USABLE_GPU_FRACTION: f64 = 0.94;

/// Usable fraction of host memory after pinned-buffer and OS reserves.
pub const USABLE_CPU_FRACTION: f64 = 0.85;

/// Usable fraction of NVMe capacity after filesystem and framing
/// overheads.
pub const USABLE_NVME_FRACTION: f64 = 0.90;

/// Model-state bytes each GPU holds for `params` parameters on `world`
/// GPUs: what `system` replicates, plus its share of what it partitions.
pub fn state_bytes_per_gpu(system: System, params: u64, world: u32) -> u64 {
    let m = params;
    let n = world.max(1) as u64;
    // Every state (16M) plus the update workspace.
    let all = 16 + UPDATE_WORKSPACE;
    match system {
        System::PyTorchDdp => all * m,
        System::Megatron { .. } => all * m / system.mp(),
        System::Zero { stage } => {
            // fp16 parameters stay replicated below stage 3, fp16
            // gradients below stage 2; the rest is partitioned.
            let replicated = 2 * u64::from(stage < 3) + 2 * u64::from(stage < 2);
            replicated * m + (all - replicated) * m / n
        }
        // Every layer's states live on the host between its visits.
        System::L2l => 0,
        System::ZeroOffload { stage3: true, .. } => 2 * m / n,
        System::ZeroOffload { .. } => 2 * m / system.mp(),
    }
}

/// Stage 3's transient GPU bytes beyond the owned shard: the persistent
/// cache budget plus the layers in flight (the running one and
/// `prefetch_layers` more), each one transformer block's fp16
/// parameters. [`gpu_bytes`] sizes the engine's defaults: no cache,
/// prefetch 1.
pub fn stage3_window_bytes(
    cfg: &TransformerConfig,
    persistent_param_bytes: u64,
    prefetch_layers: u64,
) -> u64 {
    persistent_param_bytes + (prefetch_layers + 1) * 2 * cfg.params_per_layer()
}

/// Activation bytes per GPU at `micro_batch`.
///
/// With checkpointing, the per-layer working tensors and attention scores
/// divide by the model-parallel degree and the layer-boundary checkpoints
/// replicate. L2L stores full (un-checkpointed) activations: 8 fp16
/// values per position plus the attention score matrices per layer
/// (calibrated so its single-GPU maximum lands at the paper's ~17B).
pub fn activation_bytes(system: System, cfg: &TransformerConfig, micro_batch: u64) -> u64 {
    let b = micro_batch;
    let s = cfg.seq_len as u64;
    let h = cfg.hidden as u64;
    let layers = cfg.num_layers as u64;
    if system == System::L2l {
        let per_layer = 8 * b * s * h * 2 + 2 * b * cfg.heads as u64 * s * s * 2;
        return layers * per_layer + b * s * cfg.vocab as u64 * 2;
    }
    let full = cfg.activation_bytes(micro_batch);
    let checkpoints = (layers + 1) * b * s * h * 2;
    checkpoints + (full - checkpoints) / system.mp()
}

/// GPU bytes per device for `system` training `cfg` on `world` GPUs at
/// `micro_batch` sequences per GPU.
pub fn gpu_bytes(system: System, cfg: &TransformerConfig, world: u32, micro_batch: u64) -> u64 {
    let working = match system {
        System::Zero { stage: 3.. } => stage3_window_bytes(cfg, 0, 1),
        // Two resident blocks (double buffering) with all 16 bytes/param
        // of their states.
        System::L2l => 2 * 16 * cfg.params_per_layer(),
        System::ZeroOffload { stage3: true, .. } => {
            GRAD_BUCKET_BYTES + stage3_window_bytes(cfg, 0, 1)
        }
        System::ZeroOffload { .. } => GRAD_BUCKET_BYTES,
        _ => 0,
    };
    state_bytes_per_gpu(system, cfg.total_params(), world)
        + working
        + activation_bytes(system, cfg, micro_batch)
}

/// Host bytes, aggregated over all `world` ranks.
///
/// ZeRO-Offload keeps one partitioned copy however many data-parallel
/// ranks share it, and model-parallel shards sum back to the whole model:
/// fp16 wire gradients (2) + the fp32 gradient accumulation buffer (4) +
/// the optimizer states (12) = 18 bytes/param (DeepSpeed keeps the
/// accumulation buffer host-side; this is what bounds the 70B DGX-2
/// maximum). Spilled optimizer states leave 6 bytes/param plus each
/// rank's streaming scratch.
pub fn cpu_bytes(system: System, cfg: &TransformerConfig, world: u32) -> u64 {
    let m = cfg.total_params();
    match system {
        System::PyTorchDdp | System::Megatron { .. } | System::Zero { .. } => 0,
        // L2L has no multi-GPU mode (Sec. 6.2.2), so its footprint does
        // not scale with `world` and Fig. 7 carries the single-GPU bar
        // across.
        System::L2l => 16 * m,
        System::ZeroOffload { nvme, .. } => {
            let optimizer = nvme.map_or(OPTIMIZER_STATES * m, |scratch| world as u64 * scratch);
            (2 + 4) * m + optimizer
        }
    }
}

/// NVMe bytes: the spilled fp32 optimizer states, if any.
pub fn nvme_bytes(system: System, cfg: &TransformerConfig) -> u64 {
    match system {
        System::ZeroOffload { nvme: Some(_), .. } => OPTIMIZER_STATES * cfg.total_params(),
        _ => 0,
    }
}

/// The share of `total` bytes, partitioned evenly over `world` ranks,
/// that one fully populated node of `node` holds when the ranks fill
/// nodes of `node.gpus_per_node` GPUs each: ZeRO-Offload's host and NVMe
/// states are per-rank shards, so a node holds only those of the ranks it
/// hosts. Every other system's host footprint sits on one host (L2L has
/// no multi-GPU mode; the rest keep nothing there).
fn per_node(system: System, total: u64, world: u32, node: &NodeSpec) -> u64 {
    match system {
        System::ZeroOffload { .. } => {
            let world = world.max(1) as u64;
            total / world * world.min(node.gpus_per_node.max(1) as u64)
        }
        _ => total,
    }
}

/// Whether `system` can train `cfg` on `world` GPUs of `node` at
/// `micro_batch`: every tier's bytes within its usable capacity — per
/// node for the host and NVMe tiers, which hold only the shards of the
/// node's own ranks. A node without a flash tier has no NVMe capacity.
pub fn fits(
    system: System,
    cfg: &TransformerConfig,
    world: u32,
    micro_batch: u64,
    node: &NodeSpec,
) -> bool {
    let usable = |capacity: u64, fraction: f64| (capacity as f64 * fraction) as u64;
    let nvme_capacity = node.nvme.map_or(0, |d| d.capacity_bytes);
    let cpu = per_node(system, cpu_bytes(system, cfg, world), world, node);
    let nvme = per_node(system, nvme_bytes(system, cfg), world, node);
    gpu_bytes(system, cfg, world, micro_batch) <= usable(node.gpu.mem_bytes, USABLE_GPU_FRACTION)
        && cpu <= usable(node.cpu.mem_bytes, USABLE_CPU_FRACTION)
        && nvme <= usable(nvme_capacity, USABLE_NVME_FRACTION)
}

/// Largest micro-batch (≤ `cap`) that fits, or `None` if even 1 does not.
pub fn largest_micro_batch(
    system: System,
    cfg: &TransformerConfig,
    world: u32,
    node: &NodeSpec,
    cap: u64,
) -> Option<u64> {
    (1..=cap)
        .rev()
        .find(|&mb| fits(system, cfg, world, mb, node))
}

/// The model-size family used for scale searches: hidden width by size
/// class (mirroring Table 3), depth solved to hit the target count.
pub fn config_for_params(target: u64) -> TransformerConfig {
    let hidden = match target {
        t if t < 3_000_000_000 => 2048,
        t if t < 5_000_000_000 => 2304,
        t if t < 9_000_000_000 => 3072,
        t if t < 18_000_000_000 => 4096,
        t if t < 65_000_000_000 => 8192,
        _ => 9216,
    };
    let per_layer = TransformerConfig::gpt2_like(1, hidden).params_per_layer();
    let emb = TransformerConfig::gpt2_like(0, hidden).total_params();
    let layers = ((target.saturating_sub(emb)) as f64 / per_layer as f64)
        .round()
        .max(1.0) as u32;
    TransformerConfig::gpt2_like(layers, hidden)
}

/// Largest trainable parameter count for `system` on `world` GPUs of
/// `node` (the Fig. 7 quantity), by bracketing and bisection over the
/// [`config_for_params`] family at micro-batch 1 (any micro-batch ≥ 1
/// counts as trainable, matching how model-scale experiments are run).
/// For the MP-capable systems the best degree dividing `world` is chosen.
pub fn max_trainable_params(system: System, world: u32, node: &NodeSpec) -> u64 {
    (1..=world)
        .filter(|d| world.is_multiple_of(*d))
        .filter_map(|mp| match system {
            System::Megatron { .. } => Some(System::Megatron { mp }),
            System::ZeroOffload { stage3, nvme, .. } => {
                Some(System::ZeroOffload { mp, stage3, nvme })
            }
            _ => (mp == 1).then_some(system),
        })
        .map(|sys| {
            let trains = |params| fits(sys, &config_for_params(params), world, 1, node);
            // Bracket first: a placement that trains 200B (ZeRO-Offload
            // over several nodes) doubles the bound until it no longer
            // trains, up to 3.2T.
            let (mut lo, mut hi) = (0u64, 200_000_000_000u64);
            while trains(hi) {
                if hi >= 3_200_000_000_000 {
                    return hi;
                }
                (lo, hi) = (hi, 2 * hi);
            }
            while hi - lo > 50_000_000 {
                let mid = lo + (hi - lo) / 2;
                if trains(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zo_hetsim::presets;

    const ZO: System = System::zero_offload(1);

    /// The engine's default tier scratch window.
    const SCRATCH: u64 = 8 * 1024 * 1024;

    fn node() -> NodeSpec {
        presets::dgx2()
    }

    #[test]
    fn gpu_footprint_is_2m_plus_activations() {
        let cfg = TransformerConfig::gpt2_like(50, 4096); // ~10B
        let params = cfg.total_params();
        let g = gpu_bytes(ZO, &cfg, 1, 1);
        assert!(g > 2 * params);
        assert!(
            g < 2 * params + 4 * 1024 * 1024 * 1024,
            "activations too large: {g}"
        );
    }

    #[test]
    fn cpu_footprint_is_18m_aggregate() {
        let cfg = TransformerConfig::gpt2_like(20, 2048);
        assert_eq!(cpu_bytes(ZO, &cfg, 1), 18 * cfg.total_params());
        // Model-parallel shards co-resident on one host sum to the whole
        // model: the aggregate does not shrink with the MP degree.
        assert_eq!(
            cpu_bytes(System::zero_offload(2), &cfg, 2),
            cpu_bytes(ZO, &cfg, 1)
        );
    }

    #[test]
    fn stage3_shrinks_the_per_rank_parameter_footprint() {
        let cfg = TransformerConfig::gpt2_like(50, 4096); // ~10B
        let params = cfg.total_params();
        let z3 = System::ZeroOffload {
            mp: 1,
            stage3: true,
            nvme: None,
        };
        let z2 = gpu_bytes(ZO, &cfg, 1, 1);
        let window = stage3_window_bytes(&cfg, 0, 1);
        for world in [2u32, 4, 16] {
            let z3 = gpu_bytes(z3, &cfg, world, 1);
            assert!(z3 < z2, "world {world}: stage3 {z3} not below zero2 {z2}");
            // The saving is the replica minus the shard, up to the bounded
            // transient working set.
            let saved = z2 - z3;
            let replica_minus_shard = 2 * params - 2 * params.div_ceil(world as u64);
            assert!(saved <= replica_minus_shard);
            assert!(saved + window >= replica_minus_shard);
        }
        // Cache budget and prefetch window are additive and monotone.
        let base = stage3_window_bytes(&cfg, 0, 0);
        assert_eq!(stage3_window_bytes(&cfg, 1 << 20, 0), base + (1 << 20));
        assert!(stage3_window_bytes(&cfg, 0, 3) > base);
        // At world 1, stage 3 still bounds its working set: the full
        // replica plus at most the in-flight layers.
        assert!(gpu_bytes(z3, &cfg, 1, 1) >= z2);
    }

    #[test]
    fn thirteen_billion_fits_on_one_v100() {
        // The headline claim: 13B trains on a single V100-32GB (Fig. 7).
        let cfg = zo_models::by_label(13.0).unwrap();
        let node = presets::single_v100_node();
        assert!(fits(ZO, &cfg.model, 1, cfg.batch_per_gpu as u64, &node));
    }

    #[test]
    fn twenty_billion_does_not_fit_without_mp() {
        let cfg = config_for_params(20_000_000_000);
        assert!(!fits(ZO, &cfg, 1, 1, &presets::single_v100_node()));
    }

    #[test]
    fn seventy_billion_fits_with_mp8() {
        // Fig. 7 / Fig. 10: 70B trains on a DGX-2 with MP degree 8.
        let cfg = zo_models::by_label(70.0).unwrap();
        let mp8 = System::zero_offload(8);
        assert!(fits(mp8, &cfg.model, 8, cfg.batch_per_gpu as u64, &node()));
    }

    #[test]
    fn config_family_hits_targets() {
        for &t in &[
            1_000_000_000u64,
            10_000_000_000,
            40_000_000_000,
            70_000_000_000,
        ] {
            let cfg = config_for_params(t);
            let got = cfg.total_params() as f64;
            let rel = (got - t as f64).abs() / t as f64;
            assert!(rel < 0.1, "target {t} got {got}");
        }
    }

    #[test]
    fn workstation_is_dram_bound_without_the_flash_tier() {
        // One V100 + 64 GiB host DRAM: the classic two-tier placement
        // needs 18 bytes/param of host memory, so DRAM (not the 32 GB
        // GPU) caps the model near 3B.
        let max = max_trainable_params(ZO, 1, &presets::workstation());
        assert!(
            (2.5e9..3.5e9).contains(&(max as f64)),
            "workstation DRAM-bound max = {:.1}B",
            max as f64 / 1e9
        );
    }

    #[test]
    fn nvme_spill_triples_the_workstation_maximum() {
        // Spilling the 12M of fp32 optimizer states to the 1 TB NVMe
        // drive leaves only 6 bytes/param in DRAM: the same workstation
        // now trains ~3x the model, approaching the GPU-bound 13B.
        let node = presets::workstation();
        let nvme = node.nvme.expect("workstation carries an NVMe drive");
        let dram_max = max_trainable_params(ZO, 1, &node);
        let spilled = System::ZeroOffload {
            mp: 1,
            stage3: false,
            nvme: Some(SCRATCH),
        };
        let nvme_max = max_trainable_params(spilled, 1, &node);
        assert!(
            (8e9..11e9).contains(&(nvme_max as f64)),
            "workstation NVMe-spilled max = {:.1}B",
            nvme_max as f64 / 1e9
        );
        assert!(nvme_max as f64 > 2.5 * dram_max as f64);
        // Without a flash tier the spilling placement cannot fit at all.
        let no_flash = NodeSpec { nvme: None, ..node };
        assert!(!fits(
            spilled,
            &config_for_params(1_000_000_000),
            1,
            1,
            &no_flash
        ));
        // The drive itself is nowhere near binding: 12 bytes/param of a
        // 10B model is ~12% of the usable terabyte.
        let cfg = config_for_params(10_000_000_000);
        assert!(
            (nvme_bytes(spilled, &cfg) as f64)
                < 0.2 * nvme.capacity_bytes as f64 * USABLE_NVME_FRACTION
        );
    }

    #[test]
    fn stage3_partitioning_extends_the_fit_past_the_replica_limit() {
        // 20B's full fp16 replica (40 GB) overflows one V100, but the
        // stage-3 shard across a DGX-2's 16 ranks fits; host DRAM on the
        // DGX-2 holds the 18M aggregate either way.
        let node = node();
        let cfg = config_for_params(20_000_000_000);
        let z3 = System::ZeroOffload {
            mp: 1,
            stage3: true,
            nvme: None,
        };
        assert!(!fits(ZO, &cfg, 16, 1, &node));
        assert!(fits(z3, &cfg, 16, 1, &node));
        // Tiering composes with stage 3: spilling shrinks host bytes and
        // books the drive instead.
        let z3_spill = System::ZeroOffload {
            mp: 1,
            stage3: true,
            nvme: Some(SCRATCH),
        };
        assert!(cpu_bytes(z3_spill, &cfg, 16) < cpu_bytes(z3, &cfg, 16));
        assert_eq!(nvme_bytes(z3_spill, &cfg), 12 * cfg.total_params());
    }

    #[test]
    fn tiered_host_bytes_account_for_per_rank_scratch() {
        let cfg = config_for_params(1_000_000_000);
        let scratch = 32 * 1024 * 1024;
        let spilled = |stage3| System::ZeroOffload {
            mp: 1,
            stage3,
            nvme: Some(scratch),
        };
        assert_eq!(
            cpu_bytes(spilled(false), &cfg, 1),
            6 * cfg.total_params() + 32 * 1024 * 1024
        );
        // Each stage-3 rank streams through its own scratch window.
        assert_eq!(
            cpu_bytes(spilled(true), &cfg, 4),
            6 * cfg.total_params() + 4 * 32 * 1024 * 1024
        );
    }

    #[test]
    fn each_node_holds_only_its_ranks_host_shards() {
        // 64 GPUs are four 16-GPU DGX-2 nodes: each node's DRAM holds a
        // quarter of ZeRO-Offload's 18 B/param host states, so the model
        // it trains grows past the one-node maximum (which host DRAM
        // bounds at 16 GPUs).
        let node = node();
        let at16 = max_trainable_params(ZO, 16, &node);
        let at64 = max_trainable_params(ZO, 64, &node);
        assert!(at64 > at16, "ZO max at 64 GPUs {at64} <= at 16 GPUs {at16}");
        let cfg = config_for_params(2 * at16);
        assert!(!fits(System::zero_offload(16), &cfg, 16, 1, &node));
        assert!(fits(System::zero_offload(16), &cfg, 64, 1, &node));
        // L2L has no multi-GPU mode: its host footprint stays on one host.
        assert_eq!(
            max_trainable_params(System::L2l, 64, &node),
            max_trainable_params(System::L2l, 1, &node)
        );
    }

    #[test]
    fn max_trainable_search_matches_direct_check() {
        let node = presets::single_v100_node();
        let max = max_trainable_params(ZO, 1, &node);
        // Should land in the paper's 13B ballpark (9x over PyTorch).
        assert!(
            (11e9..16e9).contains(&(max as f64)),
            "single-GPU ZeRO-Offload max = {:.1}B",
            max as f64 / 1e9
        );
        // And the found maximum actually fits while max+20% does not.
        assert!(fits(ZO, &config_for_params(max), 1, 1, &node));
        let over = (max as f64 * 1.2) as u64;
        assert!(!fits(ZO, &config_for_params(over), 1, 1, &node));
    }

    #[test]
    fn fig7_single_gpu_ordering() {
        // Paper Fig. 7, 1 GPU: PyTorch ~1.4B; Megatron/ZeRO-2 no better;
        // ZeRO-Offload ~13B; L2L ~17B (largest, at an efficiency cost).
        let n = node();
        let max_b = |sys| max_trainable_params(sys, 1, &n) as f64 / 1e9;
        let pytorch = max_b(System::PyTorchDdp);
        let megatron = max_b(System::Megatron { mp: 1 });
        let zero2 = max_b(System::Zero { stage: 2 });
        let zo = max_b(ZO);
        let l2l = max_b(System::L2l);

        assert!((1.0..2.0).contains(&pytorch), "PyTorch {pytorch:.1}B");
        assert!((megatron - pytorch).abs() < 0.3, "Megatron {megatron:.1}B");
        assert!((zero2 - pytorch).abs() < 0.5, "ZeRO-2 {zero2:.1}B");
        assert!((11.0..16.0).contains(&zo), "ZeRO-Offload {zo:.1}B");
        assert!((14.0..22.0).contains(&l2l), "L2L {l2l:.1}B");
        // The headline: ~9-10x over PyTorch.
        assert!(zo / pytorch > 7.0, "only {:.1}x", zo / pytorch);
    }

    #[test]
    fn fig7_sixteen_gpu_ordering() {
        let n = node();
        let max_b = |sys, world| max_trainable_params(sys, world, &n) as f64 / 1e9;
        let pytorch = max_b(System::PyTorchDdp, 16);
        let megatron = max_b(System::Megatron { mp: 16 }, 16);
        let zero2 = max_b(System::Zero { stage: 2 }, 16);
        let l2l = max_b(System::L2l, 16);
        let zo = max_b(ZO, 16);

        // PyTorch and L2L do not scale with more GPUs (pure replication).
        assert!((pytorch - max_b(System::PyTorchDdp, 1)).abs() < 0.1);
        assert!((l2l - max_b(System::L2l, 1)).abs() < 0.1);
        // Megatron and ZeRO-2 help but stay far below ZeRO-Offload+MP.
        assert!(megatron > 3.0 * pytorch, "Megatron {megatron:.1}B");
        assert!(zero2 > 4.0 * pytorch, "ZeRO-2 {zero2:.1}B");
        assert!((60.0..90.0).contains(&zo), "ZeRO-Offload 16 GPUs {zo:.1}B");
        assert!(zo > megatron && zo > zero2 && zo > l2l);
    }

    #[test]
    fn zero2_scales_with_world() {
        let n = node();
        let zero2 = System::Zero { stage: 2 };
        let w1 = max_trainable_params(zero2, 1, &n);
        let w4 = max_trainable_params(zero2, 4, &n);
        let w16 = max_trainable_params(zero2, 16, &n);
        assert!(w4 > w1 && w16 > w4);
        // But bounded by the replicated 2M fp16 parameters: even with
        // infinite partitioning, <= usable/2 bytes of params.
        let bound = (n.gpu.mem_bytes as f64 * USABLE_GPU_FRACTION / 2.0) as u64;
        assert!(w16 < bound);
    }

    #[test]
    fn micro_batch_tuner_monotone() {
        let n = node();
        let small = zo_models::by_label(1.0).unwrap().model;
        let big = zo_models::by_label(10.0).unwrap().model;
        let mb_small = largest_micro_batch(ZO, &small, 1, &n, 64).unwrap();
        let mb_big = largest_micro_batch(ZO, &big, 1, &n, 64).unwrap();
        assert!(mb_small > mb_big, "{mb_small} !> {mb_big}");
        // PyTorch cannot fit 10B at all.
        assert_eq!(
            largest_micro_batch(System::PyTorchDdp, &big, 1, &n, 64),
            None
        );
    }

    #[test]
    fn names_render() {
        assert_eq!(ZO.name(), "ZeRO-Offload");
        assert_eq!(System::zero_offload(4).name(), "ZeRO-Offload (MP=4)");
        assert_eq!(System::Megatron { mp: 8 }.name(), "Megatron (MP=8)");
        assert_eq!(System::Zero { stage: 2 }.name(), "ZeRO-2");
    }
}
