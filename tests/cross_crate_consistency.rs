//! Cross-crate consistency: the analytic claims (zo-dataflow), the
//! simulated schedules (zero-offload perf), and the real engine must all
//! agree on the quantities they share.

use zero_offload::{ZeroOffloadConfig, ZeroOffloadEngine, ZeroOffloadPerf};
use zo_baselines::{memory, System};
use zo_dataflow::{Assignment, DataFlowGraph};
use zo_hetsim::presets;
use zo_models::BigramLm;
use zo_nn::{GptConfig, GptModel, Model};
use zo_optim::LossScaleConfig;

/// The data-flow analysis says the optimal strategy moves 4M bytes per
/// iteration. The real engine and the perf model must both measure exactly
/// that.
#[test]
fn communication_volume_agrees_across_all_three_layers() {
    // Layer 1: first-principles graph analysis.
    let graph = DataFlowGraph::training_iteration();
    let analytic_m = Assignment::zero_offload().comm_volume_m(&graph);
    assert_eq!(analytic_m, 4);

    // Layer 2: the schedule simulator (1 micro-batch per step).
    let cfg = zo_models::by_label(1.0).unwrap();
    let perf = ZeroOffloadPerf::new(presets::dgx2_cluster(1));
    let stats = perf.iter_stats(&cfg.model, 32, 32, 1, 1, false);
    let m = cfg.model.total_params();
    assert_eq!(stats.d2h_bytes + stats.h2d_bytes, u64::from(analytic_m) * m);

    // Layer 3: the real engine, counting actual buffer traffic.
    let gpt = GptConfig {
        vocab: 16,
        seq_len: 8,
        hidden: 16,
        heads: 2,
        layers: 2,
    };
    let mut engine = ZeroOffloadEngine::new(
        GptModel::new(gpt, 1),
        ZeroOffloadConfig {
            loss_scale: LossScaleConfig {
                init_scale: 256.0,
                ..Default::default()
            },
            ..ZeroOffloadConfig::default()
        },
    );
    let mut data = BigramLm::new(16, 0.05, 2);
    let steps = 5;
    for _ in 0..steps {
        let b = data.batch(2, 8);
        engine
            .step(|m| m.train_step(&b.inputs, &b.targets, 2, 8, |_| {}))
            .unwrap();
    }
    let n = engine.model_mut().num_params() as u64;
    let s = engine.stats();
    assert_eq!(s.d2h_bytes + s.h2d_bytes, u64::from(analytic_m) * n * steps);
}

/// The memory model's GPU footprint must equal the dataflow analysis: 2
/// bytes per parameter resident (plus activations, which the analysis
/// scopes out).
#[test]
fn memory_model_matches_dataflow_reduction() {
    let zo = Assignment::zero_offload();
    assert_eq!(zo.gpu_memory_m(), 2);

    let cfg = zo_models::by_label(4.0).unwrap().model;
    let m = cfg.total_params();
    let system = System::zero_offload(1);
    let states_on_gpu = memory::gpu_bytes(system, &cfg, 1, 1)
        - memory::GRAD_BUCKET_BYTES
        - memory::activation_bytes(system, &cfg, 1);
    // `gpu_memory_m` is in multiples of M bytes: 2M = 2 bytes/param.
    assert_eq!(states_on_gpu, u64::from(zo.gpu_memory_m()) * m);

    // And the baseline keeps all 16M.
    let baseline_states = cfg.state_bytes().total();
    assert_eq!(baseline_states, 16 * m);
    assert_eq!(baseline_states / states_on_gpu, 8); // The paper's 8x.
}

/// Table 3 configurations drive the perf model without panicking and with
/// sane outputs across the whole zoo.
#[test]
fn perf_model_covers_entire_table3_zoo() {
    let perf = ZeroOffloadPerf::new(presets::dgx2_cluster(8));
    for c in zo_models::table3() {
        let world = 16u32.max(c.mp_degree);
        let stats = perf.iter_stats(&c.model, c.batch_per_gpu, 512, world, c.mp_degree, false);
        assert!(stats.secs > 0.0 && stats.secs.is_finite(), "{}B", c.label_b);
        assert!(
            stats.tflops_per_gpu > 5.0 && stats.tflops_per_gpu < 60.0,
            "{}B: {:.1} TFLOPS",
            c.label_b,
            stats.tflops_per_gpu
        );
    }
}

/// The engine's fp16 parameter view and the tensor crate's cast agree —
/// i.e. the "GPU" really holds fp16-representable values only.
#[test]
fn engine_parameters_are_fp16_clean() {
    let gpt = GptConfig {
        vocab: 16,
        seq_len: 8,
        hidden: 16,
        heads: 2,
        layers: 1,
    };
    let mut engine = ZeroOffloadEngine::new(
        GptModel::new(gpt, 3),
        ZeroOffloadConfig {
            loss_scale: LossScaleConfig {
                init_scale: 256.0,
                ..Default::default()
            },
            ..ZeroOffloadConfig::default()
        },
    );
    let mut data = BigramLm::new(16, 0.05, 4);
    for _ in 0..3 {
        let b = data.batch(2, 8);
        engine
            .step(|m| m.train_step(&b.inputs, &b.targets, 2, 8, |_| {}))
            .unwrap();
    }
    let n = engine.model_mut().num_params();
    let mut params = vec![0.0f32; n];
    engine.model_mut().copy_params_to(&mut params);
    for &p in &params {
        let roundtrip = zo_tensor::F16::from_f32(p).to_f32();
        assert_eq!(p, roundtrip, "parameter {p} is not an fp16 value");
    }
}

/// DGX-2 presets, Table 3 configs, and the hetsim memory pools compose:
/// a 13B allocation plan succeeds where 16 bytes/param fails.
#[test]
fn allocation_plan_13b_on_v100() {
    let node = presets::single_v100_node();
    let cfg = zo_models::by_label(13.0).unwrap();
    let m = cfg.model.total_params();
    let mut hbm = zo_hetsim::MemoryPool::new("hbm", node.gpu.mem_bytes);
    // Full residency fails...
    assert!(hbm.alloc(16 * m, "16M").is_err());
    // ...the ZeRO-Offload plan fits.
    hbm.alloc(2 * m, "p16").unwrap();
    let system = System::zero_offload(1);
    hbm.alloc(
        memory::activation_bytes(system, &cfg.model, cfg.batch_per_gpu as u64),
        "acts",
    )
    .unwrap();
    hbm.alloc(memory::GRAD_BUCKET_BYTES, "bucket").unwrap();
    // Host side holds the rest.
    let mut dram = zo_hetsim::MemoryPool::new("dram", node.cpu.mem_bytes);
    dram.alloc(memory::cpu_bytes(system, &cfg.model, 1), "offloaded states")
        .unwrap();
}
