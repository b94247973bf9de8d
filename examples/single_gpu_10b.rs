//! Train-a-10B-model-on-one-V100 walkthrough (the paper's headline).
//!
//! Uses the memory model and the schedule simulator to show why 10B fits
//! with ZeRO-Offload (and not without), and what the iteration looks like.
//!
//! Run with: `cargo run --release -p zo-bench --example single_gpu_10b`

use zero_offload::ZeroOffloadPerf;
use zo_baselines::{memory, System};
use zo_hetsim::{presets, MemoryPool, GIB};
use zo_models::by_label;

fn gib(b: u64) -> f64 {
    b as f64 / GIB as f64
}

fn main() {
    let node = presets::single_v100_node();
    let zo = System::zero_offload(1);
    let cfg = by_label(10.0).expect("10B Table 3 row");
    let m = cfg.model.total_params();
    println!(
        "model: 10B-class GPT-2 ({} layers, hidden {}, {:.2}B params)",
        cfg.model.num_layers,
        cfg.model.hidden,
        m as f64 / 1e9
    );
    println!("device: V100 with {:.0} GiB HBM\n", gib(node.gpu.mem_bytes));

    // Without offload, the 16M bytes of model states alone overflow HBM.
    let mut hbm = MemoryPool::new("v100.hbm", node.gpu.mem_bytes);
    let states = cfg.model.state_bytes();
    println!("-- attempting PyTorch-style residency (16 bytes/param) --");
    match hbm.alloc(states.total(), "model states (16M)") {
        Ok(_) => println!("unexpectedly fit!"),
        Err(e) => println!("OOM, as expected: {e}"),
    }

    // With ZeRO-Offload: only fp16 params + activations + a staging bucket.
    println!("\n-- ZeRO-Offload residency --");
    hbm.alloc(states.p16, "fp16 parameters (2M)")
        .expect("2M fits");
    let act = memory::activation_bytes(zo, &cfg.model, cfg.batch_per_gpu as u64);
    hbm.alloc(act, "activations (checkpointed)")
        .expect("activations fit");
    hbm.alloc(memory::GRAD_BUCKET_BYTES, "gradient staging bucket")
        .expect("bucket fits");
    for (label, bytes) in hbm.live_allocations() {
        println!("  {label:<32} {:>6.2} GiB", gib(bytes));
    }
    println!(
        "  GPU total: {:.2} / {:.0} GiB",
        gib(hbm.used()),
        gib(hbm.capacity())
    );
    println!(
        "  host side: {:.0} GiB of gradients + optimizer states (of {:.0} GiB DRAM)",
        gib(memory::cpu_bytes(zo, &cfg.model, 1)),
        gib(node.cpu.mem_bytes)
    );

    // Throughput projection for the full iteration schedule.
    println!("\n-- projected iteration (simulated V100 + PCIe + Xeon) --");
    let perf = ZeroOffloadPerf::new(presets::dgx2_cluster(1));
    let stats = perf.iter_stats(&cfg.model, cfg.batch_per_gpu, 512, 1, 1, false);
    println!(
        "  micro-batch {} x {} accumulation steps",
        cfg.batch_per_gpu, stats.grad_accum
    );
    println!(
        "  {:.1} s/step, {:.1} TFLOPS (paper: ~40 TFLOPS; PyTorch at 1.4B: ~30)",
        stats.secs, stats.tflops_per_gpu
    );
    println!(
        "  PCIe per step: {:.1} GiB down, {:.1} GiB up",
        gib(stats.d2h_bytes),
        gib(stats.h2d_bytes)
    );

    // And the largest model this single GPU can take.
    let max = memory::max_trainable_params(zo, 1, &node);
    println!(
        "\nlargest trainable with ZeRO-Offload on this GPU: {:.1}B (paper: 13B)",
        max as f64 / 1e9
    );
    let pt_max = zo_baselines::max_trainable_params(System::PyTorchDdp, 1, &node);
    println!(
        "largest trainable with PyTorch DDP:             {:.1}B (paper: 1.4B)",
        pt_max as f64 / 1e9
    );
    println!("increase: {:.1}x (paper: >9x)", max as f64 / pt_max as f64);
}
