//! Regenerates Fig. 7: largest trainable model per system on 1/4/16 GPUs.

fn main() {
    println!("Figure 7 — largest trainable model (billions of parameters)\n");
    println!("{}", zo_bench::render_fig7());
    println!("note: measured = memory-model bisection on the simulated DGX-2;");
    println!("paper column = approximate bar heights of Fig. 7.");

    // What-if extension: the same analysis on an A100-80GB node.
    let a100_node = zo_hetsim::NodeSpec {
        gpu: zo_hetsim::presets::a100_80g(),
        ..zo_hetsim::presets::dgx2()
    };
    let zo =
        zo_baselines::max_trainable_params(zo_baselines::System::zero_offload(1), 1, &a100_node);
    let pt = zo_baselines::max_trainable_params(zo_baselines::System::PyTorchDdp, 1, &a100_node);
    println!(
        "\nwhat-if, single A100-80GB: PyTorch {:.1}B vs ZeRO-Offload {:.1}B ({:.1}x)",
        pt as f64 / 1e9,
        zo as f64 / 1e9,
        zo as f64 / pt as f64
    );
}
