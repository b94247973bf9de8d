//! Figure 7: largest trainable model per system on 1 / 4 / 16 GPUs.

use zo_baselines::System;
use zo_hetsim::presets;

/// One bar of Fig. 7.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRow {
    /// GPU count.
    pub gpus: u32,
    /// System name.
    pub system: String,
    /// Largest trainable model, billions of parameters.
    pub max_b: f64,
    /// The paper's reported value, billions (approximate bar heights).
    pub paper_b: f64,
}

/// Paper bar heights for Fig. 7 (billions of parameters).
fn paper_value(system: &System, gpus: u32) -> f64 {
    match (system, gpus) {
        (System::PyTorchDdp, _) => 1.4,
        (System::Megatron { .. }, 1) => 1.4,
        (System::Megatron { .. }, 4) => 6.0,
        (System::Megatron { .. }, _) => 15.0,
        (System::Zero { .. }, 1) => 1.4,
        (System::Zero { .. }, 4) => 4.0,
        (System::Zero { .. }, _) => 9.0,
        (System::L2l, _) => 17.0,
        (System::ZeroOffload { .. }, 1) => 13.0,
        (System::ZeroOffload { .. }, 4) => 30.0,
        (System::ZeroOffload { .. }, _) => 70.0,
    }
}

/// Computes every Fig. 7 bar.
pub fn fig7_rows() -> Vec<ScaleRow> {
    let node = presets::dgx2();
    let systems = [
        System::PyTorchDdp,
        System::Megatron { mp: 1 },
        System::Zero { stage: 2 },
        System::L2l,
        System::zero_offload(1),
    ];
    let mut rows = Vec::new();
    for gpus in [1u32, 4, 16] {
        for sys in systems {
            let max = zo_baselines::max_trainable_params(sys, gpus, &node);
            rows.push(ScaleRow {
                gpus,
                system: base_name(&sys),
                max_b: max as f64 / 1e9,
                paper_b: paper_value(&sys, gpus),
            });
        }
    }
    rows
}

fn base_name(sys: &System) -> String {
    match sys {
        System::Megatron { .. } => "Megatron".to_string(),
        System::ZeroOffload { .. } => "ZeRO-Offload".to_string(),
        other => other.name(),
    }
}

/// Renders Fig. 7 as a table.
pub fn render_fig7() -> String {
    let rows: Vec<Vec<String>> = fig7_rows()
        .into_iter()
        .map(|r| {
            vec![
                r.gpus.to_string(),
                r.system,
                format!("{:.1}", r.max_b),
                format!("{:.1}", r.paper_b),
            ]
        })
        .collect();
    crate::table::render_table(&["GPUs", "system", "max model (B)", "paper (B)"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shape_holds() {
        let rows = fig7_rows();
        assert_eq!(rows.len(), 15);
        let get = |gpus: u32, sys: &str| -> f64 {
            rows.iter()
                .find(|r| r.gpus == gpus && r.system == sys)
                .expect("row")
                .max_b
        };
        // Within every GPU count, ZeRO-Offload dominates all partition/
        // replication baselines.
        for gpus in [1u32, 4, 16] {
            let zo = get(gpus, "ZeRO-Offload");
            for sys in ["PyTorch DDP", "Megatron", "ZeRO-2"] {
                assert!(zo > get(gpus, sys), "{sys} at {gpus} GPUs");
            }
        }
        // Ordering at one GPU: PyTorch < ZeRO-Offload < L2L (paper).
        assert!(get(1, "PyTorch DDP") < get(1, "ZeRO-Offload"));
        assert!(get(1, "ZeRO-Offload") < get(1, "L2L"));
        // ZeRO-Offload at 16 GPUs reaches the tens of billions.
        assert!(get(16, "ZeRO-Offload") > 50.0);
    }

    #[test]
    fn measured_within_2x_of_paper() {
        // Shape reproduction: every bar within a factor of ~2 of the
        // paper's (absolute calibration differs, ordering must not).
        for r in fig7_rows() {
            let ratio = r.max_b / r.paper_b;
            assert!(
                (0.5..2.5).contains(&ratio),
                "{} at {} GPUs: measured {:.1}B vs paper {:.1}B",
                r.system,
                r.gpus,
                r.max_b,
                r.paper_b
            );
        }
    }
}
