//! Per-layer probes: timed calls into public functions at the shapes the
//! workloads use, reported as the median call. They say what a layer can
//! do on its own, so that a change in an end-to-end number can be traced
//! to (or cleared of) the layer beneath it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use zero_offload::{bucket, wire, DramTier, MemoryTier, NvmeTier, ZeroOffloadEngine};
use zo_collectives::Communicator;
use zo_models::BigramLm;
use zo_nn::{
    cross_entropy, Activation, CausalSelfAttention, Embedding, GptModel, LayerNorm, Linear, Model,
    TransformerBlock,
};
use zo_optim::{CpuAdam, CpuAdamConfig};
use zo_tensor::{matmul, pool, Init, Tensor, F16};

use crate::stats::median;
use crate::workloads::{find, Seeds};

/// How long a probe may run.
#[derive(Debug, Clone, Copy)]
pub struct ProbeBudget {
    /// Calls timed at least.
    pub min_calls: usize,
    /// Calls timed at most.
    pub max_calls: usize,
    /// Once `min_calls` are in, stop after this long.
    pub time: Duration,
}

impl ProbeBudget {
    /// The full budget: the median of 30 calls, fewer for a call so slow
    /// that `time` runs out first (never fewer than 5).
    pub fn full(total: Duration) -> ProbeBudget {
        ProbeBudget {
            min_calls: 5,
            max_calls: 30,
            time: total / PROBES,
        }
    }

    /// The `--quick` budget: 3 calls, the first of them the untimed one.
    pub fn quick() -> ProbeBudget {
        ProbeBudget {
            min_calls: 2,
            max_calls: 2,
            time: Duration::ZERO,
        }
    }
}

/// Number of `time_calls` sites below (splits the total budget).
const PROBES: u32 = 25;

/// Median seconds per call of `f`, after one untimed call.
pub fn time_calls(budget: ProbeBudget, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::with_capacity(budget.max_calls);
    while samples.len() < budget.max_calls
        && (samples.len() < budget.min_calls || start.elapsed() < budget.time)
    {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Elements of the optimizer, codec and wire probes: `wide-optim`'s
/// parameter count, rounded.
const WIDE_ELEMS: usize = 5_000_000;
/// Tokens × hidden of the `dense-compute` layer probes.
const TOKENS: usize = 256;
const HIDDEN: usize = 256;
/// `wide-*` head shape.
const HEAD_ROWS: usize = 16;
const HEAD_VOCAB: usize = 8192;
/// Payload of one tier partition in the tier probes.
const TIER_PART_BYTES: usize = 8 * 1024 * 1024;
/// Elements exchanged by the collective probes.
const COLL_ELEMS: usize = 500_000;

fn normal(rows: usize, cols: usize, seed: u64) -> Tensor {
    Init::new(seed).normal_tensor(rows, cols, 0.5)
}

fn normal_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; n];
    Init::new(seed).normal(&mut v, 0.5);
    v
}

/// Runs every probe; keys are per-layer metric names.
pub fn run_all(budget: ProbeBudget, seeds: Seeds) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    tensor(budget, seeds, &mut out);
    nn(budget, seeds, &mut out);
    optim(budget, seeds, &mut out);
    wire_and_bucket(budget, seeds, &mut out);
    tier(budget, seeds, &mut out);
    checkpoint(budget, seeds, &mut out);
    collectives(budget, seeds, &mut out);
    out
}

type Out = BTreeMap<&'static str, f64>;

fn tensor(budget: ProbeBudget, seeds: Seeds, out: &mut Out) {
    let gflops = |m: usize, k: usize, n: usize, secs: f64| 2.0 * (m * k * n) as f64 / secs / 1e9;
    let (m, k, n) = (TOKENS, HIDDEN, 4 * HIDDEN);

    // y = x·W (forward), dW = xᵀ·dy, dx = dy·Wᵀ: one MLP up-projection.
    let x = normal(m, k, seeds.model);
    let w = normal(k, n, seeds.model + 1);
    let dy = normal(m, n, seeds.model + 2);
    let mut y = Tensor::zeros(m, n);
    let secs = time_calls(budget, || {
        matmul::matmul_acc(&x, &w, &mut y).expect("nn shapes")
    });
    out.insert("tensor.gemm_nn_gflops", gflops(m, k, n, secs));
    let mut dw = Tensor::zeros(k, n);
    let secs = time_calls(budget, || {
        matmul::matmul_at_b_acc(&x, &dy, &mut dw).expect("tn shapes")
    });
    out.insert("tensor.gemm_tn_gflops", gflops(m, k, n, secs));
    let mut dx = Tensor::zeros(m, k);
    let secs = time_calls(budget, || {
        matmul::matmul_a_bt_acc(&dy, &w, &mut dx).expect("nt shapes")
    });
    out.insert("tensor.gemm_nt_gflops", gflops(m, k, n, secs));

    let xh = normal(HEAD_ROWS, HIDDEN, seeds.model + 3);
    let wh = normal(HIDDEN, HEAD_VOCAB, seeds.model + 4);
    let mut logits = Tensor::zeros(HEAD_ROWS, HEAD_VOCAB);
    let secs = time_calls(budget, || {
        matmul::matmul_acc(&xh, &wh, &mut logits).expect("head shapes")
    });
    out.insert(
        "tensor.gemm_head_gflops",
        gflops(HEAD_ROWS, HIDDEN, HEAD_VOCAB, secs),
    );

    // GB/s counts the fp32 side of the conversion.
    let wide = normal_vec(WIDE_ELEMS, seeds.model + 5);
    let mut half = vec![F16::ZERO; WIDE_ELEMS];
    let secs = time_calls(budget, || F16::from_f32_slice(&wide, &mut half));
    out.insert(
        "tensor.f16_narrow_gbps",
        4.0 * WIDE_ELEMS as f64 / secs / 1e9,
    );
    let mut back = vec![0.0f32; WIDE_ELEMS];
    let secs = time_calls(budget, || F16::to_f32_slice(&half, &mut back));
    out.insert(
        "tensor.f16_widen_gbps",
        4.0 * WIDE_ELEMS as f64 / secs / 1e9,
    );

    let secs = time_calls(budget, || {
        pool::global().run(vec![Box::new(|| {}), Box::new(|| {})]);
    });
    out.insert("tensor.pool_roundtrip_us", secs * 1e6);
}

fn nn(budget: ProbeBudget, seeds: Seeds, out: &mut Out) {
    let mut init = Init::new(seeds.model);
    let (batch, seq) = (4, TOKENS / 4);
    let x = normal(TOKENS, HIDDEN, seeds.model + 10);
    let dy = normal(TOKENS, HIDDEN, seeds.model + 11);

    let mut block = TransformerBlock::new(HIDDEN, 4, &mut init);
    let secs = time_calls(budget, || {
        std::hint::black_box(block.forward(&x, batch, seq).expect("block forward"));
    });
    out.insert("nn.block_fwd_ms", secs * 1e3);
    let (_, cache) = block.forward(&x, batch, seq).expect("block forward");
    let secs = time_calls(budget, || {
        std::hint::black_box(block.backward(&cache, &dy).expect("block backward"));
    });
    out.insert("nn.block_bwd_ms", secs * 1e3);

    let mut attn = CausalSelfAttention::new(HIDDEN, 4, &mut init);
    let secs = time_calls(budget, || {
        let (_, cache) = attn.forward(&x, batch, seq).expect("attention forward");
        std::hint::black_box(attn.backward(&cache, &dy).expect("attention backward"));
    });
    out.insert("nn.attention_fwd_bwd_ms", secs * 1e3);

    let mut ln = LayerNorm::new(HIDDEN, &mut init);
    let secs = time_calls(budget, || {
        let (_, cache) = ln.forward(&x).expect("layernorm forward");
        std::hint::black_box(ln.backward(&cache, &dy).expect("layernorm backward"));
    });
    out.insert("nn.layernorm_fwd_bwd_us", secs * 1e6);

    // GELU sits on the MLP's 4×hidden inner activations.
    let inner = normal(TOKENS, 4 * HIDDEN, seeds.model + 12);
    let dinner = normal(TOKENS, 4 * HIDDEN, seeds.model + 13);
    let secs = time_calls(budget, || {
        let (_, cache) = Activation::Gelu.forward(&inner);
        std::hint::black_box(Activation::Gelu.backward(&cache, &dinner));
    });
    out.insert("nn.gelu_fwd_bwd_us", secs * 1e6);

    // wide-*: the LM head with its loss, the embedding scatter, and
    // zeroing 5M gradients.
    let wide = find("wide-optim").expect("wide-optim is a workload");
    let mut head = Linear::new(HIDDEN, HEAD_VOCAB, &mut init);
    let xh = normal(HEAD_ROWS, HIDDEN, seeds.model + 14);
    let b = BigramLm::new(HEAD_VOCAB, 0.0, seeds.data).batch(1, HEAD_ROWS);
    let secs = time_calls(budget, || {
        let (logits, cache) = head.forward(&xh).expect("head forward");
        let (_, dlogits) = cross_entropy(&logits, &b.targets).expect("cross entropy");
        std::hint::black_box(head.backward(&cache, &dlogits).expect("head backward"));
    });
    out.insert("nn.head_xent_ms", secs * 1e3);

    let mut emb = Embedding::new(HEAD_VOCAB, HIDDEN, &mut init);
    let (_, cache) = emb.forward(&b.inputs).expect("embedding forward");
    let secs = time_calls(budget, || {
        emb.backward(&cache, &xh).expect("embedding backward")
    });
    out.insert("nn.embedding_bwd_ms", secs * 1e3);

    let mut model = GptModel::new(wide.gpt, seeds.model);
    let secs = time_calls(budget, || model.zero_grads());
    out.insert("nn.zero_grads_ms", secs * 1e3);
}

fn optim(budget: ProbeBudget, seeds: Seeds, out: &mut Out) {
    let cfg = CpuAdamConfig {
        // What the engines resolve `optimizer_threads: 0` to.
        num_threads: pool::global().threads(),
        ..CpuAdamConfig::default()
    };
    let grads = normal_vec(WIDE_ELEMS, seeds.data + 20);
    let mut params = normal_vec(WIDE_ELEMS, seeds.model + 20);
    let mut opt = CpuAdam::new(cfg, WIDE_ELEMS);
    let secs = time_calls(budget, || {
        opt.step(&mut params, &grads).expect("adam shapes")
    });
    out.insert("optim.cpu_adam_melem_s", WIDE_ELEMS as f64 / secs / 1e6);

    let mut g16 = vec![F16::ZERO; WIDE_ELEMS];
    F16::from_f32_slice(&grads, &mut g16);
    let mut p16 = vec![F16::ZERO; WIDE_ELEMS];
    let secs = time_calls(budget, || {
        opt.step_fp16_grads(&mut params, &g16, &mut p16)
            .expect("adam shapes")
    });
    out.insert(
        "optim.cpu_adam_fp16_melem_s",
        WIDE_ELEMS as f64 / secs / 1e6,
    );
}

fn wire_and_bucket(budget: ProbeBudget, seeds: Seeds, out: &mut Out) {
    let grads = normal_vec(WIDE_ELEMS, seeds.data + 30);
    let (mut scratch, mut half) = (Vec::new(), Vec::new());
    let secs = time_calls(budget, || {
        std::hint::black_box(wire::quantize_grads(
            &grads,
            1.0,
            1024.0,
            &mut scratch,
            &mut half,
        ));
    });
    out.insert("wire.quantize_gbps", 4.0 * WIDE_ELEMS as f64 / secs / 1e9);

    // One frame of the size the head bucket ships; GB/s counts the fp16
    // payload once for an encode + decode round trip.
    let values = &half[..HIDDEN * HEAD_VOCAB];
    let secs = time_calls(budget, || {
        let frame = wire::encode_frame(0, 0, values);
        std::hint::black_box(wire::decode_frame(frame).expect("loopback frame"));
    });
    out.insert(
        "wire.frame_codec_gbps",
        2.0 * values.len() as f64 / secs / 1e9,
    );

    let frames = [wire::decode_frame(wire::encode_frame(0, 0, values)).expect("loopback frame")];
    let mut dst = vec![0.0f32; values.len()];
    let secs = time_calls(budget, || {
        std::hint::black_box(bucket::scatter_frames(&frames, &mut dst));
    });
    out.insert(
        "bucket.scatter_gbps",
        4.0 * values.len() as f64 / secs / 1e9,
    );
}

fn tier(budget: ProbeBudget, seeds: Seeds, out: &mut Out) {
    let payload: Vec<u8> = normal_vec(TIER_PART_BYTES / 4, seeds.data + 40)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let mb = TIER_PART_BYTES as f64 / 1e6;
    let mut back = Vec::new();

    // Spills under ZO_TIER_DIR (the run's scratch directory).
    let nvme = NvmeTier::new().expect("tier spill directory");
    let secs = time_calls(budget, || nvme.write_part(0, &payload).expect("tier write"));
    out.insert("tier.nvme_write_mbps", mb / secs);
    let secs = time_calls(budget, || nvme.read_part(0, &mut back).expect("tier read"));
    out.insert("tier.nvme_read_mbps", mb / secs);

    let dram = DramTier::new();
    let secs = time_calls(budget, || {
        dram.write_part(0, &payload).expect("dram write");
        dram.read_part(0, &mut back).expect("dram read");
    });
    out.insert(
        "tier.dram_rw_gbps",
        2.0 * TIER_PART_BYTES as f64 / secs / 1e9,
    );
}

fn checkpoint(budget: ProbeBudget, seeds: Seeds, out: &mut Out) {
    // The state one `serve-mixed` job checkpoints.
    let serve = find("serve-mixed").expect("serve-mixed is a workload");
    let engine = ZeroOffloadEngine::new(GptModel::new(serve.gpt, seeds.model), Default::default());
    let ckpt = engine.save_checkpoint();
    let bytes = zero_offload::encode_checkpoint_bytes(&ckpt);
    let mb = bytes.len() as f64 / 1e6;
    let secs = time_calls(budget, || {
        std::hint::black_box(zero_offload::encode_checkpoint_bytes(&ckpt));
    });
    out.insert("ckpt.encode_mbps", mb / secs);
    let secs = time_calls(budget, || {
        std::hint::black_box(zero_offload::decode_checkpoint_bytes(&bytes).expect("own bytes"));
    });
    out.insert("ckpt.decode_mbps", mb / secs);
}

fn collectives(budget: ProbeBudget, seeds: Seeds, out: &mut Out) {
    // Two rank threads in lock-step; rank 0's clock is reported. Both
    // ranks must make the same number of calls, so the count is fixed.
    let calls = budget.max_calls.min(10).max(budget.min_calls);
    let data = normal_vec(COLL_ELEMS, seeds.data + 50);
    let half = COLL_ELEMS / 2;
    let timed = |op: &(dyn Fn(&Communicator) + Sync)| -> f64 {
        let samples: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = Communicator::group(2)
                .into_iter()
                .map(|comm| {
                    scope.spawn(move || {
                        op(&comm);
                        (0..calls)
                            .map(|_| {
                                let t0 = Instant::now();
                                op(&comm);
                                t0.elapsed().as_secs_f64()
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread"))
                .collect()
        });
        median(&samples[0]) * 1e6
    };
    out.insert(
        "coll.reduce_scatter_us",
        timed(&|c| {
            std::hint::black_box(c.reduce_scatter_mean(&data));
        }),
    );
    out.insert(
        "coll.all_gather_us",
        timed(&|c| {
            let shard = &data[c.rank() * half..(c.rank() + 1) * half];
            std::hint::black_box(c.all_gather(shard, COLL_ELEMS));
        }),
    );
    // One layer's worth out of the middle, straddling both shards.
    out.insert(
        "coll.all_gather_slice_us",
        timed(&|c| {
            let shard = &data[c.rank() * half..(c.rank() + 1) * half];
            std::hint::black_box(c.all_gather_slice(shard, half / 2..half + half / 2, COLL_ELEMS));
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_calls_honours_min_max_and_time() {
        let mut n = 0;
        time_calls(ProbeBudget::quick(), || n += 1);
        assert_eq!(n, 3);

        let mut n = 0;
        let budget = ProbeBudget {
            min_calls: 2,
            max_calls: 1000,
            time: Duration::from_millis(5),
        };
        time_calls(budget, || {
            n += 1;
            std::thread::sleep(Duration::from_millis(2));
        });
        // Warm call + at least min_calls, stopped by the clock well
        // before max_calls.
        assert!((3..20).contains(&n), "{n} calls");
    }
}
