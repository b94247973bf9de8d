//! Property-based tests for the PCIe wire format, the gradient bucketer,
//! the shared frame codec and the files built on it.
//!
//! The offload path's correctness rests on two mechanical invariants:
//! frames survive the encode/decode round-trip bit-exactly, and the
//! bucketer's scatter/gather is lossless for any parameter count and
//! bucket budget (including a ragged final bucket). Durable state adds a
//! third: a checkpoint or tier blob reads back bit for bit, or as a typed
//! error — whatever was done to the file.

use proptest::prelude::*;
use zero_offload::bucket::{scatter_frame, scatter_frames, GradBucketer};
use zero_offload::checkpoint::{FILE_MAGIC, FILE_VERSION, FIXED_BYTES};
use zero_offload::framing;
use zero_offload::wire::{
    decode_frame, encode_frame, frame_bytes, quantize_grads, quantize_into, roundtrip_grads,
    WireError, HEADER_BYTES,
};
use zero_offload::{
    decode_checkpoint_bytes, encode_checkpoint_bytes, CheckpointError, DpuCheckpoint,
    TrainingCheckpoint,
};
use zero_offload::{run_zero3_ranks, Zero3Cache, Zero3Event, Zero3Plan, ZeroOffloadConfig};
use zero_offload::{FrameError, MemoryTier, NvmeTier, TierError};
use zo_optim::AdamState;
use zo_tensor::F16;

fn f16_vec(max_len: usize) -> impl Strategy<Value = Vec<F16>> {
    prop::collection::vec(0u16..=u16::MAX, 0..max_len)
        .prop_map(|bits| bits.into_iter().map(F16::from_bits).collect())
}

proptest! {
    /// Any (seq, offset, payload) round-trips bit-exactly through the
    /// wire format, and the frame is exactly `frame_bytes` long.
    #[test]
    fn frame_roundtrip_is_bit_exact(
        seq in 0u32..=u32::MAX,
        offset in 0u64..1_000_000_000_000,
        values in f16_vec(64),
    ) {
        let frame = encode_frame(seq, offset, &values);
        prop_assert_eq!(frame.len(), frame_bytes(values.len()));
        let decoded = decode_frame(frame).unwrap();
        prop_assert_eq!(decoded.seq, seq);
        prop_assert_eq!(decoded.offset, offset);
        prop_assert_eq!(decoded.len(), values.len());
        for (a, b) in decoded.values().zip(&values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Corrupting any payload byte is caught by the checksum.
    #[test]
    fn corrupted_payload_fails_checksum(
        values in f16_vec(32),
        victim in 0usize..1024,
        flip in 1u8..=255,
    ) {
        prop_assume!(!values.is_empty());
        let frame = encode_frame(0, 0, &values);
        let mut raw = frame.to_vec();
        let victim = HEADER_BYTES + victim % (raw.len() - HEADER_BYTES);
        raw[victim] ^= flip;
        let err = decode_frame(bytes::Bytes::from(raw)).unwrap_err();
        prop_assert!(matches!(err, WireError::BadChecksum { .. }), "{err:?}");
    }

    /// A truncated buffer never decodes.
    #[test]
    fn truncated_frame_is_rejected(values in f16_vec(32), keep in 0usize..1024) {
        let frame = encode_frame(0, 0, &values);
        prop_assume!(!frame.is_empty());
        let keep = keep % frame.len();
        let raw = frame.to_vec()[..keep].to_vec();
        let err = decode_frame(bytes::Bytes::from(raw)).unwrap_err();
        prop_assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
    }

    /// Bucketing a contiguous gradient buffer into arbitrary bucket
    /// budgets and pushing it in arbitrary chunk sizes loses nothing:
    /// scatter reassembles the exact fp16 values, frames respect the
    /// bucket capacity (only the final one may be ragged), sequence
    /// numbers are monotone and byte accounting matches.
    #[test]
    fn bucketer_scatter_gather_roundtrip(
        n in 1usize..400,
        cap_elems in 1usize..48,
        chunk in 1usize..64,
    ) {
        let src: Vec<F16> = (0..n).map(|i| F16::from_f32((i % 97) as f32 * 0.25)).collect();
        let mut b = GradBucketer::new(2 * cap_elems);
        let mut off = 0usize;
        while off < n {
            let take = chunk.min(n - off);
            b.push(off as u64, &src[off..off + take]);
            off += take;
        }
        b.flush();
        let frames: Vec<_> = b
            .take_frames()
            .into_iter()
            .map(|f| decode_frame(f).unwrap())
            .collect();

        // Capacity: every frame but the last is exactly full.
        prop_assert_eq!(frames.len(), n.div_ceil(cap_elems));
        for f in &frames[..frames.len() - 1] {
            prop_assert_eq!(f.len(), cap_elems);
        }
        let last = &frames[frames.len() - 1];
        prop_assert_eq!(last.len(), n - (frames.len() - 1) * cap_elems);

        // Monotone seq, contiguous offsets.
        for (i, f) in frames.iter().enumerate() {
            prop_assert_eq!(f.seq, i as u32);
            prop_assert_eq!(f.offset, (i * cap_elems) as u64);
        }

        // Lossless reassembly.
        let mut dst = vec![f32::NAN; n];
        let written = scatter_frames(&frames, &mut dst);
        prop_assert_eq!(written, n);
        for (d, s) in dst.iter().zip(&src) {
            prop_assert_eq!(*d, s.to_f32());
        }

        // Byte accounting: payload is 2·n, wire adds one header per frame.
        prop_assert_eq!(b.payload_bytes(), 2 * n as u64);
        prop_assert_eq!(
            b.wire_bytes(),
            (2 * n + frames.len() * HEADER_BYTES) as u64
        );
        prop_assert_eq!(b.frames_emitted() as usize, frames.len());
    }

    /// A discontinuous push closes the open bucket: the emitted frames
    /// still reassemble both spans exactly.
    #[test]
    fn discontinuous_spans_reassemble(
        a_len in 1usize..40,
        gap in 1u64..100,
        b_len in 1usize..40,
        cap_elems in 1usize..32,
    ) {
        let mk = |len: usize, base: f32| -> Vec<F16> {
            (0..len).map(|i| F16::from_f32(base + i as f32)).collect()
        };
        let (a, c) = (mk(a_len, 1.0), mk(b_len, 500.0));
        let b_off = a_len as u64 + gap;
        let mut bk = GradBucketer::new(2 * cap_elems);
        bk.push(0, &a);
        bk.push(b_off, &c);
        bk.flush();
        let frames: Vec<_> =
            bk.take_frames().into_iter().map(|f| decode_frame(f).unwrap()).collect();
        let total = b_off as usize + b_len;
        let mut dst = vec![0.0f32; total];
        prop_assert_eq!(scatter_frames(&frames, &mut dst), a_len + b_len);
        for (i, v) in a.iter().enumerate() {
            prop_assert_eq!(dst[i], v.to_f32());
        }
        // The gap stays untouched.
        for v in &dst[a_len..b_off as usize] {
            prop_assert_eq!(*v, 0.0);
        }
        for (i, v) in c.iter().enumerate() {
            prop_assert_eq!(dst[b_off as usize + i], v.to_f32());
        }
    }
}

/// Gradient buffers of arbitrary f32 bit patterns (NaN payloads, ±inf,
/// subnormals included) whose lengths cross the 8-lane codec chunk and the
/// 1024-element conversion block.
fn grad_bits() -> impl Strategy<Value = Vec<f32>> {
    (
        prop::sample::select(vec![0usize, 1, 7, 8, 9, 1023, 1024, 1025, 2048, 2600]),
        0u64..=u64::MAX,
        0u32..4,
    )
        .prop_map(|(len, seed, kind)| patterned_f32s(len, seed, kind))
}

/// `len` floats from a xorshift stream, shaped by `kind` (0..4).
fn patterned_f32s(len: usize, seed: u64, kind: u32) -> Vec<f32> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let bits = (x >> 32) as u32;
            match kind {
                // Raw bit patterns: every class, mostly huge or tiny.
                0 => f32::from_bits(bits),
                // Exponent forced to all-ones: inf and NaN payloads.
                1 => f32::from_bits(bits | 0x7F80_0000),
                // f32 subnormals and zeros.
                2 => f32::from_bits(bits & 0x807F_FFFF),
                // Gradient-sized finite values.
                _ => (bits as f32 / u32::MAX as f32 - 0.5) * 8.0,
            }
        })
        .collect()
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// The fused quantize (scale, narrow, overflow scan and byte image in
    /// one blockwise pass) equals the three separate whole-buffer passes,
    /// bit for bit and flag for flag — as bytes in a frame payload and as
    /// fp16 values.
    #[test]
    fn fused_quantize_equals_scale_then_narrow(
        grads in grad_bits(),
        denom in prop::sample::select(vec![1.0f32, 3.0, 4.0]),
        scale in prop::sample::select(vec![1.0f32, 256.0, 65536.0, 3.0e38]),
    ) {
        let expect: Vec<F16> = grads.iter().map(|&g| F16::from_f32(g / denom * scale)).collect();
        let expect_overflow = expect.iter().any(|h| !h.is_finite());
        let expect_bytes: Vec<u8> =
            expect.iter().flat_map(|h| h.to_bits().to_le_bytes()).collect();

        let mut payload = vec![0xAA; 5]; // appended after whatever is staged
        let overflow = quantize_into(&grads, denom, scale, &mut payload);
        prop_assert_eq!(overflow, expect_overflow);
        prop_assert_eq!(&payload[..5], &[0xAA; 5][..]);
        prop_assert_eq!(&payload[5..], &expect_bytes[..]);

        let (mut scratch, mut wire) = (Vec::new(), Vec::new());
        prop_assert_eq!(quantize_grads(&grads, denom, scale, &mut scratch, &mut wire), expect_overflow);
        let got: Vec<u16> = wire.iter().map(|h| h.to_bits()).collect();
        let want: Vec<u16> = expect.iter().map(|h| h.to_bits()).collect();
        prop_assert_eq!(got, want);

        // The sharded engines' in-place round trip is the same kernel.
        let mut rt = grads.clone();
        prop_assert_eq!(roundtrip_grads(&mut rt, denom, scale), expect_overflow);
        let want_rt: Vec<f32> = expect.iter().map(|h| h.to_f32() / scale).collect();
        prop_assert_eq!(f32_bits(&rt), f32_bits(&want_rt));
    }

    /// The fused verify → widen·unscale equals decode + whole-buffer
    /// scatter + whole-buffer scale on arbitrary fp16 bit patterns.
    #[test]
    fn fused_widen_unscale_equals_scatter_then_scale(
        len in prop::sample::select(vec![0usize, 1, 7, 8, 9, 1023, 1024, 1025, 2600]),
        seed in 0u32..=u32::MAX,
        scale in prop::sample::select(vec![1.0f32, 256.0, 65536.0, 3.0]),
    ) {
        let mut x = seed | 1;
        let values: Vec<F16> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                F16::from_bits((x >> 16) as u16)
            })
            .collect();
        let frame = decode_frame(encode_frame(3, 11, &values)).unwrap();

        let mut separate = vec![-1.0f32; 11 + len + 2];
        scatter_frames(std::slice::from_ref(&frame), &mut separate);
        zo_tensor::ops::scale(&mut separate[11..11 + len], 1.0 / scale);

        let mut fused = vec![-1.0f32; 11 + len + 2];
        prop_assert_eq!(scatter_frame(&frame, &mut fused, Some(1.0 / scale)), len);
        prop_assert_eq!(f32_bits(&fused), f32_bits(&separate));
    }

    /// Quantizing straight into the bucketer produces the frames that
    /// pushing pre-narrowed values does: same boundaries, same bytes.
    #[test]
    fn push_grads_frames_equal_push_of_narrowed_values(
        grads in grad_bits(),
        cap_elems in prop::sample::select(vec![1usize, 5, 1024, 1500, 100_000]),
        split in 0usize..3000,
    ) {
        let (denom, scale) = (2.0f32, 1024.0f32);
        let narrowed: Vec<F16> = grads.iter().map(|&g| F16::from_f32(g / denom * scale)).collect();
        let split = split.min(grads.len());

        let mut fused = GradBucketer::new(2 * cap_elems);
        let mut overflow = fused.push_grads(40, &grads[..split], denom, scale);
        overflow |= fused.push_grads(40 + split as u64, &grads[split..], denom, scale);
        fused.flush();

        let mut staged = GradBucketer::new(2 * cap_elems);
        staged.push(40, &narrowed[..split]);
        staged.push(40 + split as u64, &narrowed[split..]);
        staged.flush();

        prop_assert_eq!(overflow, narrowed.iter().any(|h| !h.is_finite()));
        prop_assert_eq!(fused.take_frames(), staged.take_frames());
        prop_assert_eq!(fused.wire_bytes(), staged.wire_bytes());
    }
}

fn byte_vec(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=u8::MAX, 0..max_len)
}

proptest! {
    /// Any truncation of a framed blob — torn header or torn payload —
    /// decodes to the typed `Truncated` error, for any frame family.
    #[test]
    fn framing_truncation_is_always_typed(
        payload in byte_vec(96),
        magic in 0u32..=u32::MAX,
        version in 0u32..=u32::MAX,
        cut in 0usize..1024,
    ) {
        let spec = framing::FrameSpec { magic, version };
        let blob = framing::encode_frame(spec, &payload);
        let cut = cut % blob.len(); // blob.len() >= HEADER_BYTES > 0
        let err = framing::decode_frame(spec, &blob[..cut]).unwrap_err();
        prop_assert!(
            matches!(err, FrameError::Truncated { .. }),
            "cut at {}: {:?}", cut, err
        );
    }

    /// Flipping any single byte of a framed blob decodes to the typed
    /// error of the region hit — never a panic, never silent success:
    /// magic bytes to `BadMagic`, version bytes to `BadVersion`, length
    /// bytes to `Truncated` (longer) or `Corrupted` (shorter), checksum
    /// and payload bytes to `Corrupted`.
    #[test]
    fn framing_single_byte_flip_is_typed_by_region(
        payload in byte_vec(64),
        magic in 0u32..=u32::MAX,
        victim in 0usize..1024,
        flip in 1u8..=255,
    ) {
        let spec = framing::FrameSpec { magic, version: 1 };
        let blob = framing::encode_frame(spec, &payload);
        let victim = victim % blob.len();
        let mut raw = blob.clone();
        raw[victim] ^= flip;
        let err = framing::decode_frame(spec, &raw).unwrap_err();
        let ok = match victim {
            0..=3 => matches!(err, FrameError::BadMagic { .. }),
            4..=7 => matches!(err, FrameError::BadVersion { .. }),
            8..=15 => matches!(
                err,
                FrameError::Truncated { .. } | FrameError::Corrupted { .. }
            ),
            _ => matches!(err, FrameError::Corrupted { .. }),
        };
        prop_assert!(ok, "flip {:#04x} at byte {}: {:?}", flip, victim, err);
    }

    /// Decoding arbitrary bytes never panics, and only succeeds when the
    /// blob really is a well-formed frame of the expected family (the
    /// returned payload then re-encodes to a decodable frame).
    #[test]
    fn framing_decode_of_arbitrary_bytes_never_panics(
        raw in byte_vec(256),
        magic in 0u32..=u32::MAX,
        version in 0u32..=u32::MAX,
    ) {
        let spec = framing::FrameSpec { magic, version };
        if let Ok(payload) = framing::decode_frame(spec, &raw) {
            prop_assert!(raw.len() >= framing::HEADER_BYTES + payload.len());
            let reframed = framing::encode_frame(spec, payload);
            prop_assert_eq!(framing::decode_frame(spec, &reframed).unwrap(), payload);
        }
    }
}

/// A checkpoint of `n` elements whose floats are arbitrary bit patterns
/// (`kind` as in [`patterned_f32s`]), counters arbitrary `u64`s, and DPU
/// state one of the three shapes the file format tags: 0 none, 1 quiesced,
/// 2 a pending gradient of `pending_len` elements.
fn checkpoint_of(
    n: usize,
    dpu_tag: u32,
    pending_len: usize,
    seed: u64,
    kind: u32,
) -> TrainingCheckpoint {
    let counter = |k: u64| {
        seed.rotate_left(k as u32)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ k
    };
    TrainingCheckpoint {
        master: patterned_f32s(n, seed, kind),
        optim: AdamState {
            m: patterned_f32s(n, seed ^ 1, kind),
            v: patterned_f32s(n, seed ^ 2, kind),
            step: counter(1),
        },
        loss_scale: (patterned_f32s(1, seed ^ 3, kind)[0], counter(2) as u32),
        dpu: match dpu_tag {
            0 => None,
            1 => Some(DpuCheckpoint {
                steps_seen: counter(3),
                pending: None,
            }),
            _ => Some(DpuCheckpoint {
                steps_seen: counter(3),
                pending: Some(patterned_f32s(pending_len, seed ^ 4, kind)),
            }),
        },
        steps_applied: counter(4),
        steps_skipped: counter(5),
    }
}

/// Every field of a checkpoint with its floats as bits: `PartialEq` on the
/// checkpoint itself is false on NaN and blind to the sign of zero.
#[derive(Debug, PartialEq)]
struct CheckpointBits {
    state: [Vec<u32>; 3],
    loss_scale: (u32, u32),
    dpu: Option<(u64, Option<Vec<u32>>)>,
    counters: [u64; 3],
}

fn checkpoint_bits(c: &TrainingCheckpoint) -> CheckpointBits {
    CheckpointBits {
        state: [
            f32_bits(&c.master),
            f32_bits(&c.optim.m),
            f32_bits(&c.optim.v),
        ],
        loss_scale: (c.loss_scale.0.to_bits(), c.loss_scale.1),
        dpu: c
            .dpu
            .as_ref()
            .map(|d| (d.steps_seen, d.pending.as_deref().map(f32_bits))),
        counters: [c.optim.step, c.steps_applied, c.steps_skipped],
    }
}

const CKPT_LENS: [usize; 6] = [0, 1, 2, 7, 33, 1025];

proptest! {
    /// Any checkpoint — arbitrary float bit patterns (NaN payloads, ±inf,
    /// −0.0, subnormals), counters past 2⁵³, each DPU shape, empty, one
    /// and odd lengths — round-trips bit for bit, in a file of exactly
    /// header + fixed section + four bytes an element.
    #[test]
    fn checkpoint_roundtrip_is_bit_exact(
        n in prop::sample::select(CKPT_LENS.to_vec()),
        dpu_tag in 0u32..3,
        pending_len in prop::sample::select(CKPT_LENS.to_vec()),
        seed in 0u64..=u64::MAX,
        kind in 0u32..4,
    ) {
        let ckpt = checkpoint_of(n, dpu_tag, pending_len, seed, kind);
        let bytes = encode_checkpoint_bytes(&ckpt);
        let pending = if dpu_tag == 2 { pending_len } else { 0 };
        prop_assert_eq!(
            bytes.len(),
            framing::HEADER_BYTES + FIXED_BYTES + 4 * (3 * n + pending)
        );
        let back = decode_checkpoint_bytes(&bytes).unwrap();
        prop_assert_eq!(checkpoint_bits(&back), checkpoint_bits(&ckpt));
        // Bytes past the frame are not the checkpoint's.
        let mut junked = bytes.clone();
        junked.extend_from_slice(&seed.to_le_bytes()[..(seed % 9) as usize]);
        let back = decode_checkpoint_bytes(&junked).unwrap();
        prop_assert_eq!(checkpoint_bits(&back), checkpoint_bits(&ckpt));
    }

    /// A checkpoint file cut anywhere is `Truncated`; with any one byte
    /// flipped it is the typed error of the region hit. Never a panic,
    /// never a checkpoint.
    #[test]
    fn checkpoint_truncation_and_byte_flips_are_typed(
        n in prop::sample::select(vec![0usize, 1, 7, 33]),
        dpu_tag in 0u32..3,
        seed in 0u64..=u64::MAX,
        at in 0usize..100_000,
        flip in 1u8..=255,
    ) {
        let bytes = encode_checkpoint_bytes(&checkpoint_of(n, dpu_tag, n + 1, seed, 0));
        let at = at % bytes.len();
        let err = decode_checkpoint_bytes(&bytes[..at]).unwrap_err();
        prop_assert!(matches!(err, CheckpointError::Truncated { .. }), "cut at {}: {:?}", at, err);

        let mut raw = bytes.clone();
        raw[at] ^= flip;
        let err = decode_checkpoint_bytes(&raw).unwrap_err();
        let ok = match at {
            0..=3 => matches!(err, CheckpointError::BadMagic { .. }),
            4..=7 => matches!(err, CheckpointError::BadVersion { .. }),
            8..=15 => matches!(
                err,
                CheckpointError::Truncated { .. } | CheckpointError::Corrupted { .. }
            ),
            _ => matches!(err, CheckpointError::Corrupted { .. }),
        };
        prop_assert!(ok, "flip {:#04x} at byte {}: {:?}", flip, at, err);
    }

    /// Damage *under* a valid checksum — a payload with arbitrary bytes
    /// written over any stretch of it, then framed again — reaches the
    /// payload's own validation: it decodes to `Malformed`, or to a
    /// checkpoint that encodes back to the very same file. Never a panic,
    /// never an allocation sized by a length the payload does not hold.
    #[test]
    fn checkpoint_damage_under_a_valid_checksum_is_malformed_or_canonical(
        n in prop::sample::select(vec![0usize, 1, 7, 33]),
        dpu_tag in 0u32..3,
        seed in 0u64..=u64::MAX,
        at in 0usize..100_000,
        junk in byte_vec(24),
    ) {
        let bytes = encode_checkpoint_bytes(&checkpoint_of(n, dpu_tag, n + 1, seed, 0));
        let mut payload = bytes[framing::HEADER_BYTES..].to_vec();
        // Two cases in three land in the fixed section, where the lengths
        // and the tag live.
        let at = if at % 3 == 0 { at % payload.len() } else { at % FIXED_BYTES };
        let end = (at + junk.len()).min(payload.len());
        payload[at..end].copy_from_slice(&junk[..end - at]);
        let spec = framing::FrameSpec { magic: FILE_MAGIC, version: FILE_VERSION };
        let blob = framing::encode_frame(spec, &payload);
        match decode_checkpoint_bytes(&blob) {
            Ok(ckpt) => prop_assert_eq!(encode_checkpoint_bytes(&ckpt), blob),
            Err(e) => prop_assert!(matches!(e, CheckpointError::Malformed { .. }), "{e:?}"),
        }
    }
}

proptest! {
    // Every case creates and removes a spill directory.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The NVMe tier's in-place part file against a model, under any
    /// sequence of writes of varying length and out-of-band damage (tear,
    /// byte flip, appended junk): a read returns exactly the last
    /// completed write's payload while that frame is intact, and that
    /// payload or a typed frame error once it is not — never other bytes,
    /// never an I/O error or a panic. A completed write always leaves the
    /// file exactly one frame long, whatever it found.
    #[test]
    fn nvme_part_file_reads_the_last_completed_write_or_a_typed_error(
        ops in prop::collection::vec((0u8..5, 0usize..4096), 1..24),
    ) {
        use std::io::Write;
        let tier = NvmeTier::new().expect("spill dir");
        let path = tier.spill_dir().join("part-0.zot");
        let on_disk = || std::fs::metadata(&path).unwrap().len() as usize;
        // The model: the last completed write, and whether its frame is
        // still whole on disk.
        let mut last: Option<Vec<u8>> = None;
        let mut intact = false;
        let mut out = Vec::new();
        for (seq, (kind, arg)) in ops.into_iter().enumerate() {
            let framed = last.as_ref().map_or(0, |p| framing::HEADER_BYTES + p.len());
            let was_intact = intact;
            match kind {
                0 => {
                    let payload: Vec<u8> =
                        (0..arg % 600).map(|i| (i * 31 + seq * 7 + 1) as u8).collect();
                    tier.write_part(0, &payload).unwrap();
                    prop_assert_eq!(on_disk(), framing::HEADER_BYTES + payload.len());
                    last = Some(payload);
                    intact = true;
                }
                1 => match tier.tear_part(0) {
                    // Halving can spare a frame that had junk behind it.
                    Ok(()) => intact &= on_disk() >= framed,
                    Err(e) => {
                        prop_assert_eq!(e, TierError::Missing { part: 0 });
                        prop_assert!(last.is_none());
                    }
                },
                2 if last.is_some() && on_disk() > 0 => {
                    let mut blob = std::fs::read(&path).unwrap();
                    let at = arg % blob.len();
                    blob[at] ^= 0x40;
                    std::fs::write(&path, &blob).unwrap();
                    intact &= at >= framed;
                }
                3 if last.is_some() => {
                    let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
                    file.write_all(&vec![0xEE; 1 + arg % 64]).unwrap();
                }
                _ => {}
            }
            match (tier.read_part(0, &mut out), &last) {
                (Ok(()), Some(payload)) => {
                    prop_assert_eq!(&out, payload, "op {}", seq);
                    // Fresh damage inside the frame never goes unnoticed.
                    prop_assert!(intact || !was_intact, "op {}: damage read back clean", seq);
                }
                (Ok(()), None) => prop_assert!(false, "op {}: read a part never written", seq),
                (Err(TierError::Missing { part: 0 }), None) => {}
                (Err(TierError::Frame(e)), Some(_)) => {
                    prop_assert!(!intact, "op {}: intact frame refused: {:?}", seq, e)
                }
                (Err(e), _) => prop_assert!(false, "op {}: untyped failure {:?}", seq, e),
            }
        }
    }
}

/// Cumulative layer ranges over random per-layer sizes.
fn layer_ranges(sizes: &[usize]) -> Vec<core::ops::Range<usize>> {
    let mut out = Vec::with_capacity(sizes.len());
    let mut at = 0;
    for &s in sizes {
        out.push(at..at + s);
        at += s;
    }
    out
}

proptest! {
    /// For any layer-size vector and world size, the stage-3 shard
    /// ownership is a disjoint exact cover of the parameter space: every
    /// index is owned by exactly one rank, ranges are contiguous and in
    /// rank order.
    #[test]
    fn stage3_ownership_is_a_disjoint_exact_cover(
        sizes in prop::collection::vec(1usize..60, 1..12),
        world in 1usize..6,
    ) {
        let layers = layer_ranges(&sizes);
        let total: usize = sizes.iter().sum();
        let mut at = 0;
        for rank in 0..world {
            let plan = Zero3Plan::new(layers.clone(), total, world, rank, 0, 0);
            let own = plan.owned_range();
            prop_assert_eq!(own.start, at, "rank {} starts where rank {} ended", rank, rank.max(1) - 1);
            prop_assert!(own.end >= own.start);
            at = own.end;
        }
        prop_assert_eq!(at, total, "ranks must tile the whole parameter space");
    }

    /// Replaying the gather/release schedule for any layer sizes, world,
    /// prefetch and cache budget: resident non-owned bytes never exceed
    /// cache budget + prefetch window, the LRU never admits past its
    /// budget, every transient is released by sweep end, and the cache's
    /// high-water mark equals the replayed maximum.
    #[test]
    fn stage3_schedule_never_exceeds_the_residency_budget(
        sizes in prop::collection::vec(1usize..60, 1..12),
        world in 1usize..6,
        rank_pick in 0usize..6,
        prefetch in 0usize..4,
        budget in 0usize..4000,
        steps in 1usize..4,
    ) {
        let layers = layer_ranges(&sizes);
        let total: usize = sizes.iter().sum();
        let rank = rank_pick % world;
        let plan = Zero3Plan::new(layers.clone(), total, world, rank, prefetch, budget);
        let max_layer_bytes = layers.iter().map(|r| 2 * r.len() as u64).max().unwrap();
        let window = (prefetch as u64 + 1) * max_layer_bytes;

        let mut cache = Zero3Cache::new();
        let mut running = 0u64; // non-owned fp16 bytes currently resident
        let mut replayed_peak = 0u64;
        for _ in 0..steps {
            for ev in plan.micro_batch_events(&mut cache) {
                match ev {
                    Zero3Event::Gather { layer, recv_bytes } => {
                        prop_assert_eq!(recv_bytes, plan.layer_nonowned_bytes(layer));
                        running += recv_bytes;
                    }
                    Zero3Event::Release { freed_bytes, .. } => {
                        prop_assert!(freed_bytes <= running, "released more than resident");
                        running -= freed_bytes;
                    }
                    Zero3Event::Hit { .. } | Zero3Event::Refresh { .. } => {}
                }
                prop_assert!(
                    running <= budget as u64 + window,
                    "resident non-owned {} exceeds budget {} + window {}",
                    running, budget, window
                );
                replayed_peak = replayed_peak.max(2 * plan.owned_range().len() as u64 + running);
            }
            // Sweep done: only cache-resident layers remain materialised.
            let cached_nonowned: u64 = cache
                .cached_layers()
                .iter()
                .map(|&l| plan.layer_nonowned_bytes(l))
                .sum();
            prop_assert_eq!(running, cached_nonowned, "transients leaked past the sweep");
            prop_assert!(cache.cached_full_bytes() <= budget as u64, "LRU admitted past its budget");
            // The refresh schedule touches exactly the cached layers.
            for ev in plan.publish_events(&cache) {
                match ev {
                    Zero3Event::Refresh { layer, recv_bytes } => {
                        prop_assert!(cache.cached_layers().contains(&layer));
                        prop_assert_eq!(recv_bytes, plan.layer_nonowned_bytes(layer));
                    }
                    other => prop_assert!(false, "unexpected publish event {other:?}"),
                }
            }
        }
        prop_assert_eq!(cache.peak_bytes(), replayed_peak, "high-water mark drifted from replay");
    }
}

proptest! {
    // Engine runs are costly; a handful of random seeds is plenty to pin
    // the invariant on top of the deterministic tests in
    // `tests/zero3_equivalence.rs`.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The prefetch depth is pure scheduling: for any model seed, worlds
    /// of 2 with prefetch 0, 1 and 3 produce bit-identical shards and
    /// losses.
    #[test]
    fn stage3_prefetch_depth_is_bitwise_invariant(seed in 0u64..1_000_000) {
        let gpt = zo_nn::GptConfig { vocab: 16, seq_len: 8, hidden: 8, heads: 2, layers: 1 };
        let run = |prefetch: usize| {
            let cfg = ZeroOffloadConfig {
                prefetch_layers: prefetch,
                ..ZeroOffloadConfig::default()
            };
            run_zero3_ranks(
                2,
                cfg,
                move |_| zo_nn::GptModel::new(gpt, seed),
                move |engine| {
                    let mut data = zo_models::BigramLm::new(16, 0.05, seed.wrapping_add(1));
                    let mut losses = Vec::new();
                    for _ in 0..3 {
                        let b = data.batch(2, 8);
                        let r = engine.rank();
                        let inputs = b.inputs[r * 8..(r + 1) * 8].to_vec();
                        let targets = b.targets[r * 8..(r + 1) * 8].to_vec();
                        let out = engine
                            .step(|m| m.train_step(&inputs, &targets, 1, 8, |_| {}))
                            .unwrap();
                        losses.push(out.loss().to_bits());
                    }
                    let shard: Vec<u32> =
                        engine.master_shard().iter().map(|v| v.to_bits()).collect();
                    (shard, losses)
                },
            )
        };
        let base = run(0);
        for prefetch in [1usize, 3] {
            let got = run(prefetch);
            prop_assert_eq!(&base, &got, "prefetch {} diverged", prefetch);
        }
    }
}
