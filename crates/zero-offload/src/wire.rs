//! The PCIe wire format for gradient offload.
//!
//! Gradients leave the device as fp16 and arrive in host memory (paper
//! Sec. 4.1). This module gives that transfer a concrete byte format so
//! the emulated link moves real framed bytes: each frame carries a header
//! (magic, sequence number, flat offset, element count, checksum) and a
//! little-endian fp16 payload. Frames are the unit the gradient bucketer
//! emits and the host-side consumer validates.
//!
//! Every gradient element is touched four times between backward and the
//! optimizer: [`quantize_into`] scales, narrows and overflow-checks it
//! straight into the open frame's payload, the bucketer checksums the
//! payload once when the frame closes, [`decode_frame`] checksums it again
//! on arrival, and [`GradFrame::widen_into`] widens and unscales it
//! straight into the host gradient buffer. The two conversions work on
//! 1024-element stack blocks, so their intermediate passes stay in L1 and
//! nothing is allocated per call.

use bytes::Bytes;
use zo_tensor::F16;

use crate::framing::checksum;

/// Frame magic: "ZOfl".
pub const MAGIC: u32 = 0x5A4F_666C;

/// Header size in bytes.
pub const HEADER_BYTES: usize = 4 + 4 + 8 + 4 + 4;

/// Errors produced when decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than a header.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes needed.
        need: usize,
    },
    /// The magic word did not match.
    BadMagic {
        /// The value found.
        found: u32,
    },
    /// The checksum did not match the payload.
    BadChecksum {
        /// Checksum in the header.
        expected: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            WireError::BadMagic { found } => write!(f, "bad magic {found:#010x}"),
            WireError::BadChecksum { expected, computed } => {
                write!(
                    f,
                    "checksum mismatch: header {expected:#010x}, payload {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Elements converted per stack block by the fused quantize and widen.
const BLOCK: usize = 1024;

/// Decodes a little-endian fp16 payload value by value.
fn f16_le(payload: &[u8]) -> impl Iterator<Item = F16> + '_ {
    payload
        .chunks_exact(2)
        .map(|b| F16::from_bits(u16::from_le_bytes([b[0], b[1]])))
}

/// A validated gradient frame: header fields plus a zero-copy view of the
/// little-endian fp16 payload inside the received buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct GradFrame {
    /// Monotone sequence number within a step.
    pub seq: u32,
    /// Flat offset of the first element in the parameter space.
    pub offset: u64,
    payload: Bytes,
}

impl GradFrame {
    /// Number of fp16 gradient values carried.
    pub fn len(&self) -> usize {
        self.payload.len() / 2
    }

    /// Whether the frame carries no values.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The fp16 gradient values, decoded one by one (inspection and tests;
    /// the engine uses [`GradFrame::widen_into`]).
    pub fn values(&self) -> impl Iterator<Item = F16> + '_ {
        f16_le(&self.payload)
    }

    /// Widens the payload exactly into `dst` and, given `unscale`,
    /// multiplies each block by it while the block is still in cache — the
    /// same two operations per element, in the same order, as a whole-
    /// buffer widen followed by a whole-buffer scale.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != self.len()`.
    pub fn widen_into(&self, dst: &mut [f32], unscale: Option<f32>) {
        assert_eq!(dst.len(), self.len(), "widen length mismatch");
        let mut half = [F16::ZERO; BLOCK];
        for (bytes, out) in self.payload.chunks(2 * BLOCK).zip(dst.chunks_mut(BLOCK)) {
            let half = &mut half[..out.len()];
            for (h, v) in half.iter_mut().zip(f16_le(bytes)) {
                *h = v;
            }
            F16::to_f32_slice(half, out);
            if let Some(alpha) = unscale {
                zo_tensor::ops::scale(out, alpha);
            }
        }
    }
}

/// Writes a frame header into the first [`HEADER_BYTES`] of `frame`,
/// checksumming the payload that follows it.
pub(crate) fn seal_frame(frame: &mut [u8], seq: u32, offset: u64) {
    let (header, payload) = frame.split_at_mut(HEADER_BYTES);
    header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&seq.to_le_bytes());
    header[8..16].copy_from_slice(&offset.to_le_bytes());
    header[16..20].copy_from_slice(&((payload.len() / 2) as u32).to_le_bytes());
    header[20..24].copy_from_slice(&checksum(payload).to_le_bytes());
}

/// Appends `values` to `out` as little-endian fp16.
pub(crate) fn extend_f16_le(out: &mut Vec<u8>, values: &[F16]) {
    let at = out.len();
    out.resize(at + 2 * values.len(), 0);
    for (dst, v) in out[at..].chunks_exact_mut(2).zip(values) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Encodes one frame.
pub fn encode_frame(seq: u32, offset: u64, values: &[F16]) -> Bytes {
    let mut frame = Vec::with_capacity(frame_bytes(values.len()));
    frame.resize(HEADER_BYTES, 0);
    extend_f16_le(&mut frame, values);
    seal_frame(&mut frame, seq, offset);
    Bytes::from(frame)
}

/// Decodes one frame, validating magic and checksum. The returned frame
/// shares `buf`'s storage.
pub fn decode_frame(buf: Bytes) -> Result<GradFrame, WireError> {
    if buf.len() < HEADER_BYTES {
        return Err(WireError::Truncated {
            have: buf.len(),
            need: HEADER_BYTES,
        });
    }
    let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
    let magic = word(0);
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let seq = word(4);
    let offset = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let payload_bytes = 2 * word(16) as usize;
    let expected = word(20);
    let have = buf.len() - HEADER_BYTES;
    if have < payload_bytes {
        return Err(WireError::Truncated {
            have,
            need: payload_bytes,
        });
    }
    let payload = buf.slice(HEADER_BYTES..HEADER_BYTES + payload_bytes);
    let computed = checksum(&payload);
    if computed != expected {
        return Err(WireError::BadChecksum { expected, computed });
    }
    Ok(GradFrame {
        seq,
        offset,
        payload,
    })
}

/// The fused quantize of one block: `wire[i] = narrow(grads[i] / denom *
/// scale)`, returning `true` if any narrowed value is non-finite
/// (loss-scale overflow). `grads` holds at most [`BLOCK`] elements.
fn quantize_block(grads: &[f32], denom: f32, scale: f32, wire: &mut [F16]) -> bool {
    let mut scaled = [0.0f32; BLOCK];
    let scaled = &mut scaled[..grads.len()];
    for (s, &g) in scaled.iter_mut().zip(grads) {
        *s = g / denom * scale;
    }
    F16::from_f32_slice(scaled, wire);
    // Inf and NaN are exactly the values with every exponent bit set.
    const EXP: u16 = 0x7C00;
    wire.iter()
        .fold(false, |any, w| any | (w.to_bits() & EXP == EXP))
}

/// Scales `grads` by `scale / denom`, narrows to fp16 and appends the
/// little-endian bytes to `out` — one pass from the fp32 gradients to the
/// frame payload. Returns the overflow flag.
///
/// The scale loop is element-independent and the slice codec
/// ([`F16::from_f32_slice`]) is bit-identical to the scalar
/// [`F16::from_f32`], so the bytes equal a per-element quantize loop's.
pub fn quantize_into(grads: &[f32], denom: f32, scale: f32, out: &mut Vec<u8>) -> bool {
    let mut half = [F16::ZERO; BLOCK];
    let mut overflow = false;
    for block in grads.chunks(BLOCK) {
        let half = &mut half[..block.len()];
        overflow |= quantize_block(block, denom, scale, half);
        extend_f16_le(out, half);
    }
    overflow
}

/// [`quantize_into`] with fp16 values instead of bytes as the output:
/// `wire` is resized to `grads.len()` and filled by the same block kernel.
/// `_scratch` is unused; the parameter keeps the signature the benchmark
/// probes call.
pub fn quantize_grads(
    grads: &[f32],
    denom: f32,
    scale: f32,
    _scratch: &mut Vec<f32>,
    wire: &mut Vec<F16>,
) -> bool {
    wire.resize(grads.len(), F16::ZERO);
    let mut overflow = false;
    for (block, half) in grads.chunks(BLOCK).zip(wire.chunks_mut(BLOCK)) {
        overflow |= quantize_block(block, denom, scale, half);
    }
    overflow
}

/// Quantizes `grads` as [`quantize_into`] does, then immediately widens
/// the fp16 values back and unscales in place (`g = widen(narrow(g * scale
/// / denom)) / scale`) — the post-hoc H2D/D2H round trip the sharded
/// engines apply to emulate gradients crossing the PCIe link, block by
/// block. Returns the overflow flag.
pub fn roundtrip_grads(grads: &mut [f32], denom: f32, scale: f32) -> bool {
    let mut half = [F16::ZERO; BLOCK];
    let mut overflow = false;
    for block in grads.chunks_mut(BLOCK) {
        let half = &mut half[..block.len()];
        overflow |= quantize_block(block, denom, scale, half);
        F16::to_f32_slice(half, block);
        for g in block.iter_mut() {
            *g /= scale;
        }
    }
    overflow
}

/// Decodes one frame and records receive-side counters on `track`:
/// `rx_wire_bytes` (full frame size), `rx_payload_bytes` (fp16 payload)
/// and `rx_frames`. Failed frames count nothing.
pub fn decode_frame_traced(
    tracer: &zo_trace::Tracer,
    track: &str,
    buf: Bytes,
) -> Result<GradFrame, WireError> {
    let wire = buf.len() as u64;
    let frame = decode_frame(buf)?;
    tracer.add(track, "rx_wire_bytes", wire);
    tracer.add(track, "rx_payload_bytes", 2 * frame.len() as u64);
    tracer.add(track, "rx_frames", 1);
    Ok(frame)
}

/// Total wire bytes for `elements` fp16 values in one frame.
pub fn frame_bytes(elements: usize) -> usize {
    HEADER_BYTES + 2 * elements
}

/// Carries one staged frame across the emulated link under a fault
/// session: the frame passes the `wire.d2h` gate with bounded
/// exponential-backoff retry before delivery.
///
/// A recovered transient retransmits the *same* bytes (retries never
/// change what was staged), so transient faults cannot perturb the
/// decoded gradients. A fatal or retry-exhausted fault surfaces as a
/// typed [`zo_fault::FaultError`]; the frame is considered lost.
pub fn ship_frame(
    frame: Bytes,
    faults: &mut zo_fault::FaultSession,
    tracer: &zo_trace::Tracer,
    track: &str,
) -> Result<Bytes, zo_fault::FaultError> {
    zo_fault::with_retry(faults, zo_fault::Site::WireD2h, tracer, track, || frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(n: usize) -> Vec<F16> {
        (0..n)
            .map(|i| F16::from_f32(i as f32 * 0.25 - 4.0))
            .collect()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let v = values(37);
        let frame = encode_frame(9, 1234, &v);
        assert_eq!(frame.len(), frame_bytes(37));
        let decoded = decode_frame(frame).unwrap();
        assert_eq!(decoded.seq, 9);
        assert_eq!(decoded.offset, 1234);
        assert_eq!(decoded.values().collect::<Vec<_>>(), v);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let frame = encode_frame(0, 0, &[]);
        let decoded = decode_frame(frame).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn truncated_header_rejected() {
        let frame = encode_frame(1, 0, &values(4));
        let short = frame.slice(0..HEADER_BYTES - 1);
        assert!(matches!(
            decode_frame(short),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn truncated_payload_rejected() {
        let frame = encode_frame(1, 0, &values(4));
        let short = frame.slice(0..HEADER_BYTES + 3);
        assert!(matches!(
            decode_frame(short),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let frame = encode_frame(1, 0, &values(2));
        let mut raw = frame.to_vec();
        raw[0] ^= 0xFF;
        match decode_frame(Bytes::from(raw)) {
            Err(WireError::BadMagic { found }) => assert_ne!(found, MAGIC),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let frame = encode_frame(1, 0, &values(8));
        let mut raw = frame.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        assert!(matches!(
            decode_frame(Bytes::from(raw)),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn ship_frame_retries_transients_and_surfaces_fatals() {
        use zo_fault::{FaultKind, FaultPlan, FaultSession, Site, SiteSpec};
        let tracer = zo_trace::Tracer::new();
        let frame = encode_frame(1, 8, &values(4));

        let transient = std::sync::Arc::new(
            FaultPlan::builder(2)
                .site(
                    Site::WireD2h,
                    SiteSpec {
                        kind: FaultKind::Transient,
                        prob: 1.0,
                        depth: 2,
                    },
                )
                .build(),
        );
        let mut session = FaultSession::new(transient, 1);
        let shipped = ship_frame(frame.clone(), &mut session, &tracer, "pcie").unwrap();
        assert_eq!(shipped, frame, "retries must retransmit identical bytes");
        assert_eq!(tracer.counter_total(zo_trace::names::RETRY_ATTEMPTS), 2);

        let fatal = std::sync::Arc::new(
            FaultPlan::builder(2)
                .site(
                    Site::WireD2h,
                    SiteSpec {
                        kind: FaultKind::Fatal,
                        prob: 1.0,
                        depth: 1,
                    },
                )
                .build(),
        );
        let mut session = FaultSession::new(fatal, 1);
        assert_eq!(
            ship_frame(frame, &mut session, &tracer, "pcie"),
            Err(zo_fault::FaultError::Fatal {
                site: Site::WireD2h
            })
        );
    }

    #[test]
    fn error_display() {
        let e = WireError::Truncated { have: 3, need: 24 };
        assert!(e.to_string().contains("truncated"));
        let e = WireError::BadMagic { found: 0xdead };
        assert!(e.to_string().contains("magic"));
        let e = WireError::BadChecksum {
            expected: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
    }
}
