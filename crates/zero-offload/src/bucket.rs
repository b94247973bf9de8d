//! Gradient bucketing for the overlapped device→host offload.
//!
//! "ZeRO-Offload can transfer these gradients for each parameter
//! individually or in small groups to the CPU memory immediately after
//! they are computed" (Sec. 4.1). The bucketer is that grouping: gradient
//! spans arrive in backward order, are packed into buckets of a fixed byte
//! budget, and each full bucket is emitted as a wire frame that the
//! transfer path can ship while backward continues.
//!
//! Buckets bound the transient GPU staging memory (the `GRAD_BUCKET_BYTES`
//! of `zo_baselines::memory`): only the open bucket lives on the device.

use bytes::Bytes;
use zo_tensor::F16;

use crate::wire::{extend_f16_le, quantize_into, seal_frame, GradFrame, HEADER_BYTES};

/// Packs gradient spans into fixed-size wire frames.
///
/// The open bucket *is* the frame under construction: header space is
/// reserved up front and payload bytes are appended in place, so closing
/// the bucket only patches the header (checksumming the payload once) and
/// hands the buffer over — staged values are never copied again.
pub struct GradBucketer {
    capacity_elems: usize,
    seq: u32,
    /// Flat offset of the first staged element, if any.
    open_offset: Option<u64>,
    /// The open frame: `HEADER_BYTES` reserved, then the staged payload.
    open: Vec<u8>,
    emitted: Vec<Bytes>,
    total_payload_bytes: u64,
    total_wire_bytes: u64,
    tracer: zo_trace::Tracer,
    track: String,
}

impl GradBucketer {
    /// Creates a bucketer with a byte budget per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes < 2` (smaller than one fp16 element).
    pub fn new(capacity_bytes: usize) -> GradBucketer {
        GradBucketer::traced(capacity_bytes, zo_trace::Tracer::disabled(), "pcie")
    }

    /// Like [`GradBucketer::new`], additionally recording send-side
    /// counters on `track` as each frame is emitted: `tx_wire_bytes`,
    /// `tx_payload_bytes` and `tx_frames`.
    pub fn traced(
        capacity_bytes: usize,
        tracer: zo_trace::Tracer,
        track: impl Into<String>,
    ) -> GradBucketer {
        assert!(capacity_bytes >= 2, "bucket must hold at least one element");
        GradBucketer {
            capacity_elems: capacity_bytes / 2,
            seq: 0,
            open_offset: None,
            open: Vec::new(),
            emitted: Vec::new(),
            total_payload_bytes: 0,
            total_wire_bytes: 0,
            tracer,
            track: track.into(),
        }
    }

    /// Elements staged in the open bucket.
    fn staged(&self) -> usize {
        self.open.len().saturating_sub(HEADER_BYTES) / 2
    }

    /// Elements the open bucket can still take.
    pub fn remaining(&self) -> usize {
        self.capacity_elems - self.staged()
    }

    /// Stages a span of already-narrowed values starting at flat `offset`.
    ///
    /// Spans must arrive with offsets that are contiguous within a bucket;
    /// a non-contiguous span closes the open bucket first.
    pub fn push(&mut self, offset: u64, values: &[F16]) {
        self.stage(offset, values.len(), |payload, span| {
            extend_f16_le(payload, &values[span])
        });
    }

    /// Stages a span of fp32 gradients, quantizing them
    /// ([`quantize_into`]: scale by `scale / denom`, narrow to fp16)
    /// straight into the open frame's payload. Returns the overflow flag.
    pub fn push_grads(&mut self, offset: u64, grads: &[f32], denom: f32, scale: f32) -> bool {
        let mut overflow = false;
        self.stage(offset, grads.len(), |payload, span| {
            overflow |= quantize_into(&grads[span], denom, scale, payload)
        });
        overflow
    }

    /// Splits a span of `len` elements at `offset` over bucket boundaries;
    /// `append` writes the payload bytes of each piece.
    fn stage(
        &mut self,
        mut offset: u64,
        len: usize,
        mut append: impl FnMut(&mut Vec<u8>, core::ops::Range<usize>),
    ) {
        // Close the bucket on discontinuity.
        if let Some(open) = self.open_offset {
            if open + self.staged() as u64 != offset {
                self.flush();
            }
        }
        let mut done = 0;
        while done < len {
            if self.open_offset.is_none() {
                self.open_offset = Some(offset);
                self.open.resize(HEADER_BYTES, 0);
            }
            let take = self.remaining().min(len - done);
            self.open.reserve(2 * take);
            append(&mut self.open, done..done + take);
            done += take;
            offset += take as u64;
            if self.remaining() == 0 {
                self.flush();
            }
        }
    }

    /// Closes the open bucket (if non-empty), emitting its frame.
    pub fn flush(&mut self) {
        // An open offset implies at least one staged element.
        let Some(offset) = self.open_offset.take() else {
            return;
        };
        let staged = self.staged();
        let mut frame = core::mem::take(&mut self.open);
        seal_frame(&mut frame, self.seq, offset);
        self.total_payload_bytes += 2 * staged as u64;
        self.total_wire_bytes += frame.len() as u64;
        self.tracer
            .add(&self.track, "tx_wire_bytes", frame.len() as u64);
        self.tracer
            .add(&self.track, "tx_payload_bytes", 2 * staged as u64);
        self.tracer.add(&self.track, "tx_frames", 1);
        self.emitted.push(Bytes::from(frame));
        self.seq += 1;
    }

    /// Takes all frames emitted so far.
    pub fn take_frames(&mut self) -> Vec<Bytes> {
        core::mem::take(&mut self.emitted)
    }

    /// fp16 payload bytes emitted (2 per element).
    pub fn payload_bytes(&self) -> u64 {
        self.total_payload_bytes
    }

    /// Total on-the-wire bytes including frame headers.
    pub fn wire_bytes(&self) -> u64 {
        self.total_wire_bytes
    }

    /// Frames emitted so far.
    pub fn frames_emitted(&self) -> u32 {
        self.seq
    }
}

/// Widens one validated frame into its span of the flat fp32 gradient
/// buffer, multiplying by `unscale` on the way if given
/// ([`GradFrame::widen_into`]). Returns the number of elements written.
///
/// # Panics
///
/// Panics if the frame extends past `dst.len()`.
pub fn scatter_frame(frame: &GradFrame, dst: &mut [f32], unscale: Option<f32>) -> usize {
    let start = frame.offset as usize;
    let end = start + frame.len();
    assert!(
        end <= dst.len(),
        "frame [{start}, {end}) exceeds buffer {}",
        dst.len()
    );
    frame.widen_into(&mut dst[start..end], unscale);
    frame.len()
}

/// Reassembles decoded frames into a flat fp32 gradient buffer.
///
/// Returns the number of elements written. Overlapping frames overwrite —
/// callers send disjoint spans.
///
/// # Panics
///
/// Panics if a frame extends past `dst.len()`.
pub fn scatter_frames(frames: &[GradFrame], dst: &mut [f32]) -> usize {
    frames.iter().map(|f| scatter_frame(f, dst, None)).sum()
}

/// Picks a bucket byte budget: large enough that headers are negligible,
/// small enough that at most two buckets bound the staging memory.
pub fn default_bucket_bytes() -> usize {
    32 * 1024 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_frame, frame_bytes};

    fn vals(range: core::ops::Range<usize>) -> Vec<F16> {
        range.map(|i| F16::from_f32(i as f32 * 0.5)).collect()
    }

    #[test]
    fn contiguous_spans_merge_into_buckets() {
        // Capacity 8 elements (16 bytes): 20 contiguous elements emit
        // frames of 8 + 8, with 4 left staged until flush.
        let mut b = GradBucketer::new(16);
        b.push(0, &vals(0..10));
        b.push(10, &vals(10..20));
        assert_eq!(b.frames_emitted(), 2);
        b.flush();
        let frames: Vec<_> = b
            .take_frames()
            .into_iter()
            .map(|f| decode_frame(f).unwrap())
            .collect();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].offset, 0);
        assert_eq!(frames[0].len(), 8);
        assert_eq!(frames[1].offset, 8);
        assert_eq!(frames[2].offset, 16);
        assert_eq!(frames[2].len(), 4);
        // Sequence numbers are monotone.
        assert_eq!(
            frames.iter().map(|f| f.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn discontinuity_closes_bucket() {
        let mut b = GradBucketer::new(1024);
        b.push(0, &vals(0..3));
        b.push(100, &vals(0..3)); // Gap: first bucket must close.
        b.flush();
        let frames: Vec<_> = b
            .take_frames()
            .into_iter()
            .map(|f| decode_frame(f).unwrap())
            .collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].offset, 0);
        assert_eq!(frames[1].offset, 100);
    }

    #[test]
    fn byte_accounting() {
        let mut b = GradBucketer::new(8); // 4 elements per bucket
        b.push(0, &vals(0..4));
        assert_eq!(b.payload_bytes(), 8);
        assert_eq!(b.wire_bytes(), (crate::wire::frame_bytes(4)) as u64);
        assert_eq!(frame_bytes(4), 24 + 8);
    }

    #[test]
    fn scatter_reassembles_exactly() {
        let mut b = GradBucketer::new(10); // 5 elements
        let src: Vec<F16> = (0..13).map(|i| F16::from_f32(i as f32)).collect();
        b.push(7, &src);
        b.flush();
        let frames: Vec<_> = b
            .take_frames()
            .into_iter()
            .map(|f| decode_frame(f).unwrap())
            .collect();
        let mut dst = vec![0.0f32; 32];
        let written = scatter_frames(&frames, &mut dst);
        assert_eq!(written, 13);
        for i in 0..13 {
            assert_eq!(dst[7 + i], i as f32);
        }
        assert_eq!(dst[6], 0.0);
        assert_eq!(dst[20], 0.0);
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut b = GradBucketer::new(64);
        b.flush();
        assert!(b.take_frames().is_empty());
        assert_eq!(b.frames_emitted(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn scatter_bounds_checked() {
        let frames = [decode_frame(encode_frame(0, 30, &[F16::ONE; 5])).unwrap()];
        let mut dst = vec![0.0f32; 32];
        scatter_frames(&frames, &mut dst);
    }
}
