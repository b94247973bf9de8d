//! Training-state checkpointing: save and resume a run exactly.
//!
//! A checkpoint captures everything the host side owns under the offload
//! strategy — the fp32 master parameters, the Adam momentum/variance, the
//! step counter, loss-scaler state, and any pending DPU gradient — which
//! is by construction sufficient to resume: the fp16 device parameters are
//! a pure function of the master copy (`float2half`).
//!
//! The on-disk file is one [`crate::framing`] frame (`magic | version |
//! payload length | checksum`) around a binary payload: a fixed
//! little-endian section of counters and lengths, then `master ‖ m ‖ v ‖
//! pending` as bulk little-endian `f32` images — the byte layout the
//! memory tier's partition blobs use, through the same slice codec. The
//! state therefore moves at memory speed, every bit pattern survives
//! (a non-finite gradient included), and a write that died partway —
//! e.g. under an injected `checkpoint.write` fault — is *detected* at
//! restore time as a typed error instead of a silently-wrong resume.

use zo_nn::Model;
use zo_optim::AdamState;

use crate::engine::ZeroOffloadEngine;
use crate::framing::{
    decode_frame, encode_header, f32s_from_le, f32s_to_le, FrameError, FrameSpec, HEADER_BYTES,
};

/// Snapshot of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCheckpoint {
    /// fp32 master parameters.
    pub master: Vec<f32>,
    /// Optimizer state (momentum, variance, step counter).
    pub optim: AdamState,
    /// Loss-scaler state: (scale, good-step counter).
    pub loss_scale: (f32, u32),
    /// DPU bookkeeping: steps seen and stashed gradient, when enabled.
    pub dpu: Option<DpuCheckpoint>,
    /// Steps applied so far (for bookkeeping continuity).
    pub steps_applied: u64,
    /// Steps skipped so far.
    pub steps_skipped: u64,
}

/// DPU portion of a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct DpuCheckpoint {
    /// Steps the DPU wrapper has observed.
    pub steps_seen: u64,
    /// The stashed gradient awaiting application.
    pub pending: Option<Vec<f32>>,
}

/// Errors when saving or restoring a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint covers a different parameter count.
    SizeMismatch {
        /// Parameters in the checkpoint.
        checkpoint: usize,
        /// Parameters in the engine.
        engine: usize,
    },
    /// The checkpoint has DPU state but the engine is not in DPU mode (or
    /// vice versa).
    ModeMismatch,
    /// The file could not be read or written.
    Io {
        /// The underlying I/O error, stringified (keeps this type `Eq`).
        detail: String,
    },
    /// The file ends before the framed payload does — a write died partway
    /// (torn write / crashed process).
    Truncated {
        /// Bytes present.
        have: usize,
        /// Bytes the header promised.
        need: usize,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic {
        /// The value found.
        found: u32,
    },
    /// The file was written in a format version this build does not read.
    BadVersion {
        /// The value found.
        found: u32,
    },
    /// The payload checksum does not match the header.
    Corrupted {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// The framing validated but the payload is not a checkpoint: an
    /// inner length disagrees with the payload length, or the DPU tag is
    /// unknown.
    Malformed {
        /// What did not add up.
        detail: String,
    },
    /// An injected `checkpoint.write` fault killed the save mid-write.
    Fault(zo_fault::FaultError),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::SizeMismatch { checkpoint, engine } => write!(
                f,
                "checkpoint holds {checkpoint} parameters, engine expects {engine}"
            ),
            CheckpointError::ModeMismatch => {
                write!(
                    f,
                    "checkpoint DPU state does not match the engine's DPU mode"
                )
            }
            CheckpointError::Io { detail } => write!(f, "checkpoint i/o failed: {detail}"),
            CheckpointError::Truncated { have, need } => {
                write!(f, "truncated checkpoint: have {have} bytes, need {need}")
            }
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint file (magic {found:#010x})")
            }
            CheckpointError::BadVersion { found } => {
                write!(f, "unsupported checkpoint version {found}")
            }
            CheckpointError::Corrupted { expected, computed } => write!(
                f,
                "checkpoint corrupted: checksum header {expected:#010x}, payload {computed:#010x}"
            ),
            CheckpointError::Malformed { detail } => {
                write!(f, "malformed checkpoint payload: {detail}")
            }
            CheckpointError::Fault(fault) => write!(f, "checkpoint write fault: {fault}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Checkpoint file magic: "ZOck".
pub const FILE_MAGIC: u32 = 0x5A4F_636B;

/// Current checkpoint file format version. Version 3 made the payload
/// binary (module docs); version 2 changed the frame checksum
/// ([`crate::framing::checksum`]). A file of either older version decodes
/// to [`CheckpointError::BadVersion`].
pub const FILE_VERSION: u32 = 3;

/// The checkpoint frame family (shared codec, checkpoint identity).
const FILE_FRAME: FrameSpec = FrameSpec {
    magic: FILE_MAGIC,
    version: FILE_VERSION,
};

impl From<FrameError> for CheckpointError {
    fn from(err: FrameError) -> CheckpointError {
        match err {
            FrameError::Truncated { have, need } => CheckpointError::Truncated { have, need },
            FrameError::BadMagic { found } => CheckpointError::BadMagic { found },
            FrameError::BadVersion { found } => CheckpointError::BadVersion { found },
            FrameError::Corrupted { expected, computed } => {
                CheckpointError::Corrupted { expected, computed }
            }
        }
    }
}

/// Size of the payload's fixed section. Every field is little-endian at
/// its own width — no integer travels through a float — in this order:
/// `n` (u64: elements in each of master, m and v), `optim.step` (u64),
/// loss scale (`f32` bits, u32), loss-scaler good steps (u32),
/// `steps_applied` (u64), `steps_skipped` (u64), DPU tag (u32: 0 none,
/// 1 quiesced, 2 pending), DPU `steps_seen` (u64), `pending_len` (u64).
/// The `f32` images follow it, 4-byte aligned in the file.
pub const FIXED_BYTES: usize = 8 + 8 + 4 + 4 + 8 + 8 + 4 + 8 + 8;

/// DPU tag: the engine runs no delayed update.
const DPU_NONE: u32 = 0;
/// DPU tag: delayed update enabled, no gradient stashed.
const DPU_QUIESCED: u32 = 1;
/// DPU tag: delayed update enabled, `pending_len` stashed gradients follow.
const DPU_PENDING: u32 = 2;

/// Encodes a checkpoint into the framed on-disk byte format:
/// `magic | version | payload_len | checksum(payload) | fixed section |
/// master ‖ m ‖ v ‖ pending`.
///
/// # Panics
/// If `ckpt.optim`'s moments are not as long as `ckpt.master` (every
/// engine's snapshot is; a hand-built checkpoint must be too).
pub fn encode_checkpoint_bytes(ckpt: &TrainingCheckpoint) -> Vec<u8> {
    let n = ckpt.master.len();
    assert!(
        ckpt.optim.m.len() == n && ckpt.optim.v.len() == n,
        "checkpoint moments must match the master length"
    );
    let (dpu_tag, dpu_steps_seen, pending): (u32, u64, &[f32]) = match &ckpt.dpu {
        None => (DPU_NONE, 0, &[]),
        Some(dpu) => match &dpu.pending {
            None => (DPU_QUIESCED, dpu.steps_seen, &[]),
            Some(pending) => (DPU_PENDING, dpu.steps_seen, pending),
        },
    };

    // One allocation of the exact file size: the images are written in
    // place and the header, which checksums them, goes in last.
    let mut out = vec![0u8; HEADER_BYTES + FIXED_BYTES + 4 * (3 * n + pending.len())];
    let (header, payload) = out.split_at_mut(HEADER_BYTES);
    let (fixed, images) = payload.split_at_mut(FIXED_BYTES);
    let mut at = 0;
    let mut put = |bytes: &[u8]| {
        fixed[at..at + bytes.len()].copy_from_slice(bytes);
        at += bytes.len();
    };
    put(&(n as u64).to_le_bytes());
    put(&ckpt.optim.step.to_le_bytes());
    put(&ckpt.loss_scale.0.to_bits().to_le_bytes());
    put(&ckpt.loss_scale.1.to_le_bytes());
    put(&ckpt.steps_applied.to_le_bytes());
    put(&ckpt.steps_skipped.to_le_bytes());
    put(&dpu_tag.to_le_bytes());
    put(&dpu_steps_seen.to_le_bytes());
    put(&(pending.len() as u64).to_le_bytes());
    debug_assert_eq!(at, FIXED_BYTES);
    let mut rest = images;
    for series in [&ckpt.master[..], &ckpt.optim.m, &ckpt.optim.v, pending] {
        let (image, tail) = rest.split_at_mut(4 * series.len());
        f32s_to_le(series, image);
        rest = tail;
    }
    header.copy_from_slice(&encode_header(FILE_FRAME, payload));
    out
}

/// Splits the next `N` bytes off the front of `rest`.
fn take<const N: usize>(rest: &mut &[u8]) -> [u8; N] {
    let (head, tail) = rest.split_at(N);
    *rest = tail;
    head.try_into().expect("N bytes")
}

/// Decodes a framed checkpoint. Magic, version, length and checksum are
/// validated first; then the payload's own lengths are checked against
/// the payload length — in checked arithmetic and before anything is
/// allocated, so no allocation is ever sized by a number the file does
/// not back with bytes. A torn, bit-flipped, foreign or inconsistent file
/// surfaces as a typed [`CheckpointError`], never a panic.
pub fn decode_checkpoint_bytes(bytes: &[u8]) -> Result<TrainingCheckpoint, CheckpointError> {
    let payload = decode_frame(FILE_FRAME, bytes)?;
    let malformed = |detail: String| CheckpointError::Malformed { detail };
    if payload.len() < FIXED_BYTES {
        return Err(malformed(format!(
            "payload holds {} bytes, the fixed section alone needs {FIXED_BYTES}",
            payload.len()
        )));
    }
    let (mut fixed, images) = payload.split_at(FIXED_BYTES);
    let n = u64::from_le_bytes(take(&mut fixed));
    let optim_step = u64::from_le_bytes(take(&mut fixed));
    let loss_scale = (
        f32::from_bits(u32::from_le_bytes(take(&mut fixed))),
        u32::from_le_bytes(take(&mut fixed)),
    );
    let steps_applied = u64::from_le_bytes(take(&mut fixed));
    let steps_skipped = u64::from_le_bytes(take(&mut fixed));
    let tag = u32::from_le_bytes(take(&mut fixed));
    let steps_seen = u64::from_le_bytes(take(&mut fixed));
    let pending_len = u64::from_le_bytes(take(&mut fixed));
    if tag > DPU_PENDING {
        return Err(malformed(format!("unknown DPU tag {tag}")));
    }
    if (tag != DPU_PENDING && pending_len != 0) || (tag == DPU_NONE && steps_seen != 0) {
        return Err(malformed(format!(
            "DPU tag {tag} with steps_seen {steps_seen} and {pending_len} pending gradients"
        )));
    }
    let promised = n
        .checked_mul(3)
        .and_then(|elems| elems.checked_add(pending_len))
        .and_then(|elems| elems.checked_mul(4));
    if promised != Some(images.len() as u64) {
        return Err(malformed(format!(
            "n = {n} and pending_len = {pending_len} do not add up to the {} bytes after the fixed section",
            images.len()
        )));
    }

    // `n` and `pending_len` now describe bytes that are in memory, so
    // they fit `usize` and every split below is in range.
    let mut rest = images;
    let mut f32s = |len: u64| {
        let (image, tail) = rest.split_at(4 * len as usize);
        rest = tail;
        let mut values = vec![0.0f32; len as usize];
        f32s_from_le(image, &mut values);
        values
    };
    let (master, m, v) = (f32s(n), f32s(n), f32s(n));
    Ok(TrainingCheckpoint {
        master,
        optim: AdamState {
            m,
            v,
            step: optim_step,
        },
        loss_scale,
        dpu: (tag != DPU_NONE).then(|| DpuCheckpoint {
            steps_seen,
            pending: (tag == DPU_PENDING).then(|| f32s(pending_len)),
        }),
        steps_applied,
        steps_skipped,
    })
}

impl<M: Model> ZeroOffloadEngine<M> {
    /// Captures the current training state.
    pub fn save_checkpoint(&self) -> TrainingCheckpoint {
        self.pipe.capture_state()
    }

    /// Restores a checkpoint saved by an engine of the same configuration.
    ///
    /// The model is reloaded with the fp16 view of the restored master
    /// parameters, so the next step continues the original trajectory
    /// exactly (verified bitwise by the resume tests).
    pub fn restore_checkpoint(&mut self, ckpt: &TrainingCheckpoint) -> Result<(), CheckpointError> {
        self.pipe.restore_state(ckpt)?;
        self.sync_model_params().map_err(CheckpointError::Fault)
    }

    /// Writes the framed checkpoint file at `path`.
    ///
    /// The write passes the `checkpoint.write` fault gate: transients are
    /// retried with bounded backoff; a fatal or retry-exhausted fault
    /// simulates a crash mid-write — a *truncated* file is left on disk
    /// and [`CheckpointError::Fault`] returned, so recovery paths can
    /// prove they detect (not deserialize) the torn file.
    pub fn save_checkpoint_file(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), CheckpointError> {
        let bytes = encode_checkpoint_bytes(&self.save_checkpoint());
        let tracer = self.tracer().clone();
        let gate = zo_fault::with_retry(
            &mut self.pipe.faults,
            zo_fault::Site::CheckpointWrite,
            &tracer,
            "checkpoint",
            || (),
        );
        if let Err(fault) = gate {
            let torn = &bytes[..bytes.len() / 2];
            std::fs::write(path, torn).map_err(|e| CheckpointError::Io {
                detail: e.to_string(),
            })?;
            return Err(CheckpointError::Fault(fault));
        }
        std::fs::write(path, &bytes).map_err(|e| CheckpointError::Io {
            detail: e.to_string(),
        })
    }

    /// Restores from a file written by
    /// [`ZeroOffloadEngine::save_checkpoint_file`], validating the framing
    /// (magic, version, length, checksum) before any state is touched.
    pub fn restore_checkpoint_file(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), CheckpointError> {
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io {
            detail: e.to_string(),
        })?;
        let ckpt = decode_checkpoint_bytes(&bytes)?;
        self.restore_checkpoint(&ckpt)
    }
}

#[cfg(test)]
mod tests {
    use super::{DpuCheckpoint, TrainingCheckpoint};
    use crate::config::ZeroOffloadConfig;
    use crate::engine::ZeroOffloadEngine;
    use crate::framing::{encode_frame, FrameSpec, HEADER_BYTES};
    use zo_models::BigramLm;
    use zo_nn::{GptConfig, GptModel, Model};
    use zo_optim::{AdamParams, AdamState, LossScaleConfig};

    const GPT: GptConfig = GptConfig {
        vocab: 16,
        seq_len: 8,
        hidden: 16,
        heads: 2,
        layers: 2,
    };

    fn cfg() -> ZeroOffloadConfig {
        ZeroOffloadConfig {
            adam: AdamParams {
                lr: 3e-3,
                ..AdamParams::default()
            },
            loss_scale: LossScaleConfig {
                init_scale: 256.0,
                ..Default::default()
            },
            ..ZeroOffloadConfig::default()
        }
    }

    fn run(engine: &mut ZeroOffloadEngine<GptModel>, from: usize, steps: usize) -> Vec<f32> {
        let mut data = BigramLm::new(GPT.vocab, 0.05, 7);
        let mut batches = Vec::new();
        for _ in 0..from + steps {
            batches.push(data.batch(4, GPT.seq_len));
        }
        batches[from..]
            .iter()
            .map(|b| {
                engine
                    .step(|m| m.train_step(&b.inputs, &b.targets, 4, GPT.seq_len, |_| {}))
                    .unwrap()
                    .loss()
            })
            .collect()
    }

    #[test]
    fn resume_is_bitwise_identical() {
        // Continuous run of 20 steps...
        let mut continuous = ZeroOffloadEngine::new(GptModel::new(GPT, 42), cfg());
        let losses_all = run(&mut continuous, 0, 20);

        // ...vs 10 steps, checkpoint, restore into a FRESH engine, 10 more.
        let mut first = ZeroOffloadEngine::new(GptModel::new(GPT, 42), cfg());
        run(&mut first, 0, 10);
        let ckpt = first.save_checkpoint();

        let mut resumed = ZeroOffloadEngine::new(GptModel::new(GPT, 99), cfg());
        resumed.restore_checkpoint(&ckpt).unwrap();
        let losses_tail = run(&mut resumed, 10, 10);

        assert_eq!(&losses_all[10..], &losses_tail[..]);
        assert_eq!(continuous.master_params(), resumed.master_params());
    }

    #[test]
    fn dpu_pending_gradient_survives_checkpoint() {
        let dpu_cfg = ZeroOffloadConfig {
            dpu_warmup: Some(2),
            ..cfg()
        };
        let mut continuous = ZeroOffloadEngine::new(GptModel::new(GPT, 5), dpu_cfg);
        let all = run(&mut continuous, 0, 12);

        let mut first = ZeroOffloadEngine::new(GptModel::new(GPT, 5), dpu_cfg);
        run(&mut first, 0, 6); // Past warm-up: a gradient is stashed.
        let ckpt = first.save_checkpoint();
        assert!(ckpt.dpu.as_ref().unwrap().pending.is_some());

        let mut resumed = ZeroOffloadEngine::new(GptModel::new(GPT, 5), dpu_cfg);
        resumed.restore_checkpoint(&ckpt).unwrap();
        let tail = run(&mut resumed, 6, 6);
        assert_eq!(&all[6..], &tail[..]);
        assert_eq!(continuous.master_params(), resumed.master_params());
    }

    #[test]
    fn size_mismatch_rejected() {
        let engine = ZeroOffloadEngine::new(GptModel::new(GPT, 1), cfg());
        let ckpt = engine.save_checkpoint();
        let small = GptConfig { layers: 1, ..GPT };
        let mut other = ZeroOffloadEngine::new(GptModel::new(small, 1), cfg());
        assert!(other.restore_checkpoint(&ckpt).is_err());
    }

    #[test]
    fn mode_mismatch_rejected() {
        let mut plain = ZeroOffloadEngine::new(GptModel::new(GPT, 1), cfg());
        run(&mut plain, 0, 2);
        let ckpt = plain.save_checkpoint();
        assert!(ckpt.dpu.is_none());
        let mut dpu_engine = ZeroOffloadEngine::new(
            GptModel::new(GPT, 1),
            ZeroOffloadConfig {
                dpu_warmup: Some(0),
                ..cfg()
            },
        );
        assert!(matches!(
            dpu_engine.restore_checkpoint(&ckpt),
            Err(super::CheckpointError::ModeMismatch)
        ));
    }

    /// Unique scratch file path for a test (no timestamps needed).
    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("zo-ckpt-{}-{name}.bin", std::process::id()))
    }

    #[test]
    fn file_roundtrip_resumes_bitwise() {
        let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 42), cfg());
        run(&mut engine, 0, 5);
        let path = scratch("roundtrip");
        engine.save_checkpoint_file(&path).unwrap();
        let mut other = ZeroOffloadEngine::new(GptModel::new(GPT, 99), cfg());
        other.restore_checkpoint_file(&path).unwrap();
        assert_eq!(engine.master_params(), other.master_params());
        assert_eq!(engine.loss_scale(), other.loss_scale());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_a_typed_error_not_a_panic() {
        let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 7), cfg());
        run(&mut engine, 0, 3);
        let path = scratch("truncated");
        engine.save_checkpoint_file(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        // A partial write at any cut point must be *detected*.
        for cut in [3usize, 19, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut victim = ZeroOffloadEngine::new(GptModel::new(GPT, 7), cfg());
            let before = victim.master_params().to_vec();
            let err = victim.restore_checkpoint_file(&path).unwrap_err();
            assert!(
                matches!(err, super::CheckpointError::Truncated { .. }),
                "cut at {cut}: expected Truncated, got {err:?}"
            );
            assert_eq!(
                victim.master_params(),
                &before[..],
                "failed restore must not touch engine state"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 8), cfg());
        run(&mut engine, 0, 2);
        let path = scratch("corrupt");
        engine.save_checkpoint_file(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let mut victim = ZeroOffloadEngine::new(GptModel::new(GPT, 8), cfg());
        assert!(matches!(
            victim.restore_checkpoint_file(&path),
            Err(super::CheckpointError::Corrupted { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_file_rejected_by_magic() {
        let err = super::decode_checkpoint_bytes(b"definitely not a checkpoint").unwrap_err();
        assert!(matches!(err, super::CheckpointError::BadMagic { .. }));
    }

    #[test]
    fn version_1_file_is_bad_version_not_corrupted() {
        // A file from a build that still wrote the FNV-1a checksum: its
        // version field says 1, so it is refused by version before the
        // (incompatible) checksum is ever compared.
        let engine = ZeroOffloadEngine::new(GptModel::new(GPT, 8), cfg());
        let mut bytes = super::encode_checkpoint_bytes(&engine.save_checkpoint());
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            super::decode_checkpoint_bytes(&bytes).unwrap_err(),
            super::CheckpointError::BadVersion { found: 1 }
        );
    }

    #[test]
    fn version_2_file_is_bad_version() {
        // A file exactly as a version-2 build wrote it: the same frame and
        // checksum around a text payload. Refused by version — never
        // `Corrupted`, `Malformed` or a panic in the binary decoder.
        let text = br#"{"master":[0.5],"optim":{"m":[0.0],"v":[0.0],"step":1},"loss_scale":[256.0,1],"dpu":null,"steps_applied":1,"steps_skipped":0}"#;
        let v2 = encode_frame(
            FrameSpec {
                version: 2,
                ..super::FILE_FRAME
            },
            text,
        );
        assert_eq!(
            super::decode_checkpoint_bytes(&v2).unwrap_err(),
            super::CheckpointError::BadVersion { found: 2 }
        );
    }

    /// A hand-built checkpoint of `n` elements with distinct images.
    fn literal(n: usize, dpu: Option<DpuCheckpoint>) -> TrainingCheckpoint {
        let series = |k: f32| (0..n).map(|i| k + i as f32).collect::<Vec<f32>>();
        TrainingCheckpoint {
            master: series(0.5),
            optim: AdamState {
                m: series(-3.25),
                v: series(1e-3),
                step: 17,
            },
            loss_scale: (4096.0, 41),
            dpu,
            steps_applied: 17,
            steps_skipped: 2,
        }
    }

    #[test]
    fn non_finite_pending_gradient_roundtrips() {
        // What an overflowing backward pass leaves in the DPU's stash. The
        // version-2 payload wrote it as `null`: framed, checksummed, and
        // `Malformed` at every later restore.
        let pending = vec![1.0, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        let ckpt = literal(
            4,
            Some(DpuCheckpoint {
                steps_seen: 9,
                pending: Some(pending),
            }),
        );
        let back = super::decode_checkpoint_bytes(&super::encode_checkpoint_bytes(&ckpt));
        assert_eq!(back, Ok(ckpt));
    }

    #[test]
    fn counters_above_2_pow_53_roundtrip_exactly() {
        // Past f64's integer range: each counter travels at its own width.
        let mut ckpt = literal(
            3,
            Some(DpuCheckpoint {
                steps_seen: u64::MAX,
                pending: None,
            }),
        );
        ckpt.optim.step = (1 << 53) + 1;
        ckpt.steps_applied = u64::MAX - 1;
        ckpt.steps_skipped = (1 << 60) + 3;
        ckpt.loss_scale.1 = u32::MAX;
        let back = super::decode_checkpoint_bytes(&super::encode_checkpoint_bytes(&ckpt));
        assert_eq!(back, Ok(ckpt));
    }

    #[test]
    fn encoded_length_is_header_plus_fixed_plus_four_bytes_an_element() {
        let dpu = |pending: Option<Vec<f32>>| {
            Some(DpuCheckpoint {
                steps_seen: 5,
                pending,
            })
        };
        for n in [0usize, 1, 7, 64] {
            for (dpu, pending_len) in [
                (None, 0),
                (dpu(None), 0),
                (dpu(Some(Vec::new())), 0),
                (dpu(Some(vec![0.25; n + 3])), n + 3),
            ] {
                let ckpt = literal(n, dpu);
                let bytes = super::encode_checkpoint_bytes(&ckpt);
                assert_eq!(
                    bytes.len(),
                    HEADER_BYTES + super::FIXED_BYTES + 4 * (3 * n + pending_len)
                );
                assert_eq!(super::decode_checkpoint_bytes(&bytes), Ok(ckpt));
            }
        }
    }

    #[test]
    fn well_framed_payload_with_lying_lengths_is_malformed() {
        // The frame verifies (valid checksum), so only the payload's own
        // validation stands between these numbers and an allocation: a
        // decoder that sized a buffer by `n` first would abort here.
        let good = super::encode_checkpoint_bytes(&literal(
            5,
            Some(DpuCheckpoint {
                steps_seen: 2,
                pending: Some(vec![0.5; 5]),
            }),
        ));
        // Offsets of `n`, the DPU tag and `pending_len` in the payload.
        let (n_at, tag_at, pending_len_at) = (0, 40, 52);
        let cases: [(&str, usize, Vec<u8>); 7] = [
            ("n = u64::MAX", n_at, u64::MAX.to_le_bytes().into()),
            (
                "4(3n + pending_len) wraps to the right length",
                n_at,
                (5 + (1u64 << 62)).to_le_bytes().into(),
            ),
            ("n one short", n_at, 4u64.to_le_bytes().into()),
            (
                "pending_len = u64::MAX",
                pending_len_at,
                u64::MAX.to_le_bytes().into(),
            ),
            (
                "pending_len one long",
                pending_len_at,
                6u64.to_le_bytes().into(),
            ),
            ("tag 7", tag_at, 7u32.to_le_bytes().into()),
            (
                "quiesced tag with pending gradients",
                tag_at,
                1u32.to_le_bytes().into(),
            ),
        ];
        for (what, at, field) in &cases {
            let mut payload = good[HEADER_BYTES..].to_vec();
            payload[*at..at + field.len()].copy_from_slice(field);
            let blob = encode_frame(super::FILE_FRAME, &payload);
            let err = super::decode_checkpoint_bytes(&blob).unwrap_err();
            assert!(
                matches!(err, super::CheckpointError::Malformed { .. }),
                "{what}: {err:?}"
            );
        }
        // Shorter than the fixed section, and one byte short of a whole
        // element.
        for keep in [0, super::FIXED_BYTES - 1, good.len() - HEADER_BYTES - 1] {
            let blob = encode_frame(super::FILE_FRAME, &good[HEADER_BYTES..][..keep]);
            let err = super::decode_checkpoint_bytes(&blob).unwrap_err();
            assert!(
                matches!(err, super::CheckpointError::Malformed { .. }),
                "payload cut to {keep}: {err:?}"
            );
        }
    }

    #[test]
    fn checkpoint_counters_roundtrip() {
        let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 3), cfg());
        run(&mut engine, 0, 4);
        let ckpt = engine.save_checkpoint();
        assert_eq!(ckpt.steps_applied, 4);
        let mut other = ZeroOffloadEngine::new(GptModel::new(GPT, 3), cfg());
        other.restore_checkpoint(&ckpt).unwrap();
        assert_eq!(other.stats().steps_applied, 4);
        let mut model_params = vec![0.0f32; other.model_mut().num_params()];
        other.model_mut().copy_params_to(&mut model_params);
        // Model carries the fp16 view of the restored master.
        for (mp, m) in model_params.iter().zip(other.master_params()) {
            assert_eq!(*mp, zo_tensor::F16::from_f32(*m).to_f32());
        }
    }
}
