//! Training-state checkpointing: save and resume a run exactly.
//!
//! A checkpoint captures everything the host side owns under the offload
//! strategy — the fp32 master parameters, the Adam momentum/variance, the
//! step counter, loss-scaler state, and any pending DPU gradient — which
//! is by construction sufficient to resume: the fp16 device parameters are
//! a pure function of the master copy (`float2half`).
//!
//! The on-disk file format frames the JSON payload with a validated
//! header (`magic | version | payload length | checksum`), so a
//! write that died partway — e.g. under an injected `checkpoint.write`
//! fault — is *detected* at restore time as a typed error instead of a
//! deserializer panic or, worse, a silently-wrong resume.

use serde::{Deserialize, Serialize};
use zo_nn::Model;
use zo_optim::AdamState;

use crate::engine::ZeroOffloadEngine;
use crate::framing::{decode_frame, encode_frame, FrameError, FrameSpec};

/// Serializable snapshot of a training run.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
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
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
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
    /// The framing validated but the payload does not parse.
    Malformed {
        /// Parser diagnostic.
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

/// Current checkpoint file format version. Version 2 changed the frame
/// checksum ([`crate::framing::checksum`]); a version-1 file decodes to
/// [`CheckpointError::BadVersion`].
pub const FILE_VERSION: u32 = 2;

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

/// Encodes a checkpoint into the framed on-disk byte format:
/// `magic | version | payload_len | checksum(payload) | JSON payload`.
pub fn encode_checkpoint_bytes(ckpt: &TrainingCheckpoint) -> Vec<u8> {
    // Plain-old-data: serialization cannot fail.
    let payload = serde_json::to_string(ckpt)
        .expect("checkpoint serialization")
        .into_bytes();
    encode_frame(FILE_FRAME, &payload)
}

/// Decodes a framed checkpoint, validating magic, version, length and
/// checksum before the payload is handed to the deserializer — a torn or
/// bit-flipped file surfaces as a typed [`CheckpointError`], never a
/// panic.
pub fn decode_checkpoint_bytes(bytes: &[u8]) -> Result<TrainingCheckpoint, CheckpointError> {
    let payload = decode_frame(FILE_FRAME, bytes)?;
    let text = core::str::from_utf8(payload).map_err(|e| CheckpointError::Malformed {
        detail: e.to_string(),
    })?;
    serde_json::from_str(text).map_err(|e| CheckpointError::Malformed {
        detail: e.to_string(),
    })
}

impl<M: Model> ZeroOffloadEngine<M> {
    /// Captures the current training state.
    pub fn save_checkpoint(&self) -> TrainingCheckpoint {
        self.pipe().capture_state()
    }

    /// Restores a checkpoint saved by an engine of the same configuration.
    ///
    /// The model is reloaded with the fp16 view of the restored master
    /// parameters, so the next step continues the original trajectory
    /// exactly (verified bitwise by the resume tests).
    pub fn restore_checkpoint(&mut self, ckpt: &TrainingCheckpoint) -> Result<(), CheckpointError> {
        self.pipe_mut().restore_state(ckpt)?;
        self.sync_model_params();
        Ok(())
    }

    /// Serializes the checkpoint as JSON.
    pub fn checkpoint_json(&self) -> String {
        // Plain-old-data: serialization cannot fail.
        serde_json::to_string(&self.save_checkpoint()).expect("checkpoint serialization")
    }

    /// Restores from [`ZeroOffloadEngine::checkpoint_json`] output.
    pub fn restore_json(&mut self, json: &str) -> Result<(), Box<dyn std::error::Error>> {
        let ckpt: TrainingCheckpoint = serde_json::from_str(json)?;
        self.restore_checkpoint(&ckpt)?;
        Ok(())
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
            self.faults_mut(),
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
    use crate::config::ZeroOffloadConfig;
    use crate::engine::ZeroOffloadEngine;
    use zo_models::BigramLm;
    use zo_nn::{GptConfig, GptModel, Model};
    use zo_optim::{AdamParams, LossScaleConfig};

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
    fn json_roundtrip() {
        let mut engine = ZeroOffloadEngine::new(GptModel::new(GPT, 1), cfg());
        run(&mut engine, 0, 3);
        let json = engine.checkpoint_json();
        let mut other = ZeroOffloadEngine::new(GptModel::new(GPT, 2), cfg());
        other.restore_json(&json).unwrap();
        assert_eq!(engine.master_params(), other.master_params());
        assert_eq!(engine.loss_scale(), other.loss_scale());
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
