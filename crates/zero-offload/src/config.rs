//! Engine configuration (the analog of the DeepSpeed JSON config).

use serde::{Deserialize, Serialize};
use zo_optim::{AdamParams, LossScaleConfig};

use crate::tier::TierKind;

/// A `Copy` handle to an installed [`zo_trace::Tracer`].
///
/// The engine config must stay `Copy` (it is captured by value in the
/// per-rank closures of [`run_ranks`](crate::zero2::run_ranks)), so it
/// cannot hold a `Tracer` directly; instead it carries an index into the
/// process-wide tracer registry.
///
/// ```
/// use zero_offload::{TracerRef, ZeroOffloadConfig};
///
/// let tracer = zo_trace::Tracer::new();
/// let cfg = ZeroOffloadConfig {
///     tracer: Some(TracerRef::install(tracer.clone())),
///     ..ZeroOffloadConfig::default()
/// };
/// assert!(cfg.tracer.unwrap().resolve().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracerRef(pub usize);

impl TracerRef {
    /// Pins `tracer` into the registry and returns its handle.
    pub fn install(tracer: zo_trace::Tracer) -> TracerRef {
        TracerRef(zo_trace::install(tracer))
    }

    /// Resolves the handle (`None` if the index was never installed).
    pub fn resolve(&self) -> Option<zo_trace::Tracer> {
        zo_trace::lookup(self.0)
    }
}

/// Resolves an optional handle to a concrete tracer, falling back to the
/// inert disabled tracer.
pub(crate) fn resolve_tracer(tracer: Option<TracerRef>) -> zo_trace::Tracer {
    tracer
        .and_then(|t| t.resolve())
        .unwrap_or_else(zo_trace::Tracer::disabled)
}

/// A `Copy` handle to an installed [`zo_fault::FaultPlan`], mirroring
/// [`TracerRef`]: the config stays `Copy` while referencing a shared plan
/// through the process-wide fault registry.
///
/// ```
/// use zero_offload::{FaultsRef, ZeroOffloadConfig};
///
/// let cfg = ZeroOffloadConfig {
///     faults: Some(FaultsRef::install(zo_fault::FaultPlan::transient_heavy())),
///     ..ZeroOffloadConfig::default()
/// };
/// assert!(cfg.faults.unwrap().resolve().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultsRef(pub usize);

impl FaultsRef {
    /// Pins `plan` into the registry and returns its handle.
    pub fn install(plan: zo_fault::FaultPlan) -> FaultsRef {
        FaultsRef(zo_fault::install(plan))
    }

    /// Resolves the handle (`None` if the index was never installed).
    pub fn resolve(&self) -> Option<std::sync::Arc<zo_fault::FaultPlan>> {
        zo_fault::lookup(self.0)
    }
}

/// Resolves the engine's fault plan: an installed handle wins; otherwise
/// the `ZO_FAULTS` environment variable decides (disabled when unset) —
/// which is how the CI fault matrix drives unmodified binaries.
pub(crate) fn resolve_fault_plan(faults: Option<FaultsRef>) -> std::sync::Arc<zo_fault::FaultPlan> {
    faults
        .and_then(|f| f.resolve())
        .unwrap_or_else(|| std::sync::Arc::new(zo_fault::FaultPlan::from_env()))
}

/// Where the optimizer states and step live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OffloadDevice {
    /// No offload: everything on the accelerator (baseline behaviour).
    None,
    /// ZeRO-Offload: gradients, fp32 states and the update on the host.
    Cpu,
}

/// Configuration for [`ZeroOffloadEngine`](crate::engine::ZeroOffloadEngine).
///
/// Deserializable from JSON with every field optional (the DeepSpeed
/// `ds_config.json` usability model — paper Fig. 1):
///
/// ```
/// use zero_offload::ZeroOffloadConfig;
///
/// let cfg = ZeroOffloadConfig::from_json(r#"{"dpu_warmup": 40}"#).unwrap();
/// assert_eq!(cfg.dpu_warmup, Some(40));
/// assert_eq!(cfg.grad_accumulation, 1); // defaulted
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
#[serde(default)]
pub struct ZeroOffloadConfig {
    /// Offload target.
    pub offload: OffloadDevice,
    /// Adam hyper-parameters.
    pub adam: AdamParams,
    /// One-step delayed parameter update: `None` disables, `Some(n)`
    /// enables after `n` warm-up steps (the paper uses 40). DPU delays the
    /// offloaded CPU-Adam, so it needs `offload: Cpu` and
    /// `optimizer_tier: Dram` ([`ZeroOffloadConfig::validate`]).
    pub dpu_warmup: Option<u64>,
    /// Dynamic fp16 loss scaling.
    pub loss_scale: LossScaleConfig,
    /// Global gradient-norm clip (0 disables).
    pub max_grad_norm: f64,
    /// Micro-batches accumulated per optimizer step.
    pub grad_accumulation: u32,
    /// CPU optimizer worker threads: the partition count CPU-Adam submits
    /// to the shared worker pool. `0` means "auto" — use the pool's size
    /// (`ZO_THREADS` or the machine's available parallelism). Results are
    /// bit-identical at every setting; this only changes scheduling.
    pub optimizer_threads: usize,
    /// Elements per copy-back tile (Algorithm 1 line 15).
    pub tile_width: usize,
    /// Byte budget per gradient wire bucket (bounds the transient device
    /// staging memory; Sec. 4.1's "small groups").
    pub bucket_bytes: usize,
    /// Step-timeline tracer handle (`None` disables tracing).
    pub tracer: Option<TracerRef>,
    /// Fault-injection plan handle. `None` defers to the `ZO_FAULTS`
    /// environment variable (disabled when unset).
    pub faults: Option<FaultsRef>,
    /// Consecutive overflow-skipped steps tolerated before the engine
    /// surfaces a typed overflow-storm error (`0` disables the detector).
    pub overflow_storm_limit: u32,
    /// Stage-3 prefetch window: how many upcoming non-resident layers the
    /// parameter-partitioned engine gathers ahead of the one it is about
    /// to run. `0` means strictly just-in-time. Only read by
    /// [`Zero3OffloadEngine`](crate::zero3::Zero3OffloadEngine);
    /// prefetching changes wall-clock overlap, never values.
    pub prefetch_layers: usize,
    /// Stage-3 persistent-parameter byte budget: gathered layers whose
    /// full fp16 footprint fits in this LRU budget stay resident across
    /// steps instead of being released after use (DeepSpeed's
    /// "persistent parameters"). `0` releases every non-owned shard
    /// immediately after each sweep.
    pub persistent_param_bytes: usize,
    /// Which memory tier holds the fp32 optimizer states (paper Sec. 3's
    /// model-state placement, generalized past DRAM). [`TierKind::Dram`]
    /// keeps them resident in host memory — the classic ZeRO-Offload
    /// placement; [`TierKind::Nvme`] spills them to framed files under
    /// `ZO_TIER_DIR` (system temp dir when unset) and streams the Adam
    /// update through a bounded DRAM scratch each step. The trajectory is
    /// bit-identical across tiers; only residency and wall-clock change.
    /// Must be [`TierKind::Dram`] when `dpu_warmup` is set.
    pub optimizer_tier: TierKind,
    /// DRAM scratch byte budget for the tiered optimizer's streaming
    /// schedule (three tile slots of decoded fp32 state plus their encoded
    /// payloads). Smaller budgets mean more, smaller tiles; the peak is
    /// observable as the `tier_hwm_bytes` gauge. Only read when
    /// `optimizer_tier` is not DRAM-resident.
    pub tier_scratch_bytes: usize,
}

impl Default for ZeroOffloadConfig {
    fn default() -> ZeroOffloadConfig {
        ZeroOffloadConfig {
            offload: OffloadDevice::Cpu,
            adam: AdamParams::default(),
            dpu_warmup: None,
            loss_scale: LossScaleConfig::default(),
            max_grad_norm: 0.0,
            grad_accumulation: 1,
            // Auto: follow the shared pool (ZO_THREADS / machine cores).
            optimizer_threads: 0,
            tile_width: 2 * 1024 * 1024,
            bucket_bytes: crate::bucket::default_bucket_bytes(),
            tracer: None,
            faults: None,
            overflow_storm_limit: 0,
            prefetch_layers: 1,
            persistent_param_bytes: 0,
            optimizer_tier: TierKind::Dram,
            tier_scratch_bytes: 8 * 1024 * 1024,
        }
    }
}

impl ZeroOffloadConfig {
    /// Parses a JSON config; absent fields take their defaults.
    pub fn from_json(json: &str) -> Result<ZeroOffloadConfig, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serializes the full config as pretty JSON.
    pub fn to_json(&self) -> String {
        // Plain-old-data: serialization cannot fail.
        serde_json::to_string_pretty(self).expect("config serialization")
    }

    /// Refuses the settings that cannot run together; the error names
    /// both fields. Engine construction panics on a refused config.
    ///
    /// ```
    /// use zero_offload::ZeroOffloadConfig;
    ///
    /// assert!(ZeroOffloadConfig::default().with_dpu().validate().is_ok());
    /// let err = ZeroOffloadConfig::default().with_dpu().without_offload().validate();
    /// assert!(err.unwrap_err().contains("`offload: Cpu`"));
    /// ```
    pub fn validate(&self) -> Result<(), String> {
        match (self.dpu_warmup, self.offload, self.optimizer_tier) {
            (Some(_), OffloadDevice::None, _) => {
                Err("`dpu_warmup` delays the offloaded CPU-Adam: it needs `offload: Cpu`".into())
            }
            (Some(_), _, tier) if tier != TierKind::Dram => Err(
                "`dpu_warmup` keeps the optimizer states resident: it needs `optimizer_tier: Dram`"
                    .into(),
            ),
            _ => Ok(()),
        }
    }

    /// Enables DPU with the paper's 40-step warm-up.
    #[must_use]
    pub fn with_dpu(mut self) -> ZeroOffloadConfig {
        self.dpu_warmup = Some(40);
        self
    }

    /// Disables offload (plain mixed-precision Adam on-device).
    #[must_use]
    pub fn without_offload(mut self) -> ZeroOffloadConfig {
        self.offload = OffloadDevice::None;
        self
    }

    /// The effective optimizer partition count: `optimizer_threads`, with
    /// `0` resolved to the shared pool's thread count.
    pub fn resolved_optimizer_threads(&self) -> usize {
        if self.optimizer_threads == 0 {
            zo_tensor::pool::global().threads()
        } else {
            self.optimizer_threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_and_partial_parse() {
        let cfg = ZeroOffloadConfig::default().with_dpu();
        let back = ZeroOffloadConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back.dpu_warmup, Some(40));
        assert_eq!(back.grad_accumulation, cfg.grad_accumulation);
        // Partial config: unknown-but-valid subset with defaults.
        let partial =
            ZeroOffloadConfig::from_json(r#"{"offload": "None", "grad_accumulation": 8}"#).unwrap();
        assert_eq!(partial.offload, OffloadDevice::None);
        assert_eq!(partial.grad_accumulation, 8);
        assert!(partial.dpu_warmup.is_none());
        // Nested structs are partially specifiable too.
        let nested = ZeroOffloadConfig::from_json(
            r#"{"adam": {"lr": 0.01}, "loss_scale": {"init_scale": 128.0}}"#,
        )
        .unwrap();
        assert_eq!(nested.adam.lr, 0.01);
        assert_eq!(nested.adam.beta1, 0.9); // defaulted
        assert_eq!(nested.loss_scale.init_scale, 128.0);
        // Malformed JSON is an error, not a default.
        assert!(ZeroOffloadConfig::from_json("{nope").is_err());
    }

    #[test]
    fn default_is_offload_without_dpu() {
        let c = ZeroOffloadConfig::default();
        assert_eq!(c.offload, OffloadDevice::Cpu);
        assert!(c.dpu_warmup.is_none());
        assert_eq!(c.grad_accumulation, 1);
    }

    #[test]
    fn dpu_is_refused_without_offload_or_off_dram() {
        let dpu = ZeroOffloadConfig::default().with_dpu();
        assert_eq!(dpu.validate(), Ok(()));
        let err = dpu.without_offload().validate().unwrap_err();
        assert!(
            err.contains("`dpu_warmup`") && err.contains("`offload"),
            "{err}"
        );
        let nvme = ZeroOffloadConfig {
            optimizer_tier: TierKind::Nvme,
            ..dpu
        };
        let err = nvme.validate().unwrap_err();
        assert!(
            err.contains("`dpu_warmup`") && err.contains("`optimizer_tier"),
            "{err}"
        );
        let plain_nvme = ZeroOffloadConfig {
            dpu_warmup: None,
            ..nvme
        };
        assert_eq!(plain_nvme.validate(), Ok(()));
    }

    #[test]
    fn builders_compose() {
        let c = ZeroOffloadConfig::default().with_dpu().without_offload();
        assert_eq!(c.dpu_warmup, Some(40));
        assert_eq!(c.offload, OffloadDevice::None);
    }
}
