//! Step-timeline observability for the ZeRO-Offload engines.
//!
//! A [`Tracer`] records three kinds of facts while training runs:
//!
//! * **spans** — named wall-clock intervals on a named track (`"gpu"`,
//!   `"pcie"`, `"optimizer"`, `"rank0"`, …), opened with [`Tracer::span`]
//!   and closed when the guard drops;
//! * **counters** — monotonically accumulating quantities keyed by
//!   `(track, name)`, e.g. bytes shipped over PCIe, frames emitted, steps
//!   applied ([`Tracer::add`]);
//! * **gauges** — high-water marks, e.g. resident buffer bytes
//!   ([`Tracer::gauge_max`]).
//!
//! [`Tracer::finish_step`] closes a step boundary, snapshotting the phase
//! times and counter deltas observed since the previous boundary into a
//! [`StepMetrics`] row — the per-step aggregate export. The full event
//! log exports as Chrome trace format JSON
//! ([`Tracer::chrome_trace_json`]), loadable in `chrome://tracing` or
//! Perfetto; [`chrome_trace_json_from`] renders any plain
//! [`TraceEvent`] list the same way, so simulated timelines
//! (`zo-hetsim`) and real runs produce identical artifacts.
//!
//! The crate is dependency-free and thread-safe: a tracer clone is a
//! cheap `Arc` handle, and a **disabled** tracer ([`Tracer::disabled`])
//! records nothing at the cost of one branch per call site. Engines that
//! must stay `Copy`-configurable reference tracers through the process
//! registry: [`install`] pins a tracer and returns an index,
//! [`lookup`] resolves it anywhere in the process.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Canonical counter and span names shared by the resilience layer.
///
/// The fault-injection subsystem (`zo-fault`) and every engine that hosts
/// it emit retries and injected faults under these names, so tests and
/// dashboards can key on them without stringly-typed drift.
pub mod names {
    /// Counter: faults injected (transient failures and fatal trips).
    pub const FAULT_INJECTED: &str = "fault.injected";
    /// Counter: NaN/Inf gradient buckets injected.
    pub const FAULT_GRAD_NAN: &str = "fault.grad_nan";
    /// Counter: streamed-offload windows that degraded to the post-hoc
    /// transfer path after a mid-backward transfer fault.
    pub const FAULT_STREAM_FALLBACK: &str = "fault.stream_fallback";
    /// Counter: retry attempts performed after transient faults.
    pub const RETRY_ATTEMPTS: &str = "retry.attempts";
    /// Counter: cumulative deterministic backoff, microseconds.
    pub const RETRY_BACKOFF_US: &str = "retry.backoff_us";
    /// Span: one backoff interval between retry attempts.
    pub const RETRY_BACKOFF_SPAN: &str = "retry_backoff";
    /// Counter: optimizer steps skipped because of fp16 overflow.
    pub const OPTIM_OVERFLOW: &str = "optim.overflow";
    /// Span: one stage-3 layer-sliced parameter all-gather.
    pub const PARAM_ALLGATHER: &str = "param.allgather";
    /// Span: one stage-3 release of a gathered parameter layer.
    pub const PARAM_RELEASE: &str = "param.release";
    /// Counter: fp16 parameter bytes received by stage-3 gathers.
    pub const PARAM_TRAFFIC_BYTES: &str = "param_traffic_bytes";
    /// Gauge prefix: per-rank peak fp16 parameter residency, bytes. The
    /// full gauge name carries a `.rank{r}` suffix.
    pub const PARAM_HWM_BYTES: &str = "param_hwm_bytes";
    /// Span: one framed optimizer-state partition read from a memory tier.
    pub const TIER_READ: &str = "tier.read";
    /// Span: one framed optimizer-state partition write to a memory tier.
    pub const TIER_WRITE: &str = "tier.write";
    /// Span: the Adam update of one tile streamed through DRAM scratch.
    pub const TIER_UPDATE: &str = "tier.tile_update";
    /// Counter: framed payload bytes moved to/from a memory tier.
    pub const TIER_TRAFFIC_BYTES: &str = "tier_traffic_bytes";
    /// Gauge: peak DRAM scratch bytes held by the tiered optimizer.
    pub const TIER_HWM_BYTES: &str = "tier_hwm_bytes";
    /// Span: one rank's checkpoint file captured, encoded and published
    /// (or failing to be) by the job service.
    pub const CHECKPOINT_WRITE: &str = "checkpoint.write";
    /// Counter: bytes of checkpoint files published.
    pub const CKPT_BYTES: &str = "ckpt_bytes";
    /// Counter: checkpoint files that could not be written; the job keeps
    /// stepping and a restart falls back to an older set.
    pub const CKPT_WRITE_FAILED: &str = "ckpt.write_failed";
}

/// One completed interval on a track (microseconds since the epoch).
///
/// This is the common currency between real runs and the `zo-hetsim`
/// simulator: both reduce to a list of `TraceEvent`s and render through
/// [`chrome_trace_json_from`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Execution lane the interval belongs to (rendered as a thread row).
    pub track: String,
    /// What ran.
    pub name: String,
    /// Start, µs from the trace epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
}

impl TraceEvent {
    /// End of the interval, µs from the trace epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// Whether two intervals overlap in wall-clock time.
    pub fn overlaps(&self, other: &TraceEvent) -> bool {
        self.start_us < other.end_us() && other.start_us < self.end_us()
    }
}

/// A counter's cumulative value at a moment in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Track the counter lives on.
    pub track: String,
    /// Counter name.
    pub name: String,
    /// Sample time, µs from the trace epoch.
    pub ts_us: u64,
    /// Cumulative value at `ts_us`.
    pub total: u64,
}

/// Aggregate metrics for one training step.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StepMetrics {
    /// Step ordinal (0-based, assigned at each [`Tracer::finish_step`]).
    pub step: u64,
    /// Wall-clock µs spent per phase (span name) within the step.
    pub phase_us: Vec<(String, u64)>,
    /// Counter deltas within the step, summed over tracks, by name.
    pub counters: Vec<(String, u64)>,
    /// Total wall-clock µs from the previous boundary to this one.
    pub wall_us: u64,
}

impl StepMetrics {
    /// The delta of counter `name` during this step (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The µs spent in phase `name` during this step (0 if absent).
    pub fn phase(&self, name: &str) -> u64 {
        self.phase_us
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<TraceEvent>,
    counter_samples: Vec<CounterSample>,
    totals: BTreeMap<(String, String), u64>,
    gauges: BTreeMap<String, f64>,
    steps: Vec<StepMetrics>,
    /// Phase-time accumulation since the last step boundary.
    step_phase_us: BTreeMap<String, u64>,
    /// Counter totals at the last step boundary.
    step_base: BTreeMap<(String, String), u64>,
    step_start_us: u64,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// A thread-safe event recorder (cheap to clone; clones share storage).
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A recording tracer with its epoch at the call instant.
    pub fn new() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// A tracer that records nothing (every call is a cheap no-op).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether this tracer records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// µs elapsed since the trace epoch (0 when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Opens a span on `track`; it records when the guard drops.
    ///
    /// The guard owns a tracer handle (a cheap `Arc` clone), so it does
    /// not borrow `self` — callers may keep mutating the surrounding
    /// state while the span is open.
    pub fn span(&self, track: &str, name: &str) -> SpanGuard {
        match &self.inner {
            Some(_) => SpanGuard {
                tracer: self.clone(),
                track: track.to_string(),
                name: name.to_string(),
                start_us: self.now_us(),
                armed: true,
            },
            None => SpanGuard {
                tracer: Tracer::disabled(),
                track: String::new(),
                name: String::new(),
                start_us: 0,
                armed: false,
            },
        }
    }

    /// Records a completed interval directly.
    pub fn record_span(&self, track: &str, name: &str, start_us: u64, dur_us: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().expect("tracer state lock");
        *st.step_phase_us.entry(name.to_string()).or_insert(0) += dur_us;
        st.spans.push(TraceEvent {
            track: track.to_string(),
            name: name.to_string(),
            start_us,
            dur_us,
        });
    }

    /// Adds `delta` to the counter `(track, name)` and samples it.
    pub fn add(&self, track: &str, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let ts_us = self.now_us();
        let mut st = inner.state.lock().expect("tracer state lock");
        let key = (track.to_string(), name.to_string());
        let total = st.totals.entry(key).or_insert(0);
        *total += delta;
        let total = *total;
        st.counter_samples.push(CounterSample {
            track: track.to_string(),
            name: name.to_string(),
            ts_us,
            total,
        });
    }

    /// Raises the high-water gauge `name` to at least `value`.
    pub fn gauge_max(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().expect("tracer state lock");
        let g = st
            .gauges
            .entry(name.to_string())
            .or_insert(f64::NEG_INFINITY);
        if value > *g {
            *g = value;
        }
    }

    /// Closes a step boundary: phase times and counter deltas since the
    /// previous boundary become one [`StepMetrics`] row.
    pub fn finish_step(&self) {
        let Some(inner) = &self.inner else { return };
        let now = self.now_us();
        let mut st = inner.state.lock().expect("tracer state lock");
        let step = st.steps.len() as u64;
        let phase_us: Vec<(String, u64)> =
            std::mem::take(&mut st.step_phase_us).into_iter().collect();
        // Per-name counter deltas, summed over tracks.
        let mut by_name: BTreeMap<String, u64> = BTreeMap::new();
        for ((_track, name), total) in &st.totals {
            let base = st
                .step_base
                .get(&(_track.clone(), name.clone()))
                .copied()
                .unwrap_or(0);
            *by_name.entry(name.clone()).or_insert(0) += total - base;
        }
        st.step_base = st.totals.clone();
        let wall_us = now - st.step_start_us;
        st.step_start_us = now;
        st.steps.push(StepMetrics {
            step,
            phase_us,
            counters: by_name.into_iter().collect(),
            wall_us,
        });
    }

    // ---- queries ----

    /// Cumulative value of counter `name` on `track`.
    pub fn counter_on(&self, track: &str, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let st = inner.state.lock().expect("tracer state lock");
        st.totals
            .get(&(track.to_string(), name.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Cumulative value of counter `name`, summed over all tracks.
    pub fn counter_total(&self, name: &str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let st = inner.state.lock().expect("tracer state lock");
        st.totals
            .iter()
            .filter(|((_, n), _)| n == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Tracks that have recorded the counter `name`, in sorted order.
    pub fn tracks_with_counter(&self, name: &str) -> Vec<String> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let st = inner.state.lock().expect("tracer state lock");
        st.totals
            .keys()
            .filter(|(_, n)| n == name)
            .map(|(t, _)| t.clone())
            .collect()
    }

    /// All completed spans so far, in completion order.
    pub fn spans(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.state.lock().expect("tracer state lock").spans.clone(),
            None => Vec::new(),
        }
    }

    /// Completed spans named `name`, in completion order.
    pub fn spans_named(&self, name: &str) -> Vec<TraceEvent> {
        self.spans()
            .into_iter()
            .filter(|s| s.name == name)
            .collect()
    }

    /// All completed spans with each track prefixed `tag/` — the stream
    /// view a multi-job service merges: per-job tracers stay fully
    /// isolated while recording, and tagging at export time lets N
    /// streams interleave in one Chrome trace without track collisions.
    pub fn tagged_spans(&self, tag: &str) -> Vec<TraceEvent> {
        self.spans()
            .into_iter()
            .map(|mut s| {
                s.track = format!("{tag}/{}", s.track);
                s
            })
            .collect()
    }

    /// Per-step aggregate rows recorded by [`Tracer::finish_step`].
    pub fn step_metrics(&self) -> Vec<StepMetrics> {
        match &self.inner {
            Some(inner) => inner.state.lock().expect("tracer state lock").steps.clone(),
            None => Vec::new(),
        }
    }

    /// The high-water value of gauge `name`, if ever set.
    pub fn high_water(&self, name: &str) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        let st = inner.state.lock().expect("tracer state lock");
        st.gauges.get(name).copied()
    }

    // ---- export ----

    /// Renders the full event log as Chrome trace format JSON.
    ///
    /// Spans become `ph:"X"` complete events, counters `ph:"C"` series,
    /// and each track gets a `thread_name` metadata record, so the file
    /// loads directly in `chrome://tracing` / Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        let Some(inner) = &self.inner else {
            return "{\"traceEvents\":[]}".to_string();
        };
        let st = inner.state.lock().expect("tracer state lock");
        let mut tracks: Vec<&str> = Vec::new();
        for s in &st.spans {
            if !tracks.contains(&s.track.as_str()) {
                tracks.push(&s.track);
            }
        }
        for c in &st.counter_samples {
            if !tracks.contains(&c.track.as_str()) {
                tracks.push(&c.track);
            }
        }
        let tid = |track: &str| tracks.iter().position(|t| *t == track).unwrap_or(0);

        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (i, track) in tracks.iter().enumerate() {
            push_event(&mut out, &mut first, &format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                json_str(track)
            ));
        }
        for s in &st.spans {
            push_event(
                &mut out,
                &mut first,
                &format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":{},\"ts\":{},\"dur\":{}}}",
                    tid(&s.track),
                    json_str(&s.name),
                    s.start_us,
                    s.dur_us
                ),
            );
        }
        for c in &st.counter_samples {
            push_event(
                &mut out,
                &mut first,
                &format!(
                "{{\"ph\":\"C\",\"pid\":0,\"tid\":{},\"name\":{},\"ts\":{},\"args\":{{{}:{}}}}}",
                tid(&c.track),
                json_str(&c.name),
                c.ts_us,
                json_str(&c.name),
                c.total
            ),
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Merges several independently-recorded trace streams into one Chrome
/// trace, each stream's tracks prefixed with its tag (via
/// [`Tracer::tagged_spans`]). Events are sorted by start time so the
/// merged file reads as one coherent timeline.
pub fn chrome_trace_json_tagged(streams: &[(&str, &Tracer)]) -> String {
    let mut events: Vec<TraceEvent> = Vec::new();
    for (tag, tracer) in streams {
        events.extend(tracer.tagged_spans(tag));
    }
    events.sort_by_key(|e| (e.start_us, e.dur_us));
    chrome_trace_json_from(&events)
}

/// Renders a plain event list (e.g. a simulated timeline) as Chrome
/// trace format JSON, identically to [`Tracer::chrome_trace_json`].
pub fn chrome_trace_json_from(events: &[TraceEvent]) -> String {
    let mut tracks: Vec<&str> = Vec::new();
    for e in events {
        if !tracks.contains(&e.track.as_str()) {
            tracks.push(&e.track);
        }
    }
    let tid = |track: &str| tracks.iter().position(|t| *t == track).unwrap_or(0);
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (i, track) in tracks.iter().enumerate() {
        push_event(&mut out, &mut first, &format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{i},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            json_str(track)
        ));
    }
    for e in events {
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":{},\"ts\":{},\"dur\":{}}}",
                tid(&e.track),
                json_str(&e.name),
                e.start_us,
                e.dur_us
            ),
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn push_event(out: &mut String, first: &mut bool, event: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(event);
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An open span; records its interval when dropped.
pub struct SpanGuard {
    tracer: Tracer,
    track: String,
    name: String,
    start_us: u64,
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            let end = self.tracer.now_us();
            self.tracer.record_span(
                &self.track,
                &self.name,
                self.start_us,
                end.saturating_sub(self.start_us),
            );
        }
    }
}

// ---- process-wide registry ----

static REGISTRY: OnceLock<Mutex<Vec<Tracer>>> = OnceLock::new();

/// Pins `tracer` into the process registry; the returned index resolves
/// it from anywhere via [`lookup`]. Indices are never reused.
pub fn install(tracer: Tracer) -> usize {
    let mut reg = REGISTRY
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("trace registry");
    reg.push(tracer);
    reg.len() - 1
}

/// Resolves a tracer previously pinned with [`install`].
pub fn lookup(index: usize) -> Option<Tracer> {
    let reg = REGISTRY
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .expect("trace registry");
    reg.get(index).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_and_counters_accumulate() {
        let t = Tracer::new();
        {
            let _g = t.span("gpu", "fwd");
            std::thread::sleep(Duration::from_millis(2));
        }
        t.add("pcie", "d2h_bytes", 100);
        t.add("pcie", "d2h_bytes", 50);
        t.add("rank1", "d2h_bytes", 25);
        assert_eq!(t.counter_on("pcie", "d2h_bytes"), 150);
        assert_eq!(t.counter_total("d2h_bytes"), 175);
        assert_eq!(t.tracks_with_counter("d2h_bytes"), vec!["pcie", "rank1"]);
        let spans = t.spans_named("fwd");
        assert_eq!(spans.len(), 1);
        assert!(
            spans[0].dur_us >= 1000,
            "span too short: {}",
            spans[0].dur_us
        );
    }

    #[test]
    fn step_metrics_capture_deltas() {
        let t = Tracer::new();
        t.add("pcie", "bytes", 10);
        t.record_span("cpu", "adam", 0, 7);
        t.finish_step();
        t.add("pcie", "bytes", 32);
        t.finish_step();
        let steps = t.step_metrics();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].counter("bytes"), 10);
        assert_eq!(steps[0].phase("adam"), 7);
        assert_eq!(steps[1].counter("bytes"), 32);
        assert_eq!(steps[1].phase("adam"), 0);
    }

    #[test]
    fn gauges_keep_high_water() {
        let t = Tracer::new();
        t.gauge_max("gpu_bytes", 10.0);
        t.gauge_max("gpu_bytes", 4.0);
        t.gauge_max("gpu_bytes", 12.0);
        assert_eq!(t.high_water("gpu_bytes"), Some(12.0));
        assert_eq!(t.high_water("absent"), None);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        {
            let _g = t.span("gpu", "fwd");
        }
        t.add("pcie", "bytes", 10);
        t.finish_step();
        assert!(!t.is_enabled());
        assert!(t.spans().is_empty());
        assert!(t.step_metrics().is_empty());
        assert_eq!(t.counter_total("bytes"), 0);
        assert_eq!(t.chrome_trace_json(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn tagged_spans_prefix_tracks_and_preserve_timing() {
        let t = Tracer::new();
        t.record_span("gpu", "fwd", 10, 5);
        t.record_span("cpu", "adam", 20, 7);
        let tagged = t.tagged_spans("job-a");
        assert_eq!(tagged.len(), 2);
        assert_eq!(tagged[0].track, "job-a/gpu");
        assert_eq!(tagged[1].track, "job-a/cpu");
        assert_eq!(tagged[0].start_us, 10);
        assert_eq!(tagged[1].dur_us, 7);
        // The tracer itself is untouched.
        assert_eq!(t.spans()[0].track, "gpu");
    }

    #[test]
    fn tagged_merge_keeps_streams_apart() {
        let a = Tracer::new();
        let b = Tracer::new();
        a.record_span("gpu", "fwd", 30, 5);
        b.record_span("gpu", "fwd", 10, 5);
        let json = chrome_trace_json_tagged(&[("job-a", &a), ("job-b", &b)]);
        // Both jobs used track "gpu": the merged trace must keep them as
        // distinct named tracks, ordered by start time.
        assert!(
            json.contains("\"job-a/gpu\""),
            "missing job-a track: {json}"
        );
        assert!(
            json.contains("\"job-b/gpu\""),
            "missing job-b track: {json}"
        );
        let a_pos = json.find("\"job-a/gpu\"").unwrap();
        let b_pos = json.find("\"job-b/gpu\"").unwrap();
        assert!(
            b_pos < a_pos,
            "job-b's span starts earlier so its track registers first"
        );
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let t = Tracer::new();
        {
            let _g = t.span("gpu", "fwd\"bwd");
        }
        t.add("pcie", "d2h_bytes", 64);
        let json = t.chrome_trace_json();
        // Structural checks without a JSON parser (this crate is dep-free).
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("fwd\\\"bwd"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn overlap_predicate() {
        let a = TraceEvent {
            track: "x".into(),
            name: "a".into(),
            start_us: 0,
            dur_us: 10,
        };
        let b = TraceEvent {
            track: "y".into(),
            name: "b".into(),
            start_us: 5,
            dur_us: 10,
        };
        let c = TraceEvent {
            track: "y".into(),
            name: "c".into(),
            start_us: 10,
            dur_us: 5,
        };
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c), "touching intervals do not overlap");
    }

    #[test]
    fn registry_install_and_lookup() {
        let t = Tracer::new();
        t.add("x", "marker", 7);
        let ix = install(t);
        let resolved = lookup(ix).expect("tracer installed");
        assert_eq!(resolved.counter_on("x", "marker"), 7);
        assert!(lookup(ix + 1000).is_none());
    }

    #[test]
    fn cross_thread_spans_share_epoch() {
        // The two spans are held open across a handshake, so they overlap
        // in real time whatever the scheduler does; the 1 ms inside both
        // keeps the overlap above the clock's microsecond resolution.
        let t = Tracer::new();
        let t2 = t.clone();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            let _g = t2.span("worker", "job");
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        {
            let _g = t.span("main", "wait");
            started_rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(1));
            release_tx.send(()).unwrap();
        }
        h.join().unwrap();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let job = spans.iter().find(|s| s.name == "job").unwrap();
        let wait = spans.iter().find(|s| s.name == "wait").unwrap();
        assert!(job.overlaps(wait), "threaded spans must be comparable");
    }
}
