//! The traced run's span arithmetic: the benchmark's own spans merged
//! with the program's `zo_trace` spans on one clock, written out as a
//! Chrome trace and reduced to per-step phase times.

use std::collections::BTreeMap;

use serde_json::Value;
use zo_trace::Tracer;

use crate::schema::obj;
use crate::stats::{median, uncovered_len, Interval};
use crate::workloads::{Clock, StepRec};

/// One span of the merged timeline, nanoseconds on the benchmark clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Lane (`bench/…` for the benchmark's own spans).
    pub track: String,
    /// What ran.
    pub name: String,
    /// Start and end.
    pub at: Interval,
    /// Step the span belongs to and the span that caused it
    /// (benchmark-owned spans only).
    pub cause: Option<(usize, &'static str)>,
}

/// The program's tracer with the offset that puts its microsecond
/// timestamps on the benchmark clock.
pub struct AlignedTracer {
    /// The tracer handed to the program.
    pub tracer: Tracer,
    /// Benchmark-clock nanoseconds at the tracer's epoch.
    epoch_ns: i64,
}

impl AlignedTracer {
    /// A fresh tracer aligned to `clock`.
    pub fn new(clock: Clock) -> AlignedTracer {
        let tracer = Tracer::new();
        let epoch_ns = clock.now() as i64 - tracer.now_us() as i64 * 1000;
        AlignedTracer { tracer, epoch_ns }
    }

    /// Every span the program recorded, on the benchmark clock.
    pub fn spans(&self) -> Vec<Span> {
        self.tracer
            .spans()
            .into_iter()
            .map(|e| Span {
                at: to_bench(self.epoch_ns, e.start_us, e.dur_us),
                track: e.track,
                name: e.name,
                cause: None,
            })
            .collect()
    }
}

fn to_bench(epoch_ns: i64, start_us: u64, dur_us: u64) -> Interval {
    let start = (epoch_ns + start_us as i64 * 1000).max(0) as u64;
    (start, start + dur_us * 1000)
}

/// The benchmark-owned spans of engine steps: `data_batch`, `step`,
/// `fwd_bwd_closure` (child of `step`) and `grad_hook` (children of the
/// closure).
pub fn bench_spans(recs: &[StepRec]) -> Vec<Span> {
    let mut out = Vec::new();
    for (i, r) in recs.iter().enumerate() {
        let mut push = |name: &str, at: Interval, parent: &'static str| {
            out.push(Span {
                track: format!("bench/{name}"),
                name: name.to_string(),
                at,
                cause: Some((i, parent)),
            });
        };
        push("data_batch", r.batch, "");
        push("step", r.step, "");
        push("fwd_bwd_closure", r.closure, "step");
        for &h in &r.hooks {
            push("grad_hook", h, "fwd_bwd_closure");
        }
    }
    out
}

/// Renders spans as Chrome trace JSON (`ph:"X"` events, one thread row
/// per track; benchmark-owned spans carry workload, step and parent).
pub fn chrome_json(workload: &str, spans: &[Span]) -> String {
    let mut tracks: Vec<&str> = Vec::new();
    for s in spans {
        if !tracks.contains(&s.track.as_str()) {
            tracks.push(&s.track);
        }
    }
    let num = |v: usize| Value::Num(v as f64);
    let mut events: Vec<Value> = tracks
        .iter()
        .enumerate()
        .map(|(tid, track)| {
            obj(vec![
                ("ph", Value::Str("M".into())),
                ("pid", num(0)),
                ("tid", num(tid)),
                ("name", Value::Str("thread_name".into())),
                ("args", obj(vec![("name", Value::Str(track.to_string()))])),
            ])
        })
        .collect();
    for s in spans {
        let tid = tracks.iter().position(|t| *t == s.track).unwrap_or(0);
        let mut entries = vec![
            ("ph", Value::Str("X".into())),
            ("pid", num(0)),
            ("tid", num(tid)),
            ("name", Value::Str(s.name.clone())),
            ("ts", Value::Num(s.at.0 as f64 / 1e3)),
            ("dur", Value::Num((s.at.1 - s.at.0) as f64 / 1e3)),
        ];
        if let Some((step, parent)) = s.cause {
            entries.push((
                "args",
                obj(vec![
                    ("workload", Value::Str(workload.to_string())),
                    ("step", num(step)),
                    ("parent", Value::Str(parent.to_string())),
                ]),
            ));
        }
        events.push(obj(entries));
    }
    obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
    .to_json()
}

/// Parses `Service::chrome_trace_json()`: tracks are `<job>/<track>` and
/// every job's timestamps count from its own tracer's epoch, which is
/// the start of its `submit` call (`epochs`, benchmark-clock ns, by job
/// name).
pub fn service_spans(json: &str, epochs: &[(&str, u64)]) -> Result<Vec<Span>, String> {
    let doc = Value::parse(json).map_err(|e| format!("service trace does not parse: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("service trace has no traceEvents")?;
    let mut track_of: BTreeMap<u64, String> = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(Value::as_str) == Some("M") {
            let tid = e.get("tid").and_then(Value::as_u64);
            let name = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str);
            if let (Some(tid), Some(name)) = (tid, name) {
                track_of.insert(tid, name.to_string());
            }
        }
    }
    let mut out = Vec::new();
    for e in events {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let field = |k: &str| e.get(k).and_then(Value::as_u64);
        let (Some(tid), Some(ts), Some(dur)) = (field("tid"), field("ts"), field("dur")) else {
            return Err("service trace span lacks tid/ts/dur".to_string());
        };
        let track = track_of
            .get(&tid)
            .ok_or("service trace span on an unnamed track")?;
        let job = track.split('/').next().unwrap_or_default();
        let epoch = epochs
            .iter()
            .find(|(name, _)| *name == job)
            .ok_or_else(|| format!("service trace names unknown job {job:?}"))?
            .1;
        out.push(Span {
            track: track.clone(),
            name: e
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            at: to_bench(epoch as i64, ts, dur),
            cause: None,
        });
    }
    Ok(out)
}

/// A window of the timeline holding a known number of optimizer steps:
/// one engine step, or one service tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Start and end.
    pub at: Interval,
    /// Steps that ran inside it.
    pub steps: usize,
}

/// Intervals of the spans whose name is one of `names` (any track).
pub fn named(spans: &[Span], names: &[&str]) -> Vec<Interval> {
    spans
        .iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .map(|s| s.at)
        .collect()
}

/// The intervals of `at` that start inside `w`.
fn starting_in(at: &[Interval], w: &Window) -> Vec<Interval> {
    at.iter()
        .filter(|(a0, _)| (w.at.0..w.at.1).contains(a0))
        .copied()
        .collect()
}

/// Median over `windows` of the time per step that spans named `names`
/// take, ms. A span belongs to the window it starts in; `0.0` when
/// there is no such span (the workload does not exercise the phase).
pub fn phase_ms(spans: &[Span], names: &[&str], windows: &[Window]) -> f64 {
    let at = named(spans, names);
    if at.is_empty() || windows.is_empty() {
        return 0.0;
    }
    let per_step: Vec<f64> = windows
        .iter()
        .map(|w| {
            let total: u64 = starting_in(&at, w).iter().map(|(a0, a1)| a1 - a0).sum();
            total as f64 / 1e6 / w.steps as f64
        })
        .collect();
    median(&per_step)
}

/// Median over `windows` of the time per step for which an `of` span is
/// running and no `cover` span is: the *exposed* part of a phase, ms.
pub fn exposed_ms(spans: &[Span], of: &[&str], cover: &[&str], windows: &[Window]) -> f64 {
    let (of, cover) = (named(spans, of), named(spans, cover));
    if of.is_empty() || windows.is_empty() {
        return 0.0;
    }
    let per_step: Vec<f64> = windows
        .iter()
        .map(|w| uncovered_len(&starting_in(&of, w), &cover) as f64 / 1e6 / w.steps as f64)
        .collect();
    median(&per_step)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: &str, name: &str, at: Interval) -> Span {
        Span {
            track: track.into(),
            name: name.into(),
            at,
            cause: None,
        }
    }

    const MS: u64 = 1_000_000;

    fn windows(at: &[Interval]) -> Vec<Window> {
        at.iter().map(|&at| Window { at, steps: 1 }).collect()
    }

    #[test]
    fn phase_is_the_median_per_step_sum() {
        let steps = windows(&[(0, 10 * MS), (10 * MS, 20 * MS), (20 * MS, 30 * MS)]);
        let spans = vec![
            span("tier", "tier.read", (MS, 2 * MS)),
            span("tier", "tier.read", (3 * MS, 5 * MS)), // step 0: 3 ms
            span("tier", "tier.read", (11 * MS, 12 * MS)), // step 1: 1 ms
            span("tier", "tier.read", (21 * MS, 26 * MS)), // step 2: 5 ms
            span("cpu", "cpu_adam", (0, 30 * MS)),
        ];
        assert_eq!(phase_ms(&spans, &["tier.read"], &steps), 3.0);
        assert_eq!(phase_ms(&spans, &["tier.write"], &steps), 0.0);
        // A two-step window halves the per-step time.
        let tick = [Window {
            at: (0, 10 * MS),
            steps: 2,
        }];
        assert_eq!(phase_ms(&spans, &["tier.read"], &tick), 1.5);
    }

    #[test]
    fn exposed_is_what_the_cover_leaves_showing() {
        let steps = windows(&[(0, 10 * MS), (10 * MS, 20 * MS)]);
        let spans = vec![
            // Step 0: io [1,4)∪[6,8), update [2,7) → exposed 1 + 1.
            span("tier", "tier.read", (MS, 4 * MS)),
            span("tier", "tier.write", (6 * MS, 8 * MS)),
            span("cpu", "tier.tile_update", (2 * MS, 7 * MS)),
            // Step 1: io [11,13) fully hidden.
            span("tier", "tier.read", (11 * MS, 13 * MS)),
            span("cpu", "tier.tile_update", (10 * MS, 15 * MS)),
        ];
        let exposed = exposed_ms(
            &spans,
            &["tier.read", "tier.write"],
            &["tier.tile_update"],
            &steps,
        );
        assert_eq!(exposed, 1.0); // median of 2 ms and 0 ms
    }

    #[test]
    fn bench_spans_nest_and_carry_step_and_parent() {
        let rec = StepRec {
            batch: (0, 5),
            step: (5, 100),
            closure: (10, 60),
            hook_ns: 7,
            hooks: vec![(20, 23), (40, 44)],
            loss: Some(1.0),
            applied: true,
        };
        let spans = bench_spans(&[rec.clone(), rec]);
        assert_eq!(spans.len(), 10);
        let hook = spans.iter().rfind(|s| s.name == "grad_hook").unwrap();
        assert_eq!(hook.cause, Some((1, "fwd_bwd_closure")));
        assert_eq!(hook.track, "bench/grad_hook");
        let json = chrome_json("wide-optim", &spans);
        let doc = Value::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 4 thread-name records + 10 spans.
        assert_eq!(events.len(), 14);
        let last = events.last().unwrap();
        assert_eq!(
            last.get("args").unwrap().get("step").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            last.get("args").unwrap().get("workload").unwrap().as_str(),
            Some("wide-optim")
        );
    }

    #[test]
    fn service_spans_are_shifted_by_each_jobs_epoch() {
        let json = r#"{"traceEvents":[
            {"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"z2/rank0"}},
            {"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"single-dpu/gpu"}},
            {"ph":"X","pid":0,"tid":0,"name":"fwd_bwd","ts":10,"dur":5},
            {"ph":"X","pid":0,"tid":1,"name":"fwd_bwd","ts":10,"dur":5}
        ],"displayTimeUnit":"ms"}"#;
        let spans = service_spans(json, &[("single-dpu", 1_000_000), ("z2", 3_000_000)]).unwrap();
        assert_eq!(spans[0].at, (3_010_000, 3_015_000));
        assert_eq!(spans[1].at, (1_010_000, 1_015_000));
        assert!(service_spans(json, &[("z2", 0)]).is_err());
        assert!(service_spans("{nope", &[]).is_err());
    }

    #[test]
    fn tracer_spans_land_on_the_benchmark_clock() {
        let clock = Clock::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let aligned = AlignedTracer::new(clock);
        let before = clock.now();
        drop(aligned.tracer.span("gpu", "fwd_bwd"));
        let after = clock.now();
        let spans = aligned.spans();
        assert_eq!(spans.len(), 1);
        // Microsecond tracer resolution: allow 2 µs either side.
        assert!(spans[0].at.0 + 2_000 >= before && spans[0].at.1 <= after + 2_000);
    }
}
