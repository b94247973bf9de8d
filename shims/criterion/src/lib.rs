//! Minimal vendored benchmark harness.
//!
//! Implements the subset of the `criterion` API the workspace benches
//! use. Each benchmark runs its closure for a bounded number of
//! iterations / wall-clock budget and prints a mean time per iteration —
//! enough to compare kernels locally without the real statistics engine.

use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Top-level benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    quick: bool,
    json_sink: Option<PathBuf>,
}

impl Default for Criterion {
    /// The environment only supplies defaults: `CRITERION_QUICK=1` turns
    /// on [`Criterion::quick`], `CRITERION_JSON=path` sets
    /// [`Criterion::json_sink`].
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_millis(500),
            warm_up_time: Duration::from_millis(100),
            quick: std::env::var("CRITERION_QUICK").is_ok_and(|v| !v.is_empty() && v != "0"),
            json_sink: std::env::var_os("CRITERION_JSON")
                .filter(|p| !p.is_empty())
                .map(PathBuf::from),
        }
    }
}

impl Criterion {
    /// Sets the number of measurement samples.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the measurement wall-clock budget.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Sets the warm-up wall-clock budget.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Clamps every benchmark to a few-millisecond sweep, regardless of
    /// the budgets configured above. CI uses it to emit the persisted
    /// bench artifact without paying full measurement budgets.
    pub fn quick(mut self, on: bool) -> Self {
        self.quick = on;
        self
    }

    /// Appends one NDJSON record per finished bench to `path`;
    /// `criterion_report` aggregates the lines into the validated
    /// `BENCH_criterion.json` artifact. Append (not truncate) is
    /// deliberate: one sweep spans several `cargo bench` processes.
    pub fn json_sink(mut self, path: Option<PathBuf>) -> Self {
        self.json_sink = path;
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let stats = run_bench(self, &mut f);
        report(self, &id.to_string(), &stats, None);
        self
    }
}

/// Throughput annotation attached to a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A group of benchmarks sharing a name prefix and throughput config.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput used in reports.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Runs a benchmark identified by `id` with a borrowed input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let stats = run_bench(self.criterion, &mut |b| f(b, input));
        report(
            self.criterion,
            &format!("{}/{}", self.name, id),
            &stats,
            self.throughput,
        );
        self
    }

    /// Runs a benchmark identified by a plain name.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let stats = run_bench(self.criterion, &mut f);
        report(
            self.criterion,
            &format!("{}/{}", self.name, id),
            &stats,
            self.throughput,
        );
        self
    }

    /// Finishes the group.
    pub fn finish(self) {}
}

/// Identifier for one benchmark inside a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// An id combining a function name and a parameter.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            text: format!("{function}/{parameter}"),
        }
    }

    /// An id from the parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over this sample's iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// An opaque identity function preventing the optimizer from deleting
/// benchmarked work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

struct Stats {
    mean: Duration,
}

fn run_bench(criterion: &Criterion, f: &mut dyn FnMut(&mut Bencher)) -> Stats {
    let mut criterion = criterion.clone();
    if criterion.quick {
        criterion.sample_size = criterion.sample_size.min(2);
        criterion.measurement_time = criterion.measurement_time.min(Duration::from_millis(30));
        criterion.warm_up_time = criterion.warm_up_time.min(Duration::from_millis(5));
    }
    // Warm-up: run single iterations until the warm-up budget elapses,
    // and use the observed cost to pick a per-sample iteration count.
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < criterion.warm_up_time || warm_iters == 0 {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        warm_iters += 1;
        if warm_iters >= 1000 {
            break;
        }
    }
    let per_iter = warm_start.elapsed() / warm_iters as u32;

    let budget_per_sample = criterion.measurement_time / criterion.sample_size as u32;
    let iters = if per_iter.is_zero() {
        1000
    } else {
        (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64
    };

    let mut total = Duration::ZERO;
    let mut total_iters = 0u64;
    for _ in 0..criterion.sample_size {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        total += b.elapsed;
        total_iters += iters;
    }
    Stats {
        mean: total / total_iters.max(1) as u32,
    }
}

fn report(criterion: &Criterion, name: &str, stats: &Stats, throughput: Option<Throughput>) {
    let mean_ns = stats.mean.as_nanos() as f64;
    let rate = match throughput {
        Some(Throughput::Elements(n)) if mean_ns > 0.0 => {
            format!("  {:.3} Melem/s", n as f64 / mean_ns * 1e3)
        }
        Some(Throughput::Bytes(n)) if mean_ns > 0.0 => {
            format!(
                "  {:.3} MiB/s",
                n as f64 / mean_ns * 1e9 / (1024.0 * 1024.0)
            )
        }
        _ => String::new(),
    };
    println!("{name:<48} {:>12.3} us/iter{rate}", mean_ns / 1e3);
    if let Some(path) = &criterion.json_sink {
        sink_json_line(path, name, mean_ns, throughput);
    }
}

fn sink_json_line(
    path: &std::path::Path,
    name: &str,
    mean_ns: f64,
    throughput: Option<Throughput>,
) {
    let (tp_kind, tp_per_iter) = match throughput {
        Some(Throughput::Elements(n)) => ("\"elements\"", n),
        Some(Throughput::Bytes(n)) => ("\"bytes\"", n),
        None => ("null", 0),
    };
    let line = format!(
        "{{\"name\":{},\"mean_ns\":{mean_ns:.1},\"throughput\":{tp_kind},\"per_iter\":{tp_per_iter}}}\n",
        json_string(name)
    );
    use std::io::Write;
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = written {
        eprintln!("criterion: failed appending to {}: {e}", path.display());
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Declares a benchmark group function.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        let mut g = c.benchmark_group("grp");
        g.throughput(Throughput::Elements(4));
        g.bench_with_input(BenchmarkId::new("sum", 4), &4u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.bench_function("plain", |b| b.iter(|| black_box(2 * 2)));
        g.finish();
    }

    #[test]
    fn harness_runs() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1))
            .json_sink(None);
        trivial(&mut c);
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain/4"), "\"plain/4\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(
            json_string("tab\there"),
            "\"tab\\there\"".replace("\\t", "\\u0009")
        );
    }

    #[test]
    fn quick_mode_sink_emits_ndjson() {
        let path =
            std::env::temp_dir().join(format!("criterion_sink_{}.ndjson", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // Set on the value, not through the process environment: sibling
        // tests run on parallel threads and would leak into the sink.
        let mut c = Criterion::default()
            .sample_size(50)
            .measurement_time(Duration::from_secs(10))
            .warm_up_time(Duration::from_secs(5))
            .quick(true)
            .json_sink(Some(path.clone()));
        let t0 = Instant::now();
        trivial(&mut c);
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "quick mode must clamp a 10s budget: took {elapsed:?}"
        );
        let text = std::fs::read_to_string(&path).expect("sink file");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "one record per bench: {text}");
        assert!(lines[0].contains("\"name\":\"noop\""), "{}", lines[0]);
        assert!(lines[0].contains("\"throughput\":null"), "{}", lines[0]);
        assert!(lines[1].contains("\"name\":\"grp/sum/4\""), "{}", lines[1]);
        assert!(
            lines[1].contains("\"throughput\":\"elements\"") && lines[1].contains("\"per_iter\":4"),
            "{}",
            lines[1]
        );
        for line in &lines {
            assert!(line.contains("\"mean_ns\":"), "{line}");
        }
    }
}
