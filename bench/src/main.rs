//! The repo's one benchmark. See `README.md` beside this package.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run (the driver's interface)
//! bench all [--seed N] [--seconds S] [--repeats R] [--quick] [--out FILE]
//! bench compare A.json B.json
//! bench manifest                                         prints BENCHMARK.json
//! bench metrics                                          prints the per-layer table of README.md
//! ```

mod compare;
mod hygiene;
mod probes;
mod report;
mod run;
mod schema;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use hygiene::{Host, Scratch};
use run::RunArgs;
use workloads::WORKLOADS;

const USAGE: &str = "usage:
  bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--probes 0] [--scratch DIR] [--out-dir DIR]
  bench all [--seed N] [--seconds S] [--repeats R] [--quick] [--out FILE] [--scratch DIR]
  bench compare A.json B.json
  bench manifest | metrics
workloads: dense-compute, wide-optim, wide-nvme, serve-mixed";

/// Where results and traces go unless told otherwise (relative to the
/// working directory: the repo root).
const OUT_DIR: &str = "bench/out";

/// `--flag value` options and bare `--switch`es after the subcommand.
struct Options {
    args: Vec<String>,
}

impl Options {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.args.iter().position(|a| a == flag)?;
        self.args.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag} {text:?} is not a valid value")),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&Options { args }),
        Some("compare") => compare_files(&args[1..]),
        Some("manifest") => {
            println!("{}", schema::manifest().to_json_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("metrics") => {
            print!("{}", schema::per_layer_markdown());
            Ok(ExitCode::SUCCESS)
        }
        Some(flag) if flag.starts_with("--") && flag != "--help" => single(&Options { args }),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}

/// One run: the interface the benchmark's driver calls.
fn single(o: &Options) -> Result<ExitCode, String> {
    let name = o.value("--workload").ok_or(USAGE)?;
    let workload =
        workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
    let traced = match o.value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    let seconds: f64 = o.parsed("--seconds", schema::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let out_dir = PathBuf::from(o.value("--out-dir").unwrap_or(OUT_DIR));
    let scratch_base = o
        .value("--scratch")
        .map_or_else(|| out_dir.join("scratch"), PathBuf::from);
    let scratch = Scratch::create(&scratch_base).map_err(|e| {
        format!(
            "cannot create scratch under {}: {e}",
            scratch_base.display()
        )
    })?;
    // Before the first thread: the pool and the tier read these lazily.
    hygiene::scrub_env(scratch.path());

    let host = Host::probe(scratch.path());
    if let Some(reason) = host.not_comparable() {
        eprintln!("warning: numbers from this run are not comparable: {reason}");
    }
    let args = RunArgs {
        workload,
        seed: o.parsed("--seed", 1)?,
        seconds,
        quick: o.switch("--quick"),
        scratch: scratch.path().to_path_buf(),
        out_dir,
        probes: o.value("--probes") != Some("0"),
    };
    let result = if traced {
        run::per_layer(&args)
    } else {
        run::end_to_end(&args)
    };
    drop(scratch);
    print!("{}", report::table(workload.name, &result, traced));
    println!("{}", report::result_line(&result, traced));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What a child run measures.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    EndToEnd,
    /// The traced run, with or without the layer probes.
    PerLayer {
        probes: bool,
    },
}

/// Runs `bench --workload …` as a child process — its own `VmHWM`, pool
/// and tracer registries — and returns its parsed result line. The
/// child's table is passed through.
fn child_run(
    o: &Options,
    workload: &str,
    seed: u64,
    seconds: f64,
    mode: Mode,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if mode == Mode::EndToEnd { "0" } else { "1" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if mode == (Mode::PerLayer { probes: false }) {
        cmd.args(["--probes", "0"]);
    }
    if o.switch("--quick") {
        cmd.arg("--quick");
    }
    if let Some(dir) = o.value("--scratch") {
        cmd.args(["--scratch", dir]);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{table}");
    let line = Value::parse(last).map_err(|e| {
        format!(
            "the {workload} run printed no result line ({e}); exit {}",
            output.status
        )
    })?;
    if !output.status.success() {
        eprintln!("the {workload} run exited with {}", output.status);
    }
    Ok(line)
}

/// Every workload, one child process at a time: `--repeats` end-to-end
/// runs (their spread is recorded) and one traced per-layer run each.
fn all(o: &Options) -> Result<ExitCode, String> {
    let seed: u64 = o.parsed("--seed", 1)?;
    let quick = o.switch("--quick");
    let seconds: f64 = o.parsed("--seconds", schema::RUN_SECONDS as f64)?;
    let repeats: usize = o.parsed("--repeats", if quick { 1 } else { 3 })?;
    if repeats == 0 {
        return Err("--repeats must be at least 1".into());
    }
    let out = o
        .value("--out")
        .map_or_else(|| Path::new(OUT_DIR).join("results.json"), PathBuf::from);

    let scratch_base = o
        .value("--scratch")
        .map_or_else(|| Path::new(OUT_DIR).join("scratch"), PathBuf::from);
    std::fs::create_dir_all(&scratch_base)
        .map_err(|e| format!("cannot create {}: {e}", scratch_base.display()))?;
    let host = Host::probe(&scratch_base);
    let not_comparable = host.not_comparable();

    let mut entries = Vec::new();
    let mut correct = true;
    // The probes do not depend on the workload: the first per-layer run
    // measures them, the others take its values.
    let mut probed: Option<Value> = None;
    for w in &WORKLOADS {
        let e2e = (0..repeats)
            .map(|_| child_run(o, w.name, seed, seconds, Mode::EndToEnd))
            .collect::<Result<Vec<Value>, String>>()?;
        let probes = probed.is_none();
        let mut per_layer = child_run(o, w.name, seed, seconds, Mode::PerLayer { probes })?;
        match &probed {
            Some(first) => report::share_probes(first, &mut per_layer),
            None => probed = Some(per_layer.clone()),
        }
        let entry = report::workload_entry(&e2e, &per_layer)?;
        correct &= entry["correct"] == true;
        entries.push((w.name.to_string(), entry));
    }

    let mut header: Vec<(String, Value)> = vec![
        ("schema".into(), Value::Num(report::RESULTS_SCHEMA as f64)),
        ("quick".into(), Value::Bool(quick)),
        (
            "comparable".into(),
            Value::Bool(not_comparable.is_none() && !quick),
        ),
        (
            "not_comparable_reason".into(),
            match (&not_comparable, quick) {
                (Some(reason), _) => Value::Str(reason.clone()),
                (None, true) => Value::Str("--quick smoke run".into()),
                (None, false) => Value::Null,
            },
        ),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
        ("repeats".into(), Value::Num(repeats as f64)),
        (
            "warmup_steps".into(),
            Value::Num(workloads::WARMUP_STEPS as f64),
        ),
    ];
    header.extend(host.stamp());
    header.push(("workloads".into(), Value::Object(entries)));
    let doc = Value::Object(header);
    report::validate(&doc).map_err(|e| format!("results failed their own validation: {e}"))?;
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.to_json_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("results: {}", out.display());
    if let Some(reason) = &not_comparable {
        println!("NOT COMPARABLE: {reason}");
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))
    };
    let comparison = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", comparison.text);
    if comparison.unresolved > 0 {
        eprintln!("unresolved rows need more --repeats or a quieter host, not a verdict");
    }
    Ok(if comparison.regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
