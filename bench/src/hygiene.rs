//! Run hygiene: a scrubbed environment, a scratch directory that is
//! removed afterwards, and the host facts stamped on every result.

use std::path::{Path, PathBuf};

use serde_json::Value;

/// `ZO_*` variables that would change what a workload does.
const SCRUBBED: [&str; 4] = ["ZO_FAULTS", "ZO_TIER", "ZO_STAGE", "ZO_TIER_DIR"];

/// Worker-pool size every workload runs with.
pub const THREADS: &str = "2";

/// Scrubs the environment for a run: no fault plan, no tier or stage
/// override, a fixed pool size, and the tier spill directory under
/// `scratch`.
///
/// Must run before any other thread exists (the pool reads `ZO_THREADS`
/// once, lazily) — `main` calls it first.
pub fn scrub_env(scratch: &Path) {
    for var in SCRUBBED {
        std::env::remove_var(var);
    }
    std::env::set_var("ZO_THREADS", THREADS);
    std::env::set_var("ZO_TIER_DIR", scratch);
}

/// A per-process scratch directory, removed on drop.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `base/<pid>` (and `base` if missing).
    pub fn create(base: &Path) -> std::io::Result<Scratch> {
        let dir = base.join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and reused.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Filesystem type of the mount holding `path`, from `mountinfo` text
/// (the longest mount point that prefixes the path wins).
pub fn fs_type_in(mountinfo: &str, path: &Path) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            // "id parent maj:min root mount-point opts... - fstype source opts"
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split(' ').nth(4)?;
            let fstype = tail.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}

/// Filesystem type of the mount holding `path` (`"unknown"` off Linux).
pub fn fs_type(path: &Path) -> String {
    let canonical = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mountinfo")
        .ok()
        .and_then(|text| fs_type_in(&text, &canonical))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// First line of `cmd`'s standard output, or `"unknown"`.
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host facts that decide whether a run's numbers may be compared.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available to this process.
    pub nproc: usize,
    /// Filesystem type of the scratch directory.
    pub scratch_fs: String,
}

impl Host {
    /// Probes the host.
    pub fn probe(scratch: &Path) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            scratch_fs: fs_type(scratch),
        }
    }

    /// Why numbers from this host must not be compared, if any reason:
    /// with one core the pool's two workers time-share it, and on tmpfs
    /// the file tier is a memory copy.
    pub fn not_comparable(&self) -> Option<String> {
        if self.nproc < 2 {
            Some(format!("nproc = {} < 2", self.nproc))
        } else if self.scratch_fs == "tmpfs" || self.scratch_fs == "ramfs" {
            Some(format!("scratch directory is on {}", self.scratch_fs))
        } else {
            None
        }
    }

    /// The header a results file is stamped with: these facts plus the
    /// rustc version and the git sha (`unknown` outside a git checkout).
    pub fn stamp(&self) -> Vec<(String, Value)> {
        let entry = |key: &str, text: String| (key.to_string(), Value::Str(text));
        vec![
            ("nproc".to_string(), Value::Num(self.nproc as f64)),
            entry("scratch_fs", self.scratch_fs.clone()),
            entry("rustc", first_line_of("rustc", &["--version"])),
            entry("git_sha", first_line_of("git", &["rev-parse", "HEAD"])),
            entry("zo_threads", THREADS.to_string()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MOUNTINFO: &str = "\
22 1 254:0 / / rw,relatime - ext4 /dev/vda rw
30 22 0:25 / /tmp rw,nosuid - tmpfs tmpfs rw
31 22 0:26 / /tmp/disk rw - xfs /dev/vdb rw
";

    #[test]
    fn longest_mount_point_wins() {
        let fs = |p: &str| fs_type_in(MOUNTINFO, Path::new(p)).unwrap();
        assert_eq!(fs("/root/repo/bench/out"), "ext4");
        assert_eq!(fs("/tmp/x"), "tmpfs");
        assert_eq!(fs("/tmp/disk/x"), "xfs");
        // A path that merely shares a prefix string is not under the mount.
        assert_eq!(fs("/tmpfoo"), "ext4");
    }

    #[test]
    fn one_core_or_tmpfs_is_not_comparable() {
        let host = |nproc, fs: &str| Host {
            nproc,
            scratch_fs: fs.to_string(),
        };
        assert!(host(2, "ext4").not_comparable().is_none());
        assert!(host(1, "ext4").not_comparable().is_some());
        assert!(host(8, "tmpfs").not_comparable().is_some());
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/scratch-self-test");
        let dir = {
            let scratch = Scratch::create(&base).unwrap();
            std::fs::write(scratch.path().join("f"), b"x").unwrap();
            scratch.path().to_path_buf()
        };
        assert!(!dir.exists());
        std::fs::remove_dir_all(&base).unwrap();
    }
}
