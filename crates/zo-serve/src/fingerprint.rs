//! Trajectory fingerprints over job runs.
//!
//! FNV-1a over each step's loss bit pattern, then the final fp32 master
//! parameters. This is the workspace's one copy of the hash: a job's
//! [`crate::JobReport`] carries it, and `zo_bench::trajectory` computes
//! the pinned trajectory fingerprint with the same function, so a job
//! that replays the pinned run reports exactly the pinned value
//! (`tests/multi_job.rs` checks that).

/// FNV-1a over a byte stream: stable, dependency-free, order-sensitive.
struct Fnv(u64);

impl Fnv {
    /// Creates a hasher with the standard FNV-1a offset basis.
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    /// Absorbs `bytes` into the hash.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// The current hash value.
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The job trajectory fingerprint: per-step loss bits in step order, then
/// the final full master parameters (all shards concatenated in rank
/// order) bit by bit.
pub fn fingerprint_run(losses: &[f32], master: &[f32]) -> u64 {
    let mut h = Fnv::new();
    for loss in losses {
        h.write(&loss.to_bits().to_le_bytes());
    }
    for p in master {
        h.write(&p.to_bits().to_le_bytes());
    }
    h.finish()
}
