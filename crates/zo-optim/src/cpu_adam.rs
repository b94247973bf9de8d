//! Optimized CPU-Adam (paper Sec. 5.1, Algorithm 1).
//!
//! The paper accelerates the CPU optimizer with three levels of parallelism
//! plus a tiled copy-back:
//!
//! 1. **SIMD and unrolling** — the paper hand-writes AVX512 intrinsics and
//!    autotunes the unroll width; here [`adam_range`] is one straight loop
//!    of separate multiplies and adds over four zipped slices, which the
//!    loop vectorizer turns into packed `mulps`/`addps`/`sqrtps`/`divps`
//!    on the baseline x86-64 target and unrolls itself. (`f32::mul_add`
//!    must stay out of it: without a guaranteed FMA unit it lowers to a
//!    libm `fmaf` call per element, and the call blocks vectorization.)
//! 2. **Multithreading** — contiguous chunk parallelism submitted to the
//!    persistent shared worker pool ([`zo_tensor::pool`], the OMP analog).
//!    Workers are spawned once per process, not per step or per tile, so
//!    the per-tile dispatch cost is a queue push instead of a clone+spawn;
//! 3. **Tiling** — the parameter buffer is processed in tiles and a
//!    callback fires after each tile, so the engine can overlap the PCIe
//!    copy of tile *k* with the Adam math of tile *k+1* (Algorithm 1
//!    line 15);
//! 4. **One trip through memory** — inside a tile the update walks
//!    [`BLOCK`]-element blocks: fp16 gradients are widened into a stack
//!    scratch, the block is updated, and the fresh parameters are narrowed
//!    to fp16 while the block is still cache-resident, instead of a second
//!    pass over the whole tile.
//!
//! All variants compute the exact recurrence of
//! [`adam_element`](crate::adam::adam_element), and both fp16 codecs are
//! element-independent, so results are bit-identical to the scalar
//! reference regardless of thread count, tile width or block boundaries.

use zo_tensor::F16;

use crate::adam::{adam_element, AdamParams, AdamState};
use crate::error::OptimError;

/// Elements per cache-resident block of the fused update: the four fp32
/// streams, the widened-gradient scratch and the fp16 output of one block
/// total 22 KiB, inside L1.
pub const BLOCK: usize = 1024;

/// Configuration for [`CpuAdam`].
#[derive(Debug, Clone, Copy)]
pub struct CpuAdamConfig {
    /// Adam hyper-parameters.
    pub hp: AdamParams,
    /// Worker threads used inside each tile (1 = single-threaded).
    pub num_threads: usize,
    /// Elements per tile for the overlapped copy-back. Must be non-zero.
    pub tile_width: usize,
}

impl Default for CpuAdamConfig {
    fn default() -> CpuAdamConfig {
        CpuAdamConfig {
            hp: AdamParams::default(),
            num_threads: 1,
            // 2M elements (8 MB fp32) per tile: large enough to amortize
            // the copy launch, small enough to overlap meaningfully.
            tile_width: 2 * 1024 * 1024,
        }
    }
}

/// High-performance CPU Adam with tiled fp16 copy-back.
///
/// # Examples
///
/// ```
/// use zo_optim::{AdamParams, CpuAdam, CpuAdamConfig};
///
/// let cfg = CpuAdamConfig { hp: AdamParams { lr: 0.1, ..Default::default() }, ..Default::default() };
/// let mut opt = CpuAdam::new(cfg, 4);
/// let mut p = vec![1.0f32; 4];
/// opt.step(&mut p, &[0.5; 4]).unwrap();
/// assert!(p.iter().all(|&x| x < 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct CpuAdam {
    cfg: CpuAdamConfig,
    state: AdamState,
}

/// The inner kernel over one contiguous range.
///
/// `hp`, `bc1` and `bc2` are loop-invariant, so the compiler hoists
/// `1 - beta` and unswitches the weight-decay mode once per call; what
/// remains is a branch-free loop over four zipped slices that vectorizes.
///
/// Public so that external tiled optimizers (the memory-tier streaming
/// path in `zero-offload`) can run the *exact* recurrence [`CpuAdam`]
/// runs over one tile — bit-identity between the tiered and resident
/// optimizers depends on sharing this kernel, not reimplementing it.
pub fn adam_range(
    hp: &AdamParams,
    bc1: f32,
    bc2: f32,
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
) {
    let n = p.len();
    assert!(
        g.len() == n && m.len() == n && v.len() == n,
        "adam_range slices must have equal lengths"
    );
    for (((pi, gi), mi), vi) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        adam_element(hp, bc1, bc2, pi, *gi, mi, vi);
    }
}

/// Where one update's gradients come from.
#[derive(Clone, Copy)]
enum Grads<'a> {
    /// Host fp32 gradients.
    F32(&'a [f32]),
    /// fp16 gradients as they arrive over PCIe, widened per block.
    F16(&'a [F16]),
}

impl<'a> Grads<'a> {
    fn len(&self) -> usize {
        match self {
            Grads::F32(g) => g.len(),
            Grads::F16(g) => g.len(),
        }
    }

    fn slice(self, range: core::ops::Range<usize>) -> Grads<'a> {
        match self {
            Grads::F32(g) => Grads::F32(&g[range]),
            Grads::F16(g) => Grads::F16(&g[range]),
        }
    }
}

/// [`adam_range`] over `BLOCK`-element blocks with the fp16 edges fused
/// in: each block's fp16 gradients are widened just before its update and
/// its updated parameters narrowed into `p16` just after, while the block
/// is in cache.
#[allow(clippy::too_many_arguments)]
fn adam_blocks(
    hp: &AdamParams,
    bc1: f32,
    bc2: f32,
    p: &mut [f32],
    g: Grads<'_>,
    m: &mut [f32],
    v: &mut [f32],
    mut p16: Option<&mut [F16]>,
) {
    let mut widened = [0.0f32; BLOCK];
    let mut start = 0;
    while start < p.len() {
        let end = (start + BLOCK).min(p.len());
        let g32 = match g.slice(start..end) {
            Grads::F32(g) => g,
            Grads::F16(g) => {
                let w = &mut widened[..g.len()];
                F16::to_f32_slice(g, w);
                &*w
            }
        };
        let pb = &mut p[start..end];
        adam_range(
            hp,
            bc1,
            bc2,
            pb,
            g32,
            &mut m[start..end],
            &mut v[start..end],
        );
        if let Some(p16) = p16.as_deref_mut() {
            F16::from_f32_slice(pb, &mut p16[start..end]);
        }
        start = end;
    }
}

/// Splits the parallel slices into `threads` contiguous chunks and runs
/// [`adam_blocks`] on each chunk concurrently via the shared worker pool.
///
/// The chunk boundaries depend only on `(n, threads)` and every element's
/// recurrence is independent, so results are bit-identical to the serial
/// path for any chunk count and any pool size. No OS threads are created
/// here: the chunks are queued to [`zo_tensor::pool::global`]'s
/// persistent workers (or run inline on a 1-thread pool).
#[allow(clippy::too_many_arguments)]
fn adam_blocks_parallel(
    hp: &AdamParams,
    bc1: f32,
    bc2: f32,
    threads: usize,
    p: &mut [f32],
    g: Grads<'_>,
    m: &mut [f32],
    v: &mut [f32],
    p16: Option<&mut [F16]>,
) {
    let n = p.len();
    if threads <= 1 || n < BLOCK * threads {
        adam_blocks(hp, bc1, bc2, p, g, m, v, p16);
        return;
    }
    let ranges = zo_tensor::pool::partition(n, threads);
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(ranges.len());
    let mut p_rest = p;
    let mut m_rest = m;
    let mut v_rest = v;
    let mut p16_rest = p16;
    for range in ranges {
        let take = range.len();
        let (p_head, p_tail) = p_rest.split_at_mut(take);
        let g_head = g.slice(range);
        let (m_head, m_tail) = m_rest.split_at_mut(take);
        let (v_head, v_tail) = v_rest.split_at_mut(take);
        let (p16_head, p16_tail) = p16_rest.map(|h| h.split_at_mut(take)).unzip();
        tasks.push(Box::new(move || {
            adam_blocks(hp, bc1, bc2, p_head, g_head, m_head, v_head, p16_head)
        }));
        p_rest = p_tail;
        m_rest = m_tail;
        v_rest = v_tail;
        p16_rest = p16_tail;
    }
    zo_tensor::pool::global().run(tasks);
}

impl CpuAdam {
    /// Creates an optimizer for `n` parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.tile_width == 0` or `cfg.num_threads == 0`.
    pub fn new(cfg: CpuAdamConfig, n: usize) -> CpuAdam {
        assert!(cfg.tile_width > 0, "tile_width must be non-zero");
        assert!(cfg.num_threads > 0, "num_threads must be non-zero");
        CpuAdam {
            cfg,
            state: AdamState::new(n),
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &CpuAdamConfig {
        &self.cfg
    }

    /// Returns the optimizer state.
    pub fn state(&self) -> &AdamState {
        &self.state
    }

    /// Completed step count.
    pub fn step_count(&self) -> u64 {
        self.state.step
    }

    /// Replaces the optimizer state (checkpoint restore).
    ///
    /// Returns [`OptimError::StateMismatch`] if the state covers a
    /// different parameter count.
    pub fn load_state(&mut self, state: AdamState) -> Result<(), OptimError> {
        if state.len() != self.state.len() {
            return Err(OptimError::StateMismatch {
                state: self.state.len(),
                given: state.len(),
            });
        }
        self.state = state;
        Ok(())
    }

    /// Overwrites this optimizer's state with `other`'s in place, without
    /// allocating (how a scratch optimizer is refreshed from a live one).
    ///
    /// # Panics
    ///
    /// Panics if the two optimizers cover different parameter counts.
    pub fn copy_state_from(&mut self, other: &CpuAdam) {
        self.state.m.copy_from_slice(&other.state.m);
        self.state.v.copy_from_slice(&other.state.v);
        self.state.step = other.state.step;
    }

    /// One Adam step over fp32 parameters and gradients.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) -> Result<(), OptimError> {
        self.step_with_tiles(params, grads, |_, _| {})
    }

    /// One Adam step that also maintains an fp16 mirror of the parameters.
    ///
    /// Each block is cast to fp16 into `p16` right after its update — the
    /// software analog of Algorithm 1's `Copy_to_GPU` on line 15.
    pub fn step_mixed(
        &mut self,
        params: &mut [f32],
        grads: &[f32],
        p16: &mut [F16],
    ) -> Result<(), OptimError> {
        self.step_tiles(params, Grads::F32(grads), Some(p16), |_, _| {})
    }

    /// One Adam step taking fp16 gradients (as they arrive over PCIe).
    ///
    /// Gradients are widened block-by-block; parameters are mirrored to
    /// fp16 exactly as in [`CpuAdam::step_mixed`].
    pub fn step_fp16_grads(
        &mut self,
        params: &mut [f32],
        grads: &[F16],
        p16: &mut [F16],
    ) -> Result<(), OptimError> {
        self.step_tiles(params, Grads::F16(grads), Some(p16), |_, _| {})
    }

    /// One Adam step with a per-tile callback for copy-back overlap.
    ///
    /// `on_tile(offset, updated)` fires after the Adam math of each tile
    /// finishes; the engine uses it to enqueue the async fp16 copy of that
    /// tile while this call proceeds to the next tile.
    pub fn step_with_tiles(
        &mut self,
        params: &mut [f32],
        grads: &[f32],
        on_tile: impl FnMut(usize, &[f32]),
    ) -> Result<(), OptimError> {
        self.step_tiles(params, Grads::F32(grads), None, on_tile)
    }

    /// The tile loop behind every public step.
    fn step_tiles(
        &mut self,
        params: &mut [f32],
        grads: Grads<'_>,
        mut p16: Option<&mut [F16]>,
        mut on_tile: impl FnMut(usize, &[f32]),
    ) -> Result<(), OptimError> {
        let n = params.len();
        self.state.check_lens(n, grads.len())?;
        if let Some(p16) = &p16 {
            if p16.len() != n {
                return Err(OptimError::OutputMismatch {
                    expected: n,
                    actual: p16.len(),
                });
            }
        }
        self.state.step += 1;
        let (bc1, bc2) = self.cfg.hp.bias_corrections(self.state.step);
        let tile = self.cfg.tile_width;
        let mut offset = 0;
        while offset < n {
            let end = (offset + tile).min(n);
            adam_blocks_parallel(
                &self.cfg.hp,
                bc1,
                bc2,
                self.cfg.num_threads,
                &mut params[offset..end],
                grads.slice(offset..end),
                &mut self.state.m[offset..end],
                &mut self.state.v[offset..end],
                p16.as_deref_mut().map(|h| &mut h[offset..end]),
            );
            on_tile(offset, &params[offset..end]);
            offset = end;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::adam_reference_step;

    fn seeded(n: usize, scale: f32, seed: u32) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * scale
            })
            .collect()
    }

    #[test]
    fn bitwise_equal_to_reference() {
        // Unrolling, tiling, and threading must not change a single bit.
        for &(threads, tile) in &[
            (1usize, 7usize),
            (1, 1000),
            (2, 500),
            (4, 33),
            (3, 64),
            (7, 129),
        ] {
            let cfg = CpuAdamConfig {
                hp: AdamParams {
                    lr: 0.01,
                    weight_decay: 0.02,
                    ..AdamParams::default()
                },
                num_threads: threads,
                tile_width: tile,
            };
            let n = 501;
            let mut p_fast = seeded(n, 2.0, 11);
            let mut p_ref = p_fast.clone();
            let mut fast = CpuAdam::new(cfg, n);
            let mut st = AdamState::new(n);
            for step in 0..5 {
                let g = seeded(n, 0.3, 200 + step);
                fast.step(&mut p_fast, &g).unwrap();
                adam_reference_step(&cfg.hp, &mut st, &mut p_ref, &g).unwrap();
            }
            assert_eq!(p_fast, p_ref, "threads={threads} tile={tile}");
            assert_eq!(fast.state().m, st.m);
            assert_eq!(fast.state().v, st.v);
        }
    }

    #[test]
    fn tiles_cover_whole_range_exactly_once() {
        let cfg = CpuAdamConfig {
            tile_width: 10,
            ..CpuAdamConfig::default()
        };
        let n = 35;
        let mut opt = CpuAdam::new(cfg, n);
        let mut p = vec![0.0f32; n];
        let mut seen = vec![0u8; n];
        let mut offsets = Vec::new();
        opt.step_with_tiles(&mut p, &vec![1.0; n], |off, tile| {
            offsets.push((off, tile.len()));
            for s in &mut seen[off..off + tile.len()] {
                *s += 1;
            }
        })
        .unwrap();
        assert!(seen.iter().all(|&c| c == 1));
        assert_eq!(offsets, vec![(0, 10), (10, 10), (20, 10), (30, 5)]);
    }

    #[test]
    fn step_mixed_keeps_fp16_mirror_in_sync() {
        let mut opt = CpuAdam::new(CpuAdamConfig::default(), 64);
        let mut p = seeded(64, 1.0, 3);
        let mut p16 = vec![F16::ZERO; 64];
        let g = seeded(64, 0.1, 4);
        opt.step_mixed(&mut p, &g, &mut p16).unwrap();
        for (h, f) in p16.iter().zip(&p) {
            assert_eq!(h.to_bits(), F16::from_f32(*f).to_bits());
        }
    }

    #[test]
    fn fp16_gradient_path() {
        let mut opt = CpuAdam::new(CpuAdamConfig::default(), 16);
        let mut p = vec![1.0f32; 16];
        let g16: Vec<F16> = (0..16)
            .map(|i| F16::from_f32(0.1 * (i as f32 + 1.0)))
            .collect();
        let mut p16 = vec![F16::ZERO; 16];
        opt.step_fp16_grads(&mut p, &g16, &mut p16).unwrap();
        assert!(p.iter().all(|&x| x < 1.0));
        // Equivalent to widening manually and calling step_mixed.
        let mut opt2 = CpuAdam::new(CpuAdamConfig::default(), 16);
        let mut p2 = vec![1.0f32; 16];
        let g32: Vec<f32> = g16.iter().map(|h| h.to_f32()).collect();
        let mut p16b = vec![F16::ZERO; 16];
        opt2.step_mixed(&mut p2, &g32, &mut p16b).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn fused_fp16_edges_match_separate_passes_across_block_boundaries() {
        // Lengths around the block and thread-partition boundaries: the
        // per-block widen/narrow must equal whole-buffer casts bit for bit.
        for &n in &[1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
            for &threads in &[1usize, 3] {
                let cfg = CpuAdamConfig {
                    num_threads: threads,
                    tile_width: 2 * BLOCK + 5,
                    ..CpuAdamConfig::default()
                };
                let g16: Vec<F16> = seeded(n, 0.5, 9).into_iter().map(F16::from_f32).collect();
                let g32: Vec<f32> = g16.iter().map(|h| h.to_f32()).collect();
                let mut fused = CpuAdam::new(cfg, n);
                let mut plain = CpuAdam::new(cfg, n);
                let mut p_fused = seeded(n, 2.0, 5);
                let mut p_plain = p_fused.clone();
                let mut p16 = vec![F16::ZERO; n];
                for _ in 0..3 {
                    fused.step_fp16_grads(&mut p_fused, &g16, &mut p16).unwrap();
                    plain.step(&mut p_plain, &g32).unwrap();
                }
                assert_eq!(p_fused, p_plain, "n={n} threads={threads}");
                let expect: Vec<u16> = p_plain
                    .iter()
                    .map(|&x| F16::from_f32(x).to_bits())
                    .collect();
                let got: Vec<u16> = p16.iter().map(|h| h.to_bits()).collect();
                assert_eq!(got, expect, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn output_length_validated() {
        let mut opt = CpuAdam::new(CpuAdamConfig::default(), 4);
        let mut p = vec![0.0f32; 4];
        let mut p16 = vec![F16::ZERO; 3];
        assert!(matches!(
            opt.step_mixed(&mut p, &[0.0; 4], &mut p16),
            Err(OptimError::OutputMismatch { .. })
        ));
        assert!(opt
            .step_fp16_grads(&mut p, &[F16::ZERO; 5], &mut [F16::ZERO; 4])
            .is_err());
    }

    #[test]
    #[should_panic(expected = "tile_width")]
    fn zero_tile_width_panics() {
        CpuAdam::new(
            CpuAdamConfig {
                tile_width: 0,
                ..CpuAdamConfig::default()
            },
            1,
        );
    }

    #[test]
    fn converges_on_rosenbrock_like_quadratic() {
        let cfg = CpuAdamConfig {
            hp: AdamParams {
                lr: 0.05,
                ..AdamParams::default()
            },
            ..CpuAdamConfig::default()
        };
        let mut opt = CpuAdam::new(cfg, 2);
        let mut p = vec![4.0f32, -3.0];
        for _ in 0..800 {
            // f = 0.5*(p0^2 + 10*p1^2), grad = (p0, 10*p1).
            let g = vec![p[0], 10.0 * p[1]];
            opt.step(&mut p, &g).unwrap();
        }
        assert!(p[0].abs() < 0.05 && p[1].abs() < 0.05, "p = {p:?}");
    }
}
