//! Property-based tests for optimizer invariants.

use proptest::prelude::*;
use zo_optim::{
    adam_element, adam_reference_step, AdamParams, AdamState, CpuAdam, CpuAdamConfig,
    DelayedUpdate, DpuAction, NaiveAdam,
};

fn grads_strategy(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1.0f32..1.0, n..=n)
}

proptest! {
    /// CpuAdam equals the scalar reference bit-for-bit under arbitrary
    /// gradients, thread counts, and tile widths.
    #[test]
    fn cpu_adam_bitwise_reference(
        g1 in grads_strategy(67),
        g2 in grads_strategy(67),
        threads in 1usize..5,
        tile in 1usize..100,
    ) {
        let hp = AdamParams::default();
        let cfg = CpuAdamConfig { hp, num_threads: threads, tile_width: tile };
        let mut fast = CpuAdam::new(cfg, 67);
        let mut st = AdamState::new(67);
        let mut p_fast = vec![0.3f32; 67];
        let mut p_ref = vec![0.3f32; 67];
        for g in [&g1, &g2] {
            fast.step(&mut p_fast, g).unwrap();
            adam_reference_step(&hp, &mut st, &mut p_ref, g).unwrap();
        }
        prop_assert_eq!(p_fast, p_ref);
    }

    /// The pool-parallel Adam path is bit-identical to single-threaded for
    /// a problem large enough that every thread count in {1,2,3,7} actually
    /// partitions (n >= BLOCK·threads engages the parallel path).
    #[test]
    fn parallel_adam_bit_identical_to_serial(
        seed in 0u64..500,
        steps in 1usize..4,
    ) {
        let n = zo_optim::BLOCK * 7 + 13; // past the widest threshold
        let hp = AdamParams::default();
        let grads: Vec<Vec<f32>> = (0..steps)
            .map(|s| {
                (0..n)
                    .map(|i| {
                        let x = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(((s * n + i) as u64).wrapping_mul(1442695040888963407));
                        ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5
                    })
                    .collect()
            })
            .collect();
        let run = |threads: usize| {
            let cfg = CpuAdamConfig { hp, num_threads: threads, tile_width: 1000 };
            let mut opt = CpuAdam::new(cfg, n);
            let mut p = vec![0.25f32; n];
            for g in &grads {
                opt.step(&mut p, g).unwrap();
            }
            p
        };
        let serial = run(1);
        for threads in [2usize, 3, 7] {
            prop_assert_eq!(&run(threads), &serial, "threads={}", threads);
        }
    }

    /// `adam_element` (fp32, separate multiplies and adds) tracks the same
    /// recurrence evaluated in f64 from the same inputs, to within a few
    /// fp32 roundings of each result's summed term magnitudes — for any
    /// hyper-parameters, either weight-decay mode and steps 1…10⁴.
    #[test]
    fn adam_element_tracks_f64_reference(
        lr in 1e-5f32..0.1,
        // From 0.5 up, `1 - beta` is exact in fp32 (Sterbenz), so the f64
        // reference sees the very coefficients the fp32 kernel uses.
        beta1 in 0.5f32..0.99,
        beta2 in 0.9f32..0.9999,
        eps in 1e-10f32..1e-6,
        weight_decay in prop::sample::select(vec![0.0f32, 1e-4, 0.01, 0.1]),
        decoupled in prop::sample::select(vec![false, true]),
        t in 1u64..=10_000,
        seed in 0u64..=u64::MAX,
    ) {
        let hp = AdamParams {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            decoupled_weight_decay: decoupled,
        };
        let (bc1, bc2) = hp.bias_corrections(t);
        let mut x = seed | 1;
        let mut unit = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 40) as f32 / (1u64 << 24) as f32
        };
        let tol = 8.0 * f32::EPSILON as f64;
        for _ in 0..64 {
            let (p0, g0) = (unit() * 4.0 - 2.0, unit() * 2.0 - 1.0);
            let (m0, v0) = (unit() * 2.0 - 1.0, unit() * unit());
            let (mut p, mut m, mut v) = (p0, m0, v0);
            adam_element(&hp, bc1, bc2, &mut p, g0, &mut m, &mut v);

            let (b1, b2) = (beta1 as f64, beta2 as f64);
            let wd = weight_decay as f64;
            let (p0, m0, v0) = (p0 as f64, m0 as f64, v0 as f64);
            let mut g = g0 as f64;
            let mut g_mag = g.abs();
            if wd != 0.0 && !decoupled {
                g += wd * p0;
                g_mag += (wd * p0).abs();
            }
            let m_ref = g * (1.0 - b1) + b1 * m0;
            let m_mag = g_mag * (1.0 - b1) + (b1 * m0).abs();
            let v_ref = g * g * (1.0 - b2) + b2 * v0;
            let v_mag = g_mag * g_mag * (1.0 - b2) + b2 * v0;
            let d = v_ref.sqrt() * bc2 as f64 + eps as f64;
            let mut p_ref = p0 + bc1 as f64 * (m_ref / d);
            // `d` inherits v's relative error, which exceeds a rounding
            // only where coupled decay cancels the gradient.
            let v_cancel = if v_ref > 0.0 { v_mag / v_ref } else { 1.0 };
            let mut p_mag = p0.abs() + (bc1 as f64).abs() * m_mag / d * (1.0 + v_cancel);
            if decoupled && wd != 0.0 {
                p_ref -= lr as f64 * wd * p_ref;
                p_mag *= 1.0 + lr as f64 * wd;
            }
            prop_assert!((m as f64 - m_ref).abs() <= tol * m_mag, "m {m} vs {m_ref}");
            prop_assert!((v as f64 - v_ref).abs() <= tol * v_mag, "v {v} vs {v_ref}");
            prop_assert!(
                (p as f64 - p_ref).abs() <= tol * p_mag,
                "p {p} vs {p_ref} (t={t})"
            );
        }
    }

    /// Naive (op-by-op) Adam tracks the reference within a tight bound.
    #[test]
    fn naive_adam_close_to_reference(g in grads_strategy(33)) {
        let hp = AdamParams::default();
        let mut naive = NaiveAdam::new(hp, 33);
        let mut st = AdamState::new(33);
        let mut p_naive = vec![-0.2f32; 33];
        let mut p_ref = vec![-0.2f32; 33];
        naive.step(&mut p_naive, &g).unwrap();
        adam_reference_step(&hp, &mut st, &mut p_ref, &g).unwrap();
        for (a, b) in p_naive.iter().zip(&p_ref) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// An Adam step never moves a parameter by more than ~lr (bias
    /// correction keeps the per-step displacement bounded, eps aside).
    #[test]
    fn adam_step_size_bounded(g in grads_strategy(16), lr in 1e-4f32..0.1) {
        let hp = AdamParams { lr, ..AdamParams::default() };
        let mut st = AdamState::new(16);
        let mut p = vec![0.0f32; 16];
        let before = p.clone();
        adam_reference_step(&hp, &mut st, &mut p, &g).unwrap();
        for (a, b) in p.iter().zip(&before) {
            // First-step |update| <= lr * |m-hat| / (|v-hat|^0.5) ~= lr.
            prop_assert!((a - b).abs() <= lr * 1.01 + 1e-7);
        }
    }

    /// DPU total gradient mass is conserved: after flush, the sequence of
    /// applied updates equals the eager sequence applied one step later.
    #[test]
    fn dpu_applies_every_gradient_exactly_once(
        steps in 1usize..8,
        warmup in 0u64..4,
        seed in 0u32..100,
    ) {
        let n = 5;
        let make = || CpuAdam::new(CpuAdamConfig::default(), n);
        let grads: Vec<Vec<f32>> = (0..steps)
            .map(|s| {
                (0..n)
                    .map(|i| (((seed as usize + s * 7 + i * 13) % 19) as f32 - 9.0) * 0.05)
                    .collect()
            })
            .collect();
        // DPU run + flush.
        let mut dpu = DelayedUpdate::new(make(), warmup);
        let mut p_dpu = vec![1.0f32; n];
        for g in &grads {
            dpu.step(&mut p_dpu, g).unwrap();
        }
        dpu.flush(&mut p_dpu).unwrap();
        // Eager run.
        let mut plain = make();
        let mut p_plain = vec![1.0f32; n];
        for g in &grads {
            plain.step(&mut p_plain, g).unwrap();
        }
        prop_assert_eq!(p_dpu, p_plain);
    }

    /// The DPU action sequence is Immediate^warmup, Skipped, Delayed*.
    #[test]
    fn dpu_action_grammar(steps in 1usize..10, warmup in 0u64..5) {
        let mut dpu = DelayedUpdate::new(CpuAdam::new(CpuAdamConfig::default(), 1), warmup);
        let mut p = vec![0.0f32];
        for i in 0..steps {
            let action = dpu.step(&mut p, &[0.1]).unwrap();
            let expected = if (i as u64) < warmup {
                DpuAction::Immediate
            } else if i as u64 == warmup {
                DpuAction::Skipped
            } else {
                DpuAction::Delayed
            };
            prop_assert_eq!(action, expected, "step {}", i);
        }
    }

    /// Momentum/variance stay finite and variance non-negative for any
    /// bounded gradient stream.
    #[test]
    fn state_stays_well_formed(gs in prop::collection::vec(grads_strategy(8), 1..6)) {
        let mut opt = CpuAdam::new(CpuAdamConfig::default(), 8);
        let mut p = vec![0.5f32; 8];
        for g in &gs {
            opt.step(&mut p, g).unwrap();
        }
        for (&m, &v) in opt.state().m.iter().zip(&opt.state().v) {
            prop_assert!(m.is_finite());
            prop_assert!(v.is_finite() && v >= 0.0);
        }
        prop_assert!(p.iter().all(|x| x.is_finite()));
    }
}
