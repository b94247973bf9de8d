//! IEEE 754 binary16 ("half precision") implemented from scratch.
//!
//! ZeRO-Offload's offload strategy is defined in terms of fp16 model states
//! (parameters and gradients) versus fp32 optimizer states, so the library
//! needs a real 16-bit storage type: GPU-resident parameters and the
//! gradients streamed over the (simulated) PCIe link are stored as [`F16`],
//! while master parameters, momentum and variance stay `f32`.
//!
//! Conversions implement round-to-nearest-even, gradual underflow to
//! subnormals, and NaN/infinity propagation, matching the semantics of
//! hardware `float2half` that the paper's tiled copy-back relies on.

use core::cmp::Ordering;
use core::fmt;

/// A 16-bit IEEE 754 binary16 floating point number.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
/// Arithmetic is performed by widening to `f32`, which is exact for every
/// representable `F16` value.
///
/// # Examples
///
/// ```
/// use zo_tensor::F16;
///
/// let x = F16::from_f32(1.5);
/// assert_eq!(x.to_f32(), 1.5);
/// assert_eq!(F16::from_f32(65_520.0), F16::INFINITY); // overflow rounds up
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct F16(pub u16);

const MAN_BITS: u32 = 10;
const EXP_BIAS: i32 = 15;
const SIGN_MASK: u16 = 0x8000;
const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, -65504.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, 2^-24.
    pub const MIN_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon, 2^-10.
    pub const EPSILON: F16 = F16(0x1400);

    /// Creates an `F16` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to `F16` with round-to-nearest-even.
    ///
    /// Values above the finite range become infinities; tiny values flush
    /// gradually through the subnormal range to (signed) zero.
    #[inline]
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN: preserve NaN payload top bits, force quiet.
            return if man == 0 {
                F16(sign | EXP_MASK)
            } else {
                F16(sign | EXP_MASK | 0x0200 | ((man >> 13) as u16 & MAN_MASK))
            };
        }

        // Unbiased exponent of the f32 value.
        let unbiased = exp - 127;
        let half_exp = unbiased + EXP_BIAS;

        if half_exp >= 0x1F {
            // Overflow to infinity.
            return F16(sign | EXP_MASK);
        }

        if half_exp <= 0 {
            // Subnormal or zero. The implicit leading 1 must be made
            // explicit, then the mantissa is shifted right by the exponent
            // deficit with round-to-nearest-even.
            if half_exp < -10 {
                // Too small even for the largest shift: signed zero.
                return F16(sign);
            }
            let man = man | 0x0080_0000; // Make the leading 1 explicit.
            let shift = (14 - half_exp) as u32; // In [14, 24].
            let halfway = 1u32 << (shift - 1);
            let mut out = (man >> shift) as u16;
            let rem = man & ((1 << shift) - 1);
            match rem.cmp(&halfway) {
                Ordering::Greater => out += 1,
                Ordering::Equal => out += out & 1, // Ties to even.
                Ordering::Less => {}
            }
            return F16(sign | out);
        }

        // Normal range: round the 23-bit mantissa to 10 bits.
        let mut out = ((half_exp as u16) << MAN_BITS) | ((man >> 13) as u16);
        let rem = man & 0x1FFF;
        match rem.cmp(&0x1000) {
            Ordering::Greater => out += 1, // May carry into exponent: correct.
            Ordering::Equal => out += out & 1,
            Ordering::Less => {}
        }
        F16(sign | out)
    }

    /// Converts to `f32` exactly (every `F16` is representable in `f32`).
    #[inline]
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & SIGN_MASK) as u32) << 16;
        let exp = ((self.0 & EXP_MASK) >> MAN_BITS) as i32;
        let man = (self.0 & MAN_MASK) as u32;

        if exp == 0x1F {
            // Infinity or NaN.
            return f32::from_bits(sign | 0x7F80_0000 | (man << 13));
        }
        if exp == 0 {
            if man == 0 {
                return f32::from_bits(sign);
            }
            // Subnormal: value = man * 2^-24. With the highest set bit of
            // `man` at position p, the value is 2^(p-24) * 1.xxx, i.e. a
            // biased f32 exponent of 103 + p = 113 - shift.
            let shift = man.leading_zeros() - (31 - MAN_BITS);
            // Shift the leading 1 up to bit 11, drop it, and keep the
            // 11 remaining fraction bits; f32 needs them at bits 12..23.
            let frac = (man << (shift + 1)) & 0x07FF;
            let exp = (113 - shift as i32) as u32;
            return f32::from_bits(sign | (exp << 23) | (frac << 12));
        }
        let exp = (exp - EXP_BIAS + 127) as u32;
        f32::from_bits(sign | (exp << 23) | (man << 13))
    }

    /// Narrows a slice of `f32` into `F16`, bit-for-bit identical to
    /// [`F16::from_f32`] on every input (round-to-nearest-even, gradual
    /// underflow, quiet-NaN with preserved top payload bits).
    ///
    /// The scalar path branches four ways per element; this one runs a
    /// branchless bit-level conversion over fixed-width
    /// `CODEC_LANES`-element chunks with no bounds checks, so the
    /// autovectorizer can map the lanes onto vector registers. On an
    /// x86-64 CPU with F16C the conversion is the hardware's
    /// round-to-nearest-even `vcvtps2ph` instead, eight lanes per
    /// instruction and ≈ 5× faster than the portable lanes on the
    /// baseline (SSE2) code this workspace builds; it agrees with
    /// [`F16::from_f32`] on all 2^32 inputs (checked exhaustively once,
    /// and on a strided sweep in the unit tests). This is the hot edge of
    /// the simulated PCIe wire (D2H gradients narrow, updated parameters
    /// narrow back) — see [`cast_f32_to_f16`].
    pub fn from_f32_slice(src: &[f32], dst: &mut [F16]) {
        assert_eq!(src.len(), dst.len(), "cast length mismatch");
        #[cfg(target_arch = "x86_64")]
        if f16c::available() {
            // SAFETY: `available` confirmed the CPU supports AVX and F16C.
            unsafe { f16c::narrow(src, dst) };
            return;
        }
        narrow_portable(src, dst);
    }

    /// Widens a slice of `F16` into `f32`, bit-for-bit identical to
    /// [`F16::to_f32`] on every input (exact widening; NaN payloads —
    /// including the signaling bit — are preserved, which is why the
    /// conversion is integer arithmetic wherever a NaN can appear: routing
    /// a NaN through an x86 float multiply would quietly set its quiet
    /// bit). The portable path is one plain loop over `widen_bits`,
    /// which the autovectorizer maps onto vector registers; on an x86-64
    /// CPU with F16C, `vcvtph2ps` widens every eight-value chunk that
    /// holds no Inf or NaN (it would quiet a signaling NaN).
    pub fn to_f32_slice(src: &[F16], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "cast length mismatch");
        #[cfg(target_arch = "x86_64")]
        if f16c::available() {
            // SAFETY: `available` confirmed the CPU supports AVX and F16C.
            unsafe { f16c::widen(src, dst) };
            return;
        }
        widen_portable(src, dst);
    }

    /// Converts an `f64` by first narrowing to `f32`.
    #[inline]
    pub fn from_f64(value: f64) -> F16 {
        F16::from_f32(value as f32)
    }

    /// Widens to `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// Returns `true` if this value is NaN.
    #[inline]
    pub const fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) != 0
    }

    /// Returns `true` if this value is positive or negative infinity.
    #[inline]
    pub const fn is_infinite(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) == 0
    }

    /// Returns `true` if this value is neither infinite nor NaN.
    #[inline]
    pub const fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// Returns `true` if the value is subnormal (nonzero with zero exponent).
    #[inline]
    pub const fn is_subnormal(self) -> bool {
        (self.0 & EXP_MASK) == 0 && (self.0 & MAN_MASK) != 0
    }

    /// Returns `true` if the sign bit is set (including -0.0 and NaNs).
    #[inline]
    pub const fn is_sign_negative(self) -> bool {
        (self.0 & SIGN_MASK) != 0
    }

    /// Returns the absolute value.
    #[inline]
    pub const fn abs(self) -> F16 {
        F16(self.0 & !SIGN_MASK)
    }

    /// Returns the negation.
    #[inline]
    pub const fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

/// Chunk width of the slice codec's unrolled inner loops.
pub const CODEC_LANES: usize = 8;

/// Branchless `f32` → `f16` bit conversion, the slice-codec inner lane.
///
/// The magic-constant construction (after the FP16 library's
/// `fp16_ieee_from_fp32_value`): scaling by 2^112 then 2^-110 pushes the
/// value's rounding point to where binary16 truncates, so the hardware's
/// round-to-nearest-even does the rounding — including subnormal ties —
/// in two multiplies and an add. Exponent re-biasing falls out of adding
/// `exp_bits + mantissa_bits` (the carry is load-bearing: a mantissa that
/// rounds up past 2^10 must bump the exponent). The NaN arm mirrors the
/// scalar path exactly: quiet bit forced, top ten payload bits kept.
#[inline(always)]
fn narrow_bits(xb: u32) -> u16 {
    let sign = xb & 0x8000_0000;
    let abs_bits = xb & 0x7FFF_FFFF;
    let scale_to_inf = f32::from_bits(0x7780_0000); // 2^112
    let scale_to_zero = f32::from_bits(0x0880_0000); // 2^-110
    let base = (f32::from_bits(abs_bits) * scale_to_inf) * scale_to_zero;
    let shl1_w = abs_bits << 1;
    let bias = (shl1_w & 0xFF00_0000).max(0x7100_0000);
    let base = f32::from_bits((bias >> 1) + 0x0780_0000) + base;
    let bits = base.to_bits();
    let exp_bits = (bits >> 13) & 0x7C00;
    let mantissa_bits = bits & 0x0FFF;
    let nonsign = exp_bits + mantissa_bits;
    let r = if abs_bits > 0x7F80_0000 {
        0x7E00 | ((abs_bits >> 13) & MAN_MASK as u32)
    } else {
        nonsign
    };
    ((sign >> 16) | r) as u16
}

/// The portable slice narrow: [`narrow_bits`] over `CODEC_LANES`-element
/// chunks.
fn narrow_portable(src: &[f32], dst: &mut [F16]) {
    let mut s = src.chunks_exact(CODEC_LANES);
    let mut d = dst.chunks_exact_mut(CODEC_LANES);
    for (sb, db) in (&mut s).zip(&mut d) {
        for i in 0..CODEC_LANES {
            db[i] = F16(narrow_bits(sb[i].to_bits()));
        }
    }
    for (sv, dv) in s.remainder().iter().zip(d.into_remainder()) {
        *dv = F16(narrow_bits(sv.to_bits()));
    }
}

/// The portable slice widen: [`widen_bits`] per element.
fn widen_portable(src: &[F16], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = f32::from_bits(widen_bits(s.0));
    }
}

/// The hardware slice conversions on x86-64 CPUs with F16C.
///
/// `vcvtps2ph` with an explicit round-to-nearest-even immediate ignores
/// MXCSR's rounding mode; under the MXCSR state Rust leaves in place
/// (denormals-are-zero off) it keeps f32 subnormal inputs, produces fp16
/// subnormals, and turns a NaN into the quiet NaN that keeps the top ten
/// payload bits — exactly [`F16::from_f32`]'s rules.
#[cfg(target_arch = "x86_64")]
mod f16c {
    use core::arch::x86_64::{
        __m128i, _mm256_cvtph_ps, _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_storeu_ps,
        _mm_loadu_si128, _mm_storeu_si128, _MM_FROUND_TO_NEAREST_INT,
    };

    use super::F16;

    /// Whether this CPU has the AVX and F16C extensions [`narrow`] needs.
    pub(super) fn available() -> bool {
        std::is_x86_feature_detected!("avx") && std::is_x86_feature_detected!("f16c")
    }

    /// Narrows `src` into `dst` (equal lengths) eight lanes at a time.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX and F16C ([`available`]).
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn narrow(src: &[f32], dst: &mut [F16]) {
        let mut s = src.chunks_exact(8);
        let mut d = dst.chunks_exact_mut(8);
        for (sb, db) in (&mut s).zip(&mut d) {
            // SAFETY: `sb` holds 8 readable f32 (32 bytes) and `db` 8
            // writable `F16` (16 bytes, `repr(transparent)` over u16);
            // both intrinsics take unaligned pointers.
            unsafe {
                let v = _mm256_loadu_ps(sb.as_ptr());
                let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
                _mm_storeu_si128(db.as_mut_ptr().cast::<__m128i>(), h);
            }
        }
        super::narrow_portable(s.remainder(), d.into_remainder());
    }

    /// Widens `src` into `dst` (equal lengths) eight lanes at a time.
    /// `vcvtph2ps` is exact for every finite value, subnormals included,
    /// but quiets a signaling NaN, so a chunk holding an Inf or a NaN
    /// takes the portable path.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX and F16C ([`available`]).
    #[target_feature(enable = "avx,f16c")]
    pub(super) unsafe fn widen(src: &[F16], dst: &mut [f32]) {
        let mut s = src.chunks_exact(8);
        let mut d = dst.chunks_exact_mut(8);
        for (sb, db) in (&mut s).zip(&mut d) {
            if sb.iter().any(|h| h.0 & 0x7C00 == 0x7C00) {
                super::widen_portable(sb, db);
                continue;
            }
            // SAFETY: `sb` holds 8 readable `F16` (16 bytes,
            // `repr(transparent)` over u16) and `db` 8 writable f32 (32
            // bytes); both intrinsics take unaligned pointers.
            unsafe {
                let h = _mm_loadu_si128(sb.as_ptr().cast::<__m128i>());
                _mm256_storeu_ps(db.as_mut_ptr(), _mm256_cvtph_ps(h));
            }
        }
        super::widen_portable(s.remainder(), d.into_remainder());
    }
}

/// Branchless `f16` → `f32` bit conversion, the slice-codec inner lane.
///
/// Normal values, infinities and NaNs are pure integer re-biasing:
/// placing the f16 exponent-mantissa field at the f32 mantissa boundary
/// (`em << 13`) and adding 112 to the exponent lands on the exact value,
/// and Inf/NaN (f16 exponent 31) add another 112 to reach exponent 255
/// with the payload, signaling bit included, intact. Subnormals and zero
/// are `man · 2^-24`: an exact small integer times a power of two, so the
/// one float multiply never sees a subnormal operand — x86 cores take a
/// microcode assist of ~100 cycles per subnormal operand, which made the
/// former `f32-subnormal × 2^112` construction ≈ 15× slower on a payload
/// with many subnormal gradients.
#[inline(always)]
fn widen_bits(h: u16) -> u32 {
    let h = h as u32;
    let sign = (h & 0x8000) << 16;
    let em = h & 0x7FFF;
    let rebiased = (em << 13) + (112 << 23);
    let rebiased = if em >= 0x7C00 {
        rebiased + (112 << 23)
    } else {
        rebiased
    };
    let tiny = (em as i32 as f32 * f32::from_bits(0x3380_0000)).to_bits(); // · 2^-24
    sign | if em < 0x0400 { tiny } else { rebiased }
}

impl From<f32> for F16 {
    #[inline]
    fn from(v: f32) -> F16 {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    #[inline]
    fn from(v: F16) -> f32 {
        v.to_f32()
    }
}

impl PartialOrd for F16 {
    #[inline]
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl core::ops::Add for F16 {
    type Output = F16;
    #[inline]
    fn add(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl core::ops::Sub for F16 {
    type Output = F16;
    #[inline]
    fn sub(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl core::ops::Mul for F16 {
    type Output = F16;
    #[inline]
    fn mul(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl core::ops::Div for F16 {
    type Output = F16;
    #[inline]
    fn div(self, rhs: F16) -> F16 {
        F16::from_f32(self.to_f32() / rhs.to_f32())
    }
}

impl core::ops::Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

/// Casts a slice of `f32` into `F16` with round-to-nearest-even.
///
/// This is the `float2half` edge of the paper's data-flow graph (Fig. 2):
/// it is what the CPU-side optimizer runs before the tiled copy of updated
/// parameters back to the GPU. Delegates to the batched
/// [`F16::from_f32_slice`] codec, which is bit-identical to calling
/// [`F16::from_f32`] per element.
pub fn cast_f32_to_f16(src: &[f32], dst: &mut [F16]) {
    F16::from_f32_slice(src, dst);
}

/// Widens a slice of `F16` into `f32` exactly, via the batched
/// [`F16::to_f32_slice`] codec (bit-identical to per-element
/// [`F16::to_f32`]).
pub fn cast_f16_to_f32(src: &[F16], dst: &mut [f32]) {
    F16::to_f32_slice(src, dst);
}

/// [`cast_f16_to_f32`] split into `parts` contiguous ranges on `pool`
/// (bit-identical for every `parts`: each element widens on its own).
///
/// # Panics
///
/// Panics if `src.len() != dst.len()`.
pub fn cast_f16_to_f32_on(pool: &crate::Pool, parts: usize, src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen length mismatch");
    crate::pool::run_partitioned(pool, parts, src.len(), 1, dst, |range, out| {
        F16::to_f32_slice(&src[range], out)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_roundtrip() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_infinite());
    }

    #[test]
    fn simple_values() {
        for v in [0.5f32, 1.0, 1.5, 2.0, -3.25, 100.0, 1024.0, 0.099975586] {
            let h = F16::from_f32(v);
            assert_eq!(h.to_f32(), v, "value {v} should be exact in f16");
        }
    }

    #[test]
    fn rounding_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1.0009765625 (the
        // next representable value); ties-to-even keeps 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway), F16::ONE);
        // Slightly above the halfway point rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + 2.0f32.powi(-10));
        // 1 + 3*2^-11 is halfway between ulp 1 and ulp 2; even is ulp 2.
        let halfway2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(
            F16::from_f32(halfway2).to_f32(),
            1.0 + 2.0 * 2.0f32.powi(-10)
        );
    }

    #[test]
    fn overflow_and_underflow() {
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
        // 65520 is the rounding boundary; it rounds to infinity.
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        assert_eq!(F16::from_f32(65519.9), F16::MAX);
        assert_eq!(F16::from_f32(-65520.0), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(1e30), F16::INFINITY);
        // Below half the smallest subnormal: flush to zero, keeping sign.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)), F16::ZERO);
        assert_eq!(F16::from_f32(-2.0f32.powi(-26)), F16::NEG_ZERO);
        // Exactly halfway between 0 and the smallest subnormal → even (0).
        assert_eq!(F16::from_f32(2.0f32.powi(-25)), F16::ZERO);
    }

    #[test]
    fn subnormals() {
        let sub = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(sub), F16::MIN_SUBNORMAL);
        assert_eq!(F16::MIN_SUBNORMAL.to_f32(), sub);
        assert!(F16::MIN_SUBNORMAL.is_subnormal());
        // The largest subnormal: (2^10 - 1) * 2^-24.
        let big_sub = 1023.0 * 2.0f32.powi(-24);
        let h = F16::from_f32(big_sub);
        assert_eq!(h.to_f32(), big_sub);
        assert!(h.is_subnormal());
        // One ulp up is the smallest normal.
        assert_eq!(F16(h.0 + 1), F16::MIN_POSITIVE);
    }

    #[test]
    fn nan_propagation() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::NAN.to_f32().is_nan());
        assert!((F16::ONE / F16::ZERO).is_infinite());
        assert!((F16::ZERO / F16::ZERO).is_nan());
    }

    #[test]
    fn signed_zero() {
        assert_eq!(F16::from_f32(-0.0), F16::NEG_ZERO);
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert_eq!(F16::NEG_ZERO.to_f32().to_bits(), (-0.0f32).to_bits());
        // IEEE: -0.0 == 0.0 numerically.
        assert_eq!(F16::NEG_ZERO.to_f32(), 0.0);
    }

    #[test]
    fn arithmetic() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.25);
        assert_eq!((a + b).to_f32(), 3.75);
        assert_eq!((b - a).to_f32(), 0.75);
        assert_eq!((a * b).to_f32(), 3.375);
        assert_eq!((b / a).to_f32(), 1.5);
        assert_eq!((-a).to_f32(), -1.5);
        assert_eq!(a.abs(), a);
        assert_eq!((-a).abs(), a);
    }

    #[test]
    fn exhaustive_roundtrip_f16_f32_f16() {
        // Every finite f16 must survive the f32 round trip bit-exactly.
        for bits in 0..=u16::MAX {
            let h = F16(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
                continue;
            }
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.0, h.0, "bits {bits:#06x} did not round trip");
        }
    }

    #[test]
    fn widen_slice_codec_exhaustively_matches_scalar() {
        // All 65536 f16 bit patterns — every normal, subnormal, zero, inf,
        // and NaN payload (quiet and signaling) must widen to exactly the
        // bits the scalar reference produces. This is what caught the
        // float-multiply widening tricks: an x86 float op quietly sets a
        // signaling NaN's quiet bit, the integer path must not.
        let src: Vec<F16> = (0..=u16::MAX).map(F16).collect();
        let mut got = vec![0.0f32; src.len()];
        F16::to_f32_slice(&src, &mut got);
        for (h, g) in src.iter().zip(&got) {
            assert_eq!(
                g.to_bits(),
                h.to_f32().to_bits(),
                "widen mismatch at {:#06x}",
                h.0
            );
        }
    }

    #[test]
    fn narrow_slice_codec_matches_scalar_on_hard_cases() {
        // Boundary patterns for the magic-constant narrowing: rounding
        // ties, overflow threshold, subnormal range, NaN payloads,
        // signed zeros, plus both extremes. (Arbitrary bit patterns are
        // covered by the proptests; full 2^32 equivalence was verified
        // once out-of-band.)
        let mut cases: Vec<u32> = vec![
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x0000_0001, // min f32 subnormal
            0x7F7F_FFFF, // f32::MAX
            0x7F80_0000, // +inf
            0xFF80_0000, // -inf
            0x7F80_0001, // signaling NaN, tiny payload
            0x7FC0_0000, // canonical quiet NaN
            0xFFFF_FFFF, // quiet NaN, full payload, negative
            0x7FA5_A5A5, // signaling NaN with payload
        ];
        for v in [
            1.0f32,
            -1.0,
            65504.0,
            65519.9,
            65520.0, // rounds to inf
            1e30,
            2.0f32.powi(-14),
            2.0f32.powi(-24),
            2.0f32.powi(-25), // halfway to zero: ties-to-even
            2.0f32.powi(-26),
            1.0 + 2.0f32.powi(-11), // tie at 1.0
            1.0 + 3.0 * 2.0f32.powi(-11),
            1023.0 * 2.0f32.powi(-24), // largest subnormal
            f32::MIN_POSITIVE,
            1e-40, // f32 subnormal input
        ] {
            cases.push(v.to_bits());
            cases.push((-v).to_bits());
        }
        let src: Vec<f32> = cases.iter().map(|&b| f32::from_bits(b)).collect();
        let mut got = vec![F16::ZERO; src.len()];
        F16::from_f32_slice(&src, &mut got);
        for (s, g) in src.iter().zip(&got) {
            assert_eq!(
                g.0,
                F16::from_f32(*s).0,
                "narrow mismatch at {:#010x}",
                s.to_bits()
            );
        }
    }

    #[test]
    #[ignore = "exhaustive 2^32 sweep, ~minutes in release; run on demand"]
    fn narrow_slice_codec_exhaustively_matches_scalar() {
        const CHUNK: usize = 1 << 16;
        let mut src = vec![0.0f32; CHUNK];
        let mut got = vec![F16::ZERO; CHUNK];
        for hi in 0..=u16::MAX as u32 {
            for (i, s) in src.iter_mut().enumerate() {
                *s = f32::from_bits((hi << 16) | i as u32);
            }
            F16::from_f32_slice(&src, &mut got);
            for (s, g) in src.iter().zip(&got) {
                assert_eq!(
                    g.0,
                    F16::from_f32(*s).0,
                    "narrow mismatch at {:#010x}",
                    s.to_bits()
                );
            }
        }
    }

    #[test]
    fn hardware_and_portable_narrow_agree_on_a_strided_sweep() {
        // Every 257th bit pattern (all signs, exponents and rounding
        // positions) plus each pattern's two neighbours, a chunk at a time.
        const STRIDE: u64 = 257;
        const CHUNK: u64 = 1 << 14;
        let (mut src, mut portable, mut dispatched) = (Vec::new(), Vec::new(), Vec::new());
        for first in (0..(1u64 << 32) / STRIDE).step_by(CHUNK as usize) {
            src.clear();
            for k in first..(first + CHUNK).min((1u64 << 32) / STRIDE) {
                let b = (k * STRIDE) as u32;
                src.extend([b.wrapping_sub(1), b, b.wrapping_add(1)].map(f32::from_bits));
            }
            portable.resize(src.len(), F16::ZERO);
            dispatched.resize(src.len(), F16::ZERO);
            narrow_portable(&src, &mut portable);
            F16::from_f32_slice(&src, &mut dispatched);
            for ((s, p), d) in src.iter().zip(&portable).zip(&dispatched) {
                assert_eq!(p.0, d.0, "narrow paths differ at {:#010x}", s.to_bits());
            }
        }
    }

    #[test]
    fn widen_matches_scalar_with_nans_inside_finite_chunks() {
        // All 2^16 patterns in an odd-stride order, so (signaling) NaNs
        // and infinities share eight-value chunks with finite values.
        let src: Vec<F16> = (0..=u16::MAX)
            .map(|i| F16(i.wrapping_mul(40_503)))
            .collect();
        let mut portable = vec![0.0f32; src.len()];
        widen_portable(&src, &mut portable);
        let mut dispatched = vec![0.0f32; src.len()];
        F16::to_f32_slice(&src, &mut dispatched);
        for ((h, p), d) in src.iter().zip(&portable).zip(&dispatched) {
            let want = h.to_f32().to_bits();
            assert_eq!(p.to_bits(), want, "portable widen at {:#06x}", h.0);
            assert_eq!(d.to_bits(), want, "widen at {:#06x}", h.0);
        }
    }

    #[test]
    fn slice_codec_handles_tails_and_empty() {
        // Lengths around the CODEC_LANES boundary exercise the
        // chunks_exact remainder path.
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17] {
            let src: Vec<f32> = (0..n).map(|i| i as f32 * 0.3 - 1.0).collect();
            let mut h = vec![F16::ZERO; n];
            cast_f32_to_f16(&src, &mut h);
            for (s, g) in src.iter().zip(&h) {
                assert_eq!(g.0, F16::from_f32(*s).0);
            }
            let mut back = vec![0.0f32; n];
            cast_f16_to_f32(&h, &mut back);
            for (s, g) in h.iter().zip(&back) {
                assert_eq!(g.to_bits(), s.to_f32().to_bits());
            }
        }
    }

    #[test]
    fn slice_casts() {
        let src = [0.0f32, 1.0, -2.5, 65504.0, 1e-8];
        let mut h = [F16::ZERO; 5];
        cast_f32_to_f16(&src, &mut h);
        let mut back = [0.0f32; 5];
        cast_f16_to_f32(&h, &mut back);
        assert_eq!(back[0], 0.0);
        assert_eq!(back[1], 1.0);
        assert_eq!(back[2], -2.5);
        assert_eq!(back[3], 65504.0);
        // 1e-8 underflows to zero in f16.
        assert_eq!(back[4], 0.0);
    }
}
