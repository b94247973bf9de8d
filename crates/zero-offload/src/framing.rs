//! Shared `magic | version | length | checksum` frame codec.
//!
//! Checkpoint files and memory-tier partition blobs carry the same
//! failure mode: a write that dies partway (crash, injected fault, torn
//! page) must be *detected* at read time as a typed error, never handed
//! to a deserializer or — worse — silently accepted. Both paths frame
//! their payload with this 20-byte header:
//!
//! ```text
//! magic (u32 LE) | version (u32 LE) | payload_len (u64 LE) | checksum (u32 LE)
//! ```
//!
//! The codec is parameterized by a [`FrameSpec`] (magic + version), so
//! each consumer keeps its own file identity while sharing one decoder —
//! and one proptest suite — for the torn/corrupt/foreign cases. The
//! gradient wire frames ([`crate::wire`]) have their own header but the
//! same [`checksum`].
//!
//! What both consumers put *inside* the frame is fp32 state as bulk
//! little-endian images, so the one `f32`-slice ⇄ bytes codec lives here
//! too (`f32s_to_le` / `f32s_from_le`).

/// Frame header size: magic, version, payload length, checksum.
pub const HEADER_BYTES: usize = 4 + 4 + 8 + 4;

/// A frame family: the magic and version a consumer stamps its blobs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpec {
    /// Four-byte file magic (little-endian u32).
    pub magic: u32,
    /// Format version the consumer currently writes.
    pub version: u32,
}

/// Typed decode failures; every malformed input maps to exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The blob ends before the framed payload does — a torn write.
    Truncated {
        /// Bytes present.
        have: usize,
        /// Bytes the header (or the fixed header size) promised.
        need: usize,
    },
    /// The blob does not start with the expected magic.
    BadMagic {
        /// The value found.
        found: u32,
    },
    /// The magic matched but the version is not one this build reads.
    BadVersion {
        /// The value found.
        found: u32,
    },
    /// The payload checksum does not match the header.
    Corrupted {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x}")
            }
            FrameError::BadVersion { found } => {
                write!(f, "unsupported frame version {found}")
            }
            FrameError::Corrupted { expected, computed } => write!(
                f,
                "frame corrupted: checksum header {expected:#010x}, payload {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Independent lanes of [`checksum`]; one block is a 64-bit word per lane.
const LANES: usize = 4;
const BLOCK_BYTES: usize = 8 * LANES;

/// Odd 64-bit multiplier (2^64 / golden ratio): `x -> (x ^ w) * MUL` is a
/// bijection of the lane state for any word `w`.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Distinct non-zero lane seeds, so equal words in different lanes do not
/// cancel.
const SEEDS: [u64; LANES] = [
    0xCBF2_9CE4_8422_2325,
    0x8422_2325_CBF2_9CE4,
    0x6C62_272E_07BB_0142,
    0x07BB_0142_6C62_272E,
];

/// Xor-multiplies one 32-byte block into the lanes, word `i` into lane `i`.
#[inline(always)]
fn absorb(lanes: &mut [u64; LANES], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
        *lane = (*lane ^ word).wrapping_mul(MUL);
    }
}

/// The 32-bit payload checksum of every frame family in this crate.
///
/// Defined on bytes, independent of the host's endianness: the payload is
/// cut into 32-byte blocks, each block into four little-endian 64-bit
/// words, and word `i` is xor-multiplied into lane `i` — four independent
/// dependency chains, so a core retires a block every few cycles instead
/// of one byte per multiply latency. The tail (0–31 bytes) is zero-padded
/// to one final block, which is always absorbed; the payload length is
/// then folded in with the lanes, so padding cannot be confused with real
/// zero bytes and an extension or truncation by zeros is detected.
pub fn checksum(payload: &[u8]) -> u32 {
    let mut lanes = SEEDS;
    let mut blocks = payload.chunks_exact(BLOCK_BYTES);
    for block in &mut blocks {
        absorb(&mut lanes, block);
    }
    let tail = blocks.remainder();
    let mut last = [0u8; BLOCK_BYTES];
    last[..tail.len()].copy_from_slice(tail);
    absorb(&mut lanes, &last);

    let mut h = payload.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(MUL);
        h ^= h >> 32;
    }
    h as u32
}

/// The parsed, not yet payload-verified header of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    /// Payload bytes the frame claims to carry.
    pub(crate) payload_len: usize,
    /// [`checksum`] of the payload, as recorded by the writer.
    pub(crate) checksum: u32,
}

/// The header that frames `payload` under `spec`.
pub(crate) fn encode_header(spec: FrameSpec, payload: &[u8]) -> [u8; HEADER_BYTES] {
    let mut out = [0u8; HEADER_BYTES];
    out[0..4].copy_from_slice(&spec.magic.to_le_bytes());
    out[4..8].copy_from_slice(&spec.version.to_le_bytes());
    out[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    out[16..20].copy_from_slice(&checksum(payload).to_le_bytes());
    out
}

/// Parses the header at the start of `bytes`, validating magic and
/// version. The payload is validated separately ([`FrameHeader::verify`])
/// so a reader can bound the length before it fetches the payload.
pub(crate) fn decode_header(spec: FrameSpec, bytes: &[u8]) -> Result<FrameHeader, FrameError> {
    if bytes.len() < HEADER_BYTES {
        return Err(FrameError::Truncated {
            have: bytes.len(),
            need: HEADER_BYTES,
        });
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let magic = word(0);
    if magic != spec.magic {
        return Err(FrameError::BadMagic { found: magic });
    }
    let version = word(4);
    if version != spec.version {
        return Err(FrameError::BadVersion { found: version });
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    Ok(FrameHeader {
        // A length past the address space is longer than any buffer.
        payload_len: usize::try_from(len).unwrap_or(usize::MAX),
        checksum: word(16),
    })
}

impl FrameHeader {
    /// Validates the bytes after the header against it and returns the
    /// payload. Bytes beyond the framed length are ignored (a frame knows
    /// its own extent).
    pub(crate) fn verify<'a>(&self, after_header: &'a [u8]) -> Result<&'a [u8], FrameError> {
        if after_header.len() < self.payload_len {
            return Err(FrameError::Truncated {
                have: after_header.len(),
                need: self.payload_len,
            });
        }
        let payload = &after_header[..self.payload_len];
        let computed = checksum(payload);
        if computed != self.checksum {
            return Err(FrameError::Corrupted {
                expected: self.checksum,
                computed,
            });
        }
        Ok(payload)
    }
}

/// Encodes `payload` into a framed blob under `spec`.
pub fn encode_frame(spec: FrameSpec, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&encode_header(spec, payload));
    out.extend_from_slice(payload);
    out
}

/// Decodes a framed blob, validating magic, version, length and checksum
/// before returning a view of the payload. Trailing bytes beyond the
/// framed length are ignored.
pub fn decode_frame(spec: FrameSpec, bytes: &[u8]) -> Result<&[u8], FrameError> {
    decode_header(spec, bytes)?.verify(&bytes[HEADER_BYTES..])
}

/// Writes `values` over `image` as little-endian `f32`s, four bytes each —
/// a lossless byte image (every bit pattern, NaN payloads included), which
/// is what lets tier blobs and checkpoint files restore a run bit for bit.
///
/// # Panics
/// If `image` is not exactly `4 * values.len()` bytes.
pub(crate) fn f32s_to_le(values: &[f32], image: &mut [u8]) {
    assert_eq!(image.len(), 4 * values.len(), "f32 image length");
    for (dst, x) in image.chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

/// Inverse of [`f32s_to_le`]: reads `image` into `values`.
///
/// # Panics
/// If `image` is not exactly `4 * values.len()` bytes — callers validate
/// lengths that come from a file before they get here.
pub(crate) fn f32s_from_le(image: &[u8], values: &mut [f32]) {
    assert_eq!(image.len(), 4 * values.len(), "f32 image length");
    for (x, src) in values.iter_mut().zip(image.chunks_exact(4)) {
        *x = f32::from_le_bytes(src.try_into().expect("4 bytes"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: FrameSpec = FrameSpec {
        magic: 0x5A4F_7465,
        version: 1,
    };

    #[test]
    fn roundtrip() {
        let payload = b"twelve bytes";
        let blob = encode_frame(SPEC, payload);
        assert_eq!(blob.len(), HEADER_BYTES + payload.len());
        assert_eq!(decode_frame(SPEC, &blob).unwrap(), payload);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let blob = encode_frame(SPEC, b"");
        assert_eq!(decode_frame(SPEC, &blob).unwrap(), b"");
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let mut blob = encode_frame(SPEC, b"payload");
        blob.extend_from_slice(b"junk after the frame");
        assert_eq!(decode_frame(SPEC, &blob).unwrap(), b"payload");
    }

    #[test]
    fn every_truncation_is_typed() {
        let blob = encode_frame(SPEC, b"some payload bytes");
        for cut in 0..blob.len() {
            let err = decode_frame(SPEC, &blob[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let blob = encode_frame(SPEC, b"payload");
        let other = FrameSpec {
            magic: 0x1111_2222,
            ..SPEC
        };
        assert!(matches!(
            decode_frame(other, &blob),
            Err(FrameError::BadMagic { .. })
        ));
        let vnext = FrameSpec { version: 2, ..SPEC };
        assert!(matches!(
            decode_frame(vnext, &blob),
            Err(FrameError::BadVersion { found: 1 })
        ));
    }

    /// The definition of [`checksum`], written word-at-a-time from bytes.
    fn naive_checksum(payload: &[u8]) -> u32 {
        let mut padded = payload.to_vec();
        padded.resize((payload.len() / 32 + 1) * 32, 0);
        let mut lanes = SEEDS;
        for (i, word) in padded.chunks(8).enumerate() {
            let mut w = 0u64;
            for (k, &b) in word.iter().enumerate() {
                w |= u64::from(b) << (8 * k);
            }
            lanes[i % 4] = (lanes[i % 4] ^ w).wrapping_mul(MUL);
        }
        let mut h = payload.len() as u64;
        for lane in lanes {
            h = (h ^ lane).wrapping_mul(MUL);
            h ^= h >> 32;
        }
        h as u32
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn checksum_matches_naive_reference_at_every_tail_length() {
        for len in (0..200).chain([255, 256, 257, 4095, 4096, 4097]) {
            let payload = noise(len, len as u64 + 1);
            assert_eq!(checksum(&payload), naive_checksum(&payload), "len {len}");
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_512_byte_payload_is_detected() {
        let payload = noise(512, 7);
        let clean = checksum(&payload);
        for bit in 0..512 * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&flipped), clean, "bit {bit}");
        }
    }

    #[test]
    fn zero_extension_and_truncation_are_detected() {
        // Payloads that differ only by trailing zero bytes pad to the same
        // blocks; the folded length must still tell them apart.
        for len in [0usize, 1, 31, 32, 33, 64, 100] {
            let mut payload = noise(len, 3);
            payload.extend_from_slice(&[0; 40]);
            let sums: Vec<u32> = (0..=40).map(|z| checksum(&payload[..len + z])).collect();
            for a in 0..sums.len() {
                for b in a + 1..sums.len() {
                    assert_ne!(sums[a], sums[b], "len {len}: +{a} vs +{b} zeros");
                }
            }
        }
    }

    #[test]
    fn f32_images_roundtrip_every_bit_pattern_class() {
        // NaN payloads, both infinities, -0.0, subnormals: compared as
        // bits, since `==` is false on NaN and true on 0.0 vs -0.0.
        let bits = [
            0u32,
            0x8000_0000,
            0x0000_0001,
            0x807F_FFFF,
            0x7F80_0000,
            0xFF80_0000,
            0x7FC0_0001,
            0xFFFF_FFFF,
            0x3F80_0000,
        ];
        for len in [0usize, 1, 7, bits.len()] {
            let values: Vec<f32> = bits[..len].iter().map(|&b| f32::from_bits(b)).collect();
            let mut image = vec![0xAA; 4 * len];
            f32s_to_le(&values, &mut image);
            let expect: Vec<u8> = bits[..len].iter().flat_map(|b| b.to_le_bytes()).collect();
            assert_eq!(image, expect, "len {len}");
            let mut back = vec![1.0f32; len];
            f32s_from_le(&image, &mut back);
            let back: Vec<u32> = back.iter().map(|x| x.to_bits()).collect();
            assert_eq!(back, &bits[..len], "len {len}");
        }
    }

    #[test]
    fn payload_bit_flip_fails_checksum() {
        let mut blob = encode_frame(SPEC, b"payload under test");
        let at = HEADER_BYTES + 3;
        blob[at] ^= 0x01;
        assert!(matches!(
            decode_frame(SPEC, &blob),
            Err(FrameError::Corrupted { .. })
        ));
    }
}
