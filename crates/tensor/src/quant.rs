//! Low-precision weight storage: an f16 codec, a Q8 block format, and the
//! [`QTensor`] container the inference kernels dequantize on the fly.
//!
//! Inspection is read-only over frozen victim weights — the pipeline only
//! ever needs forward passes and *input* gradients, never weight updates —
//! so weights can be stored and served in half precision or 8-bit
//! block-quantized form at 2–4× less memory with proportionally better
//! cache behaviour on the GEMM-bound refine hot path. Both codecs are
//! hand-rolled and std-only:
//!
//! * **f16** — IEEE-754 binary16. Encoding rounds to nearest-even
//!   (including the subnormal range and the overflow-to-infinity edge);
//!   decoding is exact, because every binary16 value is representable as
//!   an `f32`.
//! * **Q8** — blocks of [`Q8_BLOCK`] elements share one `f32` scale
//!   (`amax / 127`); each element stores `round(x / scale)` clamped to
//!   `[-127, 127]` in an `i8`. Dequantization is `q * scale`. The final
//!   partial block is zero-padded, so the encoded length depends only on
//!   the element count.
//!
//! A [`QTensor`] is immutable after construction. The layer that owns it
//! decodes it into f32 GEMM panels once, through
//! [`crate::panel::GemmWeight`].

use crate::Tensor;
use std::fmt;

/// Elements per Q8 quantization block (one shared `f32` scale each).
pub const Q8_BLOCK: usize = 32;

/// Element storage format of a weight payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// 32-bit IEEE float — the exact, bit-preserving default.
    F32,
    /// 16-bit IEEE float (round-to-nearest-even encode, exact decode).
    F16,
    /// 8-bit block quantization: [`Q8_BLOCK`] elements per `f32` scale.
    Q8,
}

impl Dtype {
    /// Wire tag used by the persistence layer (`USBT` version 2).
    pub fn tag(self) -> u8 {
        match self {
            Dtype::F32 => 0,
            Dtype::F16 => 1,
            Dtype::Q8 => 2,
        }
    }

    /// Inverse of [`Dtype::tag`]; `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Dtype::F32),
            1 => Some(Dtype::F16),
            2 => Some(Dtype::Q8),
            _ => None,
        }
    }

    /// Canonical lowercase name (`"f32"`, `"f16"`, `"q8"`).
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F16 => "f16",
            Dtype::Q8 => "q8",
        }
    }

    /// Parses a name as produced by [`Dtype::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(Dtype::F32),
            "f16" => Some(Dtype::F16),
            "q8" => Some(Dtype::Q8),
            _ => None,
        }
    }

    /// Encoded payload size in bytes for `numel` elements.
    ///
    /// `F32` is 4 bytes per element, `F16` 2; `Q8` stores whole blocks of
    /// [`Q8_BLOCK`] `i8`s behind one `f32` scale each, the last block
    /// zero-padded.
    pub fn encoded_len(self, numel: usize) -> usize {
        match self {
            Dtype::F32 => numel * 4,
            Dtype::F16 => numel * 2,
            Dtype::Q8 => numel.div_ceil(Q8_BLOCK) * (4 + Q8_BLOCK),
        }
    }
}

impl fmt::Display for Dtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Encodes an `f32` as IEEE-754 binary16 bits, rounding to nearest-even.
///
/// NaN stays NaN (a quiet NaN keeping the top mantissa bits), infinities
/// stay infinities, values beyond the f16 range round to ±∞, and values
/// below the smallest subnormal round to ±0. The largest finite f16 is
/// 65504; 65520 and above round to infinity.
pub fn f16_encode(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7FFF_FFFF;
    if abs >= 0x7F80_0000 {
        // Inf or NaN. Keep NaN-ness; a payload of zero would turn a NaN
        // into an infinity, so force the quiet bit on.
        return if abs > 0x7F80_0000 {
            sign | 0x7E00 | ((abs >> 13) & 0x03FF) as u16 | 0x0200
        } else {
            sign | 0x7C00
        };
    }
    let exp = (abs >> 23) as i32 - 127;
    if exp >= 16 {
        return sign | 0x7C00; // overflows the f16 exponent range: ±∞
    }
    if exp < -25 {
        return sign; // below half the smallest subnormal: ±0
    }
    let mant = abs & 0x007F_FFFF;
    let (half_mant, exp_field, shift) = if exp >= -14 {
        // Normal f16: 10 explicit mantissa bits survive of the 23.
        (mant, (exp + 15) as u32, 13u32)
    } else {
        // Subnormal f16: restore the implicit leading 1, then shift it
        // into place for the fixed 2^-14 exponent.
        ((mant | 0x0080_0000), 0u32, (-exp - 1) as u32)
    };
    let kept = half_mant >> shift;
    let dropped = half_mant & ((1u32 << shift) - 1);
    let halfway = 1u32 << (shift - 1);
    let round_up = dropped > halfway || (dropped == halfway && (kept & 1) == 1);
    // Adding (not or-ing) the rounded mantissa lets a carry roll into the
    // exponent field, which is exactly right: the largest subnormal rounds
    // up into the smallest normal, and 65504+ rounds up into infinity.
    let half = (exp_field << 10) + kept + u32::from(round_up);
    sign | half as u16
}

/// Decodes IEEE-754 binary16 bits into the `f32` with the same value.
///
/// Exact for every input: normals, subnormals, zeros, infinities, and
/// NaNs (payload preserved in the top 10 mantissa bits).
pub fn f16_decode(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: value is m * 2^-24, exactly representable as an
            // f32 (m < 2^10, and 2^-24 is a power of two).
            let mag = (m as f32) * (1.0 / 16_777_216.0);
            return f32::from_bits(sign | mag.to_bits());
        }
        (0x1F, 0) => sign | 0x7F80_0000,
        (0x1F, m) => sign | 0x7F80_0000 | (m << 13),
        (e, m) => sign | ((e + 112) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// Encodes `data` into `dtype`'s byte layout (see the module docs).
///
/// # Panics
///
/// Panics on [`Dtype::F32`]: dense tensors are never routed through the
/// quantized codec — the f32 path stays bit-exact and separate.
fn encode(data: &[f32], dtype: Dtype) -> Vec<u8> {
    let mut out = Vec::with_capacity(dtype.encoded_len(data.len()));
    match dtype {
        Dtype::F32 => panic!("f32 payloads use the dense Tensor route, not QTensor"),
        Dtype::F16 => {
            for &x in data {
                out.extend_from_slice(&f16_encode(x).to_le_bytes());
            }
        }
        Dtype::Q8 => {
            for block in data.chunks(Q8_BLOCK) {
                let amax = block.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                let scale = if amax == 0.0 { 0.0 } else { amax / 127.0 };
                out.extend_from_slice(&scale.to_le_bytes());
                let inv = if scale == 0.0 { 0.0 } else { 1.0 / scale };
                for &x in block {
                    let q = (x * inv).round().clamp(-127.0, 127.0) as i8;
                    out.push(q as u8);
                }
                // Zero-pad the final partial block to the fixed stride.
                out.extend(std::iter::repeat_n(0u8, Q8_BLOCK - block.len()));
            }
        }
    }
    out
}

/// A quantized, immutable tensor: shape + encoded payload + dtype.
///
/// Built either by quantizing a dense [`Tensor`] ([`QTensor::quantize`])
/// or from stored bytes ([`QTensor::from_bytes`]). There is no mutable
/// access: quantized weights are inference-only.
#[derive(Clone)]
pub struct QTensor {
    dtype: Dtype,
    shape: Vec<usize>,
    bytes: Vec<u8>,
}

impl fmt::Debug for QTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QTensor(dtype={}, shape={:?}, {} bytes)",
            self.dtype,
            self.shape,
            self.bytes.len()
        )
    }
}

impl QTensor {
    /// Quantizes a dense tensor into `dtype`.
    ///
    /// # Panics
    ///
    /// Panics if `dtype` is [`Dtype::F32`] — the dense route already *is*
    /// f32, bit-exactly; quantizing to it would only blur that line.
    pub fn quantize(t: &Tensor, dtype: Dtype) -> Self {
        QTensor {
            dtype,
            shape: t.shape().to_vec(),
            bytes: encode(t.data(), dtype),
        }
    }

    /// Wraps stored bytes (the persistence layer's decode path).
    ///
    /// # Errors
    ///
    /// Returns a message when `dtype` is [`Dtype::F32`] or `bytes` is not
    /// exactly [`Dtype::encoded_len`] for the shape's element count.
    pub fn from_bytes(dtype: Dtype, shape: &[usize], bytes: Vec<u8>) -> Result<Self, String> {
        if dtype == Dtype::F32 {
            return Err("f32 payloads use the dense Tensor route, not QTensor".to_string());
        }
        let numel: usize = shape.iter().product();
        let want = dtype.encoded_len(numel);
        if bytes.len() != want {
            return Err(format!(
                "{dtype} payload for shape {shape:?} must be {want} bytes, got {}",
                bytes.len()
            ));
        }
        Ok(QTensor {
            dtype,
            shape: shape.to_vec(),
            bytes,
        })
    }

    /// Storage format of the payload.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// Logical shape (row-major, like [`Tensor::shape`]).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The encoded payload, exactly as stored on disk.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Encoded payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Dequantizes the payload into `out` (row-major logical order).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.len(),
            "dequantize_into: {} elements into a {}-element buffer",
            self.len(),
            out.len()
        );
        match self.dtype {
            Dtype::F32 => unreachable!("QTensor is never f32"),
            Dtype::F16 => {
                if !crate::kernels::try_f16_decode(&self.bytes, out) {
                    for (o, h) in out.iter_mut().zip(self.bytes.chunks_exact(2)) {
                        *o = f16_decode(u16::from_le_bytes([h[0], h[1]]));
                    }
                }
            }
            Dtype::Q8 => {
                if !crate::kernels::try_q8_decode(&self.bytes, out) {
                    for (ob, block) in out
                        .chunks_mut(Q8_BLOCK)
                        .zip(self.bytes.chunks_exact(4 + Q8_BLOCK))
                    {
                        let scale = f32::from_le_bytes([block[0], block[1], block[2], block[3]]);
                        for (o, &q) in ob.iter_mut().zip(&block[4..]) {
                            *o = (q as i8) as f32 * scale;
                        }
                    }
                }
            }
        }
    }

    /// Dequantizes into a freshly allocated dense [`Tensor`].
    pub fn dequantize(&self) -> Tensor {
        let mut data = vec![0.0f32; self.len()];
        self.dequantize_into(&mut data);
        Tensor::from_vec(data, &self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference f16 encoder: arithmetic (not bit-twiddling), used to
    /// cross-check the production encoder on every interesting input.
    fn f16_encode_reference(x: f32) -> u16 {
        if x.is_nan() {
            // Any quiet NaN is acceptable; callers compare via is_nan.
            return 0x7E00 | if x.is_sign_negative() { 0x8000 } else { 0 };
        }
        let sign = if x.is_sign_negative() { 0x8000u16 } else { 0 };
        let a = x.abs();
        if a.is_infinite() {
            return sign | 0x7C00;
        }
        // Brute force: decode every finite candidate (plus ∞) and pick the
        // nearest, breaking ties toward the even mantissa.
        let mut best: Option<(u16, f64)> = None;
        for h in 0..=0x7C00u16 {
            let v = f16_decode(h) as f64;
            let d = (v - a as f64).abs();
            let better = match best {
                None => true,
                Some((bh, bd)) => d < bd || (d == bd && (h & 1) == 0 && (bh & 1) == 1),
            };
            if better {
                best = Some((h, d));
            }
        }
        sign | best.unwrap().0
    }

    #[test]
    fn f16_decode_matches_known_constants() {
        assert_eq!(f16_decode(0x0000), 0.0);
        assert!(f16_decode(0x8000).is_sign_negative());
        assert_eq!(f16_decode(0x3C00), 1.0);
        assert_eq!(f16_decode(0xC000), -2.0);
        assert_eq!(f16_decode(0x7BFF), 65504.0);
        assert_eq!(f16_decode(0x0400), 6.103_515_6e-5); // smallest normal
        assert_eq!(f16_decode(0x0001), 5.960_464_5e-8); // smallest subnormal
        assert_eq!(f16_decode(0x7C00), f32::INFINITY);
        assert_eq!(f16_decode(0xFC00), f32::NEG_INFINITY);
        assert!(f16_decode(0x7E00).is_nan());
    }

    #[test]
    fn f16_roundtrip_is_identity_on_all_finite_halfs() {
        // decode → encode is the identity for every non-NaN half value:
        // the decode is exact and the re-encode has nothing to round.
        for h in 0..=0xFFFFu16 {
            let v = f16_decode(h);
            if v.is_nan() {
                assert!(f16_decode(f16_encode(v)).is_nan(), "NaN bits {h:#06x}");
                continue;
            }
            let back = f16_encode(v);
            // ±0 canonicalize; everything else must round-trip bit-exactly.
            assert_eq!(back, h, "half bits {h:#06x} (value {v})");
        }
    }

    #[test]
    fn f16_encode_matches_exhaustive_nearest_even_search() {
        // Spot-check the RNE encoder against a brute-force nearest-even
        // search over all finite halfs, on values chosen to hit every
        // branch: exact, halfway-up, halfway-down, subnormal, boundaries.
        let cases = [
            0.0f32,
            -0.0,
            1.0,
            1.5,
            -2.75,
            0.1,
            0.2,
            0.3,
            1.0 / 3.0,
            65503.9,
            65504.0,
            65519.9,        // just below the ∞ cut: rounds to 65504
            6.103_515_6e-5, // smallest normal
            6.0e-5,         // subnormal range
            5.960_464_5e-8, // smallest subnormal
            8.940_697e-8,   // 1.5 × smallest subnormal (tie)
            2.980_232_2e-8, // exactly half the smallest subnormal (tie → 0)
            2.9e-8,         // just below the tie: → 0
            3.0e-8,         // just above the tie: → smallest subnormal
            123.456,
            -0.000_123,
            9.77e-4,
        ];
        for &x in &cases {
            assert_eq!(
                f16_encode(x),
                f16_encode_reference(x),
                "RNE mismatch for {x:e}"
            );
        }
    }

    #[test]
    fn f16_encode_special_values() {
        assert_eq!(f16_encode(f32::INFINITY), 0x7C00);
        assert_eq!(f16_encode(f32::NEG_INFINITY), 0xFC00);
        assert_eq!(f16_encode(65520.0), 0x7C00, "overflow rounds to ∞");
        assert_eq!(f16_encode(65519.0), 0x7BFF, "just under the cut");
        assert_eq!(f16_encode(1e30), 0x7C00);
        assert_eq!(f16_encode(-1e30), 0xFC00);
        assert_eq!(f16_encode(0.0), 0x0000);
        assert_eq!(f16_encode(-0.0), 0x8000);
        let n = f16_encode(f32::NAN);
        assert_eq!(n & 0x7C00, 0x7C00);
        assert_ne!(n & 0x03FF, 0, "NaN must keep a non-zero payload");
        assert!(f16_decode(n).is_nan());
    }

    #[test]
    fn f16_relative_error_is_bounded_for_normals() {
        // For values in the f16 normal range the RNE relative error is at
        // most 2^-11 (half an ulp of a 10-bit mantissa).
        let mut x = 6.2e-5f32;
        while x < 60000.0 {
            let err = (f16_decode(f16_encode(x)) - x).abs() / x;
            assert!(err <= 1.0 / 2048.0, "relative error {err} at {x}");
            x *= 1.37;
        }
    }

    #[test]
    fn q8_roundtrip_error_is_within_half_scale() {
        let data: Vec<f32> = (0..1000).map(|i| ((i as f32) * 0.7).sin() * 3.0).collect();
        let t = Tensor::from_vec(data.clone(), &[10, 100]);
        let q = QTensor::quantize(&t, Dtype::Q8);
        let back = q.dequantize();
        assert_eq!(back.shape(), &[10, 100]);
        for (block, bb) in data.chunks(Q8_BLOCK).zip(back.data().chunks(Q8_BLOCK)) {
            let amax = block.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let half_scale = amax / 127.0 / 2.0 + 1e-12;
            for (&x, &y) in block.iter().zip(bb) {
                assert!(
                    (x - y).abs() <= half_scale * 1.001,
                    "Q8 error {} exceeds half a scale ({half_scale}) at {x}",
                    (x - y).abs()
                );
            }
        }
    }

    #[test]
    fn q8_all_zero_block_has_zero_scale_and_roundtrips() {
        let t = Tensor::zeros(&[64]);
        let q = QTensor::quantize(&t, Dtype::Q8);
        assert_eq!(q.dequantize().data(), &[0.0f32; 64]);
    }

    #[test]
    fn q8_partial_final_block_is_padded_and_exact_length() {
        let t = Tensor::from_fn(&[37], |i| i as f32 - 18.0);
        let q = QTensor::quantize(&t, Dtype::Q8);
        assert_eq!(q.byte_len(), Dtype::Q8.encoded_len(37));
        assert_eq!(q.byte_len(), 2 * (4 + Q8_BLOCK));
        let back = q.dequantize();
        assert_eq!(back.len(), 37);
        // ±18 over 37 integers: scale 18/127, max error half a step.
        for (&x, &y) in t.data().iter().zip(back.data()) {
            assert!((x - y).abs() <= 18.0 / 127.0 / 2.0 + 1e-6);
        }
    }

    #[test]
    fn q8_extremes_saturate_cleanly() {
        let t = Tensor::from_vec(vec![1.0, -1.0, 127.0, -127.0, 64.0, -5.0], &[6]);
        let q = QTensor::quantize(&t, Dtype::Q8);
        let back = q.dequantize();
        // amax 127 → scale 1.0 → all six integers are exact.
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn encoded_len_matches_actual_encodings() {
        for numel in [0usize, 1, 31, 32, 33, 64, 100, 1024] {
            let t = Tensor::from_fn(&[numel.max(1)], |i| (i as f32).cos());
            let t = if numel == 0 { Tensor::zeros(&[0]) } else { t };
            for dtype in [Dtype::F16, Dtype::Q8] {
                let q = QTensor::quantize(&t, dtype);
                assert_eq!(q.byte_len(), dtype.encoded_len(numel), "{dtype} × {numel}");
            }
        }
    }

    #[test]
    fn from_bytes_validates_length_and_dtype() {
        assert!(QTensor::from_bytes(Dtype::F32, &[4], vec![0; 16]).is_err());
        assert!(QTensor::from_bytes(Dtype::F16, &[4], vec![0; 7]).is_err());
        assert!(QTensor::from_bytes(Dtype::F16, &[4], vec![0; 8]).is_ok());
        assert!(QTensor::from_bytes(Dtype::Q8, &[32], vec![0; 35]).is_err());
        assert!(QTensor::from_bytes(Dtype::Q8, &[32], vec![0; 36]).is_ok());
    }

    #[test]
    fn from_bytes_roundtrips_quantize_bytes_bit_exactly() {
        let t = Tensor::from_fn(&[3, 40], |i| ((i as f32) * 0.31).sin());
        for dtype in [Dtype::F16, Dtype::Q8] {
            let q = QTensor::quantize(&t, dtype);
            let r = QTensor::from_bytes(dtype, q.shape(), q.bytes().to_vec()).unwrap();
            assert_eq!(r.dequantize().data(), q.dequantize().data());
        }
    }

    #[test]
    fn dtype_tags_and_names_roundtrip() {
        for d in [Dtype::F32, Dtype::F16, Dtype::Q8] {
            assert_eq!(Dtype::from_tag(d.tag()), Some(d));
            assert_eq!(Dtype::parse(d.name()), Some(d));
        }
        assert_eq!(Dtype::from_tag(3), None);
        assert_eq!(Dtype::parse("int4"), None);
    }
}
