//! The AVX2 twins of the [`super::scalar`] reference loops.
//!
//! The plain maps (the decoders, the elementwise ops, the trigger blend
//! and backward, Adam, SiLU's gradient) are their scalar bodies compiled
//! with AVX2, one line each in `one_body!`. What remains here is
//! hand-written, for kernels whose vector form the compiler cannot derive:
//! the GEMM tiles, the transpose, `exp`'s table reads and the stencils.
//! Lane layout is always "8 independent output elements" (for the
//! stencils: one pixel of 8 planes, interleaved into scratch); every lane
//! executes the scalar op sequence for its element verbatim (mul then
//! add — `vmulps`/`vaddps`, never `vfmadd`), and ragged tails run the
//! scalar twin itself (the GEMM instead masks the lanes past its right
//! edge), so results are bit-identical to the scalar tier.
//! `unsafe` here is confined to the raw-pointer load/store helpers,
//! each guarded by a `debug_assert!` and called only with in-bounds
//! geometry — which is why the dispatch functions in [`super`] check every
//! slice length before calling in, after runtime feature detection.
#![allow(clippy::too_many_arguments)]

use super::scalar::{self, MR};
use super::AdamParams;
use crate::conv::Stencil;
use core::arch::x86_64::*;

/// Unaligned 8-lane load of `s[at..at + 8]`.
#[inline]
#[target_feature(enable = "avx2")]
fn load8(s: &[f32], at: usize) -> __m256 {
    debug_assert!(at + 8 <= s.len());
    // SAFETY: callers pass `at + 8 <= s.len()` (debug-asserted).
    unsafe { _mm256_loadu_ps(s.as_ptr().add(at)) }
}

/// Unaligned 8-lane store into `s[at..at + 8]`.
#[inline]
#[target_feature(enable = "avx2")]
fn store8(s: &mut [f32], at: usize, v: __m256) {
    debug_assert!(at + 8 <= s.len());
    // SAFETY: callers pass `at + 8 <= s.len()` (debug-asserted).
    unsafe { _mm256_storeu_ps(s.as_mut_ptr().add(at), v) }
}

/// Lanes `0..live` set (all bits), the rest clear: the mask of
/// [`maskload8`]/[`maskstore8`].
#[inline]
#[target_feature(enable = "avx2")]
fn lane_mask(live: usize) -> __m256i {
    debug_assert!((1..=8).contains(&live));
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(live as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// Masked load of `s[at..at + live]` into lanes `0..live`; the other lanes
/// read as `0.0` and touch no memory.
#[inline]
#[target_feature(enable = "avx2")]
fn maskload8(s: &[f32], at: usize, live: usize, mask: __m256i) -> __m256 {
    debug_assert!(at + live <= s.len());
    // SAFETY: `at + live <= s.len()` (debug-asserted) and `mask` enables
    // lanes `0..live` only, so no disabled lane is dereferenced.
    unsafe { _mm256_maskload_ps(s.as_ptr().add(at), mask) }
}

/// Masked store of lanes `0..live` into `s[at..at + live]`; memory under
/// the other lanes is left untouched.
#[inline]
#[target_feature(enable = "avx2")]
fn maskstore8(s: &mut [f32], at: usize, live: usize, mask: __m256i, v: __m256) {
    debug_assert!(at + live <= s.len());
    // SAFETY: as in `maskload8`.
    unsafe { _mm256_maskstore_ps(s.as_mut_ptr().add(at), mask, v) }
}

/// AVX2 width of one full GEMM tile: two 8-lane column vectors per
/// row, so four rows fill 8 of the 16 ymm registers with accumulators.
const NR_AVX: usize = 16;

/// AVX2 twin of [`scalar::gemm_strided_a`] — same geometry contract.
#[target_feature(enable = "avx2")]
pub(super) fn gemm_strided_a(
    a: &[f32],
    ars: usize,
    aks: usize,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let mut i = 0;
    while i < m {
        let rows = (m - i).min(MR);
        let abase = i * ars;
        let obase = i * n;
        let mut j = 0;
        if rows == MR {
            while j + NR_AVX <= n {
                tile_full(a, abase, ars, aks, b, j, k, n, out, obase);
                j += NR_AVX;
            }
        }
        // Ragged right and bottom edges: 8-lane masked tiles.
        while j < n {
            let jw = (n - j).min(8);
            match rows {
                1 => tile_edge::<1>(a, abase, ars, aks, b, j, jw, k, n, out, obase),
                2 => tile_edge::<2>(a, abase, ars, aks, b, j, jw, k, n, out, obase),
                3 => tile_edge::<3>(a, abase, ars, aks, b, j, jw, k, n, out, obase),
                _ => tile_edge::<MR>(a, abase, ars, aks, b, j, jw, k, n, out, obase),
            }
            j += 8;
        }
        i += MR;
    }
}

/// Edge tile of `R ≤ MR` rows and `jw ≤ 8` columns: [`tile_full`] at one
/// vector per row, with the lanes past `jw` masked off on every `b` load
/// and on the store. Each live lane is one output element's ascending-`k`
/// mul-then-add chain from `0.0`, the op sequence of the scalar
/// `gemm_tile_edge`.
#[inline]
#[target_feature(enable = "avx2")]
fn tile_edge<const R: usize>(
    a: &[f32],
    abase: usize,
    ars: usize,
    aks: usize,
    b: &[f32],
    j0: usize,
    jw: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    obase: usize,
) {
    let mask = lane_mask(jw);
    let mut acc = [_mm256_setzero_ps(); R];
    for kk in 0..k {
        let bv = maskload8(b, kk * n + j0, jw, mask);
        let a0 = abase + kk * aks;
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(a[a0 + r * ars]);
            *accr = _mm256_add_ps(*accr, _mm256_mul_ps(av, bv));
        }
    }
    for (r, &accr) in acc.iter().enumerate() {
        maskstore8(out, obase + r * n + j0, jw, mask, accr);
    }
}

/// Full `MR × NR_AVX` register tile: per `k` step, two `b` vector
/// loads and `MR` scalar broadcasts feed 8 mul+add pairs. Each lane
/// is one output element's ascending-`k` chain — no FMA, no
/// cross-lane math — so the tile is a transcription of
/// the scalar `gemm_tile_full` at twice the width.
#[inline]
#[target_feature(enable = "avx2")]
fn tile_full(
    a: &[f32],
    abase: usize,
    ars: usize,
    aks: usize,
    b: &[f32],
    j0: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    obase: usize,
) {
    let mut lo = [_mm256_setzero_ps(); MR];
    let mut hi = [_mm256_setzero_ps(); MR];
    for kk in 0..k {
        let b0 = kk * n + j0;
        let blo = load8(b, b0);
        let bhi = load8(b, b0 + 8);
        let a0 = abase + kk * aks;
        for r in 0..MR {
            let av = _mm256_set1_ps(a[a0 + r * ars]);
            lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, blo));
            hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, bhi));
        }
    }
    for r in 0..MR {
        let o0 = obase + r * n + j0;
        store8(out, o0, lo[r]);
        store8(out, o0 + 8, hi[r]);
    }
}

/// AVX2 twin of [`scalar::gemm_transb`]: both operands
/// k-contiguous, columns vectorized 8 wide via strided gathers.
#[target_feature(enable = "avx2")]
pub(super) fn gemm_transb(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    const MRT: usize = 4;
    let mut i = 0;
    while i < m {
        let rows = (m - i).min(MRT);
        let mut j = 0;
        if rows == MRT {
            while j + 8 <= n {
                let mut acc = [_mm256_setzero_ps(); MRT];
                for kk in 0..k {
                    // One column-strided gather of b[(j..j+8) * k + kk];
                    // set_ps takes lanes high-to-low.
                    let bv = _mm256_set_ps(
                        b[(j + 7) * k + kk],
                        b[(j + 6) * k + kk],
                        b[(j + 5) * k + kk],
                        b[(j + 4) * k + kk],
                        b[(j + 3) * k + kk],
                        b[(j + 2) * k + kk],
                        b[(j + 1) * k + kk],
                        b[j * k + kk],
                    );
                    for r in 0..MRT {
                        let av = _mm256_set1_ps(a[(i + r) * k + kk]);
                        acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(av, bv));
                    }
                }
                for (r, &accr) in acc.iter().enumerate() {
                    store8(out, (i + r) * n + j, accr);
                }
                j += 8;
            }
        }
        // Ragged edge: independent ascending-k dot products, the same
        // per-element op sequence every tile shape produces.
        for r in 0..rows {
            for c in j..n {
                let mut s = 0.0f32;
                for kk in 0..k {
                    s += a[(i + r) * k + kk] * b[c * k + kk];
                }
                out[(i + r) * n + c] = s;
            }
        }
        i += MRT;
    }
}

/// [`scalar::exp`] on 4 f64 lanes: the same op sequence per lane, every
/// multiply and add a separate instruction, the table read by a gather.
/// `x` must hold finite values with `|x| < 88`.
#[inline]
#[target_feature(enable = "avx2")]
fn exp4(x: __m128) -> __m128 {
    let z = _mm256_mul_pd(_mm256_set1_pd(scalar::EXP_INV_LN2_N), _mm256_cvtps_pd(x));
    let shift = _mm256_set1_pd(scalar::EXP_SHIFT);
    let kd = _mm256_add_pd(z, shift);
    let ki = _mm256_castpd_si256(kd);
    let r = _mm256_sub_pd(z, _mm256_sub_pd(kd, shift));
    let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    // SAFETY: every index is masked to 0..32, inside `EXP_TAB`.
    let t = unsafe { _mm256_i64gather_epi64::<8>(scalar::EXP_TAB.as_ptr().cast(), idx) };
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let [c0, c1, c2] = scalar::EXP_C;
    let p = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(c0), r), _mm256_set1_pd(c1));
    let r2 = _mm256_mul_pd(r, r);
    let y = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(c2), r), _mm256_set1_pd(1.0));
    let y = _mm256_add_pd(_mm256_mul_pd(p, r2), y);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

/// [`scalar::exp`] on 8 f64 lanes, the op sequence of [`exp4`] with the
/// table read from 4 zmm registers: `vpermt2pd` picks entry `k % 16` from
/// each 16-entry half, and bit 4 of `k` blends the two. `x` must hold
/// finite values with `|x| < 88`.
#[inline]
#[target_feature(enable = "avx512f")]
fn exp8_permute(x: __m256) -> __m256 {
    let z = _mm512_mul_pd(_mm512_set1_pd(scalar::EXP_INV_LN2_N), _mm512_cvtps_pd(x));
    let shift = _mm512_set1_pd(scalar::EXP_SHIFT);
    let kd = _mm512_add_pd(z, shift);
    let ki = _mm512_castpd_si512(kd);
    let r = _mm512_sub_pd(z, _mm512_sub_pd(kd, shift));
    let tab: *const f64 = scalar::EXP_TAB.as_ptr().cast();
    // SAFETY: the four 8-entry loads cover `EXP_TAB`'s 32 entries exactly.
    let [t0, t1, t2, t3] = [0, 8, 16, 24].map(|at| unsafe { _mm512_loadu_pd(tab.add(at)) });
    let t = _mm512_mask_blend_pd(
        _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)),
        _mm512_permutex2var_pd(t0, ki, t1),
        _mm512_permutex2var_pd(t2, ki, t3),
    );
    let s = _mm512_castsi512_pd(_mm512_add_epi64(
        _mm512_castpd_si512(t),
        _mm512_slli_epi64::<47>(ki),
    ));
    let [c0, c1, c2] = scalar::EXP_C;
    let p = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(c0), r), _mm512_set1_pd(c1));
    let r2 = _mm512_mul_pd(r, r);
    let y = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(c2), r), _mm512_set1_pd(1.0));
    let y = _mm512_add_pd(_mm512_mul_pd(p, r2), y);
    _mm512_cvtpd_ps(_mm512_mul_pd(y, s))
}

/// [`scalar::exp`] on 8 lanes with `|x| < 88`, none NaN, through one of
/// the two reads of `EXP_TAB`: [`exp8_permute`] when `PERMUTE`, else two
/// [`exp4`] halves. The loops over it are written once, generic over the
/// read, and compiled into one entry point per read.
///
/// # Safety
///
/// The CPU must support AVX2, and AVX-512F when `PERMUTE`.
#[inline(always)]
unsafe fn exp8<const PERMUTE: bool>(x: __m256) -> __m256 {
    // SAFETY: the caller guarantees the features.
    unsafe {
        if PERMUTE {
            exp8_permute(x)
        } else {
            let lo = exp4(_mm256_castps256_ps128(x));
            let hi = exp4(_mm256_extractf128_ps::<1>(x));
            _mm256_set_m128(hi, lo)
        }
    }
}

/// Whether any lane of `x` has `|x| ≥ 88` or is NaN: the chunks whose
/// exponentials the scalar twin computes, since it owns the special cases.
#[inline]
#[target_feature(enable = "avx2")]
fn exp_special(x: __m256) -> bool {
    let mag = _mm256_and_si256(_mm256_castps_si256(x), _mm256_set1_epi32(0x7fff_ffff));
    let big = _mm256_set1_epi32(scalar::EXP_BIG as i32 - 1);
    _mm256_movemask_epi8(_mm256_cmpgt_epi32(mag, big)) != 0
}

/// `y[i] = exp(y[i])`, 8 elements per step through [`exp8`]; special
/// chunks and the ragged tail run the scalar twin.
///
/// # Safety
///
/// The CPU must support AVX2, and AVX-512F when `PERMUTE`.
#[inline(always)]
unsafe fn exp_in_place_with<const PERMUTE: bool>(y: &mut [f32]) {
    let full = y.len() / 8 * 8;
    let mut i = 0;
    while i < full {
        // SAFETY: the caller guarantees the features; `i + 8 <= full <=
        // y.len()`.
        unsafe {
            let x = load8(y, i);
            if exp_special(x) {
                scalar::exp_in_place(&mut y[i..i + 8]);
            } else {
                store8(y, i, exp8::<PERMUTE>(x));
            }
        }
        i += 8;
    }
    scalar::exp_in_place(&mut y[full..]);
}

/// AVX2 twin of [`scalar::exp_in_place`], the table read by a gather.
#[target_feature(enable = "avx2")]
pub(super) fn exp_in_place(y: &mut [f32]) {
    // SAFETY: AVX2 is enabled on this function.
    unsafe { exp_in_place_with::<false>(y) }
}

/// AVX2 twin of [`scalar::exp_in_place`], the table read by permutes.
#[target_feature(enable = "avx2,avx512f")]
pub(super) fn exp_in_place_permute(y: &mut [f32]) {
    // SAFETY: AVX2 and AVX-512F are enabled on this function.
    unsafe { exp_in_place_with::<true>(y) }
}

/// [`scalar::sigmoid_silu`], 8 elements per step through [`exp8`]: the same
/// select of `−|x|`, `exp`, select of the numerator and one divide per
/// lane. Chunks with a lane at `|x| ≥ 88` or NaN, and the ragged tail, run
/// the scalar twin.
///
/// # Safety
///
/// The CPU must support AVX2, and AVX-512F when `PERMUTE`; `sigma` and
/// `silu` must be as long as `x`.
#[inline(always)]
unsafe fn sigmoid_silu_with<const PERMUTE: bool>(
    x: &[f32],
    mut sigma: Option<&mut [f32]>,
    mut silu: Option<&mut [f32]>,
) {
    let full = x.len() / 8 * 8;
    let mut i = 0;
    while i < full {
        // SAFETY: the caller guarantees the features and that every
        // output is as long as `x`; `i + 8 <= full <= x.len()`.
        unsafe {
            let v = load8(x, i);
            if exp_special(v) {
                scalar::sigmoid_silu(
                    &x[i..i + 8],
                    sigma.as_deref_mut().map(|s| &mut s[i..i + 8]),
                    silu.as_deref_mut().map(|s| &mut s[i..i + 8]),
                );
            } else {
                let zero = _mm256_setzero_ps();
                let one = _mm256_set1_ps(1.0);
                let pos = _mm256_cmp_ps::<_CMP_GT_OQ>(v, zero);
                let neg = _mm256_blendv_ps(v, _mm256_xor_ps(v, _mm256_set1_ps(-0.0)), pos);
                let e = exp8::<PERMUTE>(neg);
                let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(v, zero);
                let s = _mm256_div_ps(_mm256_blendv_ps(e, one, ge), _mm256_add_ps(one, e));
                if let Some(out) = sigma.as_deref_mut() {
                    store8(out, i, s);
                }
                if let Some(out) = silu.as_deref_mut() {
                    store8(out, i, _mm256_mul_ps(s, v));
                }
            }
        }
        i += 8;
    }
    scalar::sigmoid_silu(
        &x[full..],
        sigma.map(|s| &mut s[full..]),
        silu.map(|s| &mut s[full..]),
    );
}

/// AVX2 twin of [`scalar::sigmoid_silu`], the table read by a gather.
#[target_feature(enable = "avx2")]
pub(super) fn sigmoid_silu(x: &[f32], sigma: Option<&mut [f32]>, silu: Option<&mut [f32]>) {
    // SAFETY: AVX2 is enabled on this function; the dispatch function
    // checked the output lengths.
    unsafe { sigmoid_silu_with::<false>(x, sigma, silu) }
}

/// AVX2 twin of [`scalar::sigmoid_silu`], the table read by permutes.
#[target_feature(enable = "avx2,avx512f")]
pub(super) fn sigmoid_silu_permute(x: &[f32], sigma: Option<&mut [f32]>, silu: Option<&mut [f32]>) {
    // SAFETY: AVX2 and AVX-512F are enabled on this function; the
    // dispatch function checked the output lengths.
    unsafe { sigmoid_silu_with::<true>(x, sigma, silu) }
}

/// In-register 8×8 transpose: lane `j` of output row `i` is lane `i`
/// of input row `j`. Pure bit moves, so NaN payloads pass unchanged.
#[inline]
#[target_feature(enable = "avx2")]
fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    [
        _mm256_permute2f128_ps::<0x20>(s0, s4),
        _mm256_permute2f128_ps::<0x20>(s1, s5),
        _mm256_permute2f128_ps::<0x20>(s2, s6),
        _mm256_permute2f128_ps::<0x20>(s3, s7),
        _mm256_permute2f128_ps::<0x31>(s0, s4),
        _mm256_permute2f128_ps::<0x31>(s1, s5),
        _mm256_permute2f128_ps::<0x31>(s2, s6),
        _mm256_permute2f128_ps::<0x31>(s3, s7),
    ]
}

/// AVX2 twin of [`scalar::transpose`]: 8×8 blocks through
/// [`transpose8`], column blocks outermost so each block row of `out`
/// is finished before the next starts; the ragged right and bottom
/// strips copy one element at a time.
#[target_feature(enable = "avx2")]
pub(super) fn transpose(src: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    let (rows8, cols8) = (rows / 8 * 8, cols / 8 * 8);
    for j in (0..cols8).step_by(8) {
        for i in (0..rows8).step_by(8) {
            let mut block = [_mm256_setzero_ps(); 8];
            for (l, v) in block.iter_mut().enumerate() {
                *v = load8(src, (i + l) * cols + j);
            }
            for (l, v) in transpose8(block).into_iter().enumerate() {
                store8(out, (j + l) * rows + i, v);
            }
        }
    }
    for i in 0..rows {
        let j0 = if i < rows8 { cols8 } else { 0 };
        for j in j0..cols {
            out[j * rows + i] = src[i * cols + j];
        }
    }
}

/// Interleaves planes `p0..p0 + lanes` of `src` (`len` floats each)
/// pixel-major into `dst`: element `(j, l)` lands at `dst[j*8 + l]`.
/// Lanes past `lanes` (a ragged last group) are zero-filled.
#[target_feature(enable = "avx2")]
fn interleave(src: &[f32], len: usize, p0: usize, lanes: usize, dst: &mut [f32]) {
    let mut j = 0;
    if lanes == 8 {
        while j + 8 <= len {
            let mut rows = [_mm256_setzero_ps(); 8];
            for (l, r) in rows.iter_mut().enumerate() {
                *r = load8(src, (p0 + l) * len + j);
            }
            for (i, v) in transpose8(rows).into_iter().enumerate() {
                store8(dst, (j + i) * 8, v);
            }
            j += 8;
        }
    }
    for j in j..len {
        for l in 0..8 {
            dst[j * 8 + l] = if l < lanes {
                src[(p0 + l) * len + j]
            } else {
                0.0
            };
        }
    }
}

/// Inverse of [`interleave`] for the first `lanes` lanes.
#[target_feature(enable = "avx2")]
fn deinterleave(src: &[f32], len: usize, p0: usize, lanes: usize, dst: &mut [f32]) {
    let mut j = 0;
    if lanes == 8 {
        while j + 8 <= len {
            let mut rows = [_mm256_setzero_ps(); 8];
            for (i, r) in rows.iter_mut().enumerate() {
                *r = load8(src, (j + i) * 8);
            }
            for (l, v) in transpose8(rows).into_iter().enumerate() {
                store8(dst, (p0 + l) * len + j, v);
            }
            j += 8;
        }
    }
    for j in j..len {
        for l in 0..lanes {
            dst[(p0 + l) * len + j] = src[j * 8 + l];
        }
    }
}

/// Interleaves the kernel taps (and bias) of planes `p0..p0 + 8`:
/// plane `p` uses kernel `p % nk`; missing lanes get zeros.
fn interleave_kernels(
    ker: &[f32],
    kk: usize,
    bias: Option<&[f32]>,
    p0: usize,
    lanes: usize,
    ks: &mut [f32],
    bs: &mut [f32],
) {
    let nk = ker.len() / kk;
    for l in 0..8 {
        let kid = (p0 + l) % nk;
        for t in 0..kk {
            ks[t * 8 + l] = if l < lanes { ker[kid * kk + t] } else { 0.0 };
        }
        bs[l] = match bias {
            Some(b) if l < lanes => b[kid],
            _ => 0.0,
        };
    }
}

/// Scratch `f32`s the stencil kernels take: the lane-interleaved input,
/// output and kernel of the 8-plane groups the adjoint runs in lockstep
/// (the gather uses the first), plus bias lanes.
pub(super) fn stencil_scratch_len(st: &Stencil) -> usize {
    8 * ADJOINT_GROUPS * (st.h * st.w + st.out_h() * st.out_w() + st.kh * st.kw) + 8
}

/// Splits the stencil scratch into its interleaved input, output,
/// kernel and bias regions (the sizes [`stencil_scratch_len`] budgets).
fn split_scratch(
    scratch: &mut [f32],
    in_len: usize,
    out_len: usize,
    kk: usize,
) -> (&mut [f32], &mut [f32], &mut [f32], &mut [f32]) {
    let (a, rest) = scratch.split_at_mut(in_len * 8);
    let (b, rest) = rest.split_at_mut(out_len * 8);
    let (k, rest) = rest.split_at_mut(kk * 8);
    (a, b, k, &mut rest[..8])
}

/// AVX2 twin of [`scalar::stencil_gather`], 8 planes per group.
#[target_feature(enable = "avx2")]
pub(super) fn stencil_gather(
    x: &[f32],
    st: Stencil,
    ker: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    scratch: &mut [f32],
) {
    let (hw, ohw, kk) = (st.h * st.w, st.out_h() * st.out_w(), st.kh * st.kw);
    let planes = out.len() / ohw;
    let shared = ker.len() == kk;
    let (xs, os, ks, bs) = split_scratch(scratch, hw, ohw, kk);
    if shared {
        interleave_kernels(ker, kk, bias, 0, 8, ks, bs);
    }
    for p0 in (0..planes).step_by(8) {
        let lanes = (planes - p0).min(8);
        if !shared {
            interleave_kernels(ker, kk, bias, p0, lanes, ks, bs);
        }
        interleave(x, hw, p0, lanes, xs);
        gather_group(xs, st, ks, load8(bs, 0), os);
        deinterleave(os, ohw, p0, lanes, out);
    }
}

/// Gather over one interleaved group. Outputs whose window lies fully
/// inside the plane horizontally run four (or two) at a time, each in
/// its own accumulator, to hide the add latency of the serial tap chain.
#[target_feature(enable = "avx2")]
fn gather_group(xs: &[f32], st: Stencil, ks: &[f32], bias: __m256, os: &mut [f32]) {
    let (s, pad, kw) = (st.spec.stride, st.spec.pad, st.kw);
    let ow = st.out_w();
    // Outputs ox_lo..ox_hi use every kernel column.
    let ox_lo = pad.div_ceil(s).min(ow);
    let ox_hi = (st.w + pad)
        .checked_sub(kw)
        .map_or(0, |room| room / s + 1)
        .min(ow)
        .max(ox_lo);
    for oy in 0..st.out_h() {
        let (ky0, ky1) = st.taps_y(oy);
        let mut ox = 0;
        while ox < ow {
            if ox >= ox_lo && ox + 4 <= ox_hi {
                gather_run::<4>(xs, st, ks, bias, os, oy, (ky0, ky1), ox, (0, kw));
                ox += 4;
            } else if ox >= ox_lo && ox + 2 <= ox_hi {
                gather_run::<2>(xs, st, ks, bias, os, oy, (ky0, ky1), ox, (0, kw));
                ox += 2;
            } else {
                gather_run::<1>(xs, st, ks, bias, os, oy, (ky0, ky1), ox, st.taps_x(ox));
                ox += 1;
            }
        }
    }
}

/// `N` adjacent outputs of row `oy` sharing tap ranges `ky`, `kx`:
/// per lane `acc = bias`, then `acc + x·k` in ascending `(ky, kx)`.
#[inline]
#[target_feature(enable = "avx2")]
fn gather_run<const N: usize>(
    xs: &[f32],
    st: Stencil,
    ks: &[f32],
    bias: __m256,
    os: &mut [f32],
    oy: usize,
    (ky0, ky1): (usize, usize),
    ox: usize,
    (kx0, kx1): (usize, usize),
) {
    let (s, pad, w, kw) = (st.spec.stride, st.spec.pad, st.w, st.kw);
    let mut acc = [bias; N];
    for ky in ky0..ky1 {
        let row = (oy * s + ky - pad) * w + ox * s;
        for kx in kx0..kx1 {
            let kv = load8(ks, (ky * kw + kx) * 8);
            for (j, a) in acc.iter_mut().enumerate() {
                let xv = load8(xs, (row + j * s + kx - pad) * 8);
                *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, kv));
            }
        }
    }
    let ow = st.out_w();
    for (j, a) in acc.into_iter().enumerate() {
        store8(os, (oy * ow + ox + j) * 8, a);
    }
}

/// 8-plane groups the adjoint runs in lockstep, one accumulator each.
pub(super) const ADJOINT_GROUPS: usize = 4;

/// AVX2 twin of [`scalar::stencil_adjoint`]: batches of up to
/// [`ADJOINT_GROUPS`] 8-plane groups, each interleaved into its own
/// slice of the scratch (the slices are the gather's regions, scaled).
#[target_feature(enable = "avx2")]
pub(super) fn stencil_adjoint(
    g: &[f32],
    st: Stencil,
    ker: &[f32],
    out: &mut [f32],
    scratch: &mut [f32],
) {
    let (hw, ohw, kk) = (st.h * st.w, st.out_h() * st.out_w(), st.kh * st.kw);
    let planes = g.len() / ohw;
    let shared = ker.len() == kk;
    let (is, gs, ks, bs) = split_scratch(
        scratch,
        ADJOINT_GROUPS * hw,
        ADJOINT_GROUPS * ohw,
        ADJOINT_GROUPS * kk,
    );
    if shared {
        for ksg in ks.chunks_exact_mut(kk * 8) {
            interleave_kernels(ker, kk, None, 0, 8, ksg, bs);
        }
    }
    let mut p0 = 0;
    while p0 < planes {
        let groups = (planes - p0).div_ceil(8).min(ADJOINT_GROUPS);
        for j in 0..groups {
            let q0 = p0 + 8 * j;
            let lanes = (planes - q0).min(8);
            if !shared {
                interleave_kernels(
                    ker,
                    kk,
                    None,
                    q0,
                    lanes,
                    &mut ks[j * kk * 8..(j + 1) * kk * 8],
                    bs,
                );
            }
            interleave(g, ohw, q0, lanes, &mut gs[j * ohw * 8..(j + 1) * ohw * 8]);
        }
        match groups {
            1 => adjoint_groups::<1>(gs, st, ks, is),
            2 => adjoint_groups::<2>(gs, st, ks, is),
            3 => adjoint_groups::<3>(gs, st, ks, is),
            _ => adjoint_groups::<4>(gs, st, ks, is),
        }
        for j in 0..groups {
            let q0 = p0 + 8 * j;
            deinterleave(
                &is[j * hw * 8..(j + 1) * hw * 8],
                hw,
                q0,
                (planes - q0).min(8),
                out,
            );
        }
        p0 += 8 * groups;
    }
}

/// Adjoint over `G` interleaved groups, input pixel by input pixel:
/// `acc = 0`, then for every covering output in ascending `(oy, ox)`
/// `acc + g·k`, kept only in lanes where `g != 0` (NEQ_UQ: true for
/// NaN, false for ±0 — exactly the scalar `if`).
///
/// The groups share every index and branch, so their `G` serial
/// chains overlap. Lanes across groups rather than adjacent pixels:
/// a pixel's covering outputs are clipped differently from its
/// neighbours' wherever the window is wide relative to the output
/// (SSIM's 11×11 window over 10×10 outputs clips every pixel, giving
/// chains of up to 100 add + blend steps), but never differently from
/// the same pixel of another plane.
#[target_feature(enable = "avx2")]
fn adjoint_groups<const G: usize>(gs: &[f32], st: Stencil, ks: &[f32], is: &mut [f32]) {
    let (s, pad, w, kw, ow) = (st.spec.stride, st.spec.pad, st.w, st.kw, st.out_w());
    let (gstride, kstride, istride) = (st.out_h() * ow * 8, st.kh * kw * 8, st.h * w * 8);
    let zero = _mm256_setzero_ps();
    for iy in 0..st.h {
        let (oy0, oy1) = st.sources_y(iy);
        for ix in 0..w {
            let (ox0, ox1) = st.sources_x(ix);
            let mut acc = [zero; G];
            for oy in oy0..oy1 {
                let krow = (iy + pad - oy * s) * kw + ix + pad;
                for ox in ox0..ox1 {
                    let (gat, kat) = ((oy * ow + ox) * 8, (krow - ox * s) * 8);
                    for (j, a) in acc.iter_mut().enumerate() {
                        let gv = load8(gs, j * gstride + gat);
                        let kv = load8(ks, j * kstride + kat);
                        let sum = _mm256_add_ps(*a, _mm256_mul_ps(gv, kv));
                        *a = _mm256_blendv_ps(*a, sum, _mm256_cmp_ps::<_CMP_NEQ_UQ>(gv, zero));
                    }
                }
            }
            for (j, a) in acc.into_iter().enumerate() {
                store8(is, j * istride + (iy * w + ix) * 8, a);
            }
        }
    }
}

/// Each kernel listed is its [`scalar`] body, `#[inline(always)]` into an
/// AVX2 function: a plain map, which LLVM vectorises without reordering
/// any element's operations.
macro_rules! one_body {
    ($($f:ident($($arg:ident: $ty:ty),*);)*) => {$(
        #[doc = concat!("[`scalar::", stringify!($f), "`] compiled with AVX2.")]
        #[target_feature(enable = "avx2")]
        pub(super) fn $f($($arg: $ty),*) {
            scalar::$f($($arg),*)
        }
    )*};
}

one_body! {
    f16_decode(bytes: &[u8], out: &mut [f32]);
    q8_decode(bytes: &[u8], out: &mut [f32]);
    axpy(y: &mut [f32], s: f32, x: &[f32]);
    add_assign(y: &mut [f32], x: &[f32]);
    sub_assign(y: &mut [f32], x: &[f32]);
    scale(y: &mut [f32], s: f32);
    div(y: &mut [f32], z: f32);
    trigger_blend(out: &mut [f32], batch: &[f32], m: &[f32], p: &[f32]);
    trigger_backward(g: &[f32], x: &[f32], m: &[f32], p: &[f32], d_pattern: &mut [f32], d_mask: &mut [f32]);
    adam_step(pd: &mut [f32], gd: &[f32], md: &mut [f32], vd: &mut [f32], params: &AdamParams);
    silu_grad(g: &[f32], x: &[f32], s: &[f32], out: &mut [f32]);
}

/// Calls `f(at, blocks, live)` over the `n` lanes of one pixel run:
/// groups of four, two or one full 8-lane blocks (`live == 8`), then a
/// ragged block of `live < 8` lanes, masked.
#[inline(always)]
fn lane_blocks(n: usize, mut f: impl FnMut(usize, usize, usize)) {
    let mut i = 0;
    for g in [4, 2, 1] {
        while i + 8 * g <= n {
            f(i, g, 8);
            i += 8 * g;
        }
    }
    if i < n {
        f(i, 1, n - i);
    }
}

/// How many pixels (4, 2 or 1) to run side by side with `blocks` 8-lane
/// blocks each — at most 8 accumulators — where `same(p)` says pixel `p`
/// of the group shares the first pixel's tap pattern.
#[inline(always)]
fn pixels(blocks: usize, same: impl Fn(usize) -> bool) -> usize {
    match blocks {
        4 if same(1) => 2,
        1 | 2 if same(3) => 4,
        1 | 2 if same(1) => 2,
        _ => 1,
    }
}

/// `G` 8-lane blocks at `at`, or one masked block of `live` lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn load_block<const G: usize>(s: &[f32], at: usize, live: usize) -> [__m256; G] {
    debug_assert!(live == 8 || G == 1, "only a single block is ragged");
    let mut v = [_mm256_setzero_ps(); G];
    for (j, r) in v.iter_mut().enumerate() {
        *r = if live == 8 {
            load8(s, at + 8 * j)
        } else {
            maskload8(s, at, live, lane_mask(live))
        };
    }
    v
}

/// Stores what [`load_block`] loads.
#[inline]
#[target_feature(enable = "avx2")]
fn store_block<const G: usize>(s: &mut [f32], at: usize, live: usize, v: [__m256; G]) {
    for (j, r) in v.into_iter().enumerate() {
        if live == 8 {
            store8(s, at + 8 * j, r);
        } else {
            maskstore8(s, at, live, lane_mask(live), r);
        }
    }
}

/// Runs `$f::<P, G>($args)` for the runtime pixel count `$p` and block
/// count `$g` of [`pixels`] and [`lane_blocks`].
macro_rules! by_shape {
    ($f:ident, $p:expr, $g:expr, $($arg:expr),*) => {
        match ($p, $g) {
            (2, 4) => $f::<2, 4>($($arg),*),
            (_, 4) => $f::<1, 4>($($arg),*),
            (4, 2) => $f::<4, 2>($($arg),*),
            (2, 2) => $f::<2, 2>($($arg),*),
            (_, 2) => $f::<1, 2>($($arg),*),
            (4, _) => $f::<4, 1>($($arg),*),
            (2, _) => $f::<2, 1>($($arg),*),
            _ => $f::<1, 1>($($arg),*),
        }
    };
}

/// AVX2 twin of [`scalar::depthwise_gather`]: each output pixel's run of
/// `N` lanes in 8-lane blocks, the ragged last block masked. Up to four
/// adjacent outputs that share their tap range run side by side, up to 8
/// accumulators held in registers across the taps to hide the add
/// latency of each lane's serial tap chain.
#[target_feature(enable = "avx2")]
pub(super) fn depthwise_gather(
    x: &[f32],
    st: Stencil,
    n: usize,
    ker: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
) {
    let (w, kw, s, pad) = (st.w, st.kw, st.spec.stride, st.spec.pad);
    let (oh, ow) = (st.out_h(), st.out_w());
    let kk = st.kh * kw;
    for ch in 0..ker.len() / kk {
        let k = &ker[ch * kk..(ch + 1) * kk];
        let b = _mm256_set1_ps(bias.map_or(0.0, |b| b[ch]));
        let (xc, oc) = (ch * st.h * w * n, ch * oh * ow * n);
        lane_blocks(n, |i, g, live| {
            let mut ox = 0;
            while ox < ow {
                let kx = st.taps_x(ox);
                let p = pixels(g, |p| ox + p < ow && st.taps_x(ox + p) == kx);
                for oy in 0..oh {
                    let x_at = |ky: usize, kx: usize| {
                        xc + ((oy * s + ky - pad) * w + ox * s + kx - pad) * n + i
                    };
                    let at = oc + (oy * ow + ox) * n + i;
                    let geom = ((k, kw, st.taps_y(oy), kx), s * n, n);
                    by_shape!(gather_block, p, g, x, geom, b, x_at, live, out, at);
                }
                ox += p;
            }
        });
    }
}

/// The taps of a gather block: a channel's kernel, its width, and the
/// in-bounds `ky` and `kx` ranges.
type Taps<'a> = (&'a [f32], usize, (usize, usize), (usize, usize));

/// `P` adjacent output pixels' lanes `at..` in `G` blocks each: per lane
/// `acc = bias`, then `acc + x·k` over the taps in ascending `(ky, kx)`.
/// `x_at(ky, kx)` is the tap's first lane for the first pixel; the next
/// pixel's is `x_step` further in `x` and `o_step` further in `out`.
#[inline]
#[target_feature(enable = "avx2")]
fn gather_block<const P: usize, const G: usize>(
    x: &[f32],
    ((k, kw, (ky0, ky1), (kx0, kx1)), x_step, o_step): (Taps<'_>, usize, usize),
    bias: __m256,
    x_at: impl Fn(usize, usize) -> usize,
    live: usize,
    out: &mut [f32],
    at: usize,
) {
    let mut acc = [[bias; G]; P];
    for ky in ky0..ky1 {
        for kx in kx0..kx1 {
            let kv = _mm256_set1_ps(k[ky * kw + kx]);
            let base = x_at(ky, kx);
            for (p, accp) in acc.iter_mut().enumerate() {
                let xv = load_block::<G>(x, base + p * x_step, live);
                for (a, v) in accp.iter_mut().zip(xv) {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(v, kv));
                }
            }
        }
    }
    for (p, accp) in acc.into_iter().enumerate() {
        store_block(out, at + p * o_step, live, accp);
    }
}

/// AVX2 twin of [`scalar::depthwise_adjoint`], in the lane blocks of
/// [`depthwise_gather`]. Up to four input pixels `s` apart whose covering
/// outputs are the first pixel's shifted by one run side by side (they
/// read the same kernel taps); the scalar `g == 0.0` skip becomes a
/// `_CMP_NEQ_UQ` mask (see [`adjoint_block`]).
#[target_feature(enable = "avx2")]
pub(super) fn depthwise_adjoint(g: &[f32], st: Stencil, n: usize, ker: &[f32], out: &mut [f32]) {
    let (h, w, kw, s, pad) = (st.h, st.w, st.kw, st.spec.stride, st.spec.pad);
    let (oh, ow) = (st.out_h(), st.out_w());
    let kk = st.kh * kw;
    for ch in 0..ker.len() / kk {
        let k = &ker[ch * kk..(ch + 1) * kk];
        let (gc, ic) = (ch * oh * ow * n, ch * h * w * n);
        lane_blocks(n, |i, blocks, live| {
            for first in 0..s.min(w) {
                let mut ix = first;
                while ix < w {
                    let ox = st.sources_x(ix);
                    let p = pixels(blocks, |p| {
                        ix + p * s < w && st.sources_x(ix + p * s) == (ox.0 + p, ox.1 + p)
                    });
                    for iy in 0..h {
                        let k_at =
                            |oy: usize, ox: usize| (iy + pad - oy * s) * kw + ix + pad - ox * s;
                        let g_at = |oy: usize, ox: usize| gc + (oy * ow + ox) * n + i;
                        let at = ic + (iy * w + ix) * n + i;
                        let geom = ((k, st.sources_y(iy), ox), s * n, n);
                        by_shape!(adjoint_block, p, blocks, g, geom, k_at, g_at, live, out, at);
                    }
                    ix += p * s;
                }
            }
        });
    }
}

/// The covering outputs of an adjoint block's first pixel: a channel's
/// kernel and the `oy` and `ox` ranges.
type Sources<'a> = (&'a [f32], (usize, usize), (usize, usize));

/// `P` input pixels' lanes `at..` (the next pixel `o_step` further) in
/// `G` blocks each: per lane `acc = 0`, then for every covering output
/// `(k, oy range, ox range)` of the first pixel in ascending `(oy, ox)` —
/// the next pixel's is one output, `g_step` floats, further — `acc + g·k`
/// where `g != 0` (NEQ_UQ: true for NaN, false for ±0 — exactly the
/// scalar `if`). A skipped lane adds `−0.0` instead, which leaves every
/// value's bits as they are (`±0`, NaN and `∞` included), so the select
/// stays off each accumulator's serial add chain.
#[inline]
#[target_feature(enable = "avx2")]
fn adjoint_block<const P: usize, const G: usize>(
    g: &[f32],
    ((k, (oy0, oy1), (ox0, ox1)), o_step, g_step): (Sources<'_>, usize, usize),
    k_at: impl Fn(usize, usize) -> usize,
    g_at: impl Fn(usize, usize) -> usize,
    live: usize,
    out: &mut [f32],
    at: usize,
) {
    let (zero, neg_zero) = (_mm256_setzero_ps(), _mm256_set1_ps(-0.0));
    let mut acc = [[zero; G]; P];
    for oy in oy0..oy1 {
        for ox in ox0..ox1 {
            let kv = _mm256_set1_ps(k[k_at(oy, ox)]);
            let base = g_at(oy, ox);
            for (p, accp) in acc.iter_mut().enumerate() {
                let gv = load_block::<G>(g, base + p * g_step, live);
                for (a, v) in accp.iter_mut().zip(gv) {
                    let live = _mm256_cmp_ps::<_CMP_NEQ_UQ>(v, zero);
                    let term = _mm256_blendv_ps(neg_zero, _mm256_mul_ps(v, kv), live);
                    *a = _mm256_add_ps(*a, term);
                }
            }
        }
    }
    for (p, accp) in acc.into_iter().enumerate() {
        store_block(out, at + p * o_step, live, accp);
    }
}
