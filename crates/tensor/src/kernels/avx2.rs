//! The AVX2 twins of the [`super::scalar`] reference loops.
//!
//! The plain maps (the decoders, the elementwise ops, the trigger blend
//! and backward, Adam, SiLU's gradient) are their scalar bodies compiled
//! with AVX2, one line each in `one_body!`. What remains here is
//! hand-written, for kernels whose vector form the compiler cannot derive:
//! the GEMM tiles, the transpose, `exp`'s table reads and the depthwise
//! stencil pair. Lane layout is always "8 independent output elements"
//! (for the stencils: one pixel of 8 images, or of 8 channels of one
//! image); every lane executes the scalar op sequence for its element
//! verbatim (mul then add — `vmulps`/`vaddps`, never `vfmadd`), and
//! ragged tails run the scalar twin itself (the GEMM and the stencils
//! instead mask the lanes past their edge), so results are bit-identical
//! to the scalar tier.
//! `unsafe` here is confined to the raw-pointer load/store helpers,
//! each guarded by a `debug_assert!` and called only with in-bounds
//! geometry — which is why the dispatch functions in [`super`] check every
//! slice length before calling in, after runtime feature detection.
#![allow(clippy::too_many_arguments)]

use super::scalar::{self, MR};
use super::AdamParams;
use crate::conv::Stencil;
use crate::Workspace;
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

/// Runs `$f::<P, G, $t>($args)` for the runtime pixel count `$p` and
/// block count `$g` of [`pixels`] and [`lane_blocks`].
macro_rules! by_shape {
    ($f:ident::<$t:ident>, $p:expr, $g:expr, $($arg:expr),*) => {
        match ($p, $g) {
            (2, 4) => $f::<2, 4, $t>($($arg),*),
            (_, 4) => $f::<1, 4, $t>($($arg),*),
            (4, 2) => $f::<4, 2, $t>($($arg),*),
            (2, 2) => $f::<2, 2, $t>($($arg),*),
            (_, 2) => $f::<1, 2, $t>($($arg),*),
            (4, _) => $f::<4, 1, $t>($($arg),*),
            (2, _) => $f::<2, 1, $t>($($arg),*),
            _ => $f::<1, 1, $t>($($arg),*),
        }
    };
}

/// Where a lane block's weights come from. Broadcast (`TABLE` false):
/// `w[at + t]` is row `t`'s weight for every lane. Table: `w` holds rows
/// of `lanes` weights, one per lane, and the block reads row `t` from
/// `w[at + t·lanes]` on.
#[derive(Clone, Copy)]
struct Weights<'a> {
    w: &'a [f32],
    at: usize,
    lanes: usize,
}

impl Weights<'_> {
    /// Row `t` as `G` 8-lane vectors, or one vector of `live` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn row<const TABLE: bool, const G: usize>(self, t: usize, live: usize) -> [__m256; G] {
        if TABLE {
            load_block(self.w, self.at + t * self.lanes, live)
        } else {
            [_mm256_set1_ps(self.w[self.at + t]); G]
        }
    }
}

/// Runs `lanes(src, table, out)` with one image's `C` channels across the
/// lanes: `src` (`[C, src_len]`), `ker` (`[C, KH·KW]`) and `out`
/// (`[C, out_len]`) are transposed to `[src_len, C]`, `[KH·KW, C]` and
/// `[out_len, C]` through buffers from `ws`.
#[target_feature(enable = "avx2")]
fn channels_across_lanes(
    src: &[f32],
    ker: &[f32],
    kk: usize,
    out: &mut [f32],
    ws: &mut Workspace,
    lanes: impl FnOnce(&[f32], &[f32], &mut [f32]),
) {
    let c = ker.len() / kk;
    let [mut src_t, mut table, mut out_t] =
        [src.len(), ker.len(), out.len()].map(|len| ws.take_dirty(len));
    transpose(src, c, src.len() / c, &mut src_t);
    transpose(ker, c, kk, &mut table);
    lanes(&src_t, &table, &mut out_t);
    transpose(&out_t, out.len() / c, c, out);
    for buf in [src_t, table, out_t] {
        ws.put(buf);
    }
}

/// AVX2 twin of [`scalar::depthwise_gather`]. A batch (`n > 1`) or a
/// single kernel runs [`gather`] as it comes, each tap's weight broadcast
/// over a pixel's `N` lanes. One image of several channels would leave
/// seven of every eight lanes idle, so its channels go across the lanes
/// instead ([`channels_across_lanes`]), each lane reading its own
/// channel's weights from the transposed kernels.
#[target_feature(enable = "avx2")]
pub(super) fn depthwise_gather(
    x: &[f32],
    st: Stencil,
    n: usize,
    ker: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    let kk = st.kh * st.kw;
    let c = ker.len() / kk;
    if n > 1 || c == 1 {
        return gather::<false>(x, st, n, ker, bias, out);
    }
    channels_across_lanes(x, ker, kk, out, ws, |xt, table, ot| {
        gather::<true>(xt, st, c, table, bias, ot)
    });
}

/// [`depthwise_gather`] over lanes: each output pixel's run of `n` lanes
/// in 8-lane blocks, the ragged last block masked. Up to four adjacent
/// outputs that share their tap range run side by side, up to 8
/// accumulators held in registers across the taps to hide the add latency
/// of each lane's serial tap chain. Without `TABLE`, `ker` and `bias`
/// hold a kernel and a value per channel, broadcast over the lanes; with
/// it, one channel's lanes read `ker` as a `[KH·KW, n]` table and `bias`
/// as one value per lane.
#[target_feature(enable = "avx2")]
fn gather<const TABLE: bool>(
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
    let channels = if TABLE { 1 } else { ker.len() / kk };
    for ch in 0..channels {
        let (xc, oc) = (ch * st.h * w * n, ch * oh * ow * n);
        lane_blocks(n, |i, g, live| {
            // Channel `ch`'s kernel and bias, or the table's lanes `i..`.
            let at = |per_channel: usize| if TABLE { i } else { per_channel };
            let k = Weights {
                w: ker,
                at: at(ch * kk),
                lanes: n,
            };
            let b = bias.map(|w| Weights {
                w,
                at: at(ch),
                lanes: n,
            });
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
                    by_shape!(gather_block::<TABLE>, p, g, x, geom, b, x_at, live, out, at);
                }
                ox += p;
            }
        });
    }
}

/// The taps of a gather block: their weights, the kernel width, and the
/// in-bounds `ky` and `kx` ranges.
type Taps<'a> = (Weights<'a>, usize, (usize, usize), (usize, usize));

/// `P` adjacent output pixels' lanes `at..` in `G` blocks each: per lane
/// `acc = bias` (or `0.0`), then `acc + x·k` over the taps in ascending
/// `(ky, kx)`. `x_at(ky, kx)` is the tap's first lane for the first
/// pixel; the next pixel's is `x_step` further in `x` and `o_step`
/// further in `out`.
#[inline]
#[target_feature(enable = "avx2")]
fn gather_block<const P: usize, const G: usize, const TABLE: bool>(
    x: &[f32],
    ((k, kw, (ky0, ky1), (kx0, kx1)), x_step, o_step): (Taps<'_>, usize, usize),
    bias: Option<Weights<'_>>,
    x_at: impl Fn(usize, usize) -> usize,
    live: usize,
    out: &mut [f32],
    at: usize,
) {
    let b = bias.map_or([_mm256_setzero_ps(); G], |b| b.row::<TABLE, G>(0, live));
    let mut acc = [b; P];
    for ky in ky0..ky1 {
        for kx in kx0..kx1 {
            let kv = k.row::<TABLE, G>(ky * kw + kx, live);
            let base = x_at(ky, kx);
            for (p, accp) in acc.iter_mut().enumerate() {
                let xv = load_block::<G>(x, base + p * x_step, live);
                for ((a, v), kv) in accp.iter_mut().zip(xv).zip(kv) {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(v, kv));
                }
            }
        }
    }
    for (p, accp) in acc.into_iter().enumerate() {
        store_block(out, at + p * o_step, live, accp);
    }
}

/// AVX2 twin of [`scalar::depthwise_adjoint`], with the lanes of
/// [`depthwise_gather`]: a batch or a single kernel as it comes, one
/// image's channels across the lanes.
#[target_feature(enable = "avx2")]
pub(super) fn depthwise_adjoint(
    g: &[f32],
    st: Stencil,
    n: usize,
    ker: &[f32],
    out: &mut [f32],
    ws: &mut Workspace,
) {
    let kk = st.kh * st.kw;
    let c = ker.len() / kk;
    if n > 1 || c == 1 {
        return adjoint::<false>(g, st, n, ker, out);
    }
    channels_across_lanes(g, ker, kk, out, ws, |gt, table, it| {
        adjoint::<true>(gt, st, c, table, it)
    });
}

/// [`depthwise_adjoint`] over lanes, in the lane blocks and weight
/// sources of [`gather`]. Up to four input pixels `s` apart whose
/// covering outputs are the first pixel's shifted by one run side by side
/// (they read the same kernel taps); the scalar `g == 0.0` skip becomes a
/// `_CMP_NEQ_UQ` mask (see [`adjoint_block`]).
#[target_feature(enable = "avx2")]
fn adjoint<const TABLE: bool>(g: &[f32], st: Stencil, n: usize, ker: &[f32], out: &mut [f32]) {
    let (h, w, kw, s, pad) = (st.h, st.w, st.kw, st.spec.stride, st.spec.pad);
    let (oh, ow) = (st.out_h(), st.out_w());
    let kk = st.kh * kw;
    let channels = if TABLE { 1 } else { ker.len() / kk };
    for ch in 0..channels {
        let (gc, ic) = (ch * oh * ow * n, ch * h * w * n);
        lane_blocks(n, |i, blocks, live| {
            let k = Weights {
                w: ker,
                at: if TABLE { i } else { ch * kk },
                lanes: n,
            };
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
                        by_shape!(
                            adjoint_block::<TABLE>,
                            p,
                            blocks,
                            g,
                            geom,
                            k_at,
                            g_at,
                            live,
                            out,
                            at
                        );
                    }
                    ix += p * s;
                }
            }
        });
    }
}

/// The covering outputs of an adjoint block's first pixel: the kernel's
/// weights and the `oy` and `ox` ranges.
type Sources<'a> = (Weights<'a>, (usize, usize), (usize, usize));

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
fn adjoint_block<const P: usize, const G: usize, const TABLE: bool>(
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
            let kv = k.row::<TABLE, G>(k_at(oy, ox), live);
            let base = g_at(oy, ox);
            for (p, accp) in acc.iter_mut().enumerate() {
                let gv = load_block::<G>(g, base + p * g_step, live);
                for ((a, v), kv) in accp.iter_mut().zip(gv).zip(kv) {
                    let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(v, zero);
                    let term = _mm256_blendv_ps(neg_zero, _mm256_mul_ps(v, kv), keep);
                    *a = _mm256_add_ps(*a, term);
                }
            }
        }
    }
    for (p, accp) in acc.into_iter().enumerate() {
        store_block(out, at + p * o_step, live, accp);
    }
}
