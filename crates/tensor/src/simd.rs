//! Tier-gated SIMD transcendentals for the training hot loops.
//!
//! The packed GEMM ([`crate::gemm`]) removes most of the matrix-multiply
//! cost, which leaves the LSTM's per-gate `sigmoid`/`tanh` loop as the
//! dominant term of its iteration time (≈80k libm calls per batch-16
//! iteration at the scaled shapes). This module provides vectorized
//! drop-ins for exactly that loop.
//!
//! # Numerics and tiering
//!
//! The vector `exp` is the classic Cephes-style polynomial (range-reduced
//! by `log2 e`, 6th-order minimax, exponent reassembled through the IEEE
//! bit pattern). It agrees with libm to a few ulps but is **not**
//! bit-identical to it, so these routines follow the same contract as the
//! GEMM microkernels: trajectories are bit-identical across worker counts
//! *within* a dispatch tier, never across tiers. Callers must gate on
//! [`crate::gemm::active_kernel`] and keep the scalar tier on the scalar
//! libm path — that is what keeps the committed scalar-tier golden traces
//! valid (see DESIGN.md §10).
//!
//! Only an AVX2+FMA implementation exists today; on the NEON tier callers
//! fall back to the scalar path, which keeps aarch64 trajectories
//! identical to the pre-SIMD ones.

/// True when [`lstm_gates_fast`] / [`lstm_cell_update_fast`] have a
/// vectorized implementation for `kernel`. Callers use this to pick
/// between the scalar (libm) loop and the fast path.
pub fn has_fast_transcendentals(kernel: crate::gemm::Kernel) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        kernel == crate::gemm::Kernel::Avx2
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = kernel;
        false
    }
}

/// Activates one LSTM pre-activation row `z = [i|f|g|o]` (each block
/// `hdim` wide) into the four gate buffers: `i,f,o ← σ(z)`, `g ← tanh(z)`.
///
/// # Panics
/// Panics if a fast path is unavailable (callers must check
/// [`has_fast_transcendentals`] first) or if slice lengths disagree.
pub fn lstm_gates_fast(
    z: &[f32],
    hdim: usize,
    i: &mut [f32],
    f: &mut [f32],
    g: &mut [f32],
    o: &mut [f32],
) {
    assert_eq!(z.len(), 4 * hdim, "z must hold 4 gate blocks");
    assert!(
        i.len() >= hdim && f.len() >= hdim && g.len() >= hdim && o.len() >= hdim,
        "gate buffers too short"
    );
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the Avx2 tier is only ever latched when runtime detection
        // confirmed avx2+fma (see `gemm::detect_kernel`).
        unsafe {
            avx2::sigmoid_slice(&z[..hdim], &mut i[..hdim]);
            avx2::sigmoid_slice(&z[hdim..2 * hdim], &mut f[..hdim]);
            avx2::tanh_slice(&z[2 * hdim..3 * hdim], &mut g[..hdim]);
            avx2::sigmoid_slice(&z[3 * hdim..4 * hdim], &mut o[..hdim]);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (z, hdim, i, f, g, o);
        unreachable!("lstm_gates_fast called without a SIMD tier");
    }
}

/// Fused LSTM cell update: `c ← f⊙c_prev + i⊙g`, `tanh_c ← tanh(c)`,
/// `h ← o⊙tanh_c`, elementwise over `n` cells.
///
/// # Panics
/// Panics if a fast path is unavailable or if slice lengths disagree.
#[allow(clippy::too_many_arguments)]
pub fn lstm_cell_update_fast(
    i: &[f32],
    f: &[f32],
    g: &[f32],
    o: &[f32],
    c_prev: &[f32],
    c: &mut [f32],
    tanh_c: &mut [f32],
    h: &mut [f32],
) {
    let n = c.len();
    assert!(
        i.len() == n
            && f.len() == n
            && g.len() == n
            && o.len() == n
            && c_prev.len() == n
            && tanh_c.len() == n
            && h.len() == n,
        "cell-update slice lengths disagree"
    );
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: only reachable on the Avx2 tier (see above).
        unsafe { avx2::cell_update(i, f, g, o, c_prev, c, tanh_c, h) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (i, f, g, o, c_prev, c, tanh_c, h);
        unreachable!("lstm_cell_update_fast called without a SIMD tier");
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    // Cephes exp constants (single precision).
    const EXP_HI: f32 = 88.376_26;
    const EXP_LO: f32 = -87.336_55;
    const LOG2EF: f32 = std::f32::consts::LOG2_E;
    const C1: f32 = 0.693_359_4; // ln 2, high part
    const C2: f32 = -2.121_944_4e-4; // ln 2, low part
    const P0: f32 = 1.987_569_1e-4;
    const P1: f32 = 1.398_199_9e-3;
    const P2: f32 = 8.333_452e-3;
    const P3: f32 = 4.166_579_5e-2;
    const P4: f32 = 1.666_666_6e-1;
    const P5: f32 = 5e-1;

    /// Vector `e^x` for one lane group, |rel err| ≲ 2e-7 over the clamped
    /// range.
    #[inline(always)]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        let x = _mm256_min_ps(x, _mm256_set1_ps(EXP_HI));
        let x = _mm256_max_ps(x, _mm256_set1_ps(EXP_LO));
        // n = round(x / ln2) via floor(x·log2e + 0.5).
        let fx = _mm256_fmadd_ps(x, _mm256_set1_ps(LOG2EF), _mm256_set1_ps(0.5));
        let n = _mm256_floor_ps(fx);
        // r = x − n·ln2, split into high/low parts for extra precision.
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(C1), x);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(C2), r);
        // Minimax polynomial for e^r on [−ln2/2, ln2/2].
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P1));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P2));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P3));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P4));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(P5));
        let r2 = _mm256_mul_ps(r, r);
        y = _mm256_fmadd_ps(y, r2, r);
        y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        // 2^n through the exponent field.
        let exp_bits = _mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(0x7f),
        ));
        _mm256_mul_ps(y, _mm256_castsi256_ps(exp_bits))
    }

    /// σ(x) = 1 / (1 + e^{−x}).
    #[inline(always)]
    unsafe fn sigmoid_ps(x: __m256) -> __m256 {
        let e = exp_ps(_mm256_sub_ps(_mm256_setzero_ps(), x));
        _mm256_div_ps(_mm256_set1_ps(1.0), _mm256_add_ps(_mm256_set1_ps(1.0), e))
    }

    /// tanh(x) = 1 − 2/(e^{2x} + 1), clamped where it saturates in f32.
    #[inline(always)]
    unsafe fn tanh_ps(x: __m256) -> __m256 {
        // |x| ≥ 10 comfortably rounds to ±1 in f32; clamping keeps 2x inside
        // exp's exact range.
        let x = _mm256_min_ps(x, _mm256_set1_ps(10.0));
        let x = _mm256_max_ps(x, _mm256_set1_ps(-10.0));
        let e2x = exp_ps(_mm256_add_ps(x, x));
        let two = _mm256_set1_ps(2.0);
        _mm256_sub_ps(
            _mm256_set1_ps(1.0),
            _mm256_div_ps(two, _mm256_add_ps(e2x, _mm256_set1_ps(1.0))),
        )
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sigmoid_slice(x: &[f32], out: &mut [f32]) {
        let n = x.len();
        let mut p = 0;
        while p + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(p));
            _mm256_storeu_ps(out.as_mut_ptr().add(p), sigmoid_ps(v));
            p += 8;
        }
        if p < n {
            // Remainder through the same vector math (via a stack pad) so
            // every element sees identical arithmetic.
            let mut pad = [0.0f32; 8];
            pad[..n - p].copy_from_slice(&x[p..]);
            let v = _mm256_loadu_ps(pad.as_ptr());
            _mm256_storeu_ps(pad.as_mut_ptr(), sigmoid_ps(v));
            out[p..n].copy_from_slice(&pad[..n - p]);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tanh_slice(x: &[f32], out: &mut [f32]) {
        let n = x.len();
        let mut p = 0;
        while p + 8 <= n {
            let v = _mm256_loadu_ps(x.as_ptr().add(p));
            _mm256_storeu_ps(out.as_mut_ptr().add(p), tanh_ps(v));
            p += 8;
        }
        if p < n {
            let mut pad = [0.0f32; 8];
            pad[..n - p].copy_from_slice(&x[p..]);
            let v = _mm256_loadu_ps(pad.as_ptr());
            _mm256_storeu_ps(pad.as_mut_ptr(), tanh_ps(v));
            out[p..n].copy_from_slice(&pad[..n - p]);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn cell_update(
        i: &[f32],
        f: &[f32],
        g: &[f32],
        o: &[f32],
        c_prev: &[f32],
        c: &mut [f32],
        tanh_c: &mut [f32],
        h: &mut [f32],
    ) {
        let n = c.len();
        let mut p = 0;
        while p + 8 <= n {
            let iv = _mm256_loadu_ps(i.as_ptr().add(p));
            let fv = _mm256_loadu_ps(f.as_ptr().add(p));
            let gv = _mm256_loadu_ps(g.as_ptr().add(p));
            let ov = _mm256_loadu_ps(o.as_ptr().add(p));
            let cp = _mm256_loadu_ps(c_prev.as_ptr().add(p));
            let cv = _mm256_fmadd_ps(fv, cp, _mm256_mul_ps(iv, gv));
            _mm256_storeu_ps(c.as_mut_ptr().add(p), cv);
            let tc = tanh_ps(cv);
            _mm256_storeu_ps(tanh_c.as_mut_ptr().add(p), tc);
            _mm256_storeu_ps(h.as_mut_ptr().add(p), _mm256_mul_ps(ov, tc));
            p += 8;
        }
        while p < n {
            let cv = f[p].mul_add(c_prev[p], i[p] * g[p]);
            c[p] = cv;
            // Scalar remainder of the same rational tanh as `tanh_ps`.
            let xc = cv.clamp(-10.0, 10.0);
            let tc = 1.0 - 2.0 / ((2.0 * xc).exp() + 1.0);
            tanh_c[p] = tc;
            h[p] = o[p] * tc;
            p += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::Kernel;

    #[test]
    fn fast_paths_exist_exactly_where_expected() {
        assert!(!has_fast_transcendentals(Kernel::Scalar));
        #[cfg(target_arch = "x86_64")]
        assert!(has_fast_transcendentals(Kernel::Avx2));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_gates_match_libm_closely() {
        if !Kernel::Avx2.is_available() {
            return;
        }
        let hdim = 13; // odd width exercises the pad remainder
        let z: Vec<f32> = (0..4 * hdim)
            .map(|k| ((k as f32) * 0.37 - 9.5).sin() * 6.0)
            .collect();
        let (mut i, mut f) = (vec![0.0f32; hdim], vec![0.0f32; hdim]);
        let (mut g, mut o) = (vec![0.0f32; hdim], vec![0.0f32; hdim]);
        lstm_gates_fast(&z, hdim, &mut i, &mut f, &mut g, &mut o);
        for k in 0..hdim {
            let sig = |x: f32| 1.0 / (1.0 + (-x).exp());
            assert!((i[k] - sig(z[k])).abs() < 1e-6, "i[{k}]");
            assert!((f[k] - sig(z[hdim + k])).abs() < 1e-6, "f[{k}]");
            assert!((g[k] - z[2 * hdim + k].tanh()).abs() < 1e-6, "g[{k}]");
            assert!((o[k] - sig(z[3 * hdim + k])).abs() < 1e-6, "o[{k}]");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_cell_update_matches_scalar_formula() {
        if !Kernel::Avx2.is_available() {
            return;
        }
        let n = 19;
        let v = |s: f32| -> Vec<f32> { (0..n).map(|k| ((k as f32) + s).cos()).collect() };
        let (i, f, g, o, cp) = (v(0.1), v(0.2), v(0.3), v(0.4), v(0.5));
        let mut c = vec![0.0f32; n];
        let mut tc = vec![0.0f32; n];
        let mut h = vec![0.0f32; n];
        lstm_cell_update_fast(&i, &f, &g, &o, &cp, &mut c, &mut tc, &mut h);
        for k in 0..n {
            let cv = f[k] * cp[k] + i[k] * g[k];
            assert!((c[k] - cv).abs() < 1e-6);
            assert!((tc[k] - cv.tanh()).abs() < 1e-6);
            assert!((h[k] - o[k] * cv.tanh()).abs() < 1e-6);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_transcendentals_saturate_cleanly_at_the_extremes() {
        if !Kernel::Avx2.is_available() {
            return;
        }
        let hdim = 8;
        let mut z = vec![0.0f32; 4 * hdim];
        for k in 0..hdim {
            z[k] = 120.0; // σ → 1
            z[hdim + k] = -120.0; // σ → 0
            z[2 * hdim + k] = if k % 2 == 0 { 40.0 } else { -40.0 }; // tanh → ±1
            z[3 * hdim + k] = 0.0; // σ → 0.5
        }
        let (mut i, mut f) = (vec![0.0f32; hdim], vec![0.0f32; hdim]);
        let (mut g, mut o) = (vec![0.0f32; hdim], vec![0.0f32; hdim]);
        lstm_gates_fast(&z, hdim, &mut i, &mut f, &mut g, &mut o);
        for k in 0..hdim {
            assert_eq!(i[k], 1.0);
            // exp clamps rather than overflowing, so σ(−120) is a
            // subnormal whisker above zero instead of exactly 0.0.
            assert!(f[k] >= 0.0 && f[k] < 1e-30, "f[{k}] = {}", f[k]);
            assert_eq!(g[k], if k % 2 == 0 { 1.0 } else { -1.0 });
            assert_eq!(o[k], 0.5);
            assert!(i[k].is_finite() && g[k].is_finite());
        }
    }
}
