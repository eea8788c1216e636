//! Packed, cache-blocked GEMM with a register-tiled microkernel.
//!
//! This is the single matrix-multiply engine behind every `ops::matmul*`
//! variant (and, through im2col, the convolution layers). The structure is
//! the classic BLIS/GotoBLAS decomposition:
//!
//! * an `MR`×`NR` (8×4) f32 **microkernel** that keeps the output tile in a
//!   local accumulator array — small enough for registers, shaped so LLVM
//!   auto-vectorizes the inner update on the SSE2 baseline;
//! * **packing**: before use, panels of A and B are copied into contiguous
//!   strip-major scratch buffers (`MR`- resp. `NR`-wide strips, depth-major)
//!   so the microkernel streams both operands with unit stride regardless of
//!   the logical transpose;
//! * **cache blocking** with `MC`×`KC` blocks of A (sized for L2) and
//!   `KC`×`NC` panels of B (L1-resident strips), amortizing each pack across
//!   many microkernel invocations.
//!
//! Edge tiles (when `m`/`n` are not multiples of the tile sizes) are packed
//! zero-padded, computed with the full-width kernel, and only the real
//! `mr`×`nr` region is written back — the padding never contributes to a
//! stored element's dot product, so edge tiles see the *same summation
//! order* as interior ones.
//!
//! # Accumulation policy
//!
//! All matmul variants accumulate in **f32** inside the microkernel
//! (previously `matmul_transpose_b` accumulated in f64 while the other
//! kernels used f32 axpy — an inconsistency this module resolves). Rounding
//! error grows like `O(√k · ε)` for random data (`O(k · ε)` worst case),
//! which is well inside training noise for the layer sizes this workspace
//! simulates; `ops` carries a large-`k` regression test against an f64
//! reference pinning this. The *statistical progress* metric (FedCA Eq. 1)
//! still uses `linalg::dot`'s f64 accumulation — that path aggregates entire
//! flattened models, where precision is load-bearing.
//!
//! # SIMD dispatch
//!
//! The microkernel has three implementations — portable scalar (the
//! auto-vectorized SSE2 baseline), AVX2+FMA (`x86_64`), and NEON
//! (`aarch64`) — selected once per process by [`active_kernel`]: runtime
//! feature detection picks the best compiled-in tier, and the
//! `FEDCA_FORCE_KERNEL={scalar,avx2,neon}` environment variable overrides it
//! (so CI can exercise the scalar fallback on SIMD hardware). All tiers
//! share the same blocking, packing layout, and strictly-sequential K loop;
//! only the in-register accumulation schedule differs.
//!
//! # Determinism
//!
//! Results are **bit-identical per dispatch tier**, on any host. A GEMM runs
//! on the calling thread only — the per-process `RoundExecutor` pool is the
//! workspace's one source of compute parallelism, so nothing here spawns —
//! and the depth (`k`) loop is strictly sequential, so every output element
//! is produced by one fixed sequence of f32 additions. Different tiers may
//! legitimately produce different low-order bits (FMA contracts the
//! multiply-add rounding; the AVX2 kernel interleaves two accumulation
//! chains over `k`), which is why golden-trace fixtures are recorded *per
//! tier* and the golden suite pins the scalar kernel explicitly. The
//! 1-vs-4-worker golden-trace and chaos suites rely on this, and
//! `tests/gemm_parity.rs` checks every tier the host can run against an f64
//! reference and against the scalar kernel.

use std::cell::RefCell;
use std::sync::OnceLock;

/// Microkernel tile height (output rows per register tile).
pub const MR: usize = 8;
/// Microkernel tile width (output columns per register tile).
pub const NR: usize = 4;
/// Rows of A packed per L2-resident block (multiple of `MR`).
pub const MC: usize = 64;
/// Depth (k extent) of each packed panel.
pub const KC: usize = 256;
/// Columns of B packed per panel (multiple of `NR`).
pub const NC: usize = 512;

thread_local! {
    // Reusable pack scratch. Thread-local so the persistent executor workers
    // and the main thread each keep a warm buffer: after the first few
    // calls at a given shape, packing performs zero heap allocations.
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// A microkernel implementation tier. Every tier consumes the same packed
/// strips and produces a full `MR`×`NR` register tile; they differ only in
/// the instructions (and accumulation schedule) used to do it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar kernel (LLVM auto-vectorizes on the SSE2 baseline).
    /// Always available; the reference tier for golden-trace fixtures.
    Scalar,
    /// AVX2 + FMA intrinsics (`x86_64` only, runtime-detected).
    Avx2,
    /// NEON intrinsics (`aarch64` only, baseline feature there).
    Neon,
}

impl Kernel {
    /// The tier's stable lowercase name (`scalar` / `avx2` / `neon`), as
    /// accepted by `FEDCA_FORCE_KERNEL`.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
            Kernel::Neon => "neon",
        }
    }

    /// Parses a `FEDCA_FORCE_KERNEL` value. Case-sensitive by design: the
    /// accepted names are exactly what [`Kernel::name`] prints.
    pub fn from_name(name: &str) -> Option<Kernel> {
        match name {
            "scalar" => Some(Kernel::Scalar),
            "avx2" => Some(Kernel::Avx2),
            "neon" => Some(Kernel::Neon),
            _ => None,
        }
    }

    /// Whether this tier can run on the current host (compiled in *and*
    /// supported by the CPU).
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Scalar => true,
            Kernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Kernel::Neon => cfg!(target_arch = "aarch64"),
        }
    }
}

/// Every tier the current host can execute, best first. `Scalar` is always
/// present (and always last), so the parity suite can iterate this to test
/// each compiled SIMD tier against the scalar kernel.
pub fn available_kernels() -> Vec<Kernel> {
    [Kernel::Avx2, Kernel::Neon, Kernel::Scalar]
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

/// Process-wide dispatch decision, made once on first use.
static ACTIVE: OnceLock<Kernel> = OnceLock::new();

fn detect_kernel() -> Kernel {
    if let Ok(name) = std::env::var("FEDCA_FORCE_KERNEL") {
        let k = Kernel::from_name(name.trim()).unwrap_or_else(|| {
            panic!("FEDCA_FORCE_KERNEL={name:?}: expected scalar, avx2, or neon")
        });
        assert!(
            k.is_available(),
            "FEDCA_FORCE_KERNEL={} but that tier is unavailable on this host",
            k.name()
        );
        return k;
    }
    available_kernels()[0]
}

/// The tier every implicit-dispatch entry point uses, latched on first call:
/// the `FEDCA_FORCE_KERNEL` override if set, else the best available tier.
pub fn active_kernel() -> Kernel {
    *ACTIVE.get_or_init(detect_kernel)
}

/// Latches the process-wide dispatch to `kernel` (golden-trace suites pin
/// `Scalar` so their fixtures stay byte-identical on SIMD hosts). Returns
/// the tier actually active: if dispatch already latched — by an earlier
/// call or a prior matmul — the existing tier wins, so callers must assert
/// on the return value rather than assume.
///
/// # Panics
/// Panics if `kernel` is unavailable on this host.
pub fn force_kernel(kernel: Kernel) -> Kernel {
    assert!(
        kernel.is_available(),
        "cannot force unavailable kernel tier {}",
        kernel.name()
    );
    *ACTIVE.get_or_init(|| kernel)
}

/// `C += op(A) · op(B)` on the process-wide dispatch tier
/// ([`active_kernel`]).
///
/// Logical dims are `op(A): [m,k]`, `op(B): [k,n]`, `C: [m,n]`, all
/// row-major and densely packed. `trans_a` means A is *stored* `[k,m]`;
/// `trans_b` means B is *stored* `[n,k]`.
///
/// # Panics
/// Panics if a slice length does not match its logical dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm_acc(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    gemm_acc_on(active_kernel(), trans_a, trans_b, m, n, k, a, b, c);
}

/// [`gemm_acc`] on an explicit microkernel tier. Public so the parity suite
/// can compare every compiled tier in one process without touching the
/// latched dispatch state.
///
/// # Panics
/// Panics if a slice length does not match its logical dimensions, or if
/// `kernel` is unavailable on this host.
#[allow(clippy::too_many_arguments)]
pub fn gemm_acc_on(
    kernel: Kernel,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert!(
        kernel.is_available(),
        "kernel tier {} unavailable on this host",
        kernel.name()
    );
    assert_eq!(a.len(), m * k, "gemm lhs length mismatch");
    assert_eq!(b.len(), k * n, "gemm rhs length mismatch");
    assert_eq!(c.len(), m * n, "gemm out length mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    PACK_B.with(|cell| {
        let mut bp = cell.borrow_mut();
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for p0 in (0..k).step_by(KC) {
                let kc = KC.min(k - p0);
                let need = nc.div_ceil(NR) * kc * NR;
                if bp.len() < need {
                    bp.resize(need, 0.0);
                }
                pack_b_block(&mut bp[..need], b, trans_b, k, n, p0, kc, jc, nc);
                compute_rows(kernel, c, a, trans_a, m, k, &bp[..need], jc, nc, p0, kc, n);
            }
        }
    });
}

/// Processes all `m` output rows against one packed B panel: packs A in
/// `MC`-row blocks (into this thread's scratch) and runs the microkernel
/// grid over C.
#[allow(clippy::too_many_arguments)]
fn compute_rows(
    kernel: Kernel,
    c: &mut [f32],
    a: &[f32],
    trans_a: bool,
    m: usize,
    k: usize,
    b_pack: &[f32],
    jc: usize,
    nc: usize,
    p0: usize,
    kc: usize,
    n: usize,
) {
    PACK_A.with(|cell| {
        let mut ap = cell.borrow_mut();
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            let need = mc.div_ceil(MR) * kc * MR;
            if ap.len() < need {
                ap.resize(need, 0.0);
            }
            pack_a_block(&mut ap[..need], a, trans_a, m, k, ic, mc, p0, kc);
            let n_strips = nc.div_ceil(NR);
            let m_strips = mc.div_ceil(MR);
            for js in 0..n_strips {
                let bs = &b_pack[js * kc * NR..(js + 1) * kc * NR];
                let nr = NR.min(nc - js * NR);
                for is in 0..m_strips {
                    let asl = &ap[is * kc * MR..(is + 1) * kc * MR];
                    let mr = MR.min(mc - is * MR);
                    let base = (ic + is * MR) * n + jc + js * NR;
                    micro_kernel_dispatch(kernel, asl, bs, &mut c[base..], n, mr, nr);
                }
            }
        }
    });
}

/// Runs one register tile on the requested tier and adds its live
/// `mr`×`nr` region into C (`c` starts at the tile's top-left element,
/// row stride `ldc`). The availability check happened at the
/// `gemm_acc_on` boundary, so calling the `target_feature`
/// kernels here is sound. Every tier adds each output element into C
/// exactly once with the same value, so routing the store through the
/// tier (the AVX2 kernel stores full tiles directly, skipping the
/// accumulator round-trip) never changes the bits.
#[inline(always)]
fn micro_kernel_dispatch(
    kernel: Kernel,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    match kernel {
        Kernel::Scalar => store_tile(&micro_kernel_scalar(a, b), c, ldc, mr, nr),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only selects Avx2 after `is_available` confirmed
        // the avx2+fma features at runtime.
        Kernel::Avx2 => unsafe { micro_kernel_avx2(a, b, c, ldc, mr, nr) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is a baseline aarch64 feature; `is_available`
        // confirmed the target arch.
        Kernel::Neon => store_tile(&unsafe { micro_kernel_neon(a, b) }, c, ldc, mr, nr),
        // A tier whose arch is not compiled in can never be dispatched (the
        // availability assert upstream rejects it); fall back defensively.
        #[allow(unreachable_patterns)]
        _ => store_tile(&micro_kernel_scalar(a, b), c, ldc, mr, nr),
    }
}

/// The scalar register tile: `acc[i][j] += Σ_p a[p*MR+i] * b[p*NR+j]` over
/// the full packed depth. Both operands stream with unit stride; the
/// accumulator array is small enough to live in registers and the
/// fixed-trip inner loops auto-vectorize on the SSE2 baseline.
#[inline(always)]
fn micro_kernel_scalar(a: &[f32], b: &[f32]) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (ap, bp) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        for i in 0..MR {
            let av = ap[i];
            for j in 0..NR {
                acc[i][j] += av * bp[j];
            }
        }
    }
    acc
}

/// AVX2+FMA register tile. Each output column is one `ymm` register over
/// the `MR = 8` rows; the depth loop is unrolled by two with a second set
/// of column accumulators so the 8 FMA dependency chains cover the FMA
/// latency on one core. The odd/even chains are combined once at the end —
/// a fixed, tile-local summation order, so the tier's bits depend only on
/// the operands.
///
/// The epilogue transposes the four column registers into rows with lane
/// shuffles and, for full tiles, adds them straight into C — small-depth
/// GEMMs (conv backward has k = 6 and k = 16 tiles) are epilogue-bound, so
/// skipping the scalar transpose + `store_tile` round-trip matters. Partial
/// tiles spill to an accumulator array and reuse `store_tile`. Either way C
/// receives the identical f32 values, added exactly once per element.
///
/// # Safety
/// Requires the `avx2` and `fma` CPU features, and `c` must hold the live
/// `mr`×`nr` tile region at row stride `ldc` (guaranteed by the blocking
/// loop in `compute_rows`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_kernel_avx2(a: &[f32], b: &[f32], c: &mut [f32], ldc: usize, mr: usize, nr: usize) {
    use std::arch::x86_64::*;
    let kc = a.len() / MR;
    debug_assert_eq!(a.len(), kc * MR);
    debug_assert_eq!(b.len(), kc * NR);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut c0 = _mm256_setzero_ps();
    let mut c1 = _mm256_setzero_ps();
    let mut c2 = _mm256_setzero_ps();
    let mut c3 = _mm256_setzero_ps();
    let mut d0 = _mm256_setzero_ps();
    let mut d1 = _mm256_setzero_ps();
    let mut d2 = _mm256_setzero_ps();
    let mut d3 = _mm256_setzero_ps();
    let mut p = 0usize;
    while p + 2 <= kc {
        let av0 = _mm256_loadu_ps(ap.add(p * MR));
        let bs0 = bp.add(p * NR);
        c0 = _mm256_fmadd_ps(av0, _mm256_broadcast_ss(&*bs0), c0);
        c1 = _mm256_fmadd_ps(av0, _mm256_broadcast_ss(&*bs0.add(1)), c1);
        c2 = _mm256_fmadd_ps(av0, _mm256_broadcast_ss(&*bs0.add(2)), c2);
        c3 = _mm256_fmadd_ps(av0, _mm256_broadcast_ss(&*bs0.add(3)), c3);
        let av1 = _mm256_loadu_ps(ap.add((p + 1) * MR));
        let bs1 = bp.add((p + 1) * NR);
        d0 = _mm256_fmadd_ps(av1, _mm256_broadcast_ss(&*bs1), d0);
        d1 = _mm256_fmadd_ps(av1, _mm256_broadcast_ss(&*bs1.add(1)), d1);
        d2 = _mm256_fmadd_ps(av1, _mm256_broadcast_ss(&*bs1.add(2)), d2);
        d3 = _mm256_fmadd_ps(av1, _mm256_broadcast_ss(&*bs1.add(3)), d3);
        p += 2;
    }
    if p < kc {
        let av = _mm256_loadu_ps(ap.add(p * MR));
        let bs = bp.add(p * NR);
        c0 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(&*bs), c0);
        c1 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(&*bs.add(1)), c1);
        c2 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(&*bs.add(2)), c2);
        c3 = _mm256_fmadd_ps(av, _mm256_broadcast_ss(&*bs.add(3)), c3);
    }
    c0 = _mm256_add_ps(c0, d0);
    c1 = _mm256_add_ps(c1, d1);
    c2 = _mm256_add_ps(c2, d2);
    c3 = _mm256_add_ps(c3, d3);
    // 8×4 transpose in-register: `pairs[i]` carries row `i` in its low
    // 128-bit lane and row `i + 4` in its high lane.
    let t0 = _mm256_unpacklo_ps(c0, c1);
    let t1 = _mm256_unpackhi_ps(c0, c1);
    let t2 = _mm256_unpacklo_ps(c2, c3);
    let t3 = _mm256_unpackhi_ps(c2, c3);
    let pairs = [
        _mm256_shuffle_ps::<0x44>(t0, t2),
        _mm256_shuffle_ps::<0xEE>(t0, t2),
        _mm256_shuffle_ps::<0x44>(t1, t3),
        _mm256_shuffle_ps::<0xEE>(t1, t3),
    ];
    if mr == MR && nr == NR {
        for (i, &p) in pairs.iter().enumerate() {
            let lo = c.as_mut_ptr().add(i * ldc);
            let hi = c.as_mut_ptr().add((i + 4) * ldc);
            _mm_storeu_ps(lo, _mm_add_ps(_mm_loadu_ps(lo), _mm256_castps256_ps128(p)));
            _mm_storeu_ps(
                hi,
                _mm_add_ps(_mm_loadu_ps(hi), _mm256_extractf128_ps::<1>(p)),
            );
        }
    } else {
        let mut acc = [[0.0f32; NR]; MR];
        for (i, &p) in pairs.iter().enumerate() {
            _mm_storeu_ps(acc[i].as_mut_ptr(), _mm256_castps256_ps128(p));
            _mm_storeu_ps(acc[i + 4].as_mut_ptr(), _mm256_extractf128_ps::<1>(p));
        }
        store_tile(&acc, c, ldc, mr, nr);
    }
}

/// NEON register tile: each output column is a low/high `float32x4_t` pair
/// over the `MR = 8` rows, updated by lane-broadcast FMAs. One accumulation
/// chain per column half — a fixed, tile-local summation order, so the
/// tier's bits depend only on the operands.
///
/// # Safety
/// Requires the `neon` target feature (baseline on aarch64).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn micro_kernel_neon(a: &[f32], b: &[f32]) -> [[f32; NR]; MR] {
    use std::arch::aarch64::*;
    let kc = a.len() / MR;
    debug_assert_eq!(a.len(), kc * MR);
    debug_assert_eq!(b.len(), kc * NR);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut lo0 = vdupq_n_f32(0.0);
    let mut lo1 = vdupq_n_f32(0.0);
    let mut lo2 = vdupq_n_f32(0.0);
    let mut lo3 = vdupq_n_f32(0.0);
    let mut hi0 = vdupq_n_f32(0.0);
    let mut hi1 = vdupq_n_f32(0.0);
    let mut hi2 = vdupq_n_f32(0.0);
    let mut hi3 = vdupq_n_f32(0.0);
    for p in 0..kc {
        let al = vld1q_f32(ap.add(p * MR));
        let ah = vld1q_f32(ap.add(p * MR + 4));
        let bv = vld1q_f32(bp.add(p * NR));
        lo0 = vfmaq_laneq_f32::<0>(lo0, al, bv);
        hi0 = vfmaq_laneq_f32::<0>(hi0, ah, bv);
        lo1 = vfmaq_laneq_f32::<1>(lo1, al, bv);
        hi1 = vfmaq_laneq_f32::<1>(hi1, ah, bv);
        lo2 = vfmaq_laneq_f32::<2>(lo2, al, bv);
        hi2 = vfmaq_laneq_f32::<2>(hi2, ah, bv);
        lo3 = vfmaq_laneq_f32::<3>(lo3, al, bv);
        hi3 = vfmaq_laneq_f32::<3>(hi3, ah, bv);
    }
    let mut cols = [[0.0f32; MR]; NR];
    vst1q_f32(cols[0].as_mut_ptr(), lo0);
    vst1q_f32(cols[0].as_mut_ptr().add(4), hi0);
    vst1q_f32(cols[1].as_mut_ptr(), lo1);
    vst1q_f32(cols[1].as_mut_ptr().add(4), hi1);
    vst1q_f32(cols[2].as_mut_ptr(), lo2);
    vst1q_f32(cols[2].as_mut_ptr().add(4), hi2);
    vst1q_f32(cols[3].as_mut_ptr(), lo3);
    vst1q_f32(cols[3].as_mut_ptr().add(4), hi3);
    let mut acc = [[0.0f32; NR]; MR];
    for (j, col) in cols.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            acc[i][j] = v;
        }
    }
    acc
}

/// Adds the live `mr`×`nr` region of a register tile into C. `c` starts at
/// the tile's top-left element; `ldc` is C's row stride.
#[inline(always)]
fn store_tile(acc: &[[f32; NR]; MR], c: &mut [f32], ldc: usize, mr: usize, nr: usize) {
    for (i, acc_row) in acc.iter().enumerate().take(mr) {
        let row = &mut c[i * ldc..i * ldc + nr];
        for (out, &v) in row.iter_mut().zip(acc_row.iter()) {
            *out += v;
        }
    }
}

/// Packs rows `[i0, i0+mc)` × depth `[p0, p0+kc)` of logical-`[m,k]` A into
/// `MR`-row strips, depth-major within each strip, zero-padding the last
/// strip's missing rows.
#[allow(clippy::too_many_arguments)]
fn pack_a_block(
    dst: &mut [f32],
    a: &[f32],
    trans: bool,
    m: usize,
    k: usize,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
) {
    let strips = mc.div_ceil(MR);
    for s in 0..strips {
        let strip = &mut dst[s * kc * MR..(s + 1) * kc * MR];
        let rows = MR.min(mc - s * MR);
        if trans {
            // A stored [k, m]: element (i, p) = a[p*m + i]; rows are
            // adjacent in memory, so copy them per depth step.
            for p in 0..kc {
                let src = &a[(p0 + p) * m + i0 + s * MR..];
                let d = &mut strip[p * MR..(p + 1) * MR];
                d[..rows].copy_from_slice(&src[..rows]);
                d[rows..].fill(0.0);
            }
        } else {
            // A stored [m, k]: read each row contiguously, scatter into the
            // strip's interleaved layout.
            for r in 0..rows {
                let src = &a[(i0 + s * MR + r) * k + p0..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    strip[p * MR + r] = v;
                }
            }
            for r in rows..MR {
                for p in 0..kc {
                    strip[p * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Packs depth `[p0, p0+kc)` × columns `[j0, j0+nc)` of logical-`[k,n]` B
/// into `NR`-column strips, depth-major within each strip, zero-padding the
/// last strip's missing columns.
#[allow(clippy::too_many_arguments)]
fn pack_b_block(
    dst: &mut [f32],
    b: &[f32],
    trans: bool,
    k: usize,
    n: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
) {
    let strips = nc.div_ceil(NR);
    for s in 0..strips {
        let strip = &mut dst[s * kc * NR..(s + 1) * kc * NR];
        let cols = NR.min(nc - s * NR);
        if trans {
            // B stored [n, k]: element (p, j) = b[j*k + p]; read each
            // column's depth run contiguously.
            for c in 0..cols {
                let src = &b[(j0 + s * NR + c) * k + p0..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    strip[p * NR + c] = v;
                }
            }
            for c in cols..NR {
                for p in 0..kc {
                    strip[p * NR + c] = 0.0;
                }
            }
        } else {
            // B stored [k, n]: columns are adjacent per depth step.
            for p in 0..kc {
                let src = &b[(p0 + p) * n + j0 + s * NR..];
                let d = &mut strip[p * NR..(p + 1) * NR];
                d[..cols].copy_from_slice(&src[..cols]);
                d[cols..].fill(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(
        trans_a: bool,
        trans_b: bool,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    let av = if trans_a { a[p * m + i] } else { a[i * k + p] };
                    let bv = if trans_b { b[j * k + p] } else { b[p * n + j] };
                    c[i * n + j] += av as f64 * bv as f64;
                }
            }
        }
        c.into_iter().map(|x| x as f32).collect()
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Small deterministic values; exact in f32 products for short k.
        (0..len)
            .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) % 17) as f32 - 8.0)
            .collect()
    }

    #[test]
    fn all_transpose_combos_match_naive() {
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (8, 4, 16), (13, 9, 21), (70, 41, 33)] {
            for &ta in &[false, true] {
                for &tb in &[false, true] {
                    let a = fill(m * k, 1);
                    let b = fill(k * n, 2);
                    let mut c = vec![0.0f32; m * n];
                    gemm_acc(ta, tb, m, n, k, &a, &b, &mut c);
                    let want = naive(ta, tb, m, n, k, &a, &b);
                    for (i, (&x, &y)) in c.iter().zip(want.iter()).enumerate() {
                        let tol = 1e-4 * (1.0 + x.abs().max(y.abs()));
                        assert!(
                            (x - y).abs() <= tol,
                            "({m},{n},{k}) ta={ta} tb={tb} [{i}]: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn accumulates_into_existing_output() {
        let (m, n, k) = (5, 6, 7);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let mut c = vec![1.0f32; m * n];
        gemm_acc(false, false, m, n, k, &a, &b, &mut c);
        let want = naive(false, false, m, n, k, &a, &b);
        for (&x, &y) in c.iter().zip(want.iter()) {
            assert!((x - (y + 1.0)).abs() <= 1e-3, "{x} vs {}", y + 1.0);
        }
    }

    #[test]
    fn zero_dims_are_noops() {
        let mut c = vec![7.0f32; 6];
        gemm_acc(false, false, 2, 3, 0, &[], &[], &mut c);
        assert_eq!(c, vec![7.0; 6]);
        gemm_acc(false, false, 0, 3, 2, &[], &[0.0; 6], &mut []);
    }

    #[test]
    #[should_panic(expected = "lhs length mismatch")]
    fn rejects_bad_lengths() {
        let mut c = vec![0.0f32; 4];
        gemm_acc(false, false, 2, 2, 2, &[0.0; 3], &[0.0; 4], &mut c);
    }

    #[test]
    fn kernel_names_round_trip_and_scalar_is_always_available() {
        for k in [Kernel::Scalar, Kernel::Avx2, Kernel::Neon] {
            assert_eq!(Kernel::from_name(k.name()), Some(k));
        }
        assert_eq!(Kernel::from_name("sse9"), None);
        let avail = available_kernels();
        assert_eq!(*avail.last().unwrap(), Kernel::Scalar);
        assert!(avail.iter().all(|k| k.is_available()));
    }

    #[test]
    fn every_available_tier_matches_the_scalar_kernel_closely() {
        let (m, n, k) = (21, 14, 130);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6);
        let mut reference = vec![0.0f32; m * n];
        gemm_acc_on(
            Kernel::Scalar,
            false,
            false,
            m,
            n,
            k,
            &a,
            &b,
            &mut reference,
        );
        for tier in available_kernels() {
            let mut c = vec![0.0f32; m * n];
            gemm_acc_on(tier, false, false, m, n, k, &a, &b, &mut c);
            for (i, (&x, &y)) in c.iter().zip(reference.iter()).enumerate() {
                let tol = 1e-3 * (1.0 + y.abs());
                assert!(
                    (x - y).abs() <= tol,
                    "{}[{i}]: {x} vs scalar {y}",
                    tier.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "unavailable")]
    fn explicit_tier_entry_rejects_unavailable_tiers() {
        // One of Avx2/Neon is always unavailable (no host has both arches).
        let missing = if Kernel::Avx2.is_available() {
            Kernel::Neon
        } else {
            Kernel::Avx2
        };
        let mut c = vec![0.0f32; 1];
        gemm_acc_on(missing, false, false, 1, 1, 1, &[1.0], &[1.0], &mut c);
    }
}
