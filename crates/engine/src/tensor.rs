//! A minimal row-major 2-D tensor.
//!
//! Deliberately small: dense matmul, transpose, row slicing/concat and
//! element-wise helpers — everything an MLP pipeline needs, nothing more.
//! Matmul parallelizes over row bands with rayon above a work threshold.
//!
//! # Canonical accumulation order (determinism contract, v2)
//!
//! Every matmul result is defined by a fixed, documented accumulation
//! order, so results are bit-identical run to run, thread count to
//! thread count, and machine to machine:
//!
//! * **All products are fused.** Each `a·b` term enters its accumulator
//!   through [`f32::mul_add`] — IEEE-754 `fusedMultiplyAdd`, a single
//!   rounding, identically defined on every target (hardware FMA where
//!   available, exact software fallback otherwise). This is the change
//!   from v1, which used separately rounded multiply-then-add.
//! * **One order for all three variants.** Each output element is one
//!   fused chain over the inner dimension in ascending order,
//!   `acc = fma(a_i, b_i, acc)` starting from `0.0`. SIMD comes from
//!   vectorizing *across output columns* (each vector lane is a
//!   different output element), which never reassociates the
//!   per-element chain. A scalar implementation of the same order
//!   produces the same bits (see `tests/kernel_reference.rs`).
//!
//! Consequences: `matmul_tn(b)` is bit-identical to
//! `transpose().matmul(b)` and `matmul_nt(b)` is bit-identical to
//! `matmul(b.transpose())` — the transpose-free variants change memory
//! traffic, never bits. (`matmul_nt` earns its fast path by packing a
//! transposed copy of `rhs` into a scratch buffer and running the plain
//! kernel; packing is layout, not arithmetic.)
//!
//! Parallelism splits rows into contiguous bands; each output element is
//! computed by exactly one thread with the order above, so banding (and
//! thus `RAYON_NUM_THREADS`) cannot change results. Tile and panel
//! grouping inside a band are equally irrelevant to bits: every
//! element's chain is independent.

use rayon::prelude::*;

/// Row-major `rows x cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Number of rows (samples).
    pub rows: usize,
    /// Number of columns (features).
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

/// Rows per register tile in the output-stationary kernels: enough that
/// one column-panel load of `b` is reused across several accumulator
/// rows, few enough that the `ROW_TILE x COL_TILE` accumulator block
/// stays in vector registers (8 x 32 f32: sixteen 16-wide accumulators
/// plus two `b` vectors and a broadcast, well under the 32 AVX-512
/// registers).
const ROW_TILE: usize = 8;

/// Rows per parallel band. Within a band the column-panel loop is
/// outermost, so one `COL_TILE`-wide panel of `b` (`k * COL_TILE`
/// floats) stays cache-resident across all the band's row tiles; bands
/// re-read `b`, so they are sized well above [`ROW_TILE`].
const BAND_ROWS: usize = 32;

/// Columns per register tile in the output-stationary kernels (two
/// 16-wide vectors).
const COL_TILE: usize = 32;

/// Minimum multiply-add count (`n·k·m`) before a matmul dispatches
/// rayon. The gate is on *work*, not output size: a skinny output with a
/// huge inner dimension parallelizes, a large-but-trivial `k == 1`
/// product does not pay thread dispatch.
const PAR_MIN_MULS: usize = 2 * 1024 * 1024;

/// Whether `n x k x m` of multiply-adds is worth thread dispatch.
#[inline]
fn par_worth_it(n: usize, k: usize, m: usize) -> bool {
    n.saturating_mul(k).saturating_mul(m) >= PAR_MIN_MULS
}

/// Output-stationary register tile: `RT` rows by `W` columns of `out`,
/// each element one ascending-`i` fused chain. `a` holds the tile's
/// `RT` rows (row-major, stride `k`), `out` the same rows of the output
/// (stride `m`); `j` is the first column, `j + W <= m`.
#[inline]
fn nn_tile<const RT: usize, const W: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    j: usize,
) {
    let mut a_rows: [&[f32]; RT] = [&[]; RT];
    for r in 0..RT {
        a_rows[r] = &a[r * k..(r + 1) * k];
    }
    let mut acc = [[0.0f32; W]; RT];
    for i in 0..k {
        let bb: &[f32; W] = b[i * m + j..i * m + j + W].try_into().expect("tile width");
        for r in 0..RT {
            let av = a_rows[r][i];
            for l in 0..W {
                acc[r][l] = av.mul_add(bb[l], acc[r][l]);
            }
        }
    }
    for r in 0..RT {
        out[r * m + j..r * m + j + W].copy_from_slice(&acc[r]);
    }
}

/// Single-column tail of [`nn_tile`]: same ascending-`i` fused chain.
#[inline]
fn nn_col<const RT: usize>(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, j: usize) {
    for r in 0..RT {
        let mut acc = 0.0f32;
        for i in 0..k {
            acc = a[r * k + i].mul_add(b[i * m + j], acc);
        }
        out[r * m + j] = acc;
    }
}

/// One column panel (`w` ∈ {32, 16, 8, 1}) of `RT` rows.
#[inline]
fn nn_panel<const RT: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    j: usize,
    w: usize,
) {
    match w {
        COL_TILE => nn_tile::<RT, COL_TILE>(a, b, out, k, m, j),
        16 => nn_tile::<RT, 16>(a, b, out, k, m, j),
        8 => nn_tile::<RT, 8>(a, b, out, k, m, j),
        _ => nn_col::<RT>(a, b, out, k, m, j),
    }
}

/// Full-height (`ROW_TILE` rows) panel: takes the AVX-512 tile for the
/// hot 32-wide case, the portable tiles otherwise.
#[inline]
#[allow(unused_variables)]
fn nn_row_tile(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, j: usize, w: usize) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    if w == COL_TILE {
        // SAFETY: nn_band only calls with ROW_TILE full rows left in
        // `a`/`out` and `j + COL_TILE <= m`; `b` is the full `k x m`
        // matrix.
        unsafe { simd::nn_8x32(a, b, out, k, m, j) };
        return;
    }
    nn_panel::<ROW_TILE>(a, b, out, k, m, j, w);
}

/// Picks the widest column-panel width ≤ the remaining `m - j` columns.
#[inline]
fn panel_width(rem: usize) -> usize {
    if rem >= COL_TILE {
        COL_TILE
    } else if rem >= 16 {
        16
    } else if rem >= 8 {
        8
    } else {
        1
    }
}

/// One band of `matmul`: `out.len() / m` rows. The column-panel loop is
/// outermost so each `b` panel stays cache-resident across the band's
/// row tiles; widths step 32 → 16 → 8 → 1, row tiles 8 → 4 → 2 → 1, and
/// every element takes the same ascending fused chain regardless of
/// which tile computes it.
fn nn_band(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize) {
    let rows = out.len() / m;
    let mut j = 0;
    while j < m {
        let w = panel_width(m - j);
        let mut r = 0;
        while rows - r >= ROW_TILE {
            nn_row_tile(&a[r * k..], b, &mut out[r * m..], k, m, j, w);
            r += ROW_TILE;
        }
        while rows - r >= 4 {
            nn_panel::<4>(&a[r * k..], b, &mut out[r * m..], k, m, j, w);
            r += 4;
        }
        while rows - r >= 2 {
            nn_panel::<2>(&a[r * k..], b, &mut out[r * m..], k, m, j, w);
            r += 2;
        }
        while r < rows {
            nn_panel::<1>(&a[r * k..], b, &mut out[r * m..], k, m, j, w);
            r += 1;
        }
        j += w;
    }
}

/// [`nn_tile`] for the TN product: output row `i0 + r` reads column
/// `i0 + r` of `a` (`k x n`, so stride-`n` scalar loads), everything
/// else identical — same ascending-order fused chains.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tn_tile<const RT: usize, const W: usize>(
    a: &[f32],
    n: usize,
    i0: usize,
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    j: usize,
) {
    let mut acc = [[0.0f32; W]; RT];
    for t in 0..k {
        let bb: &[f32; W] = b[t * m + j..t * m + j + W].try_into().expect("tile width");
        let arow = &a[t * n + i0..t * n + i0 + RT];
        for r in 0..RT {
            let av = arow[r];
            for l in 0..W {
                acc[r][l] = av.mul_add(bb[l], acc[r][l]);
            }
        }
    }
    for r in 0..RT {
        out[r * m + j..r * m + j + W].copy_from_slice(&acc[r]);
    }
}

/// Single-column tail of [`tn_tile`].
#[inline]
#[allow(clippy::too_many_arguments)]
fn tn_col<const RT: usize>(
    a: &[f32],
    n: usize,
    i0: usize,
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    j: usize,
) {
    for r in 0..RT {
        let mut acc = 0.0f32;
        for t in 0..k {
            acc = a[t * n + i0 + r].mul_add(b[t * m + j], acc);
        }
        out[r * m + j] = acc;
    }
}

/// One column panel (`w` ∈ {32, 8, 1}) of `RT` TN output rows.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tn_panel<const RT: usize>(
    a: &[f32],
    n: usize,
    i0: usize,
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    j: usize,
    w: usize,
) {
    match w {
        COL_TILE => tn_tile::<RT, COL_TILE>(a, n, i0, b, out, k, m, j),
        16 => tn_tile::<RT, 16>(a, n, i0, b, out, k, m, j),
        8 => tn_tile::<RT, 8>(a, n, i0, b, out, k, m, j),
        _ => tn_col::<RT>(a, n, i0, b, out, k, m, j),
    }
}

/// Full-height (`ROW_TILE` rows) TN panel: AVX-512 tile for the hot
/// 32-wide case, portable tiles otherwise.
#[inline]
#[allow(clippy::too_many_arguments, unused_variables)]
fn tn_row_tile(
    a: &[f32],
    n: usize,
    i0: usize,
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    j: usize,
    w: usize,
) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    if w == COL_TILE {
        // SAFETY: tn_band only calls with `i0 + ROW_TILE <= n`,
        // ROW_TILE full output rows left, and `j + COL_TILE <= m`.
        unsafe { simd::tn_8x32(a, n, i0, b, out, k, m, j) };
        return;
    }
    tn_panel::<ROW_TILE>(a, n, i0, b, out, k, m, j, w);
}

/// One band of `matmul_tn`: output rows `i0..i0 + out.len() / m`, same
/// panel-outer structure as [`nn_band`].
fn tn_band(a: &[f32], n: usize, i0: usize, b: &[f32], out: &mut [f32], k: usize, m: usize) {
    let rows = out.len() / m;
    let mut j = 0;
    while j < m {
        let w = panel_width(m - j);
        let mut r = 0;
        while rows - r >= ROW_TILE {
            tn_row_tile(a, n, i0 + r, b, &mut out[r * m..], k, m, j, w);
            r += ROW_TILE;
        }
        while rows - r >= 4 {
            tn_panel::<4>(a, n, i0 + r, b, &mut out[r * m..], k, m, j, w);
            r += 4;
        }
        while rows - r >= 2 {
            tn_panel::<2>(a, n, i0 + r, b, &mut out[r * m..], k, m, j, w);
            r += 2;
        }
        while r < rows {
            tn_panel::<1>(a, n, i0 + r, b, &mut out[r * m..], k, m, j, w);
            r += 1;
        }
        j += w;
    }
}

/// Transposes `src` (`rows x cols`, row-major) into `dst[..cols * rows]`
/// (`cols x rows`), growing `dst` as needed. Blocked so both the read
/// and write sides stay within a few cache lines per pass; every element
/// of the destination prefix is overwritten, so recycled scratch needs
/// no zeroing. Pure data movement — no arithmetic, no effect on bits.
fn pack_transpose(src: &[f32], rows: usize, cols: usize, dst: &mut Vec<f32>) {
    let need = src.len();
    if dst.len() < need {
        dst.resize(need, 0.0);
    }
    let d = &mut dst[..need];
    const BT: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + BT).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + BT).min(cols);
            // Contiguous stores, strided loads: one destination column
            // at a time within the block.
            for c in c0..c1 {
                let dcol = &mut d[c * rows + r0..c * rows + r1];
                let mut s = r0 * cols + c;
                for dv in dcol.iter_mut() {
                    *dv = src[s];
                    s += cols;
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

/// Explicit AVX-512 implementations of the hot register tiles.
///
/// These compute the *same canonical accumulation orders* as the
/// portable tiles — `_mm512_fmadd_ps` is IEEE-754 fusedMultiplyAdd per
/// lane, exactly [`f32::mul_add`] — so they are bit-identical to the
/// portable code and to the scalar references in the tests. They exist
/// because the autovectorizer cannot be trusted to keep a 16-vector
/// accumulator block in registers: on this exact code it has been
/// observed spilling accumulators to the stack and round-tripping them
/// through gather/scatter on every FMA, a ~20x slowdown. Hand-placed
/// intrinsics make the register tiling explicit.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod simd {
    use core::arch::x86_64::*;

    // The tiles below hard-code the 8 x 32 tile shape (two 512-bit
    // vectors wide); keep them in sync with the constants.
    const _: () = assert!(super::ROW_TILE == 8);
    const _: () = assert!(super::COL_TILE == 32);

    /// 8 x 32 output-stationary tile of `matmul`: rows `0..8` of `a`
    /// (row-major, stride `k`) times columns `j..j + 32` of `b`, each
    /// output element one ascending-`i` fused chain.
    ///
    /// # Safety
    /// Caller guarantees `a.len() >= 8 * k`, `b.len() >= k * m`,
    /// `out.len() >= 7 * m + j + 32` and `j + 32 <= m`.
    pub(super) unsafe fn nn_8x32(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        m: usize,
        j: usize,
    ) {
        unsafe {
            let ap = a.as_ptr();
            let bp = b.as_ptr().add(j);
            let op = out.as_mut_ptr().add(j);
            let mut acc0 = [_mm512_setzero_ps(); 8];
            let mut acc1 = [_mm512_setzero_ps(); 8];
            for i in 0..k {
                let b0 = _mm512_loadu_ps(bp.add(i * m));
                let b1 = _mm512_loadu_ps(bp.add(i * m + 16));
                for r in 0..8 {
                    let av = _mm512_set1_ps(*ap.add(r * k + i));
                    acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
                    acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
                }
            }
            for r in 0..8 {
                _mm512_storeu_ps(op.add(r * m), acc0[r]);
                _mm512_storeu_ps(op.add(r * m + 16), acc1[r]);
            }
        }
    }

    /// [`nn_8x32`] for `matmul_tn`: output rows are columns `i0..i0 + 8`
    /// of `a` (`k x n` row-major), same chains.
    ///
    /// # Safety
    /// Caller guarantees `a.len() >= k * n`, `i0 + 8 <= n`,
    /// `b.len() >= k * m`, `out.len() >= 7 * m + j + 32`, `j + 32 <= m`.
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tn_8x32(
        a: &[f32],
        n: usize,
        i0: usize,
        b: &[f32],
        out: &mut [f32],
        k: usize,
        m: usize,
        j: usize,
    ) {
        unsafe {
            let ap = a.as_ptr().add(i0);
            let bp = b.as_ptr().add(j);
            let op = out.as_mut_ptr().add(j);
            let mut acc0 = [_mm512_setzero_ps(); 8];
            let mut acc1 = [_mm512_setzero_ps(); 8];
            for t in 0..k {
                let b0 = _mm512_loadu_ps(bp.add(t * m));
                let b1 = _mm512_loadu_ps(bp.add(t * m + 16));
                for r in 0..8 {
                    let av = _mm512_set1_ps(*ap.add(t * n + r));
                    acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
                    acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
                }
            }
            for r in 0..8 {
                _mm512_storeu_ps(op.add(r * m), acc0[r]);
                _mm512_storeu_ps(op.add(r * m + 16), acc1[r]);
            }
        }
    }
}
impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major vector. Panics on length mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor shape mismatch");
        Tensor { rows, cols, data }
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self (n x k) * rhs (k x m) -> (n x m)`.
    ///
    /// Each output element is one ascending-`k` fused chain (module
    /// docs). No sparsity fast path: an earlier version skipped rows of
    /// `rhs` whenever the `self` element was exactly zero, which silently
    /// swallowed NaN/Inf propagation (`0 * NaN` must be NaN) and could
    /// mask poisoned activations from the engine's NaN detection — FMA
    /// propagates them the same way plain multiply-add did.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.rows, "matmul inner dims");
        let (n, m) = (self.rows, rhs.cols);
        let mut out = vec![0.0f32; n * m];
        self.matmul_store(rhs, &mut out);
        Tensor::from_vec(n, m, out)
    }

    /// [`Tensor::matmul`] into a caller-provided buffer. The kernel
    /// overwrites every element, so recycled contents need no zeroing —
    /// a pooled buffer skips both the allocation and the memset.
    /// Bit-identical to `matmul`.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, rhs.rows, "matmul inner dims");
        assert_eq!(out.rows, self.rows, "matmul_into out rows");
        assert_eq!(out.cols, rhs.cols, "matmul_into out cols");
        self.matmul_store(rhs, &mut out.data);
    }

    /// Kernel shared by `matmul`/`matmul_into`: register-tiled stores
    /// (accumulators live in registers for the whole `k` loop and are
    /// written once), so `out`'s prior contents never matter. `k = 0`
    /// produces exact `0.0` — the empty chain.
    fn matmul_store(&self, rhs: &Tensor, out: &mut [f32]) {
        let (n, k, m) = (self.rows, self.cols, rhs.cols);
        if out.is_empty() {
            return;
        }
        if k == 0 {
            out.fill(0.0);
            return;
        }
        if par_worth_it(n, k, m) {
            out.par_chunks_mut(BAND_ROWS * m)
                .enumerate()
                .for_each(|(band, band_out)| {
                    nn_band(
                        &self.data[band * BAND_ROWS * k..],
                        &rhs.data,
                        band_out,
                        k,
                        m,
                    );
                });
        } else {
            nn_band(&self.data, &rhs.data, out, k, m);
        }
    }

    /// Transpose-free product `self^T (k x n) * rhs (k x m) -> (n x m)`.
    ///
    /// Bit-identical to `self.transpose().matmul(rhs)` — the per-element
    /// chain is the same ascending fused sum — without materializing the
    /// transposed copy. This is the `dW = x^T dz` kernel of the dense
    /// backward pass.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "matmul_tn outer dims");
        let (n, m) = (self.cols, rhs.cols);
        let mut out = vec![0.0f32; n * m];
        self.matmul_tn_store(rhs, &mut out);
        Tensor::from_vec(n, m, out)
    }

    /// [`Tensor::matmul_tn`] into a caller-provided buffer. The kernel
    /// stores (never accumulates), so recycled contents need no zeroing.
    /// Bit-identical to `matmul_tn`. This closes the last steady-state
    /// allocation hole in the backward pass: `dW` gradients can land in
    /// a reused buffer instead of a fresh tensor per micro-batch.
    pub fn matmul_tn_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rows, rhs.rows, "matmul_tn outer dims");
        assert_eq!(out.rows, self.cols, "matmul_tn_into out rows");
        assert_eq!(out.cols, rhs.cols, "matmul_tn_into out cols");
        self.matmul_tn_store(rhs, &mut out.data);
    }

    /// Store kernel shared by `matmul_tn`/`matmul_tn_into`; every element
    /// of `out` is overwritten.
    fn matmul_tn_store(&self, rhs: &Tensor, out: &mut [f32]) {
        let (k, n, m) = (self.rows, self.cols, rhs.cols);
        if out.is_empty() {
            return;
        }
        if k == 0 {
            out.fill(0.0);
            return;
        }
        if par_worth_it(n, k, m) {
            out.par_chunks_mut(BAND_ROWS * m)
                .enumerate()
                .for_each(|(band, band_out)| {
                    tn_band(&self.data, n, band * BAND_ROWS, &rhs.data, band_out, k, m);
                });
        } else {
            tn_band(&self.data, n, 0, &rhs.data, out, k, m);
        }
    }

    /// Transpose-free product `self (n x k) * rhs^T (k x m) -> (n x m)`
    /// where `rhs` is `m x k`.
    ///
    /// Bit-identical to `self.matmul(&rhs.transpose())` — same
    /// ascending fused chain per element: `rhs^T` is packed into a
    /// scratch buffer and fed to the plain matmul kernel. Computing NT
    /// directly (both operands row-major, reducing along the SIMD axis)
    /// re-streams all of `rhs` for every pair of output rows, which is
    /// memory-bound ~4x slower than packing once; the pack is O(m·k)
    /// against the O(n·m·k) multiply. This is the `dx = dz W^T` kernel
    /// of the dense backward pass.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.cols, "matmul_nt inner dims");
        let (n, m) = (self.rows, rhs.rows);
        let mut out = vec![0.0f32; n * m];
        self.matmul_nt_store(rhs, &mut out, &mut Vec::new());
        Tensor::from_vec(n, m, out)
    }

    /// [`Tensor::matmul_nt`] into a caller-provided buffer. The kernel
    /// stores (never accumulates), so recycled contents need no zeroing.
    /// The transpose scratch is allocated per call; a hot loop keeps its
    /// own in [`Tensor::matmul_nt_into_with`].
    pub fn matmul_nt_into(&self, rhs: &Tensor, out: &mut Tensor) {
        self.matmul_nt_into_with(rhs, out, &mut Vec::new());
    }

    /// [`Tensor::matmul_nt_into`] with a caller-owned transpose scratch
    /// `pack` (grow-only, contents arbitrary). Once `pack` has grown to
    /// the largest `rhs`, calls allocate nothing: this is the backward
    /// path of the pipeline workers, whose scratch lives in a
    /// trainer-owned slot that outlives the per-step threads.
    pub fn matmul_nt_into_with(&self, rhs: &Tensor, out: &mut Tensor, pack: &mut Vec<f32>) {
        assert_eq!(self.cols, rhs.cols, "matmul_nt inner dims");
        assert_eq!(out.rows, self.rows, "matmul_nt_into out rows");
        assert_eq!(out.cols, rhs.rows, "matmul_nt_into out cols");
        self.matmul_nt_store(rhs, &mut out.data, pack);
    }

    /// Store kernel shared by the `matmul_nt` variants: packs `rhs^T`
    /// into `pack`, then runs the [`nn_band`] kernel against the packed
    /// matrix. Every element of `out` is overwritten.
    fn matmul_nt_store(&self, rhs: &Tensor, out: &mut [f32], pack: &mut Vec<f32>) {
        let (n, k, m) = (self.rows, self.cols, rhs.rows);
        if out.is_empty() {
            return;
        }
        if k == 0 {
            out.fill(0.0);
            return;
        }
        pack_transpose(&rhs.data, m, k, pack);
        let bt = &pack[..k * m];
        if par_worth_it(n, k, m) {
            out.par_chunks_mut(BAND_ROWS * m)
                .enumerate()
                .for_each(|(band, band_out)| {
                    nn_band(&self.data[band * BAND_ROWS * k..], bt, band_out, k, m);
                });
        } else {
            nn_band(&self.data, bt, out, k, m);
        }
    }

    /// Transposed copy (cache-blocked).
    pub fn transpose(&self) -> Tensor {
        let mut out = Vec::new();
        pack_transpose(&self.data, self.rows, self.cols, &mut out);
        Tensor::from_vec(self.cols, self.rows, out)
    }

    /// Adds a bias row vector to every row.
    pub fn add_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length");
        for row in self.data.chunks_mut(self.cols) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v += *b;
            }
        }
    }

    /// Column sums (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        self.col_sums_into(&mut out);
        out
    }

    /// [`Tensor::col_sums`] into a caller-provided buffer (recycled
    /// contents allowed — the buffer is reset first). Bit-identical to
    /// `col_sums`: plain adds in ascending row order.
    pub fn col_sums_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "col_sums_into length");
        out.fill(0.0);
        for row in self.data.chunks(self.cols) {
            for (o, v) in out.iter_mut().zip(row) {
                *o += *v;
            }
        }
    }

    /// Copy of rows `range`.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Tensor {
        assert!(range.end <= self.rows, "row slice out of range");
        let data = self.data[range.start * self.cols..range.end * self.cols].to_vec();
        Tensor::from_vec(range.len(), self.cols, data)
    }

    /// Vertically concatenates tensors with equal column counts.
    pub fn concat_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat of nothing");
        let cols = parts[0].cols;
        let rows = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "concat column mismatch");
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec(rows, cols, data)
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.data.len(), other.data.len(), "add shape");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Element-wise scale.
    pub fn scale(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Independent scalar model of the output-stationary canonical order:
    /// one ascending fused chain per element.
    fn ref_nn(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.cols);
        for r in 0..a.rows {
            for c in 0..b.cols {
                let mut acc = 0.0f32;
                for i in 0..a.cols {
                    acc = a.at(r, i).mul_add(b.at(i, c), acc);
                }
                out.data[r * b.cols + c] = acc;
            }
        }
        out
    }

    /// The same scalar model applied to the NT formulation: identical
    /// ascending fused chains, indices read from `b` row-major.
    fn ref_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.rows);
        for r in 0..a.rows {
            for c in 0..b.rows {
                let mut acc = 0.0f32;
                for i in 0..a.cols {
                    acc = a.at(r, i).mul_add(b.at(c, i), acc);
                }
                out.data[r * b.rows + c] = acc;
            }
        }
        out
    }

    fn assert_bits_eq(got: &Tensor, want: &Tensor) {
        assert_eq!((got.rows, got.cols), (want.rows, want.cols));
        for (i, (x, y)) in got.data.iter().zip(&want.data).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i).data, a.data);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at(2, 1), 6.0);
    }

    #[test]
    fn bias_and_col_sums() {
        let mut a = Tensor::zeros(3, 2);
        a.add_bias(&[1.0, 2.0]);
        assert_eq!(a.col_sums(), vec![3.0, 6.0]);
    }

    #[test]
    fn col_sums_into_overwrites_recycled_contents() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut dirty = vec![f32::NAN, 1e9, -7.0];
        a.col_sums_into(&mut dirty);
        assert_eq!(dirty, a.col_sums());
    }

    #[test]
    fn slice_concat_round_trip() {
        let a = Tensor::from_vec(4, 2, (0..8).map(|v| v as f32).collect());
        let parts = [a.slice_rows(0..1), a.slice_rows(1..3), a.slice_rows(3..4)];
        assert_eq!(Tensor::concat_rows(&parts), a);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Regression: `0 * NaN` must propagate. An earlier zero-skip fast
    /// path silently produced finite results when the zero operand sat in
    /// `self`, masking poisoned operands from downstream NaN detection.
    /// FMA propagates NaN/Inf exactly like plain multiply-add.
    #[test]
    fn matmul_propagates_nan_through_zero_lhs() {
        let a = Tensor::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Tensor::from_vec(2, 1, vec![f32::NAN, 2.0]);
        assert!(a.matmul(&b).data[0].is_nan(), "0 * NaN must be NaN");
        // All-zero lhs row against NaN rhs: still NaN, never a clean 0.
        let z = Tensor::zeros(1, 2);
        assert!(z.matmul(&b).data[0].is_nan());
        // Same contract for the transpose-free variants.
        let a_t = Tensor::from_vec(2, 1, vec![0.0, 1.0]);
        assert!(a_t.matmul_tn(&b).data[0].is_nan());
        let b_row = Tensor::from_vec(1, 2, vec![f32::NAN, 2.0]);
        assert!(a.matmul_nt(&b_row).data[0].is_nan());
        // Inf behaves the same way: 0 * Inf is NaN.
        let inf = Tensor::from_vec(2, 1, vec![f32::INFINITY, 2.0]);
        assert!(z.matmul(&inf).data[0].is_nan());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 4, (0..12).map(|v| v as f32 * 0.5 - 2.0).collect());
        let fast = a.matmul_tn(&b);
        assert_eq!(fast.rows, 2);
        assert_eq!(fast.cols, 4);
        assert_bits_eq(&fast, &a.transpose().matmul(&b));
    }

    /// `matmul_nt` shares the canonical order: bit-exact against both
    /// the scalar model and the explicit-transpose formulation.
    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 4.0, -6.0]);
        let b = Tensor::from_vec(4, 3, (0..12).map(|v| (v % 5) as f32 - 2.0).collect());
        let fast = a.matmul_nt(&b);
        assert_eq!(fast.rows, 2);
        assert_eq!(fast.cols, 4);
        assert_bits_eq(&fast, &ref_nt(&a, &b));
        assert_bits_eq(&fast, &a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_tn_into_overwrites_recycled_contents() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 4, (0..12).map(|v| v as f32 * 0.25 - 1.0).collect());
        let mut dirty = Tensor::from_vec(2, 4, vec![f32::NAN; 8]);
        a.matmul_tn_into(&b, &mut dirty);
        assert_bits_eq(&dirty, &a.matmul_tn(&b));
    }

    #[test]
    #[should_panic(expected = "matmul_tn outer dims")]
    fn matmul_tn_dim_mismatch_panics() {
        let _ = Tensor::zeros(2, 3).matmul_tn(&Tensor::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "matmul_nt inner dims")]
    fn matmul_nt_dim_mismatch_panics() {
        let _ = Tensor::zeros(2, 3).matmul_nt(&Tensor::zeros(2, 2));
    }

    /// The parallel (rayon) paths agree bit-for-bit with the canonical
    /// order above the work threshold too: both transpose-free variants
    /// against their explicit-transpose formulations.
    #[test]
    fn parallel_transpose_free_variants_match() {
        let n = 160; // n^3 > PAR_MIN_MULS
        let a = Tensor::from_vec(
            n,
            n,
            (0..n * n).map(|v| (v % 11) as f32 * 0.3 - 1.5).collect(),
        );
        let b = Tensor::from_vec(
            n,
            n,
            (0..n * n).map(|v| (v % 7) as f32 * 0.2 - 0.6).collect(),
        );
        assert_bits_eq(&a.matmul_tn(&b), &a.transpose().matmul(&b));
        assert_bits_eq(&a.matmul_nt(&b), &a.matmul(&b.transpose()));
    }

    /// The parallel path of plain matmul is bit-identical to the scalar
    /// model of its canonical order (banding cannot change results).
    #[test]
    fn parallel_matmul_matches_serial() {
        let n = 160; // n^3 > PAR_MIN_MULS
        let a = Tensor::from_vec(n, n, (0..n * n).map(|v| (v % 13) as f32 * 0.1).collect());
        let b = Tensor::from_vec(n, n, (0..n * n).map(|v| (v % 7) as f32 * 0.2).collect());
        assert_bits_eq(&a.matmul(&b), &ref_nn(&a, &b));
    }

    /// Quick local throughput probe (`cargo test --release -p
    /// dapple-engine tensor::tests::kernel_timing -- --ignored
    /// --nocapture`); dapple-bench owns the tracked numbers.
    #[test]
    #[ignore]
    fn kernel_timing() {
        let n = 256;
        let a = Tensor::from_vec(n, n, (0..n * n).map(|v| (v % 13) as f32 * 0.1).collect());
        let b = Tensor::from_vec(n, n, (0..n * n).map(|v| (v % 7) as f32 * 0.2).collect());
        let flops = 2.0 * (n * n * n) as f64;
        for (name, f) in [
            ("nn", (&|| a.matmul(&b)) as &dyn Fn() -> Tensor),
            ("tn", &|| a.matmul_tn(&b)),
            ("nt", &|| a.matmul_nt(&b)),
        ] {
            let mut sink = 0.0f32;
            let iters = 20;
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                sink += f().data[0];
            }
            let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
            println!(
                "{name}: {:.0} ns/iter, {:.1} GFLOP/s (sink {sink})",
                ns,
                flops / ns
            );
        }
    }

    proptest! {
        #[test]
        fn matmul_distributes_over_addition(
            n in 1usize..6, k in 1usize..6, m in 1usize..6, seed in 0u64..100
        ) {
            let fill = |salt: u64, len: usize| -> Vec<f32> {
                (0..len)
                    .map(|i| (((i as u64 + salt).wrapping_mul(seed + 1) % 17) as f32 - 8.0) * 0.25)
                    .collect()
            };
            let a = Tensor::from_vec(n, k, fill(1, n * k));
            let b1 = Tensor::from_vec(k, m, fill(2, k * m));
            let b2 = Tensor::from_vec(k, m, fill(3, k * m));
            let mut b_sum = b1.clone();
            b_sum.add_assign(&b2);
            let mut lhs = a.matmul(&b1);
            lhs.add_assign(&a.matmul(&b2));
            let rhs = a.matmul(&b_sum);
            for (x, y) in lhs.data.iter().zip(&rhs.data) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        /// Every variant matches the scalar model of its own canonical
        /// order bit-for-bit, on ragged shapes nowhere near the tile
        /// sizes included.
        #[test]
        fn variants_match_scalar_references(
            n in 1usize..12, k in 1usize..12, m in 1usize..12, seed in 0u64..100
        ) {
            let fill = |salt: u64, len: usize| -> Vec<f32> {
                (0..len)
                    .map(|i| (((i as u64 + salt).wrapping_mul(seed + 3) % 19) as f32 - 9.0) * 0.125)
                    .collect()
            };
            let a = Tensor::from_vec(n, k, fill(1, n * k));
            let b = Tensor::from_vec(k, m, fill(2, k * m));
            let nn = a.matmul(&b);
            let nn_ref = ref_nn(&a, &b);
            for (x, y) in nn.data.iter().zip(&nn_ref.data) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // tn: (k x n)^T * (k x m) — same chain as the explicit
            // transpose, still bit-identical to it.
            let at = Tensor::from_vec(k, n, fill(3, k * n));
            let tn = at.matmul_tn(&b);
            let tn_ref = at.transpose().matmul(&b);
            for (x, y) in tn.data.iter().zip(&tn_ref.data) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // nt: (n x k) * (m x k)^T — same chain again, bit-identical
            // to both the scalar model and the explicit transpose.
            let d = Tensor::from_vec(m, k, fill(4, m * k));
            let nt = a.matmul_nt(&d);
            let nt_ref = ref_nt(&a, &d);
            for (x, y) in nt.data.iter().zip(&nt_ref.data) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            let nt_t = a.matmul(&d.transpose());
            for (x, y) in nt.data.iter().zip(&nt_t.data) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        #[test]
        fn slice_rows_preserves_content(rows in 1usize..10, cols in 1usize..6) {
            let t = Tensor::from_vec(rows, cols, (0..rows * cols).map(|v| v as f32).collect());
            for start in 0..rows {
                for end in start + 1..=rows {
                    let s = t.slice_rows(start..end);
                    for r in 0..s.rows {
                        prop_assert_eq!(s.row(r), t.row(start + r));
                    }
                }
            }
        }
    }
}
