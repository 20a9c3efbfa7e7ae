//! Pins the SIMD matmul kernels to the canonical accumulation order
//! (crates/engine/src/tensor.rs module docs, determinism contract v2).
//!
//! Every variant — `matmul`, `matmul_tn`, `matmul_nt`, and their `_into`
//! forms — must be *bit-identical* to an independent scalar reference
//! implementing the documented order: one ascending fused
//! (`f32::mul_add`) chain per output element, starting from `0.0`.
//! Register tiling, column panels, ragged edges, the AVX-512 fast path,
//! `matmul_nt`'s choice of which operand to pack and rayon row-banding
//! are all implementation details that may never change a single bit.
//! `matmul_tn_accumulate` must equal storing the reference product,
//! zeroing its non-finite values and adding it with `+=`, on dirty
//! accumulators, and must count exactly the non-finite values.
//!
//! Thread-count invariance is pinned the same way from two sides: the
//! properties here cover shapes below and above the parallel work
//! threshold, and CI runs this suite (and the determinism suite) a
//! second time under `RAYON_NUM_THREADS=1` — since every result must
//! equal the same scalar reference at any thread count, 1-thread and
//! many-thread runs are transitively bit-identical.

use dapple::engine::Tensor;
use proptest::prelude::*;

/// Independent scalar model of the canonical order. Deliberately naive:
/// no tiling, no SIMD, just the documented chain.
fn ref_matmul(a: &Tensor, b: &Tensor) -> Tensor {
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

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!((got.rows, got.cols), (want.rows, want.cols), "{what} shape");
    for (i, (x, y)) in got.data.iter().zip(&want.data).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} element {i}: {x} vs {y}");
    }
}

/// Deterministic pseudo-random fill with signs, zeros and magnitude
/// spread — enough structure to expose reassociation.
fn fill(salt: u64, seed: u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64 + salt).wrapping_mul(seed.wrapping_mul(2) + 12345);
            ((h % 23) as f32 - 11.0) * 0.173
        })
        .collect()
}

/// All three variants against the reference on one shape.
fn check_shape(n: usize, k: usize, m: usize, seed: u64) {
    let a = Tensor::from_vec(n, k, fill(1, seed, n * k));
    let b = Tensor::from_vec(k, m, fill(2, seed, k * m));
    let want = ref_matmul(&a, &b);
    assert_bits_eq(&a.matmul(&b), &want, "matmul");
    // TN: same product expressed through the transposed lhs.
    let at = a.transpose();
    assert_bits_eq(&at.matmul_tn(&b), &want, "matmul_tn");
    // NT: same product expressed through the transposed rhs.
    let bt = b.transpose();
    assert_bits_eq(&a.matmul_nt(&bt), &want, "matmul_nt");
    // The _into forms overwrite recycled garbage completely.
    let mut dirty = Tensor::from_vec(n, m, vec![f32::NAN; n * m]);
    a.matmul_into(&b, &mut dirty);
    assert_bits_eq(&dirty, &want, "matmul_into");
    // Accumulating onto zeros stores: the chains never end in `-0.0`.
    dirty.data.fill(0.0);
    assert_eq!(at.matmul_tn_accumulate(&b, &mut dirty), 0);
    assert_bits_eq(&dirty, &want, "matmul_tn_accumulate onto zeros");
    dirty.data.fill(-1e30);
    a.matmul_nt_into(&bt, &mut dirty);
    assert_bits_eq(&dirty, &want, "matmul_nt_into");
}

/// Shapes straddling every tile boundary: single row/column, exact
/// tile multiples, one-off ragged edges, and panel-width steps.
#[test]
fn tile_boundary_shapes_match_reference() {
    for &(n, k, m) in &[
        (1, 1, 1),
        (1, 7, 1),
        (8, 16, 32),  // exactly one 8x32 tile
        (9, 16, 33),  // one ragged row and column past the tile
        (7, 5, 31),   // everything below tile sizes, m % 8 != 0
        (16, 3, 40),  // two row tiles, 32 + 8 panels
        (33, 33, 17), // band boundary (32) + 16/1 panels
        (40, 64, 48), // multiple full tiles each way
    ] {
        check_shape(n, k, m, 11);
    }
}

/// `k == 0` is the empty chain: exact `0.0` everywhere, even into a
/// dirty recycled buffer.
#[test]
fn empty_inner_dimension_is_exact_zero() {
    let a = Tensor::zeros(3, 0);
    let b = Tensor::zeros(0, 5);
    let got = a.matmul(&b);
    assert!(got.data.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
    let mut dirty = Tensor::from_vec(3, 5, vec![f32::NAN; 15]);
    a.matmul_into(&b, &mut dirty);
    assert!(dirty.data.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
    let bt = Tensor::zeros(5, 0);
    let mut dirty = Tensor::from_vec(3, 5, vec![f32::NAN; 15]);
    a.matmul_nt_into(&bt, &mut dirty);
    assert!(dirty.data.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
}

/// `0 * NaN` must stay NaN in every variant and every tile path (the
/// PR-2 zero-skip regression must not return under SIMD).
#[test]
fn zero_times_nan_propagates_in_all_variants() {
    let n = 40; // wide enough to hit the 8x32 fast path
    let mut av = vec![0.0f32; n * n];
    av[17] = 1.0;
    let a = Tensor::from_vec(n, n, av);
    let mut bv = fill(3, 5, n * n);
    for r in 0..n {
        bv[r * n + 20] = f32::NAN; // column 20 poisons every output row
    }
    let b = Tensor::from_vec(n, n, bv);
    for (name, got) in [
        ("matmul", a.matmul(&b)),
        ("matmul_tn", a.transpose().matmul_tn(&b)),
        ("matmul_nt", a.matmul_nt(&b.transpose())),
    ] {
        for r in 0..n {
            assert!(got.at(r, 20).is_nan(), "{name}: 0*NaN swallowed at row {r}");
        }
    }
}

/// Above the parallel work threshold the rayon row-banding must not
/// change a bit relative to the same scalar reference. (160^3 ≈ 4M
/// multiply-adds > the 2M gate; the small shapes in the other tests
/// stay serial, so both dispatch paths are pinned.)
#[test]
fn parallel_path_matches_reference_bitwise() {
    check_shape(160, 160, 160, 7);
}

/// Skinny and fat shapes around the FLOP-based parallel gate: a deep
/// inner dimension parallelizes correctly (the old output-element gate
/// kept it serial) and a trivial `k == 1` product stays correct while
/// skipping thread dispatch.
#[test]
fn skinny_and_fat_shapes_match_reference() {
    check_shape(32, 4096, 24, 3); // deep k: above the gate despite the small output
    check_shape(96, 1, 96, 4); // trivial k: below the gate despite the large output
    check_shape(1, 512, 257, 5); // single-row activation against a wide layer
}

/// The scalar model of `matmul_tn_accumulate`: the reference product
/// `v = at^T · b`, stored, non-finite entries zeroed, then `acc += v`;
/// returns the expected accumulator and non-finite count.
fn ref_tn_accumulate(at: &Tensor, b: &Tensor, acc: &Tensor) -> (Tensor, usize) {
    let v = ref_matmul(&at.transpose(), b);
    let mut out = acc.clone();
    let mut bad = 0;
    for (o, &x) in out.data.iter_mut().zip(&v.data) {
        let x = if x.is_finite() {
            x
        } else {
            bad += 1;
            0.0
        };
        *o += x;
    }
    (out, bad)
}

/// Finite fill with a sprinkling of NaN and ±Inf operands, so some
/// products are non-finite and get dropped and counted.
fn poisoned(salt: u64, seed: u64, len: usize) -> Vec<f32> {
    let mut v = fill(salt, seed, len);
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    for (i, x) in v.iter_mut().enumerate() {
        let h = (i as u64 + salt).wrapping_mul(seed.wrapping_mul(6) + 7919) % 97;
        if h < 3 {
            *x = specials[h as usize];
        }
    }
    v
}

/// A dirty accumulator: finite values mixed with `-0.0`, `±Inf` and NaN.
fn dirty_acc(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut v = fill(9, seed, rows * cols);
    let specials = [-0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for (i, x) in v.iter_mut().enumerate() {
        if i % 5 == 0 {
            *x = specials[(i / 5) % specials.len()];
        }
    }
    Tensor::from_vec(rows, cols, v)
}

/// `matmul_tn_accumulate` of `at (k x n)` and `b (k x m)` onto a dirty
/// accumulator against [`ref_tn_accumulate`].
fn check_tn_accumulate(n: usize, k: usize, m: usize, seed: u64) {
    let at = Tensor::from_vec(k, n, poisoned(1, seed, k * n));
    let b = Tensor::from_vec(k, m, poisoned(2, seed, k * m));
    let mut acc = dirty_acc(n, m, seed);
    let (want, want_bad) = ref_tn_accumulate(&at, &b, &acc);
    let bad = at.matmul_tn_accumulate(&b, &mut acc);
    assert_bits_eq(&acc, &want, "matmul_tn_accumulate");
    assert_eq!(bad, want_bad, "non-finite count ({n}x{k}x{m})");
}

/// Above the parallel work gate the accumulate epilogue runs in every
/// band and the bands' non-finite counts are summed: same bits and the
/// same count as the scalar model. (512·16·512 ≈ 4M multiply-adds, the
/// backward's `dW` shape; the proptest below covers the serial side.)
#[test]
fn tn_accumulate_parallel_path_matches_reference() {
    check_tn_accumulate(512, 16, 512, 3);
    check_tn_accumulate(264, 33, 264, 8); // ragged band and tile edges
}

/// `dx = dz·W^T` for every micro-batch row count up to 40 against
/// weight-shaped right-hand sides, with a dirty transpose scratch and a
/// dirty output. 512x512 and 1024x256 take the few-row path (pack
/// `dz^T`, compute `(W·dz^T)^T`) at every row count, on both sides of
/// the parallel gate; 16x512 flips to packing `W^T` from 16 rows on.
#[test]
fn matmul_nt_every_row_count_matches_reference() {
    for &(m, k) in &[(512usize, 512usize), (1024, 256), (16, 512)] {
        let w = Tensor::from_vec(m, k, fill(4, 13, m * k));
        let dz40 = Tensor::from_vec(40, k, fill(5, 13, 40 * k));
        // Output row r depends on row r of the lhs only, so one 40-row
        // reference serves every row count.
        let want40 = ref_matmul(&dz40, &w.transpose());
        let mut pack = vec![f32::NAN; 7];
        for n in 1..=40 {
            let dz = Tensor::from_vec(n, k, dz40.data[..n * k].to_vec());
            let want = Tensor::from_vec(n, m, want40.data[..n * m].to_vec());
            let what = format!("matmul_nt {n}x{k} · ({m}x{k})^T");
            assert_bits_eq(&dz.matmul_nt(&w), &want, &what);
            let mut out = Tensor::from_vec(n, m, vec![f32::NAN; n * m]);
            pack.fill(f32::NEG_INFINITY);
            dz.matmul_nt_into_with(&w, &mut out, &mut pack);
            assert_bits_eq(&out, &want, &what);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ragged shapes below the parallel gate: the accumulate epilogue of
    /// every tile width and row tail, on dirty accumulators and with
    /// non-finite products, equals store-then-`+=` bit for bit and
    /// counts exactly the non-finite values.
    #[test]
    fn tn_accumulate_matches_store_then_add(
        n in 1usize..24, k in 0usize..24, m in 1usize..48, seed in 0u64..1000
    ) {
        check_tn_accumulate(n, k, m, seed);
    }

    /// Random ragged shapes: every variant, every `_into` form, bitwise
    /// equal to the scalar canonical order.
    #[test]
    fn random_shapes_match_reference(
        n in 1usize..24, k in 0usize..24, m in 1usize..24, seed in 0u64..1000
    ) {
        check_shape(n, k, m, seed);
    }
}
