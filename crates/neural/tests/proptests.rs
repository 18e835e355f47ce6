//! Property-based tests for the neural substrate.

use neural::dense::Activation;
use neural::quant::{self, ActQuant, QuantMatrix, QuantMode};
use neural::{
    softmax_cross_entropy, softmax_inplace, Autoencoder, GruCell, GruEngine, GruStepScratch,
    KernelSet, Matrix, PackedGru, PanelMatrix,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One of the `Matrix::*_into` products into a fresh matrix.
fn product(f: fn(&Matrix, &Matrix, &mut Matrix), a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::default();
    f(a, b, &mut c);
    c
}

/// Deterministic pseudo-random fill for kernel-equivalence tests.
fn kernel_input(len: usize, seed: u64, scale: f32) -> Vec<f32> {
    (0..len)
        .map(|i| (i as f32 * 0.7311 + seed as f32 * 0.137).sin() * scale)
        .collect()
}

/// `C = A · Bᵀ` (`A` m×k, `B` n×k) as the row loop the nt-GEMM kernel
/// replaced: per row of `A`, four rows of `B` per `dot4`, the trailing
/// `n % 4` through `dot`.
fn nt_by_dots(ks: &KernelSet, a: &[f32], b: &[f32], k: usize) -> Vec<f32> {
    let n = b.len() / k;
    let brow = |j: usize| &b[j * k..(j + 1) * k];
    let mut c = Vec::new();
    for arow in a.chunks_exact(k) {
        let mut j = 0;
        while j + 4 <= n {
            c.extend(ks.dot4(arow, brow(j), brow(j + 1), brow(j + 2), brow(j + 3)));
            j += 4;
        }
        c.extend((j..n).map(|j| ks.dot(arow, brow(j))));
    }
    c
}

/// `C = Aᵀ · B` (`A` K×m, `B` K×n) as the axpy loop the rank-update kernel
/// replaced in the weight gradient: row `k` of `B` into row `r` of `C` for
/// every non-zero `A[k][r]`.
fn tn_by_axpy(ks: &KernelSet, a: &[f32], m: usize, b: &[f32], n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for (arow, brow) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
        for (r, &av) in arow.iter().enumerate() {
            if av != 0.0 {
                ks.axpy(&mut c[r * n..(r + 1) * n], brow, av);
            }
        }
    }
    c
}

/// `C = A · B` (`A` m×K, `B` K×n) as the axpy loop the rank-update kernel
/// replaced in the input gradient: one row of `C` at a time.
fn nn_by_axpy(ks: &KernelSet, a: &[f32], kdim: usize, b: &[f32], n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; a.len() / kdim * n];
    for (arow, crow) in a.chunks_exact(kdim).zip(c.chunks_exact_mut(n)) {
        for (&av, brow) in arow.iter().zip(b.chunks_exact(n)) {
            if av != 0.0 {
                ks.axpy(crow, brow, av);
            }
        }
    }
    c
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Tolerance for SIMD-vs-scalar drift: 1e-6 relative to the magnitude of
/// the scalar result (absolute 1e-6 for results inside the unit range).
/// SIMD kernels differ from the scalar reference only by reassociation
/// and the polynomial exp.
fn close(simd: f32, scalar: f32) -> bool {
    (simd - scalar).abs() <= 1e-6 * scalar.abs().max(1.0)
}

proptest! {
    /// Softmax output is a probability distribution for any finite input.
    #[test]
    fn softmax_is_distribution(v in prop::collection::vec(-50.0f32..50.0, 1..20)) {
        let mut p = v.clone();
        softmax_inplace(&mut p);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    /// Cross-entropy loss is non-negative and its gradient sums to ~0.
    #[test]
    fn cross_entropy_invariants(
        v in prop::collection::vec(-20.0f32..20.0, 2..15),
        t in 0usize..15,
    ) {
        let target = t % v.len();
        let mut grad = v.clone();
        let loss = softmax_cross_entropy(&mut grad, target);
        prop_assert!(loss >= 0.0);
        prop_assert!(grad[target] <= 0.0);
        let sum: f32 = grad.iter().sum();
        prop_assert!(sum.abs() < 1e-4);
    }

    /// GEMM identities: (A·B)ᵀ relations across the three variants.
    #[test]
    fn gemm_consistency(
        m in 1usize..6, k in 1usize..6, n in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::xavier(m, k, &mut rng);
        let b = Matrix::xavier(k, n, &mut rng);
        let c_nn = product(Matrix::matmul_nn_into, &a, &b);
        // nt: A · (Bᵀ)ᵀ — build Bᵀ explicitly.
        let bt = Matrix::from_fn(n, k, |r, c| b.get(c, r));
        let c_nt = product(Matrix::matmul_nt_into, &a, &bt);
        for i in 0..m {
            for j in 0..n {
                prop_assert!((c_nn.get(i, j) - c_nt.get(i, j)).abs() < 1e-4);
            }
        }
        // tn: (Aᵀ)ᵀ · B.
        let at = Matrix::from_fn(k, m, |r, c| a.get(c, r));
        let c_tn = product(Matrix::matmul_tn_into, &at, &b);
        for i in 0..m {
            for j in 0..n {
                prop_assert!((c_nn.get(i, j) - c_tn.get(i, j)).abs() < 1e-4);
            }
        }
    }

    /// matvec agrees with matmul against a 1-column matrix.
    #[test]
    fn matvec_matches_gemm(rows in 1usize..8, cols in 1usize..8, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Matrix::xavier(rows, cols, &mut rng);
        let x = Matrix::xavier(cols, 1, &mut rng);
        let mut y1 = vec![0.0; rows];
        w.matvec_into(&x.data, &mut y1);
        let y2 = product(Matrix::matmul_nn_into, &w, &x);
        for (i, v) in y1.iter().enumerate() {
            prop_assert!((v - y2.get(i, 0)).abs() < 1e-5);
        }
    }

    /// GRU hidden states and gates stay in their analytic ranges for any
    /// bounded input sequence.
    #[test]
    fn gru_ranges(
        seq_len in 1usize..12,
        seed in 0u64..500,
        scale in 0.1f32..5.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = GruCell::new(4, 6, &mut rng);
        let xs: Vec<Vec<f32>> = (0..seq_len)
            .map(|t| (0..4).map(|i| ((t * 7 + i) as f32).sin() * scale).collect())
            .collect();
        let trace = cell.forward(&xs);
        for t in 0..seq_len {
            prop_assert!(trace.hs.row(t).iter().all(|v| v.abs() <= 1.0 + 1e-5));
            prop_assert!(trace.zs.row(t).iter().all(|v| (0.0..=1.0).contains(v)));
            prop_assert!(trace.rs.row(t).iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    /// Prefix property: the GRU's state at step t depends only on inputs
    /// up to t (causality).
    #[test]
    fn gru_is_causal(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = GruCell::new(3, 4, &mut rng);
        let xs: Vec<Vec<f32>> = (0..8)
            .map(|t| (0..3).map(|i| ((t + i) as f32 * 0.3).cos()).collect())
            .collect();
        let full = cell.forward(&xs);
        let prefix = cell.forward(&xs[..5]);
        for t in 0..5 {
            prop_assert_eq!(full.hs.row(t), prefix.hs.row(t));
            prop_assert_eq!(full.zs.row(t), prefix.zs.row(t));
        }
    }

    /// Autoencoder reconstruction error is zero iff the net reproduces the
    /// input; always finite and non-negative for bounded inputs.
    #[test]
    fn ae_error_nonnegative(
        v in prop::collection::vec(-1.0f32..1.0, 6),
        seed in 0u64..100,
    ) {
        let ae = Autoencoder::new(&[6, 3, 6], seed);
        let e = ae.reconstruction_errors(&Matrix::from_vec(1, 6, v))[0];
        prop_assert!(e.is_finite());
        prop_assert!(e >= 0.0);
    }

    /// Fused-engine equivalence over random shapes and inputs: the packed
    /// GRU, stepped packet by packet, reproduces the reference forward
    /// pass within 1e-6.
    #[test]
    fn packed_gru_matches_reference(
        seed in 0u64..300,
        input in 1usize..9,
        hidden in 1usize..17,
        steps in 0usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cell = GruCell::new(input, hidden, &mut rng);
        let xs: Vec<Vec<f32>> = (0..steps)
            .map(|t| (0..input).map(|i| ((t * input + i) as f32 * 0.41 + seed as f32).sin()).collect())
            .collect();
        let trace = cell.forward(&xs);
        prop_assert_eq!(trace.len(), steps);
        let packed = PackedGru::pack(&cell);
        let mut scratch = GruStepScratch::new();
        let (mut h, mut z, mut r) = (vec![0.0f32; hidden], vec![0.0f32; hidden], vec![0.0f32; hidden]);
        for (t, x) in xs.iter().enumerate() {
            packed.step(x, &mut h, &mut scratch, &mut z, &mut r);
            for i in 0..hidden {
                prop_assert!((trace.hs.get(t, i) - h[i]).abs() < 1e-6);
                prop_assert!((trace.zs.get(t, i) - z[i]).abs() < 1e-6);
                prop_assert!((trace.rs.get(t, i) - r[i]).abs() < 1e-6);
            }
        }
    }

    /// Scratch reuse across random mixes of sequence lengths never changes
    /// results, at either precision: every sequence stepped through a
    /// shared scratch is bitwise the sequence stepped through a fresh one.
    #[test]
    fn gru_scratch_reuse_never_changes_results(
        seed in 0u64..200,
        int8 in any::<bool>(),
        lens in prop::collection::vec(0usize..24, 1..8),
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x60);
        let cell = GruCell::new(5, 11, &mut rng);
        let mode = if int8 { QuantMode::Int8 } else { QuantMode::Off };
        let gru = GruEngine::from_packed(PackedGru::pack(&cell), mode);
        let mut shared = GruStepScratch::new();
        for (k, &len) in lens.iter().enumerate() {
            let mut fresh = GruStepScratch::new();
            let mut a = [vec![0.0f32; 11], vec![0.0f32; 11], vec![0.0f32; 11]];
            let mut b = a.clone();
            for t in 0..len {
                let x: Vec<f32> = (0..5)
                    .map(|i| ((t * 5 + i + k) as f32 * 0.29 + seed as f32 * 0.01).cos())
                    .collect();
                let [h, z, r] = &mut a;
                gru.step(&x, h, &mut shared, z, r);
                let [h, z, r] = &mut b;
                gru.step(&x, h, &mut fresh, z, r);
                prop_assert_eq!(&a, &b, "len {} at position {}, t={}", len, k, t);
            }
        }
    }

    /// Every dispatched SIMD kernel set reproduces the scalar reference
    /// dot products within 1e-6 on randomized lengths, including
    /// remainder lanes (lengths that are not multiples of 8/16/32).
    #[test]
    fn simd_dot_kernels_match_scalar(
        len in 0usize..134,
        seed in 0u64..500,
        scale in 0.1f32..3.0,
    ) {
        let a = kernel_input(len, seed, scale);
        let b0 = kernel_input(len, seed ^ 1, scale);
        let b1 = kernel_input(len, seed ^ 2, scale);
        let b2 = kernel_input(len, seed ^ 3, scale);
        let b3 = kernel_input(len, seed ^ 4, scale);
        let scalar = KernelSet::scalar();
        let want = scalar.dot(&a, &b0);
        let want4 = scalar.dot4(&a, &b0, &b1, &b2, &b3);
        for ks in KernelSet::available() {
            let got = ks.dot(&a, &b0);
            prop_assert!(close(got, want), "{} dot: {got} vs {want}", ks.name);
            let got4 = ks.dot4(&a, &b0, &b1, &b2, &b3);
            for j in 0..4 {
                prop_assert!(
                    close(got4[j], want4[j]),
                    "{} dot4[{j}]: {} vs {}", ks.name, got4[j], want4[j]
                );
            }
        }
    }

    /// SIMD axpy and the L1 error reduction match the scalar reference on
    /// randomized lengths including remainders.
    #[test]
    fn simd_axpy_and_l1_match_scalar(
        len in 0usize..71,
        seed in 0u64..500,
        alpha in -2.0f32..2.0,
    ) {
        let src = kernel_input(len, seed, 1.0);
        let base = kernel_input(len, seed ^ 7, 1.0);
        let scalar = KernelSet::scalar();
        let mut want = base.clone();
        scalar.axpy(&mut want, &src, alpha);
        let want_l1 = scalar.sum_abs_diff(&base, &src);
        for ks in KernelSet::available() {
            let mut got = base.clone();
            ks.axpy(&mut got, &src, alpha);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!(close(*g, *w), "{} axpy: {g} vs {w}", ks.name);
            }
            let got_l1 = ks.sum_abs_diff(&base, &src);
            prop_assert!(close(got_l1, want_l1), "{} l1: {got_l1} vs {want_l1}", ks.name);
        }
    }

    /// The SIMD GRU gate block (vectorized sigmoid/tanh over the packed 3H
    /// slab) matches the scalar reference within 1e-6 for any hidden size
    /// — including non-multiple-of-lane sizes — and across the whole
    /// pre-activation range, saturation included.
    #[test]
    fn simd_gru_gates_match_scalar(
        hidden in 1usize..41,
        seed in 0u64..500,
        scale in 0.1f32..40.0,
    ) {
        let xp = kernel_input(3 * hidden, seed, scale);
        let up = kernel_input(3 * hidden, seed ^ 11, scale);
        let h0 = kernel_input(hidden, seed ^ 13, 0.9);
        let scalar = KernelSet::scalar();
        let (mut wh, mut wz, mut wr) = (h0.clone(), vec![0.0; hidden], vec![0.0; hidden]);
        scalar.gru_gates(&xp, &up, &mut wh, &mut wz, &mut wr);
        for ks in KernelSet::available() {
            let (mut gh, mut gz, mut gr) = (h0.clone(), vec![0.0; hidden], vec![0.0; hidden]);
            ks.gru_gates(&xp, &up, &mut gh, &mut gz, &mut gr);
            for i in 0..hidden {
                prop_assert!((gz[i] - wz[i]).abs() < 1e-6, "{} z[{i}]: {} vs {}", ks.name, gz[i], wz[i]);
                prop_assert!((gr[i] - wr[i]).abs() < 1e-6, "{} r[{i}]: {} vs {}", ks.name, gr[i], wr[i]);
                prop_assert!((gh[i] - wh[i]).abs() < 1e-6, "{} h[{i}]: {} vs {}", ks.name, gh[i], wh[i]);
            }
        }
    }

    /// The SIMD bias+activation epilogue matches the scalar reference for
    /// every activation on randomized row widths including remainders.
    #[test]
    fn simd_bias_act_matches_scalar(
        len in 0usize..47,
        seed in 0u64..500,
        scale in 0.1f32..8.0,
    ) {
        let base = kernel_input(len, seed, scale);
        let bias = kernel_input(len, seed ^ 17, scale);
        let scalar = KernelSet::scalar();
        for act in [
            Activation::Linear,
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            let mut want = base.clone();
            scalar.bias_act(&mut want, &bias, act);
            for ks in KernelSet::available() {
                let mut got = base.clone();
                ks.bias_act(&mut got, &bias, act);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(close(*g, *w), "{} {act:?}: {g} vs {w}", ks.name);
                }
            }
        }
    }

    /// Every available panel GEMV equals the scalar panel kernel
    /// **exactly** (i32 accumulation is associative integer math — there
    /// is no reassociation drift to tolerate) over ragged shapes: K below
    /// and off the 4-byte quad, N below and off the 16-lane block, across
    /// the full contract ranges (activations 0..=127, weights −127..=127).
    /// Integer-valued weights with a ±127 in every row quantize to
    /// themselves at scale 1, so under unit dequantization `y` *is* the
    /// i32 accumulator, checked against a naive row-major sum; a second
    /// pass with an arbitrary grid pins the f32 epilogue bitwise too.
    #[test]
    fn panel_gemv_matches_scalar_exactly(
        rows in 1usize..400,
        cols in 1usize..400,
        seed in 0u64..1000,
        scale in 1e-4f32..10.0,
        min in -5.0f32..5.0,
    ) {
        let m = Matrix::from_fn(rows, cols, |r, c| {
            if c == r % cols {
                if (r as u64 ^ seed) & 1 == 0 { 127.0 } else { -127.0 }
            } else {
                let v = ((r * cols + c) as u64).wrapping_mul(17) ^ seed.wrapping_mul(40503);
                (v % 255) as f32 - 127.0
            }
        });
        let q = QuantMatrix::quantize(&m);
        // Pad bytes past `cols` are live codes too: they must meet zero
        // weights.
        let qa: Vec<u8> = (0..cols.div_ceil(4) * 4)
            .map(|i| (((i as u64).wrapping_mul(31) ^ seed.wrapping_mul(2654435761)) % 128) as u8)
            .collect();
        let scalar = KernelSet::scalar();
        for act in [ActQuant { scale: 1.0, min: 0.0 }, ActQuant { scale, min }] {
            let mut want = vec![f32::NAN; rows];
            scalar.panel_gemv_i8(&q.panels(), &qa, act, &mut want);
            if act.scale == 1.0 && act.min == 0.0 {
                for (r, &y) in want.iter().enumerate() {
                    let acc: i32 = (0..cols)
                        .map(|c| i32::from(qa[c]) * i32::from(q.code(r, c)))
                        .sum();
                    prop_assert_eq!(q.code(r, r % cols).unsigned_abs(), 127);
                    prop_assert_eq!(y, acc as f32, "scalar row {} of {}x{}", r, rows, cols);
                }
            }
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            for ks in KernelSet::available() {
                let mut got = vec![f32::NAN; rows];
                ks.panel_gemv_i8(&q.panels(), &qa, act, &mut got);
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&got, &want, "{} {}x{}", ks.name, rows, cols);
            }
        }
    }

    /// The f32 panel GEMV against a naive row-major sum accumulated in
    /// f64, on every kernel set and any shape — non-multiples of the
    /// 16-lane block included. A k-ascending f32 chain of `cols` terms is
    /// within `cols · ε · Σ|x·w|` of the exact sum, fused or not. The SIMD
    /// sets run the same per-lane FMA chain whatever their register width
    /// and block grouping (avx2 four two-ymm blocks, avx512 eight zmm), so
    /// avx2 and avx512 must agree **bitwise**.
    #[test]
    fn panel_gemv_f32_matches_row_major_sum(
        rows in 1usize..400,
        cols in 1usize..400,
        seed in 0u64..1000,
        scale in 1e-3f32..100.0,
    ) {
        let m = Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.2713 + seed as f32 * 0.071).sin() * scale
        });
        let x = kernel_input(cols, seed, 3.0);
        let p = PanelMatrix::pack(&m);
        let mut simd_rows: Vec<(&str, Vec<u32>)> = Vec::new();
        for ks in KernelSet::available() {
            let mut y = vec![f32::NAN; rows];
            ks.panel_gemv_f32(p.lines(), cols, &x, &mut y);
            for (r, &got) in y.iter().enumerate() {
                let (mut exact, mut sum_abs) = (0.0f64, 0.0f64);
                for (&xv, &wv) in x.iter().zip(m.row(r)) {
                    let term = f64::from(xv) * f64::from(wv);
                    exact += term;
                    sum_abs += term.abs();
                }
                let tol = cols as f64 * f64::from(f32::EPSILON) * sum_abs + 1e-30;
                prop_assert!(
                    (f64::from(got) - exact).abs() <= tol,
                    "{} {}x{} row {}: {} vs {} (tol {})", ks.name, rows, cols, r, got, exact, tol
                );
            }
            if ks.name != "scalar" {
                simd_rows.push((ks.name, y.iter().map(|v| v.to_bits()).collect()));
            }
        }
        for pair in simd_rows.windows(2) {
            prop_assert_eq!(&pair[0].1, &pair[1].1, "{} != {}", pair[0].0, pair[1].0);
        }
    }

    /// Resident-state decode is one fused multiply-add per element on
    /// every set — hardware `vfmadd` in the SIMD sets, `f32::mul_add` in
    /// the scalar one — so all sets decode to the bit-identical f32, for
    /// any length (vector body and tail) and any grid.
    #[test]
    fn act_decode_is_bit_identical_across_sets(
        len in 0usize..400,
        seed in 0u64..1000,
        scale in 0.0f32..3.0,
        min in -100.0f32..100.0,
    ) {
        let codes: Vec<u8> = (0..len)
            .map(|i| (((i as u64).wrapping_mul(131) ^ seed.wrapping_mul(2654435761)) % 128) as u8)
            .collect();
        let act = ActQuant { scale, min };
        let want: Vec<u32> = codes
            .iter()
            .map(|&c| scale.mul_add(f32::from(c), min).to_bits())
            .collect();
        for ks in KernelSet::available() {
            let mut got = vec![f32::NAN; len];
            ks.act_decode(&codes, act, &mut got);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want, "{} len={}", ks.name, len);
        }
    }

    /// The quantized matvec tracks the f32 product within the analytic
    /// quantization-error bound: with activation grid step `s_a`, row grid
    /// step `s_r`, activation magnitude bound `A = max(|min|, |max|)` and
    /// weight magnitude bound `127·s_r`, the per-term error is at most
    /// `127·s_r·s_a/2 + A·s_r/2 + s_r·s_a/4`, summed over `cols` terms.
    #[test]
    fn quant_matvec_within_analytic_error_bound(
        rows in 1usize..20,
        cols in 1usize..80,
        seed in 0u64..500,
        scale in 0.01f32..10.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Matrix::xavier(rows, cols, &mut rng);
        m.scale(scale);
        let x: Vec<f32> = (0..cols)
            .map(|i| ((i as f32 * 0.71 + seed as f32 * 0.13).sin()) * scale)
            .collect();
        let q = QuantMatrix::quantize(&m);
        let mut qa = Vec::new();
        let act = quant::quantize_activations(&x, &mut qa);
        let amax = x.iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let mut y = vec![0.0f32; rows];
        q.matvec_into(&x, &mut qa, &mut y);
        let mut reference = vec![0.0f32; rows];
        m.matvec_into(&x, &mut reference);
        for r in 0..rows {
            let sr = q.scale(r);
            let per_term = 127.0 * sr * act.scale * 0.5 + amax * sr * 0.5 + sr * act.scale * 0.25;
            let bound = cols as f32 * per_term + 1e-5;
            prop_assert!(
                (y[r] - reference[r]).abs() <= bound,
                "row {}: int8 {} vs f32 {} (bound {})", r, y[r], reference[r], bound
            );
        }
    }

    /// A row of the nt-GEMM is bitwise a matvec for any shape, including
    /// `B` heights that leave a ragged remainder after the 4-row register
    /// blocks.
    #[test]
    fn nt_gemm_row_matches_matvec_bitwise(
        arows in 1usize..36,
        brows in 1usize..260,
        cols in prop_oneof![Just(256usize), Just(345usize), Just(400usize)],
        seed in 0u64..200,
    ) {
        let a = Matrix::from_fn(arows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.093 + seed as f32 * 0.01).sin()
        });
        let b = Matrix::from_fn(brows, cols, |r, c| {
            ((r * 13 + c * 7) as f32 * 0.051 + seed as f32 * 0.02).cos()
        });
        let mut c = Matrix::default();
        Matrix::matmul_nt_into(&a, &b, &mut c);
        let mut row = vec![0.0f32; brows];
        for i in 0..arows {
            b.matvec_into(a.row(i), &mut row);
            prop_assert_eq!(c.row(i), row.as_slice(), "row {} diverged", i);
        }
    }

    /// The training kernels are the loops they replaced, bit for bit, on
    /// every kernel set. For a batch's forward product `X · Wᵀ`, weight
    /// gradient `dYᵀ · X` and input gradient `dY · W`, every output of
    /// `gemm_nt_f32` / `gemm_rank_f32` has the bits the set's own `dot4` /
    /// `dot` / `axpy` loop gives it: at the six autoencoder layers at batch
    /// 64 and at ragged shapes (1..=9 rows, widths off multiples of 8 and
    /// 16, a single `k` for each product), with `+0`, `−0`, whole zero rows
    /// and whole zero columns in `X`, `W` and `dY`, and optionally a NaN
    /// or infinity in `X` and in `W` — which a skipped zero gradient must
    /// not multiply, as the axpy loops never did.
    #[test]
    fn training_kernels_are_their_loops_bitwise(
        shape in prop_oneof![
            Just((64usize, 345usize, 192usize)),
            Just((64usize, 192usize, 96usize)),
            Just((64usize, 96usize, 40usize)),
            Just((64usize, 40usize, 96usize)),
            Just((64usize, 96usize, 192usize)),
            Just((64usize, 192usize, 345usize)),
            (1usize..=9, 1usize..=70, 1usize..=40),
            (1usize..=9, 1usize..=70, 1usize..=40),
            (1usize..=9, Just(1usize), 1usize..=40),
            (Just(1usize), 1usize..=70, 1usize..=40),
            (1usize..=9, 1usize..=70, Just(1usize)),
        ],
        seed in 0u64..1000,
        poison in prop_oneof![Just(None), Just(Some(f32::NAN)), Just(Some(f32::INFINITY))],
    ) {
        let (batch, inp, out) = shape;
        let s = seed as usize;
        // Rows and columns whose every entry is a signed zero, and scattered
        // `+0` / `−0` entries elsewhere.
        let fill = |rows: usize, cols: usize, salt: usize| -> Vec<f32> {
            (0..rows * cols)
                .map(|i| {
                    let (r, c) = (i / cols, i % cols);
                    let zero = if (r + c + salt).is_multiple_of(2) { 0.0 } else { -0.0 };
                    if (r + s + salt) % 5 == 4 || (c + s + salt) % 7 == 6 {
                        return zero;
                    }
                    match (i * 7 + salt + s) % 6 {
                        0 | 1 => zero,
                        _ => (i as f32 * 0.37 + salt as f32 + seed as f32 * 0.01).sin(),
                    }
                })
                .collect()
        };
        let (mut x, mut w, dy) = (fill(batch, inp, 1), fill(out, inp, 2), fill(batch, out, 3));
        if let Some(v) = poison {
            x[(batch - 1) * inp + inp / 2] = v;
            w[(out - 1) * inp + inp / 3] = v;
        }
        for ks in KernelSet::available() {
            let mut y = vec![f32::NAN; batch * out];
            ks.gemm_nt_f32(&x, &w, &mut y, inp);
            prop_assert_eq!(bits(&y), bits(&nt_by_dots(ks, &x, &w, inp)),
                "{} forward {}x{}x{}", ks.name, batch, inp, out);
            let mut dw = vec![f32::NAN; out * inp];
            ks.gemm_rank_f32(&dy, [out, 1], &x, &mut dw, inp);
            prop_assert_eq!(bits(&dw), bits(&tn_by_axpy(ks, &dy, out, &x, inp)),
                "{} dW {}x{}x{}", ks.name, batch, inp, out);
            let mut dx = vec![f32::NAN; batch * inp];
            ks.gemm_rank_f32(&dy, [1, out], &w, &mut dx, inp);
            prop_assert_eq!(bits(&dx), bits(&nn_by_axpy(ks, &dy, out, &w, inp)),
                "{} dX {}x{}x{}", ks.name, batch, inp, out);
        }
    }

    /// Batched AE inference through the workspace equals the allocating
    /// reference for any batch size.
    #[test]
    fn ae_workspace_matches_reference(
        seed in 0u64..100,
        rows in 1usize..20,
    ) {
        let ae = Autoencoder::new(&[7, 4, 2, 4, 7], seed);
        let x = Matrix::from_fn(rows, 7, |r, c| ((r * 7 + c) as f32 * 0.37 + seed as f32).sin());
        let reference = ae.reconstruction_errors(&x);
        let mut ws = neural::AeWorkspace::new();
        let mut out = Vec::new();
        // Twice through the same workspace: reuse must not drift.
        for _ in 0..2 {
            out.clear();
            ae.reconstruction_errors_into(&x, &mut ws, &mut out);
            prop_assert_eq!(out.len(), rows);
            for (a, b) in out.iter().zip(&reference) {
                prop_assert!((a - b).abs() < 1e-6);
            }
        }
    }
}
