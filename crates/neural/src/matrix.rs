//! Row-major `f32` matrices with the GEMM variants training needs, each
//! writing into a caller's matrix.
//!
//! This is the trainable, serialized weight format and the forward /
//! backward path of training (and of the small Kitsune / Baseline #1
//! autoencoders). The scoring engines do **not** run on it: they repack
//! their weights as [`crate::PanelMatrix`] panels and go through the panel
//! GEMM, which is about twice as fast per row as [`Matrix::matvec_into`]
//! at the paper's layer sizes.
//!
//! Each GEMM is one call into the runtime-dispatched [`KernelSet`]
//! (explicit AVX2+FMA / AVX-512 intrinsic kernels where the CPU supports
//! them, a safe scalar reference otherwise — no `-C target-cpu=native`
//! required), register-blocked so that a batch reuses what it loads:
//! [`Matrix::matmul_nt_into`] (the forward `X · Wᵀ`, and
//! [`Matrix::matvec_into`] as its one-row case) runs
//! [`KernelSet::gemm_nt_f32`], which takes two rows of `A` through each
//! group of four rows of `B` on avx512; [`Matrix::matmul_nn_into`] (`dY ·
//! W`) and [`Matrix::matmul_tn_into`] (`dYᵀ · X`) run
//! [`KernelSet::gemm_rank_f32`], which keeps four rows of `C` in registers
//! while it streams `B`. Each is defined by its own arithmetic, on every
//! kernel set: an output of the nt-GEMM depends only on its own rows of
//! `A` and `B`, so a batch is bitwise a loop of one-row products, and an
//! output of the rank GEMMs is one multiply-add chain over `k` that skips a
//! zero coefficient. Nothing here loops over a vector kernel: the
//! autoencoder's layers and the GRU classifier (its input side over a whole
//! sequence, `dW`, `dU` and the head) train on these three products alone.

use crate::simd::KernelSet;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty (0×0) matrix; workspaces start here and grow on first use.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing buffer (must have `rows * cols` elements).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization for a layer mapping `cols`
    /// inputs to `rows` outputs.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-bound..bound))
    }

    /// Immutable row view.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row view.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor (row, col).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter (row, col).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Reshapes in place, reusing the existing allocation. Contents are
    /// unspecified afterwards (callers overwrite); grows the buffer only
    /// when the new shape needs more room than any previous one.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// In-place matrix–vector product `y = self · x` (self: m×n, x: n,
    /// y: m); no allocation. The one-row case of
    /// [`matmul_nt_into`](Self::matmul_nt_into), so a row of that GEMM is
    /// bitwise this matvec.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert!(
            x.len() == self.cols && y.len() == self.rows,
            "matvec shape mismatch"
        );
        KernelSet::active().gemm_nt_f32(x, &self.data, y, self.cols);
    }

    /// In-place `C = A · B`, reusing `c`'s allocation — the input gradient
    /// `dY · W`.
    pub fn matmul_nn_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
        assert_eq!(a.cols, b.rows, "nn shape mismatch");
        c.resize(a.rows, b.cols);
        KernelSet::active().gemm_rank_f32(&a.data, [1, a.cols], &b.data, &mut c.data, b.cols);
    }

    /// In-place `C = A · Bᵀ`, reusing `c`'s allocation: row `i` of `C` is
    /// [`matvec_into`](Self::matvec_into) of row `i` of `A`, bitwise —
    /// pinned by the matrix proptests.
    pub fn matmul_nt_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
        assert_eq!(a.cols, b.cols, "nt shape mismatch");
        c.resize(a.rows, b.rows);
        KernelSet::active().gemm_nt_f32(&a.data, &b.data, &mut c.data, a.cols);
    }

    /// In-place `C = Aᵀ · B`, reusing `c`'s allocation — the weight
    /// gradient `dYᵀ · X`.
    pub fn matmul_tn_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
        assert_eq!(a.rows, b.rows, "tn shape mismatch");
        c.resize(a.cols, b.cols);
        KernelSet::active().gemm_rank_f32(&a.data, [a.cols, 1], &b.data, &mut c.data, b.cols);
    }

    /// Adds another matrix elementwise.
    pub fn add_assign(&mut self, other: &Matrix) {
        debug_assert_eq!(self.data.len(), other.data.len());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// Elementwise vector helpers used by the recurrent cells.
pub mod vecops {
    /// `a += b`.
    pub fn add_assign(a: &mut [f32], b: &[f32]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    /// One of the `*_into` products into a fresh matrix.
    fn product(f: fn(&Matrix, &Matrix, &mut Matrix), a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::default();
        f(a, b, &mut c);
        c
    }

    #[test]
    fn matvec_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = [0.0; 2];
        a.matvec_into(&[1.0, 0.0, -1.0], &mut y);
        assert_eq!(y, [-2.0, -2.0]);
        let ones = m(2, 1, &[1.0, 1.0]);
        let yt = product(Matrix::matmul_tn_into, &a, &ones);
        assert_eq!(yt.data, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn gemm_variants_agree_with_naive() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(3, 5, |r, c| (r as f32 - c as f32) * 0.25);
        let c = product(Matrix::matmul_nn_into, &a, &b);
        for i in 0..4 {
            for j in 0..5 {
                let expect: f32 = (0..3).map(|k| a.get(i, k) * b.get(k, j)).sum();
                assert!((c.get(i, j) - expect).abs() < 1e-5);
            }
        }
        // nt: A (4x3) · Bt where B (5x3)
        let b2 = Matrix::from_fn(5, 3, |r, c| (r + 2 * c) as f32 * 0.1);
        let c2 = product(Matrix::matmul_nt_into, &a, &b2);
        for i in 0..4 {
            for j in 0..5 {
                let expect: f32 = (0..3).map(|k| a.get(i, k) * b2.get(j, k)).sum();
                assert!((c2.get(i, j) - expect).abs() < 1e-5);
            }
        }
        // tn: At (3x4) · B3 (4x2)
        let b3 = Matrix::from_fn(4, 2, |r, c| (r as f32 + 1.0) * (c as f32 - 0.5));
        let c3 = product(Matrix::matmul_tn_into, &a, &b3);
        for i in 0..3 {
            for j in 0..2 {
                let expect: f32 = (0..4).map(|k| a.get(k, i) * b3.get(k, j)).sum();
                assert!((c3.get(i, j) - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn large_gemm_matches_naive() {
        let a = Matrix::from_fn(80, 70, |r, c| ((r * 7 + c * 13) % 11) as f32 - 5.0);
        let b = Matrix::from_fn(70, 90, |r, c| ((r * 3 + c * 5) % 7) as f32 - 3.0);
        let c = product(Matrix::matmul_nn_into, &a, &b); // ragged row and column tiles
        for &(i, j) in &[(0, 0), (79, 89), (40, 45), (13, 71)] {
            let expect: f32 = (0..70).map(|k| a.get(i, k) * b.get(k, j)).sum();
            assert!((c.get(i, j) - expect).abs() < 1e-3);
        }
    }

    /// A one-row rank GEMM is the outer product `uᵀ · v`.
    #[test]
    fn outer_product() {
        let w = product(
            Matrix::matmul_tn_into,
            &m(1, 2, &[0.5, 1.0]),
            &m(1, 3, &[3.0, 4.0, 5.0]),
        );
        assert_eq!(w.data, vec![1.5, 2.0, 2.5, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn xavier_within_bounds() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let w = Matrix::xavier(10, 20, &mut rng);
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(w.data.iter().all(|v| v.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "buffer size mismatch")]
    fn from_vec_size_checked() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    /// A row of the nt-GEMM must be **bitwise** a matvec: training runs
    /// the GEMM, the row-major inference paths the matvec, on one set of
    /// weights.
    #[test]
    fn nt_gemm_row_is_bitwise_a_matvec() {
        let cols = 345;
        let a = Matrix::from_fn(19, cols, |r, c| ((r * cols + c) as f32 * 0.137).sin());
        let b = Matrix::from_fn(210, cols, |r, c| ((r * 31 + c * 7) as f32 * 0.071).cos());
        let mut c = Matrix::default();
        Matrix::matmul_nt_into(&a, &b, &mut c);
        let mut row = vec![0.0f32; b.rows];
        for i in 0..a.rows {
            b.matvec_into(a.row(i), &mut row);
            assert_eq!(c.row(i), row.as_slice(), "row {i} diverged from matvec");
        }
    }
}
