//! Output-stationary f32 weight panels — the weight layout of the f32
//! inference engines ([`crate::PackedGru`], [`crate::PackedAutoencoder`]).
//!
//! A row-major matvec takes one dot product per output: rows whose length
//! is not a multiple of a cache line straddle lines, and every output ends
//! in a horizontal reduction. A [`PanelMatrix`] stores the same weights as
//! `[row block of 16][k][output lane]`, so [`KernelSet::panel_gemv_f32`]
//! broadcasts one activation per `k` against an aligned 64-byte line of
//! sixteen outputs: each output lane owns one accumulator, there is no
//! reduction and no k-tail, and a block's weights are one sequential
//! stream. The int8 engine's [`crate::QuantMatrix`] is the same idea at
//! four `k` per lane.
//!
//! Packing is a pure relayout done once per scorer; the trainable
//! row-major [`Matrix`] stays the source of truth and nothing here is
//! serialized or cached inside a model (a cache there could go stale under
//! `train`).

use crate::matrix::Matrix;
use crate::simd::{KernelSet, PanelLine, GEMM_ROWS, PANEL_LANES};

/// An f32 matrix packed for `y = W·x`: see the module docs for the layout.
/// Rows are zero-padded to whole [`PANEL_LANES`] blocks; `k` is not
/// padded.
#[derive(Debug, Clone)]
pub struct PanelMatrix {
    pub rows: usize,
    pub cols: usize,
    /// `[row block][k]`, `rows.div_ceil(PANEL_LANES) · cols` lines.
    lines: Vec<PanelLine>,
}

impl PanelMatrix {
    /// Packs a row-major matrix. Its weights must be finite: the GEMV
    /// skips every `k` whose activation is zero, which equals multiplying
    /// by it only while `0 · w` is `0` — an infinite or NaN weight would
    /// poison its row in one case and not the other.
    pub fn pack(m: &Matrix) -> PanelMatrix {
        let blocks = m.rows.div_ceil(PANEL_LANES);
        let mut lines = vec![PanelLine([0.0; PANEL_LANES]); blocks * m.cols];
        for r in 0..m.rows {
            let block = &mut lines[r / PANEL_LANES * m.cols..][..m.cols];
            for (line, &v) in block.iter_mut().zip(m.row(r)) {
                line.0[r % PANEL_LANES] = v;
            }
        }
        PanelMatrix {
            rows: m.rows,
            cols: m.cols,
            lines,
        }
    }

    /// The lines as the GEMV kernel consumes them.
    pub fn lines(&self) -> &[PanelLine] {
        &self.lines
    }

    /// Weight `(r, c)`, read from its panel.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "weight index out of range");
        self.lines[r / PANEL_LANES * self.cols + c].0[r % PANEL_LANES]
    }

    /// The row-major matrix this was packed from, bit for bit.
    pub fn unpack(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| self.get(r, c))
    }

    /// `y = self · x` through the dispatched panel GEMV.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "panel matvec input length mismatch");
        assert_eq!(y.len(), self.rows, "panel matvec output length mismatch");
        KernelSet::active().panel_gemv_f32(&self.lines, self.cols, x, y);
    }

    /// `C = A · selfᵀ`: the rows of `A` in groups of [`GEMM_ROWS`] through
    /// [`KernelSet::panel_gemm_f32`], which streams the panels once per
    /// group rather than once per row (a 16-row batch of paper-shaped
    /// windows costs ≈ 1/1.7 the 1-row price per row on avx512; a lone
    /// last row is the GEMV behind [`matvec_into`](Self::matvec_into)).
    /// Every row of `C` is bitwise the matvec of that row alone up to the
    /// sign of a zero — the invariant behind streaming == batch scoring.
    pub fn matmul_nt_into(&self, a: &Matrix, c: &mut Matrix) {
        assert_eq!(a.cols, self.cols, "panel matmul input width mismatch");
        c.resize(a.rows, self.rows);
        self.matmul_rows_into(a.rows, &a.data, &mut c.data);
    }

    /// [`matmul_nt_into`](Self::matmul_nt_into) over `m` rows laid out
    /// back to back: `x` at stride `cols`, `y` at stride `rows`.
    pub(crate) fn matmul_rows_into(&self, m: usize, x: &[f32], y: &mut [f32]) {
        let (cols, rows) = (self.cols, self.rows);
        assert!(
            x.len() == m * cols && y.len() == m * rows,
            "panel matmul shape mismatch"
        );
        let ks = KernelSet::active();
        let mut i = 0;
        while i < m {
            let g = (m - i).min(GEMM_ROWS);
            let (xs, ys) = (
                &x[i * cols..(i + g) * cols],
                &mut y[i * rows..(i + g) * rows],
            );
            ks.panel_gemm_f32(&self.lines, cols, xs, ys, g);
            i += g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.173 + 0.5).sin() * 0.9
        })
    }

    /// Packing is a pure relayout: every weight reads back bit for bit and
    /// every pad weight is zero.
    #[test]
    fn packing_round_trips_and_pads_with_zeros() {
        for (rows, cols) in [
            (1, 1),
            (7, 13),
            (17, 5),
            (16, 4),
            (33, 64),
            (96, 37),
            (345, 192),
        ] {
            let m = wavy(rows, cols);
            let p = PanelMatrix::pack(&m);
            assert_eq!(p.unpack(), m, "{rows}x{cols}");
            assert_eq!(p.lines().len(), rows.div_ceil(PANEL_LANES) * cols);
            let live = p
                .lines()
                .iter()
                .flat_map(|line| &line.0)
                .filter(|v| **v != 0.0)
                .count();
            let nonzero = m.data.iter().filter(|v| **v != 0.0).count();
            assert_eq!(live, nonzero, "{rows}x{cols}: a pad weight is non-zero");
        }
    }

    /// A NaN or +inf activation gives every kernel set the non-finite
    /// outputs of the row-major matvec (NaN everywhere; ±inf or NaN by the
    /// sign of the weight it meets), and nothing else leaks: pad lanes
    /// (inf · 0 = NaN there) are never stored, and values past `cols` in a
    /// longer activation buffer are never read. One activation and one
    /// output buffer serve all eight hot shapes.
    #[test]
    fn non_finite_rows_match_row_major_and_nothing_leaks() {
        let mut x = vec![f32::NAN; 400];
        let mut y = vec![f32::NAN; 400];
        for (rows, cols) in [
            (192, 345),
            (96, 192),
            (40, 96),
            (96, 40),
            (192, 96),
            (345, 192),
            (96, 37),
            (96, 32),
        ] {
            let mut m = wavy(rows, cols);
            m.set(rows / 2, cols / 2, 0.0);
            let p = PanelMatrix::pack(&m);
            for poison in [None, Some(f32::NAN), Some(f32::INFINITY)] {
                for (k, v) in x[..cols].iter_mut().enumerate() {
                    *v = (k as f32 * 0.61).cos() * 1.7;
                }
                if let Some(v) = poison {
                    x[cols / 2] = v;
                }
                let mut want = vec![0.0; rows];
                m.matvec_into(&x[..cols], &mut want);
                for ks in KernelSet::available() {
                    y.fill(-7.0);
                    ks.panel_gemv_f32(p.lines(), cols, &x, &mut y[..rows]);
                    for (r, (&got, &want)) in y.iter().zip(&want).enumerate() {
                        let same = if want.is_finite() {
                            (got - want).abs() <= 1e-4
                        } else {
                            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
                        };
                        assert!(same, "{} {rows}x{cols} row {r}: {got} vs {want}", ks.name);
                    }
                    assert!(
                        y[rows..].iter().all(|&v| v == -7.0),
                        "{} {rows}x{cols}: wrote past the last row",
                        ks.name
                    );
                }
            }
        }
    }

    /// The kernels skip a zero activation; the chain that multiplies by
    /// it gives the same bits, in the hot window shape and a ragged one,
    /// for `+0`, `−0` and an all-zero row (a flow's first GRU step).
    #[test]
    fn skipping_zero_activations_changes_no_bit() {
        for (rows, cols) in [(192, 345), (40, 33)] {
            let m = wavy(rows, cols);
            let p = PanelMatrix::pack(&m);
            let sparse = |k: usize| match k % 3 {
                0 => 0.0,
                1 => -0.0,
                _ => (k as f32 * 0.61).cos() * 1.7,
            };
            for x in [(0..cols).map(sparse).collect(), vec![0.0f32; cols]] {
                for ks in KernelSet::available() {
                    let fused = ks.name != "scalar";
                    let mut y = vec![f32::NAN; rows];
                    ks.panel_gemv_f32(p.lines(), cols, &x, &mut y);
                    for (r, got) in y.iter().enumerate() {
                        let unskipped = x.iter().enumerate().fold(0.0f32, |acc, (k, &xv)| {
                            if fused {
                                xv.mul_add(m.get(r, k), acc)
                            } else {
                                acc + xv * m.get(r, k)
                            }
                        });
                        assert_eq!(got.to_bits(), unskipped.to_bits(), "{} row {r}", ks.name);
                    }
                }
            }
        }
    }

    #[test]
    fn one_row_gemm_is_bitwise_matvec() {
        let p = PanelMatrix::pack(&wavy(40, 33));
        let a = Matrix::from_fn(5, 33, |r, c| ((r * 33 + c) as f32 * 0.61).cos());
        let mut c = Matrix::default();
        p.matmul_nt_into(&a, &mut c);
        let mut y = vec![0.0f32; 40];
        for i in 0..a.rows {
            p.matvec_into(a.row(i), &mut y);
            assert_eq!(c.row(i), y.as_slice(), "row {i}");
        }
    }

    #[test]
    fn empty_shapes_are_fine() {
        let p = PanelMatrix::pack(&Matrix::zeros(0, 5));
        p.matvec_into(&[1.0; 5], &mut []);
        let p = PanelMatrix::pack(&Matrix::zeros(3, 0));
        let mut y = [f32::NAN; 3];
        p.matvec_into(&[], &mut y);
        assert_eq!(y, [0.0; 3]);
    }
}
