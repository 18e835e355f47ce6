//! Fully-connected layer with batched forward/backward.

use crate::simd::KernelSet;
use crate::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Activation applied after the affine map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    Linear,
    Relu,
    Tanh,
    Sigmoid,
}

impl Activation {
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Linear => x,
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => crate::sigmoid(x),
        }
    }

    /// Derivative expressed in terms of the *activation output* `y`.
    #[inline]
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Linear => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
        }
    }
}

/// `y = act(x Wᵀ + b)` with `W: out×in`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    pub w: Matrix,
    pub b: Vec<f32>,
    pub activation: Activation,
}

/// Parameter gradients for one layer.
#[derive(Debug, Clone, Default)]
pub struct DenseGrads {
    pub dw: Matrix,
    pub db: Vec<f32>,
}

impl Dense {
    pub fn new(input: usize, output: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        Dense {
            w: Matrix::xavier(output, input, rng),
            b: vec![0.0; output],
            activation,
        }
    }

    pub fn input_size(&self) -> usize {
        self.w.cols
    }

    pub fn output_size(&self) -> usize {
        self.w.rows
    }

    /// Batched forward pass; `x` is batch × in.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(x.rows, self.w.rows);
        self.forward_into(x, &mut y);
        y
    }

    /// Batched forward pass into a caller-owned output matrix (reused
    /// allocation). The bias + activation epilogue runs on the dispatched
    /// kernel set (vectorized tanh/sigmoid on SIMD-capable CPUs).
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix) {
        assert_eq!(x.cols, self.input_size(), "dense input width mismatch");
        y.resize(x.rows, self.output_size());
        self.forward_rows(&x.data, &mut y.data);
    }

    /// [`forward_into`](Self::forward_into) on bare row-major rows: `x` is
    /// rows × in, `y` rows × out. Each row of `y` depends on its row of
    /// `x` alone, bitwise, however the rows of a batch are split.
    pub fn forward_rows(&self, x: &[f32], y: &mut [f32]) {
        let ks = KernelSet::active();
        ks.gemm_nt_f32(x, &self.w.data, y, self.input_size());
        for row in y.chunks_exact_mut(self.output_size()) {
            ks.bias_act(row, &self.b, self.activation);
        }
    }

    /// Backward pass for the batch `x` (batch × in) whose activated output
    /// was `y` (batch × out): folds the activation derivative into `dy`
    /// (`dl/dy` on entry, `dl/d(pre-activation)` on return), writes the
    /// parameter gradients into `grads` and, when asked, `dl/dx` into `dx`.
    /// Every buffer keeps its allocation across calls. The composition of
    /// its row half, [`backward_rows`](Self::backward_rows), and its
    /// parameter half, [`param_grads`](Self::param_grads).
    pub fn backward(
        &self,
        x: &Matrix,
        y: &Matrix,
        dy: &mut Matrix,
        grads: &mut DenseGrads,
        dx: Option<&mut Matrix>,
    ) {
        let (out, input) = (self.output_size(), self.input_size());
        let dx = dx.map(|dx| {
            dx.resize(dy.rows, input);
            &mut dx.data[..]
        });
        self.backward_rows(&y.data, &mut dy.data, dx);
        grads.dw.resize(out, input);
        grads.db.resize(out, 0.0);
        Dense::param_grads(
            &x.data,
            &dy.data,
            out,
            0..out,
            &mut grads.dw.data,
            &mut grads.db,
        );
    }

    /// The row half of [`backward`](Self::backward) over some rows of a
    /// batch: folds the activation derivative (from the output rows `y`)
    /// into `dy` and, when asked, writes `dx = dy · W`. Each row depends on
    /// its own rows alone.
    pub fn backward_rows(&self, y: &[f32], dy: &mut [f32], dx: Option<&mut [f32]>) {
        for (dv, &yv) in dy.iter_mut().zip(y) {
            *dv *= self.activation.derivative_from_output(yv);
        }
        if let Some(dx) = dx {
            let out = self.output_size();
            let ks = KernelSet::active();
            ks.gemm_rank_f32(dy, [1, out], &self.w.data, dx, self.input_size());
        }
    }

    /// The parameter half of [`backward`](Self::backward) for the output
    /// neurons `outs` of a layer: from the whole batch's inputs `x` (batch
    /// × in) and folded gradients `dy` (batch × out), writes their rows of
    /// `dW = dyᵀ · x` into `dw` (`outs.len()` × in) and their `db` (the
    /// column sums of `dy`, batch row by batch row); `out` is the layer's
    /// width. Each output is the chain the whole layer's product runs for
    /// it, so splitting the neurons does not move a bit.
    pub fn param_grads(
        x: &[f32],
        dy: &[f32],
        out: usize,
        outs: Range<usize>,
        dw: &mut [f32],
        db: &mut [f32],
    ) {
        assert!(
            !outs.is_empty() && outs.end <= out,
            "output neurons out of range"
        );
        let ks = KernelSet::active();
        ks.gemm_rank_f32(&dy[outs.start..], [out, 1], x, dw, dw.len() / outs.len());
        db.fill(0.0);
        for row in dy.chunks_exact(out) {
            for (acc, &v) in db.iter_mut().zip(&row[outs.clone()]) {
                *acc += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(2, 2, Activation::Linear, &mut rng);
        layer.w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        layer.b = vec![0.5, -0.5];
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = layer.forward(&x);
        assert_eq!(y.data, vec![3.5, 6.5]);
    }

    #[test]
    fn relu_clips_negatives() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(1, 2, Activation::Relu, &mut rng);
        layer.w = Matrix::from_vec(2, 1, vec![1.0, -1.0]);
        layer.b = vec![0.0, 0.0];
        let y = layer.forward(&Matrix::from_vec(1, 1, vec![2.0]));
        assert_eq!(y.data, vec![2.0, 0.0]);
    }

    /// Finite-difference check of dense backward for every activation.
    #[test]
    fn gradients_match_finite_differences() {
        for act in [
            Activation::Linear,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Relu,
        ] {
            let mut rng = StdRng::seed_from_u64(42);
            let mut layer = Dense::new(3, 2, act, &mut rng);
            // Keep ReLU away from the kink.
            if act == Activation::Relu {
                layer.b = vec![0.3, 0.4];
            }
            let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]);
            // Loss = sum(y).
            let loss = |layer: &Dense, x: &Matrix| layer.forward(x).data.iter().sum::<f32>();

            let y = layer.forward(&x);
            let mut dy = Matrix::from_vec(2, 2, vec![1.0; 4]);
            let (mut grads, mut dx) = (DenseGrads::default(), Matrix::default());
            layer.backward(&x, &y, &mut dy, &mut grads, Some(&mut dx));

            let eps = 1e-2f32;
            // Weight grads.
            for i in 0..layer.w.data.len() {
                let orig = layer.w.data[i];
                layer.w.data[i] = orig + eps;
                let lp = loss(&layer, &x);
                layer.w.data[i] = orig - eps;
                let lm = loss(&layer, &x);
                layer.w.data[i] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grads.dw.data[i]).abs() < 2e-2,
                    "{act:?} dW[{i}]: fd={fd} analytic={}",
                    grads.dw.data[i]
                );
            }
            // Input grads.
            let mut x2 = x.clone();
            for i in 0..x2.data.len() {
                let orig = x2.data[i];
                x2.data[i] = orig + eps;
                let lp = loss(&layer, &x2);
                x2.data[i] = orig - eps;
                let lm = loss(&layer, &x2);
                x2.data[i] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - dx.data[i]).abs() < 2e-2,
                    "{act:?} dX[{i}]: fd={fd} analytic={}",
                    dx.data[i]
                );
            }
        }
    }
}
