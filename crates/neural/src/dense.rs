//! Fully-connected layer with batched forward/backward.

use crate::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

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
        Matrix::matmul_nt_into(x, &self.w, y);
        let ks = crate::simd::KernelSet::active();
        for r in 0..y.rows {
            ks.bias_act(y.row_mut(r), &self.b, self.activation);
        }
    }

    /// Backward pass for the batch `x` (batch × in) whose activated output
    /// was `y` (batch × out): folds the activation derivative into `dy`
    /// (`dl/dy` on entry, `dl/d(pre-activation)` on return), writes the
    /// parameter gradients into `grads` and, when asked, `dl/dx` into `dx`.
    /// Every buffer keeps its allocation across calls.
    pub fn backward(
        &self,
        x: &Matrix,
        y: &Matrix,
        dy: &mut Matrix,
        grads: &mut DenseGrads,
        dx: Option<&mut Matrix>,
    ) {
        for (dv, &yv) in dy.data.iter_mut().zip(&y.data) {
            *dv *= self.activation.derivative_from_output(yv);
        }
        Matrix::matmul_tn_into(dy, x, &mut grads.dw);
        grads.db.clear();
        grads.db.resize(self.output_size(), 0.0);
        for r in 0..dy.rows {
            for (acc, &v) in grads.db.iter_mut().zip(dy.row(r)) {
                *acc += v;
            }
        }
        if let Some(dx) = dx {
            Matrix::matmul_nn_into(dy, &self.w, dx);
        }
    }

    /// Flattens parameters into `(weights, biases)` mutable views for the
    /// optimizer.
    pub fn params_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.w.data, &mut self.b)
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
