//! Adam optimizer (Kingma & Ba, 2015) over flat parameter buffers.

use serde::{Deserialize, Serialize};

/// Adam state for one parameter tensor. Keep one `Adam` per weight matrix /
/// bias vector; all tensors share hyper-parameters but carry independent
/// moment estimates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Standard hyper-parameters (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(len: usize, lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// Applies one update: `params -= lr * m̂ / (sqrt(v̂) + eps)`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "parameter count changed");
        assert_eq!(grads.len(), self.m.len(), "gradient count mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        // f(x) = (x - 3)^2, df/dx = 2(x - 3).
        let mut x = vec![10.0f32];
        let mut opt = Adam::new(1, 0.1);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x = {}", x[0]);
    }

    #[test]
    fn minimizes_multidim() {
        // f(x, y) = x^2 + 10 y^2.
        let mut p = vec![5.0f32, -4.0];
        let mut opt = Adam::new(2, 0.05);
        for _ in 0..1000 {
            let g = vec![2.0 * p[0], 20.0 * p[1]];
            opt.step(&mut p, &g);
        }
        assert!(p[0].abs() < 0.05 && p[1].abs() < 0.05, "p = {p:?}");
    }

    #[test]
    #[should_panic(expected = "gradient count mismatch")]
    fn shape_checked() {
        let mut opt = Adam::new(2, 0.1);
        let mut p = vec![0.0; 2];
        opt.step(&mut p, &[0.0; 3]);
    }
}
