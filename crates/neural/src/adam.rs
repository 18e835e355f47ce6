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
        let step = self.tick();
        step.apply(params, grads, &mut self.m, &mut self.v);
    }

    /// Starts one update: advances the step count and returns the update
    /// that [`AdamStep::apply`] then makes range by range — every range
    /// of one step shares its `t`, so the ranges together are bitwise one
    /// [`step`](Self::step).
    pub(crate) fn tick(&mut self) -> AdamStep {
        self.t += 1;
        AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            b1t: 1.0 - self.beta1.powi(self.t as i32),
            b2t: 1.0 - self.beta2.powi(self.t as i32),
        }
    }

    /// The first and second moment estimates, one per parameter.
    pub(crate) fn moments_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.m, &mut self.v)
    }
}

/// One Adam update at a fixed step count, from [`Adam::tick`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// The bias corrections `1 − βᵗ`.
    b1t: f32,
    b2t: f32,
}

impl AdamStep {
    /// Updates a range of a tensor's parameters with their gradients and
    /// their slices of the tensor's moments `m` and `v`.
    pub(crate) fn apply(&self, params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32]) {
        debug_assert!(grads.len() == params.len() && m.len() == params.len());
        debug_assert_eq!(v.len(), params.len());
        for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m).zip(v) {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let mhat = *m / self.b1t;
            let vhat = *v / self.b2t;
            *p -= self.lr * mhat / (vhat.sqrt() + self.eps);
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
