//! Gated Recurrent Unit with full backpropagation through time.
//!
//! The cell follows the standard (PyTorch-convention) formulation:
//!
//! ```text
//! z_t = σ(Wz x_t + Uz h_{t-1} + bz)              (update gate)
//! r_t = σ(Wr x_t + Ur h_{t-1} + br)              (reset gate)
//! n_t = tanh(Wn x_t + bn + r_t ∘ (Un h_{t-1}))   (candidate state)
//! h_t = (1 - z_t) ∘ n_t + z_t ∘ h_{t-1}
//! ```
//!
//! CLAP does not only use the classifier output: the per-timestep **gate
//! activations** `z_t` and `r_t` are the learned inter-packet context that
//! gets fused into the context profile (paper §3.3(b), features #52–#115 of
//! Table 7). [`GruTrace`] therefore exposes them directly.

use crate::matrix::vecops;
use crate::quant::{PackedWeights, QuantMode};
use crate::simd::KernelSet;
use crate::{sigmoid, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// GRU parameters, gate-stacked in the order update, reset, candidate:
/// the layout [`PackedGru`] packs as it is.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruCell {
    /// Input projections `[Wz; Wr; Wn]`: `3H×I`.
    pub w: Matrix,
    /// Recurrent projections `[Uz; Ur; Un]`: `3H×H`.
    pub u: Matrix,
    /// Biases `[bz; br; bn]`: `3H`.
    pub b: Vec<f32>,
}

/// Everything the backward pass (and CLAP's feature fusion) needs from a
/// forward run over one sequence: `T×H` matrices, row `t` for timestep
/// `t`.
#[derive(Debug, Clone)]
pub struct GruTrace {
    /// Hidden states `h_1..h_T` (`h_0` is the zero vector).
    pub hs: Matrix,
    /// Update-gate activations `z_t`.
    pub zs: Matrix,
    /// Reset-gate activations `r_t`.
    pub rs: Matrix,
    /// Candidate states `n_t`.
    pub ns: Matrix,
    /// Cached `Un · h_{t-1}` (needed for the reset-gate gradient).
    pub un_hs: Matrix,
}

impl GruTrace {
    pub fn len(&self) -> usize {
        self.hs.rows
    }

    pub fn is_empty(&self) -> bool {
        self.hs.rows == 0
    }
}

/// Gradients for every GRU parameter, in [`GruCell`]'s layout.
#[derive(Debug, Clone)]
pub struct GruGrads {
    pub dw: Matrix,
    pub du: Matrix,
    pub db: Vec<f32>,
}

impl GruGrads {
    pub fn zeros(input: usize, hidden: usize) -> Self {
        GruGrads {
            dw: Matrix::zeros(3 * hidden, input),
            du: Matrix::zeros(3 * hidden, hidden),
            db: vec![0.0; 3 * hidden],
        }
    }

    /// Accumulates another gradient set (used for batching across
    /// sequences).
    pub fn add_assign(&mut self, other: &GruGrads) {
        self.dw.add_assign(&other.dw);
        self.du.add_assign(&other.du);
        vecops::add_assign(&mut self.db, &other.db);
    }

    /// Scales all gradients (e.g. by 1/batch).
    pub fn scale(&mut self, s: f32) {
        self.dw.scale(s);
        self.du.scale(s);
        self.db.iter_mut().for_each(|v| *v *= s);
    }
}

impl GruCell {
    /// Xavier-initialised gates (each `H`-row block with its own bound,
    /// drawn `Wz, Uz, Wr, Ur, Wn, Un`) and zero biases.
    pub fn new(input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        let mut w = Matrix::zeros(3 * hidden, input);
        let mut u = Matrix::zeros(3 * hidden, hidden);
        for gate in 0..3 {
            let rows = gate * hidden..(gate + 1) * hidden;
            let wg = Matrix::xavier(hidden, input, rng);
            w.data[rows.start * input..rows.end * input].copy_from_slice(&wg.data);
            let ug = Matrix::xavier(hidden, hidden, rng);
            u.data[rows.start * hidden..rows.end * hidden].copy_from_slice(&ug.data);
        }
        GruCell {
            w,
            u,
            b: vec![0.0; 3 * hidden],
        }
    }

    pub fn input_size(&self) -> usize {
        self.w.cols
    }

    pub fn hidden_size(&self) -> usize {
        self.u.cols
    }

    /// Runs the cell over a sequence, returning the full trace — the
    /// training forward pass, and the oracle the equivalence tests hold
    /// [`PackedGru`] to.
    ///
    /// Every step's input side is one nt-GEMM over the whole sequence
    /// (`X · Wᵀ`, `T×3H`), and each step's recurrent side one one-row
    /// product `U · h_{t-1}`; the trace is allocated once. Each gate keeps
    /// its sums in the order `(W·x + U·h) + b` (the candidate
    /// `(Wn·x + bn) + r ∘ (Un·h)`) with the scalar `sigmoid` / `tanh`. A
    /// GEMM output depends only on its input row and its row of `W` or `U`,
    /// and on whether that row sits in a group of four or among the
    /// trailing rows, so with `H % 4 == 0` no group straddles two gates and
    /// each gate's projections are bitwise those of its own `H`-row
    /// matrix.
    ///
    /// Accepts any slice-of-rows shape (`&[Vec<f32>]`, `&[&[f32]]`), so
    /// callers can borrow feature storage instead of cloning it.
    pub fn forward<S: AsRef<[f32]>>(&self, xs: &[S]) -> GruTrace {
        let (hidden, steps) = (self.hidden_size(), xs.len());
        let mut x = Matrix::zeros(steps, self.input_size());
        for (t, xt) in xs.iter().enumerate() {
            x.row_mut(t).copy_from_slice(xt.as_ref());
        }
        let mut wx = Matrix::default();
        Matrix::matmul_nt_into(&x, &self.w, &mut wx);

        let mut trace = GruTrace {
            hs: Matrix::zeros(steps, hidden),
            zs: Matrix::zeros(steps, hidden),
            rs: Matrix::zeros(steps, hidden),
            ns: Matrix::zeros(steps, hidden),
            un_hs: Matrix::zeros(steps, hidden),
        };
        let (bz, br, bn) = (
            &self.b[..hidden],
            &self.b[hidden..2 * hidden],
            &self.b[2 * hidden..],
        );
        let mut h = vec![0.0f32; hidden];
        let mut uh = vec![0.0f32; 3 * hidden];
        for t in 0..steps {
            self.u.matvec_into(&h, &mut uh);
            let (wx_z, wx_rn) = wx.row(t).split_at(hidden);
            let (wx_r, wx_n) = wx_rn.split_at(hidden);
            let (uh_z, uh_rn) = uh.split_at(hidden);
            let (uh_r, uh_n) = uh_rn.split_at(hidden);
            let (z, r) = (trace.zs.row_mut(t), trace.rs.row_mut(t));
            let (n, un_h) = (trace.ns.row_mut(t), trace.un_hs.row_mut(t));
            for i in 0..hidden {
                z[i] = sigmoid((wx_z[i] + uh_z[i]) + bz[i]);
                r[i] = sigmoid((wx_r[i] + uh_r[i]) + br[i]);
                un_h[i] = uh_n[i];
                n[i] = ((wx_n[i] + bn[i]) + r[i] * un_h[i]).tanh();
                h[i] = (1.0 - z[i]) * n[i] + z[i] * h[i];
            }
            trace.hs.row_mut(t).copy_from_slice(&h);
        }
        trace
    }

    /// Backpropagation through time over the sequence `xs` that produced
    /// `trace`. Row `t` of `dhs` is ∂loss/∂h_t coming from outside the
    /// recurrence (e.g. the per-timestep classification head).
    ///
    /// Each step forms its gate gradients and `dh_{t-1}`: three one-row
    /// transposed products, `Unᵀ(dn_pre ∘ r)`, `Uzᵀ·dz_pre`, `Urᵀ·dr_pre`,
    /// each from `+0` and added in that order. The gate gradients are
    /// kept newest step first, beside the inputs and `h_{t-1}` in the same
    /// order, so that `dW` and `dU` are one rank GEMM each after the loop
    /// and each of their outputs accumulates over time descending, skipping
    /// a zero gate gradient, as a per-step rank-1 update would.
    pub fn backward<S: AsRef<[f32]>>(&self, xs: &[S], trace: &GruTrace, dhs: &Matrix) -> GruGrads {
        let (input, hidden, steps) = (self.input_size(), self.hidden_size(), trace.len());
        assert!(
            xs.len() == steps && dhs.rows == steps,
            "one input and one dh per timestep required"
        );
        let ks = KernelSet::active();
        let u_block =
            |gate: usize| &self.u.data[gate * hidden * hidden..(gate + 1) * hidden * hidden];
        // Row k is step `steps − 1 − k`.
        let mut x_rev = Matrix::zeros(steps, input);
        let mut h_prev_rev = Matrix::zeros(steps, hidden);
        // `[dz_pre; dr_pre; dn_pre]`, the factors of dW and db, and the
        // same with `dn_pre ∘ r`, the factors of dU.
        let mut dg = Matrix::zeros(steps, 3 * hidden);
        let mut dgu = Matrix::zeros(steps, 3 * hidden);
        let mut dh_next = vec![0.0f32; hidden];
        let mut dh_prev = vec![0.0f32; hidden];
        let mut back = vec![0.0f32; hidden];

        for k in 0..steps {
            let t = steps - 1 - k;
            x_rev.row_mut(k).copy_from_slice(xs[t].as_ref());
            if t > 0 {
                h_prev_rev.row_mut(k).copy_from_slice(trace.hs.row(t - 1));
            }
            let h_prev = h_prev_rev.row(k);
            let (z, r) = (trace.zs.row(t), trace.rs.row(t));
            let (n, un_h) = (trace.ns.row(t), trace.un_hs.row(t));
            let (dz_pre, drn) = dg.row_mut(k).split_at_mut(hidden);
            let (dr_pre, dn_pre) = drn.split_at_mut(hidden);
            let (du_zr, dn_pre_r) = dgu.row_mut(k).split_at_mut(2 * hidden);
            for i in 0..hidden {
                // Total gradient flowing into h_t; h_t = (1-z) n + z h_prev.
                let dh = dhs.get(t, i) + dh_next[i];
                let dz = dh * (h_prev[i] - n[i]);
                let dn = dh * (1.0 - z[i]);
                dh_prev[i] = dh * z[i];
                // n = tanh(pre_n); pre_n = Wn x + bn + r ∘ (Un h_prev)
                dn_pre[i] = dn * (1.0 - n[i] * n[i]);
                dn_pre_r[i] = dn_pre[i] * r[i];
                let dr = dn_pre[i] * un_h[i];
                dz_pre[i] = dz * z[i] * (1.0 - z[i]);
                dr_pre[i] = dr * r[i] * (1.0 - r[i]);
            }
            du_zr[..hidden].copy_from_slice(dz_pre);
            du_zr[hidden..].copy_from_slice(dr_pre);
            for (gate, dpre) in [(2, &*dn_pre_r), (0, &*dz_pre), (1, &*dr_pre)] {
                ks.gemm_rank_f32(dpre, [1, hidden], u_block(gate), &mut back, hidden);
                vecops::add_assign(&mut dh_prev, &back);
            }
            std::mem::swap(&mut dh_next, &mut dh_prev);
        }

        let mut grads = GruGrads::zeros(input, hidden);
        Matrix::matmul_tn_into(&dg, &x_rev, &mut grads.dw);
        Matrix::matmul_tn_into(&dgu, &h_prev_rev, &mut grads.du);
        for k in 0..steps {
            vecops::add_assign(&mut grads.db, dg.row(k));
        }
        grads
    }

    /// The parameter buffers paired with their gradient buffers, one pair
    /// per tensor — for driving one optimizer each.
    pub fn param_grad_pairs<'a>(&'a mut self, g: &'a GruGrads) -> [(&'a mut [f32], &'a [f32]); 3] {
        [
            (&mut self.w.data[..], &g.dw.data[..]),
            (&mut self.u.data[..], &g.du.data[..]),
            (&mut self.b[..], &g.db[..]),
        ]
    }
}

// ---------------------------------------------------------------------------
// Fused inference engine
// ---------------------------------------------------------------------------

/// Gate-packed GRU weights for inference, at either precision.
///
/// The cell's gate-stacked input projections (`3H×I`) and recurrent
/// projections (`3H×H`) make each step's input side and recurrent side
/// one fused matvec each. Both are stored as output-stationary panels —
/// f32 ([`crate::PanelMatrix`]) from [`pack`](Self::pack), int8
/// ([`crate::QuantMatrix`]) after [`from_packed`](Self::from_packed) with
/// [`QuantMode::Int8`] — and each product of a step is one row through
/// the panel kernel of that precision; biases, gate sigmoids and the
/// hidden-state update are f32 either way. Built from a [`GruCell`] on
/// demand (typically once per scoring session); not serialized — the cell
/// remains the source of truth.
#[derive(Debug, Clone)]
pub struct PackedGru {
    /// `[Wz; Wr; Wn]` stacked row-wise: `3H×I`.
    w: PackedWeights,
    /// `[Uz; Ur; Un]` stacked row-wise: `3H×H`.
    u: PackedWeights,
    /// `[bz; br; bn]`: `3H`.
    b: Vec<f32>,
    hidden: usize,
}

/// The GRU inference engine of a scorer: a [`PackedGru`] at the precision
/// [`from_packed`](PackedGru::from_packed) was given.
pub type GruEngine = PackedGru;

/// Scratch buffers for the resumable [`PackedGru::step`] API: the input
/// and recurrent projections of the *current* step only. One scratch set
/// can be shared across any number of flows (the per-flow state is just
/// the `H`-wide hidden vector), so a streaming scorer tracking millions of
/// flows pays 2 × 3H floats once, not per flow.
#[derive(Debug, Clone, Default)]
pub struct GruStepScratch {
    /// Current step's input-side projections `W·x + b` (`3H`).
    xp: Vec<f32>,
    /// Current step's recurrent projections `U·h_{t-1}` (`3H`).
    up: Vec<f32>,
    /// Activation codes of the row being multiplied; stays empty on an
    /// f32 engine.
    qa: Vec<u8>,
}

impl GruStepScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

impl PackedGru {
    /// Packs a cell's gate-stacked `w`, `u` and `b` into the fused f32
    /// layout.
    pub fn pack(cell: &GruCell) -> PackedGru {
        PackedGru {
            w: PackedWeights::pack(&cell.w, QuantMode::Off),
            u: PackedWeights::pack(&cell.u, QuantMode::Off),
            b: cell.b.clone(),
            hidden: cell.hidden_size(),
        }
    }

    /// An engine over `packed`'s weights at `mode`: as they are if that is
    /// their precision already, otherwise converted — f32 → int8 quantizes
    /// per output row; int8 → f32 recovers only the dequantized values.
    pub fn from_packed(packed: PackedGru, mode: QuantMode) -> PackedGru {
        PackedGru {
            w: packed.w.at(mode),
            u: packed.u.at(mode),
            ..packed
        }
    }

    pub fn mode(&self) -> QuantMode {
        self.w.mode()
    }

    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    pub fn input_size(&self) -> usize {
        self.w.cols()
    }

    /// Advances the cell by **one** timestep, carrying the hidden state
    /// across calls — the resumable core of per-flow scoring.
    ///
    /// `h` is the caller-owned running hidden state (`H` floats, zeroed
    /// before the first packet of a flow); it is updated in place. The
    /// update- and reset-gate activations are written to `z`/`r` (`H`
    /// each), which may alias rows of a caller's profile matrix. `scratch`
    /// is flow-independent and reusable across flows.
    ///
    /// Up to floating-point reassociation a sequence of steps produces the
    /// gate/hidden trajectories of [`GruCell::forward`] (on f32 weights;
    /// the equivalence tests pin this to ≤1e-6).
    pub fn step(
        &self,
        x: &[f32],
        h: &mut [f32],
        scratch: &mut GruStepScratch,
        z: &mut [f32],
        r: &mut [f32],
    ) {
        let hidden = self.hidden;
        debug_assert_eq!(x.len(), self.input_size());
        debug_assert_eq!(h.len(), hidden);
        debug_assert_eq!(z.len(), hidden);
        debug_assert_eq!(r.len(), hidden);
        scratch.xp.resize(3 * hidden, 0.0);
        scratch.up.resize(3 * hidden, 0.0);

        self.w.matvec_into(x, &mut scratch.qa, &mut scratch.xp);
        for (v, &bv) in scratch.xp.iter_mut().zip(&self.b) {
            *v += bv;
        }
        self.u.matvec_into(h, &mut scratch.qa, &mut scratch.up);

        // The dispatched gate kernel computes z/r and the new hidden
        // state over the packed 3H slab (vectorized sigmoid/tanh on SIMD
        // sets).
        crate::simd::KernelSet::active().gru_gates(&scratch.xp, &scratch.up, h, z, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_inputs(seq: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..seq)
            .map(|t| {
                (0..dim)
                    .map(|i| ((t * dim + i) as f32 * 0.37).sin() * 0.5)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn forward_shapes_and_gate_ranges() {
        let mut rng = StdRng::seed_from_u64(3);
        let cell = GruCell::new(4, 6, &mut rng);
        let xs = toy_inputs(5, 4);
        let trace = cell.forward(&xs);
        assert_eq!(trace.len(), 5);
        for t in 0..5 {
            assert_eq!(trace.hs.row(t).len(), 6);
            assert!(trace.zs.row(t).iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(trace.rs.row(t).iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(trace.hs.row(t).iter().all(|&v| (-1.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn empty_sequence_yields_empty_trace() {
        let mut rng = StdRng::seed_from_u64(3);
        let cell = GruCell::new(4, 6, &mut rng);
        let trace = cell.forward::<Vec<f32>>(&[]);
        assert!(trace.is_empty());
    }

    #[test]
    fn deterministic_forward() {
        let mut rng = StdRng::seed_from_u64(9);
        let cell = GruCell::new(3, 5, &mut rng);
        let xs = toy_inputs(4, 3);
        let a = cell.forward(&xs);
        let b = cell.forward(&xs);
        assert_eq!(a.hs, b.hs);
    }

    /// The heavyweight correctness test: full BPTT against central finite
    /// differences, for every parameter tensor.
    #[test]
    fn bptt_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut cell = GruCell::new(3, 4, &mut rng);
        let xs = toy_inputs(6, 3);

        // Loss = sum over timesteps of sum(h_t) — exercises the recurrence.
        fn loss(cell: &GruCell, xs: &[Vec<f32>]) -> f32 {
            let tr = cell.forward(xs);
            tr.hs.data.iter().sum()
        }

        let trace = cell.forward(&xs);
        let dhs = Matrix::from_fn(trace.len(), 4, |_, _| 1.0);
        let grads = cell.backward(&xs, &trace, &dhs);

        let eps = 1e-2f32;
        let tol = 3e-2f32;

        macro_rules! check_tensor {
            ($field:expr, $grad:expr, $name:expr) => {
                for i in 0..$field.len() {
                    let orig = $field[i];
                    $field[i] = orig + eps;
                    let lp = loss(&cell, &xs);
                    // Re-borrow because `cell` was borrowed by `loss`.
                    $field[i] = orig - eps;
                    let lm = loss(&cell, &xs);
                    $field[i] = orig;
                    let fd = (lp - lm) / (2.0 * eps);
                    let an = $grad[i];
                    assert!(
                        (fd - an).abs() < tol,
                        "{}[{}]: finite-diff {} vs analytic {}",
                        $name,
                        i,
                        fd,
                        an
                    );
                }
            };
        }

        check_tensor!(cell.w.data, grads.dw.data, "W");
        check_tensor!(cell.u.data, grads.du.data, "U");
        check_tensor!(cell.b, grads.db, "b");
    }

    const MODES: [QuantMode; 2] = [QuantMode::Off, QuantMode::Int8];

    /// A sequence stepped alone through a fresh scratch: the per-step
    /// `(h, z, r)` every sharing test compares against.
    fn step_alone(gru: &PackedGru, xs: &[Vec<f32>]) -> Vec<[Vec<f32>; 3]> {
        let hidden = gru.hidden_size();
        let mut scratch = GruStepScratch::new();
        let (mut h, mut z, mut r) = (vec![0.0; hidden], vec![0.0; hidden], vec![0.0; hidden]);
        xs.iter()
            .map(|x| {
                gru.step(x, &mut h, &mut scratch, &mut z, &mut r);
                [h.clone(), z.clone(), r.clone()]
            })
            .collect()
    }

    #[test]
    fn from_packed_sets_the_precision_and_keeps_the_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let packed = PackedGru::pack(&GruCell::new(3, 4, &mut rng));
        assert_eq!(packed.mode(), QuantMode::Off);
        for mode in MODES {
            let engine = GruEngine::from_packed(packed.clone(), mode);
            assert_eq!(engine.mode(), mode);
            assert_eq!((engine.input_size(), engine.hidden_size()), (3, 4));
            let back = GruEngine::from_packed(engine, QuantMode::Off);
            assert_eq!(back.mode(), QuantMode::Off);
        }
    }

    /// The packed inference engine must reproduce the reference forward
    /// pass: hidden states and both gate trajectories, step for step.
    #[test]
    fn packed_matches_reference_forward() {
        let mut rng = StdRng::seed_from_u64(17);
        let cell = GruCell::new(7, 12, &mut rng);
        let packed = PackedGru::pack(&cell);
        for seq in [1usize, 2, 5, 33] {
            let xs = toy_inputs(seq, 7);
            let trace = cell.forward(&xs);
            let stepped = step_alone(&packed, &xs);
            assert_eq!(stepped.len(), seq);
            for (t, [h, z, r]) in stepped.iter().enumerate() {
                for i in 0..12 {
                    assert!((trace.hs.get(t, i) - h[i]).abs() < 1e-6);
                    assert!((trace.zs.get(t, i) - z[i]).abs() < 1e-6);
                    assert!((trace.rs.get(t, i) - r[i]).abs() < 1e-6);
                }
            }
        }
    }

    /// A scratch carries nothing from one engine or sequence to the next:
    /// after serving a wider engine (longer projections, and at int8 stale
    /// activation codes past this engine's `K`), a sequence steps to
    /// bitwise the trajectory it has through a fresh scratch.
    #[test]
    fn scratch_reuse_is_stateless() {
        let mut rng = StdRng::seed_from_u64(23);
        let small = PackedGru::pack(&GruCell::new(4, 9, &mut rng));
        let wide = PackedGru::pack(&GruCell::new(13, 21, &mut rng));
        for mode in MODES {
            let small = GruEngine::from_packed(small.clone(), mode);
            let wide = GruEngine::from_packed(wide.clone(), mode);
            let xs = toy_inputs(6, 4);
            let expect = step_alone(&small, &xs);

            let mut reused = GruStepScratch::new();
            for other_len in [31usize, 1, 17, 2] {
                let (mut h, mut z, mut r) = (vec![0.0; 21], vec![0.0; 21], vec![0.0; 21]);
                for x in toy_inputs(other_len, 13) {
                    wide.step(&x, &mut h, &mut reused, &mut z, &mut r);
                }
                let (mut h, mut z, mut r) = (vec![0.0; 9], vec![0.0; 9], vec![0.0; 9]);
                for (t, x) in xs.iter().enumerate() {
                    small.step(x, &mut h, &mut reused, &mut z, &mut r);
                    assert_eq!(
                        [&h, &z, &r],
                        expect[t].each_ref(),
                        "{mode:?} t={t} after interleaving len {other_len}"
                    );
                }
            }
        }
    }

    /// One shared scratch across interleaved flows must not leak state
    /// between them: only the per-flow hidden vector matters.
    #[test]
    fn step_scratch_shared_across_flows() {
        let mut rng = StdRng::seed_from_u64(37);
        let packed = PackedGru::pack(&GruCell::new(4, 8, &mut rng));
        let xs_a = toy_inputs(7, 4);
        let xs_b: Vec<Vec<f32>> = toy_inputs(7, 4)
            .into_iter()
            .map(|row| row.into_iter().map(|v| -v).collect())
            .collect();
        for mode in MODES {
            let gru = GruEngine::from_packed(packed.clone(), mode);
            // Reference: each flow alone.
            let expect_a = step_alone(&gru, &xs_a);
            let expect_b = step_alone(&gru, &xs_b);

            // Interleaved through one scratch.
            let mut scratch = GruStepScratch::new();
            let (mut ha, mut hb) = (vec![0.0f32; 8], vec![0.0f32; 8]);
            let (mut z, mut r) = (vec![0.0f32; 8], vec![0.0f32; 8]);
            for t in 0..7 {
                gru.step(&xs_a[t], &mut ha, &mut scratch, &mut z, &mut r);
                assert_eq!(ha, expect_a[t][0], "{mode:?}");
                gru.step(&xs_b[t], &mut hb, &mut scratch, &mut z, &mut r);
                assert_eq!(hb, expect_b[t][0], "{mode:?}");
            }
        }
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let mut rng = StdRng::seed_from_u64(11);
        let cell = GruCell::new(2, 3, &mut rng);
        let xs = toy_inputs(3, 2);
        let trace = cell.forward(&xs);
        let dhs = Matrix::from_fn(3, 3, |_, _| 1.0);
        let g1 = cell.backward(&xs, &trace, &dhs);
        let mut acc = GruGrads::zeros(2, 3);
        acc.add_assign(&g1);
        acc.add_assign(&g1);
        acc.scale(0.5);
        for (a, b) in acc.dw.data.iter().zip(&g1.dw.data) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
