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
use crate::{sigmoid, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// GRU parameters. All matrices are `hidden × input` (W*) or
/// `hidden × hidden` (U*).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruCell {
    pub wz: Matrix,
    pub uz: Matrix,
    pub bz: Vec<f32>,
    pub wr: Matrix,
    pub ur: Matrix,
    pub br: Vec<f32>,
    pub wn: Matrix,
    pub un: Matrix,
    pub bn: Vec<f32>,
}

/// Everything the backward pass (and CLAP's feature fusion) needs from a
/// forward run over one sequence.
#[derive(Debug, Clone)]
pub struct GruTrace {
    /// Inputs, one per timestep.
    pub xs: Vec<Vec<f32>>,
    /// Hidden states `h_1..h_T` (`h_0` is the zero vector).
    pub hs: Vec<Vec<f32>>,
    /// Update-gate activations `z_t` per timestep.
    pub zs: Vec<Vec<f32>>,
    /// Reset-gate activations `r_t` per timestep.
    pub rs: Vec<Vec<f32>>,
    /// Candidate states `n_t`.
    pub ns: Vec<Vec<f32>>,
    /// Cached `Un · h_{t-1}` (needed for the reset-gate gradient).
    pub un_hs: Vec<Vec<f32>>,
}

impl GruTrace {
    pub fn len(&self) -> usize {
        self.hs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hs.is_empty()
    }
}

/// Gradients for every GRU parameter, same shapes as [`GruCell`].
#[derive(Debug, Clone)]
pub struct GruGrads {
    pub dwz: Matrix,
    pub duz: Matrix,
    pub dbz: Vec<f32>,
    pub dwr: Matrix,
    pub dur: Matrix,
    pub dbr: Vec<f32>,
    pub dwn: Matrix,
    pub dun: Matrix,
    pub dbn: Vec<f32>,
}

impl GruGrads {
    pub fn zeros(input: usize, hidden: usize) -> Self {
        GruGrads {
            dwz: Matrix::zeros(hidden, input),
            duz: Matrix::zeros(hidden, hidden),
            dbz: vec![0.0; hidden],
            dwr: Matrix::zeros(hidden, input),
            dur: Matrix::zeros(hidden, hidden),
            dbr: vec![0.0; hidden],
            dwn: Matrix::zeros(hidden, input),
            dun: Matrix::zeros(hidden, hidden),
            dbn: vec![0.0; hidden],
        }
    }

    /// Accumulates another gradient set (used for batching across
    /// sequences).
    pub fn add_assign(&mut self, other: &GruGrads) {
        self.dwz.add_assign(&other.dwz);
        self.duz.add_assign(&other.duz);
        vecops::add_assign(&mut self.dbz, &other.dbz);
        self.dwr.add_assign(&other.dwr);
        self.dur.add_assign(&other.dur);
        vecops::add_assign(&mut self.dbr, &other.dbr);
        self.dwn.add_assign(&other.dwn);
        self.dun.add_assign(&other.dun);
        vecops::add_assign(&mut self.dbn, &other.dbn);
    }

    /// Scales all gradients (e.g. by 1/batch).
    pub fn scale(&mut self, s: f32) {
        self.dwz.scale(s);
        self.duz.scale(s);
        self.dbz.iter_mut().for_each(|v| *v *= s);
        self.dwr.scale(s);
        self.dur.scale(s);
        self.dbr.iter_mut().for_each(|v| *v *= s);
        self.dwn.scale(s);
        self.dun.scale(s);
        self.dbn.iter_mut().for_each(|v| *v *= s);
    }
}

impl GruCell {
    pub fn new(input: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        GruCell {
            wz: Matrix::xavier(hidden, input, rng),
            uz: Matrix::xavier(hidden, hidden, rng),
            bz: vec![0.0; hidden],
            wr: Matrix::xavier(hidden, input, rng),
            ur: Matrix::xavier(hidden, hidden, rng),
            br: vec![0.0; hidden],
            wn: Matrix::xavier(hidden, input, rng),
            un: Matrix::xavier(hidden, hidden, rng),
            bn: vec![0.0; hidden],
        }
    }

    pub fn input_size(&self) -> usize {
        self.wz.cols
    }

    pub fn hidden_size(&self) -> usize {
        self.wz.rows
    }

    /// Runs the cell over a sequence, returning the full trace.
    ///
    /// This is the **reference implementation**: six separate `matvec`s and
    /// fresh buffers per step. Inference goes through [`PackedGru`], which
    /// is proven equivalent to this path by the test suite; training keeps
    /// using this trace because BPTT needs every intermediate.
    ///
    /// Accepts any slice-of-rows shape (`&[Vec<f32>]`, `&[&[f32]]`), so
    /// callers can borrow feature storage instead of cloning it.
    pub fn forward<S: AsRef<[f32]>>(&self, xs: &[S]) -> GruTrace {
        let hidden = self.hidden_size();
        let mut trace = GruTrace {
            xs: xs.iter().map(|x| x.as_ref().to_vec()).collect(),
            hs: Vec::with_capacity(xs.len()),
            zs: Vec::with_capacity(xs.len()),
            rs: Vec::with_capacity(xs.len()),
            ns: Vec::with_capacity(xs.len()),
            un_hs: Vec::with_capacity(xs.len()),
        };
        let mut h = vec![0.0f32; hidden];
        for x in xs {
            let x = x.as_ref();
            debug_assert_eq!(x.len(), self.input_size());
            let mut z = self.wz.matvec(x);
            vecops::add_assign(&mut z, &self.uz.matvec(&h));
            vecops::add_assign(&mut z, &self.bz);
            z.iter_mut().for_each(|v| *v = sigmoid(*v));

            let mut r = self.wr.matvec(x);
            vecops::add_assign(&mut r, &self.ur.matvec(&h));
            vecops::add_assign(&mut r, &self.br);
            r.iter_mut().for_each(|v| *v = sigmoid(*v));

            let un_h = self.un.matvec(&h);
            let mut n = self.wn.matvec(x);
            vecops::add_assign(&mut n, &self.bn);
            for i in 0..hidden {
                n[i] = (n[i] + r[i] * un_h[i]).tanh();
            }

            let mut h_new = vec![0.0f32; hidden];
            for i in 0..hidden {
                h_new[i] = (1.0 - z[i]) * n[i] + z[i] * h[i];
            }

            trace.zs.push(z);
            trace.rs.push(r);
            trace.ns.push(n);
            trace.un_hs.push(un_h);
            trace.hs.push(h_new.clone());
            h = h_new;
        }
        trace
    }

    /// Backpropagation through time.
    ///
    /// `dhs[t]` is ∂loss/∂h_t coming from outside the recurrence (e.g. the
    /// per-timestep classification head). Returns the parameter gradients
    /// and, when asked, writes ∂loss/∂x_t for each step into `dxs` (a
    /// caller that only trains the cell passes `None` and skips three of
    /// the six transposed products per step).
    pub fn backward(
        &self,
        trace: &GruTrace,
        dhs: &[Vec<f32>],
        mut dxs: Option<&mut Vec<Vec<f32>>>,
    ) -> GruGrads {
        let hidden = self.hidden_size();
        let input = self.input_size();
        let steps = trace.len();
        assert_eq!(dhs.len(), steps, "dh per timestep required");
        let mut grads = GruGrads::zeros(input, hidden);
        if let Some(dxs) = dxs.as_deref_mut() {
            dxs.clear();
            dxs.resize(steps, vec![0.0f32; input]);
        }
        let zero = vec![0.0f32; hidden];
        let mut dh_next = vec![0.0f32; hidden]; // carried from t+1

        for t in (0..steps).rev() {
            let h_prev = if t == 0 { &zero } else { &trace.hs[t - 1] };
            let (z, r, n, un_h, x) = (
                &trace.zs[t],
                &trace.rs[t],
                &trace.ns[t],
                &trace.un_hs[t],
                &trace.xs[t],
            );

            // Total gradient flowing into h_t.
            let mut dh = dhs[t].clone();
            vecops::add_assign(&mut dh, &dh_next);

            // h_t = (1-z) n + z h_prev
            let mut dz = vec![0.0f32; hidden];
            let mut dn = vec![0.0f32; hidden];
            let mut dh_prev = vec![0.0f32; hidden];
            for i in 0..hidden {
                dz[i] = dh[i] * (h_prev[i] - n[i]);
                dn[i] = dh[i] * (1.0 - z[i]);
                dh_prev[i] = dh[i] * z[i];
            }

            // n = tanh(pre_n); pre_n = Wn x + bn + r ∘ (Un h_prev)
            let mut dn_pre = vec![0.0f32; hidden];
            for i in 0..hidden {
                dn_pre[i] = dn[i] * (1.0 - n[i] * n[i]);
            }
            grads.dwn.add_outer(&dn_pre, x, 1.0);
            vecops::add_assign(&mut grads.dbn, &dn_pre);
            let dn_pre_r = vecops::hadamard(&dn_pre, r);
            grads.dun.add_outer(&dn_pre_r, h_prev, 1.0);
            vecops::add_assign(&mut dh_prev, &self.un.matvec_t(&dn_pre_r));
            if let Some(dxs) = dxs.as_deref_mut() {
                vecops::add_assign(&mut dxs[t], &self.wn.matvec_t(&dn_pre));
            }
            let dr = vecops::hadamard(&dn_pre, un_h);

            // z = σ(pre_z)
            let mut dz_pre = vec![0.0f32; hidden];
            for i in 0..hidden {
                dz_pre[i] = dz[i] * z[i] * (1.0 - z[i]);
            }
            grads.dwz.add_outer(&dz_pre, x, 1.0);
            grads.duz.add_outer(&dz_pre, h_prev, 1.0);
            vecops::add_assign(&mut grads.dbz, &dz_pre);
            vecops::add_assign(&mut dh_prev, &self.uz.matvec_t(&dz_pre));
            if let Some(dxs) = dxs.as_deref_mut() {
                vecops::add_assign(&mut dxs[t], &self.wz.matvec_t(&dz_pre));
            }

            // r = σ(pre_r)
            let mut dr_pre = vec![0.0f32; hidden];
            for i in 0..hidden {
                dr_pre[i] = dr[i] * r[i] * (1.0 - r[i]);
            }
            grads.dwr.add_outer(&dr_pre, x, 1.0);
            grads.dur.add_outer(&dr_pre, h_prev, 1.0);
            vecops::add_assign(&mut grads.dbr, &dr_pre);
            vecops::add_assign(&mut dh_prev, &self.ur.matvec_t(&dr_pre));
            if let Some(dxs) = dxs.as_deref_mut() {
                vecops::add_assign(&mut dxs[t], &self.wr.matvec_t(&dr_pre));
            }

            dh_next = dh_prev;
        }
        grads
    }

    /// Flat views over all parameter buffers, paired with matching
    /// gradient buffers — convenient for driving one optimizer per tensor.
    pub fn param_grad_pairs<'a>(&'a mut self, g: &'a GruGrads) -> Vec<(&'a mut [f32], &'a [f32])> {
        vec![
            (&mut self.wz.data[..], &g.dwz.data[..]),
            (&mut self.uz.data[..], &g.duz.data[..]),
            (&mut self.bz[..], &g.dbz[..]),
            (&mut self.wr.data[..], &g.dwr.data[..]),
            (&mut self.ur.data[..], &g.dur.data[..]),
            (&mut self.br[..], &g.dbr[..]),
            (&mut self.wn.data[..], &g.dwn.data[..]),
            (&mut self.un.data[..], &g.dun.data[..]),
            (&mut self.bn[..], &g.dbn[..]),
        ]
    }
}

// ---------------------------------------------------------------------------
// Fused inference engine
// ---------------------------------------------------------------------------

/// Gate-packed GRU weights for inference, at either precision.
///
/// The three input projections `Wz/Wr/Wn` are stacked into one `3H×I`
/// matrix and the recurrent projections `Uz/Ur/Un` into one `3H×H` matrix,
/// so each step's input side and recurrent side are one fused matvec each
/// instead of three. Both are stored as output-stationary panels — f32
/// ([`crate::PanelMatrix`]) from [`pack`](Self::pack), int8
/// ([`crate::QuantMatrix`]) after [`from_packed`](Self::from_packed) with
/// [`QuantMode::Int8`] — and every product, a step or a row of a
/// cross-flow batch, is one call of the same panel GEMV; biases, gate
/// sigmoids and the hidden-state update are f32 either way. Built from a
/// [`GruCell`] on demand (typically once per scoring session); not
/// serialized — the cell remains the source of truth.
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

/// Scratch buffers for the cross-flow batched [`PackedGru::step_batch`]
/// API: the input and recurrent projections of one micro-batch of
/// *independent* flows, each advancing by one timestep. Like
/// [`GruStepScratch`] this is flow-independent and reusable; it grows to
/// the largest batch seen and allocates nothing afterwards.
#[derive(Debug, Clone, Default)]
pub struct GruBatchScratch {
    /// Input-side projections `X·Wᵀ + b`, one row per flow (`B×3H`).
    xp: Matrix,
    /// Recurrent projections `H·Uᵀ`, one row per flow (`B×3H`).
    up: Matrix,
    /// Activation codes of the row being multiplied; stays empty on an
    /// f32 engine.
    qa: Vec<u8>,
}

impl GruBatchScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

impl PackedGru {
    /// Packs a cell's nine parameter tensors into the fused f32 layout.
    pub fn pack(cell: &GruCell) -> PackedGru {
        let hidden = cell.hidden_size();
        let input = cell.input_size();
        let mut w = Matrix::zeros(3 * hidden, input);
        let mut u = Matrix::zeros(3 * hidden, hidden);
        let mut b = vec![0.0f32; 3 * hidden];
        for (block, (wsrc, usrc, bsrc)) in [
            (&cell.wz, &cell.uz, &cell.bz),
            (&cell.wr, &cell.ur, &cell.br),
            (&cell.wn, &cell.un, &cell.bn),
        ]
        .into_iter()
        .enumerate()
        {
            let lo = block * hidden;
            w.data[lo * input..(lo + hidden) * input].copy_from_slice(&wsrc.data);
            u.data[lo * hidden..(lo + hidden) * hidden].copy_from_slice(&usrc.data);
            b[lo..lo + hidden].copy_from_slice(bsrc);
        }
        PackedGru {
            w: PackedWeights::pack(&w, QuantMode::Off),
            u: PackedWeights::pack(&u, QuantMode::Off),
            b,
            hidden,
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

    /// Advances a micro-batch of **independent** flows by one timestep
    /// each — the cross-flow continuous-batching core of the streaming
    /// scorer.
    ///
    /// `xs` holds one input row per flow (`B×I`) and `hs` the matching
    /// hidden rows (`B×H`, gathered from per-flow storage by the caller
    /// and updated in place); `zs`/`rs` are resized to `B×H` and receive
    /// the gate activations row-for-row. Flows never interact: row `i` of
    /// every matrix belongs to the same flow throughout.
    ///
    /// Row for row the same as `B` separate [`step`](Self::step) calls: at
    /// f32 a batch runs the panel GEMM, each row of which equals its
    /// `step`'s GEMV up to the sign of a zero; at int8 each row goes
    /// through the same panel GEMV call as the matvec, quantized on its
    /// own, bitwise. The bias add is the same per-row scalar loop, and the
    /// gate block runs the same dispatched kernel per row. The test suite
    /// pins this.
    pub fn step_batch(
        &self,
        xs: &Matrix,
        hs: &mut Matrix,
        scratch: &mut GruBatchScratch,
        zs: &mut Matrix,
        rs: &mut Matrix,
    ) {
        let hidden = self.hidden;
        let b = xs.rows;
        debug_assert_eq!(xs.cols, self.input_size());
        debug_assert_eq!(hs.rows, b);
        debug_assert_eq!(hs.cols, hidden);

        self.w.matmul_nt_into(xs, &mut scratch.qa, &mut scratch.xp);
        for r in 0..b {
            let row = scratch.xp.row_mut(r);
            for (v, &bv) in row.iter_mut().zip(&self.b) {
                *v += bv;
            }
        }
        self.u.matmul_nt_into(hs, &mut scratch.qa, &mut scratch.up);

        zs.resize(b, hidden);
        rs.resize(b, hidden);
        let ks = crate::simd::KernelSet::active();
        for i in 0..b {
            ks.gru_gates(
                scratch.xp.row(i),
                scratch.up.row(i),
                hs.row_mut(i),
                zs.row_mut(i),
                rs.row_mut(i),
            );
        }
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
            assert_eq!(trace.hs[t].len(), 6);
            assert!(trace.zs[t].iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(trace.rs[t].iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(trace.hs[t].iter().all(|&v| (-1.0..=1.0).contains(&v)));
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
    /// differences, for every parameter tensor and the inputs.
    #[test]
    fn bptt_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut cell = GruCell::new(3, 4, &mut rng);
        let xs = toy_inputs(6, 3);

        // Loss = sum over timesteps of sum(h_t) — exercises the recurrence.
        fn loss(cell: &GruCell, xs: &[Vec<f32>]) -> f32 {
            let tr = cell.forward(xs);
            tr.hs.iter().map(|h| h.iter().sum::<f32>()).sum()
        }

        let trace = cell.forward(&xs);
        let dhs: Vec<Vec<f32>> = (0..trace.len()).map(|_| vec![1.0f32; 4]).collect();
        let mut dxs = Vec::new();
        let grads = cell.backward(&trace, &dhs, Some(&mut dxs));

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

        check_tensor!(cell.wz.data, grads.dwz.data, "Wz");
        check_tensor!(cell.uz.data, grads.duz.data, "Uz");
        check_tensor!(cell.bz, grads.dbz, "bz");
        check_tensor!(cell.wr.data, grads.dwr.data, "Wr");
        check_tensor!(cell.ur.data, grads.dur.data, "Ur");
        check_tensor!(cell.br, grads.dbr, "br");
        check_tensor!(cell.wn.data, grads.dwn.data, "Wn");
        check_tensor!(cell.un.data, grads.dun.data, "Un");
        check_tensor!(cell.bn, grads.dbn, "bn");

        // Input gradients.
        let mut xs2 = xs.clone();
        for t in 0..xs2.len() {
            for i in 0..xs2[t].len() {
                let orig = xs2[t][i];
                xs2[t][i] = orig + eps;
                let lp = loss(&cell, &xs2);
                xs2[t][i] = orig - eps;
                let lm = loss(&cell, &xs2);
                xs2[t][i] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - dxs[t][i]).abs() < tol,
                    "dx[{t}][{i}]: finite-diff {fd} vs analytic {}",
                    dxs[t][i]
                );
            }
        }
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
                    assert!((trace.hs[t][i] - h[i]).abs() < 1e-6);
                    assert!((trace.zs[t][i] - z[i]).abs() < 1e-6);
                    assert!((trace.rs[t][i] - r[i]).abs() < 1e-6);
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

    /// Streaming invariant: `B` flows advanced together, one `step_batch`
    /// round per timestep with the hidden rows carried between rounds, get
    /// bitwise the trajectories each has stepping alone — the foundation
    /// of micro-batched per-flow scoring.
    #[test]
    fn step_matches_batched_rounds_bitwise() {
        let mut rng = StdRng::seed_from_u64(31);
        let packed = PackedGru::pack(&GruCell::new(6, 10, &mut rng));
        for mode in MODES {
            let gru = GruEngine::from_packed(packed.clone(), mode);
            let flows: Vec<Vec<Vec<f32>>> = (0..5)
                .map(|f| {
                    toy_inputs(9, 6)
                        .into_iter()
                        .map(|x| x.into_iter().map(|v| v * (1.0 - 0.3 * f as f32)).collect())
                        .collect()
                })
                .collect();
            let alone: Vec<_> = flows.iter().map(|xs| step_alone(&gru, xs)).collect();

            let mut scratch = GruBatchScratch::new();
            let mut hs = Matrix::zeros(flows.len(), 10);
            let (mut zs, mut rs) = (Matrix::default(), Matrix::default());
            for t in 0..9 {
                let mut xs = Matrix::zeros(flows.len(), 6);
                for (f, flow) in flows.iter().enumerate() {
                    xs.row_mut(f).copy_from_slice(&flow[t]);
                }
                gru.step_batch(&xs, &mut hs, &mut scratch, &mut zs, &mut rs);
                for (f, want) in alone.iter().enumerate() {
                    let [h, z, r] = &want[t];
                    assert_eq!(hs.row(f), h.as_slice(), "{mode:?} h, flow {f} t={t}");
                    assert_eq!(zs.row(f), z.as_slice(), "{mode:?} z, flow {f} t={t}");
                    assert_eq!(rs.row(f), r.as_slice(), "{mode:?} r, flow {f} t={t}");
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

    /// Cross-flow batching invariant: one `step_batch` over B independent
    /// flows reproduces B separate `step` calls bitwise — hidden states
    /// and both gate rows — for every batch size including 0 and 1, at
    /// both precisions.
    #[test]
    fn step_batch_matches_per_flow_step_bitwise() {
        let mut rng = StdRng::seed_from_u64(41);
        let packed = PackedGru::pack(&GruCell::new(6, 10, &mut rng));
        for mode in MODES {
            let gru = GruEngine::from_packed(packed.clone(), mode);
            let mut scratch = GruStepScratch::new();
            let mut batch_scratch = GruBatchScratch::new();
            for b in [0usize, 1, 3, 4, 7, 16] {
                // Distinct mid-flow hidden states per flow.
                let xs = Matrix::from_fn(b, 6, |f, i| ((f * 6 + i) as f32 * 0.29).cos());
                let mut hs =
                    Matrix::from_fn(b, 10, |f, i| ((f * 10 + i) as f32 * 0.13).sin() * 0.8);

                // Reference: per-flow steps.
                let mut hs_ref: Vec<Vec<f32>> = (0..b).map(|f| hs.row(f).to_vec()).collect();
                let mut zs_ref = vec![vec![0.0f32; 10]; b];
                let mut rs_ref = vec![vec![0.0f32; 10]; b];
                for f in 0..b {
                    gru.step(
                        xs.row(f),
                        &mut hs_ref[f],
                        &mut scratch,
                        &mut zs_ref[f],
                        &mut rs_ref[f],
                    );
                }

                let (mut zs, mut rs) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                gru.step_batch(&xs, &mut hs, &mut batch_scratch, &mut zs, &mut rs);
                for f in 0..b {
                    assert_eq!(hs.row(f), hs_ref[f].as_slice(), "{mode:?} h, b={b} f={f}");
                    assert_eq!(zs.row(f), zs_ref[f].as_slice(), "{mode:?} z, b={b} f={f}");
                    assert_eq!(rs.row(f), rs_ref[f].as_slice(), "{mode:?} r, b={b} f={f}");
                }
            }
        }
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let mut rng = StdRng::seed_from_u64(11);
        let cell = GruCell::new(2, 3, &mut rng);
        let xs = toy_inputs(3, 2);
        let trace = cell.forward(&xs);
        let dhs: Vec<Vec<f32>> = (0..3).map(|_| vec![1.0f32; 3]).collect();
        let g1 = cell.backward(&trace, &dhs, None);
        let mut acc = GruGrads::zeros(2, 3);
        acc.add_assign(&g1);
        acc.add_assign(&g1);
        acc.scale(0.5);
        for (a, b) in acc.dwz.data.iter().zip(&g1.dwz.data) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
