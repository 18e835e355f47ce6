//! `neural::quant` — int8 quantized inference for the scoring hot path.
//!
//! The autoencoder dominates CLAP's inference FLOPs (≈176k MACs per packet
//! at the paper's Table-6 sizes) and its f32 weights push the working set
//! past L2. This module halves the memory traffic and roughly doubles GEMM
//! throughput on the same SIMD width by running the dense inner loops in
//! int8 with i32 accumulation:
//!
//! * **Weights** ([`QuantMatrix`]): per-output-row *symmetric* int8 —
//!   `q[r][k] = round(w[r][k] / s_r)` with `s_r = max_k |w[r][k]| / 127`,
//!   so every row uses the full `-127..=127` range regardless of the other
//!   rows' magnitudes. The per-row sums `Σ_k q[r][k]` are precomputed for
//!   the zero-point correction below. The codes are stored as
//!   *output-stationary panels* — `[row block][k-quad][output lane][4
//!   consecutive k]`, 16 lanes to a block, zero-padded — packed once in
//!   [`QuantMatrix::quantize`]. One layout serves every kernel tier: a
//!   k-quad broadcasts four activation bytes against a block, so each
//!   output lane owns one i32 accumulator; there is no horizontal
//!   reduction, no k-tail, and the weights are read as one sequential
//!   stream.
//! * **Activations**: quantized **on the fly, one row per GEMM call**, to
//!   7-bit unsigned over the row's *actual* range (asymmetric):
//!   `qa[k] = clamp(round((x[k] − m) / s_a), 0, 127)` with
//!   `m = min_k x[k]` and `s_a = (max_k x[k] − m) / 127`. Using the
//!   empirical `[min, max]` instead of a symmetric `±max` grid doubles
//!   the resolution on one-sided data — which CLAP's hot path is full of
//!   (profile features and gate activations live in `[0, 1]`). Unsigned
//!   activations are what the AVX2 `maddubs` (u8×i8) instruction wants,
//!   and confining them to `0..=127` bounds every i16 pair-sum by
//!   2·127·127 = 32258 < 32767 — saturation is *unreachable by
//!   construction*, so all kernel tiers (scalar, AVX2 `maddubs`+`madd`,
//!   512-bit `vpdpbusd`) produce the bit-identical i32.
//!   For rows of at least [`CLIP_MIN_LEN`] elements the scan range is
//!   *outlier-clipped*: a 128-bin histogram pass finds the highest bin
//!   whose upper tail holds at most ~1/64 of the samples, and if that
//!   cut is separated from the raw maximum by a clear gap (≥25% of the
//!   raw width) the grid covers only `[min, cut)` and everything above
//!   saturates to code 127. One adversarially-inflated feature then
//!   costs *itself* its resolution instead of stretching the grid —
//!   and flattening every honest value — across the whole row. The
//!   clip decision is a pure function of the row, applied by the shared
//!   planner behind every matvec *and* every GEMM row, so it never
//!   perturbs the streaming == batch equivalences below.
//! * **Dequantization**: with `R_r = Σ_k q[r][k]` precomputed,
//!   `y[r] = s_r · (s_a · acc[r] + m · R_r)` — the per-row zero-point
//!   correction folds the activation offset back in exactly, as the
//!   epilogue of the panel GEMV (two multiplies, an add, a multiply, never
//!   an FMA, so it too is bit-identical across tiers). The result feeds
//!   the existing f32 epilogues (bias+activation, GRU gates), which stay
//!   on the dispatched f32 [`KernelSet`].
//!
//! Because each activation row is quantized independently, a 1-row GEMM is
//! bitwise identical to a matvec — the same invariant the f32 engine has —
//! so int8 **streaming scoring equals int8 batch scoring exactly**, and
//! the int8-vs-f32 drift is pure quantization error (bounded by the
//! property tests; end-to-end score drift and verdict-flip rate are pinned
//! by the clap-core calibration harness).
//!
//! Saturation behavior: weights are clamped to `-127..=127` (−128 is never
//! emitted) and activations to `0..=127`; values beyond the row maximum
//! cannot occur since the scale is derived from it, so clamping only
//! guards rounding at the extremes. Non-finite activations are excluded
//! from the `[min, max]` range and then saturate onto its edges: NaN
//! encodes to code 0 (it dequantizes as the row *minimum*, contributing
//! `m·w` per output) and +inf to code 127 (the row maximum). That is a
//! deliberate divergence from the f32 engine, which would propagate
//! NaN/inf through every downstream value — the int8 engine degrades a
//! malformed element to the nearest representable neighbor instead.
//!
//! Engine selection: a caller asks for the quantized engines by passing
//! [`QuantMode::Int8`] where it builds a scorer; nothing ambient does.
//! The int8 kernels themselves — the panel GEMV and the activation scan,
//! encode and decode — live in the [`KernelSet`] ladder
//! (`avx512vnni → avx512 → avx2 → scalar`), so `NEURAL_KERNELS` pins their
//! ISA exactly as for the f32 kernels.

use crate::autoencoder::{AeWorkspace, Autoencoder, PackedAutoencoder};
use crate::dense::{Activation, Dense};
use crate::gru::{GruBatchScratch, GruStepScratch, GruWorkspace, PackedGru};
use crate::matrix::Matrix;
use crate::simd::{KernelSet, PanelQuad, Panels, PANEL_K, PANEL_LANES};

/// Activation quantization levels: codes span the 7-bit unsigned range
/// `0..=127` over the row's empirical `[min, max]`.
pub const ACT_LEVELS: f32 = 127.0;
/// Weight quantization levels (symmetric int8, −128 never emitted).
pub const WEIGHT_LEVELS: f32 = 127.0;

/// Rows shorter than this skip outlier-aware calibration: the histogram
/// scan isn't worth it, and short rows (the GRU's 37-wide inputs and
/// 32-wide hidden state) have too few samples for a quantile to be
/// meaningful. The autoencoder's ≥96-wide activation rows — where one
/// adversarially-inflated feature would otherwise stretch the grid over
/// the whole profile — are the target.
const CLIP_MIN_LEN: usize = 48;
/// Histogram resolution of the outlier scan.
const CLIP_BINS: usize = 128;

/// The affine parameters of one quantized activation row:
/// `x[k] ≈ min + scale · qa[k]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActQuant {
    /// Grid step `s_a` (`0.0` for a constant row — every code is 0 and
    /// the row dequantizes to exactly `min`).
    pub scale: f32,
    /// Row minimum `m` (the value code 0 stands for).
    pub min: f32,
}

/// Whether a scorer runs the f32 or the int8 engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Full-precision f32 inference (what every default means).
    Off,
    /// Int8 weights + on-the-fly activation quantization, i32 accumulate.
    Int8,
}

/// How one activation row quantizes: either it degrades to an exact
/// constant representation (zeroed codes) or it encodes on an affine
/// grid. Shared by every quantizing entry point — the resident-state
/// store, the matvec and each GEMM row — so all of them land on the
/// identical grid for the identical row (the bitwise
/// streaming == batch invariant).
#[derive(Debug, Clone, Copy)]
enum ActPlan {
    /// Zero every code; the row dequantizes to exactly `min`.
    Degenerate(ActQuant),
    /// Encode with `code = clamp(trunc((v − min)·inv + 0.5), 0, 127)`.
    Encode { min: f32, inv: f32, scale: f32 },
}

/// Outlier-aware upper calibration bound: if a small tail (> the 63/64
/// quantile) of the row sits far above the rest, return a clipped upper
/// bound just above the body so the 7-bit grid resolves the body instead
/// of stretching over the outliers (which saturate to code 127 via the
/// encoder's cap — the same clamp that already guards rounding at the
/// true maximum). Returns `max` unchanged when the row has no such gap,
/// so benign data keeps the exact empirical range.
///
/// One 128-bin histogram over `[min, max]`: walk bins top-down
/// accumulating the tail; the cut lands on the lowest bin whose dropped
/// tail stays within 1/64 of the row. The clip only engages when it
/// shaves at least a quarter of the span — a genuine body/outlier gap —
/// which keeps dense-extreme rows (sine-shaped test data, uniform ramps)
/// bit-identical to the unclipped scheme.
fn clip_upper(x: &[f32], min: f32, max: f32) -> f32 {
    let width = max - min;
    if width <= 0.0 || !width.is_finite() {
        return max;
    }
    let inv = CLIP_BINS as f32 / width;

    // Branchless pre-gate, one auto-vectorizable pass: the clip can only
    // engage when the cut lands at or below bin 3/4·BINS (the ≥25%-span
    // gap gate), which bounds the population of bins [3/4·BINS, BINS) by
    // the tail allowance. Count that population with the *identical* bin
    // arithmetic the histogram uses (`(v−min)·inv`, so the boundary
    // rounds the same way) and skip the scalar histogram pass — the
    // expensive part of calibration — whenever the bound already fails.
    // Dense rows (all benign traffic, in practice) exit here, which is
    // what keeps calibration off the int8 hot path's critical ~20%;
    // only genuinely gappy rows pay for the full quantile scan.
    let gate_bin = (CLIP_BINS - CLIP_BINS / 4) as f32;
    let mut n = 0u32;
    let mut top = 0u32;
    for &v in x {
        let finite = v.is_finite();
        n += u32::from(finite);
        top += u32::from(finite && (v - min) * inv >= gate_bin);
    }
    let allow = (n / 64).max(1);
    if top > allow {
        return max;
    }

    let mut hist = [0u32; CLIP_BINS];
    for &v in x {
        if v.is_finite() {
            let b = ((v - min) * inv) as usize;
            hist[b.min(CLIP_BINS - 1)] += 1;
        }
    }
    let mut tail = 0u32;
    let mut cut = CLIP_BINS;
    for b in (0..CLIP_BINS).rev() {
        tail += hist[b];
        if tail > allow {
            break;
        }
        cut = b;
    }
    if cut >= CLIP_BINS {
        return max;
    }
    let hi = min + cut as f32 * (width / CLIP_BINS as f32);
    // Gap gate: only clip when the tail sits well above the body.
    if hi > min && (max - hi) >= 0.25 * width {
        hi
    } else {
        max
    }
}

/// The shared first half of activation quantization: range scan (with
/// the non-finite filtering rescan), outlier-aware calibration, and the
/// degenerate/overflow checks. Every kernel set computes the identical
/// plan for the identical row.
fn act_plan(ks: &KernelSet, x: &[f32]) -> ActPlan {
    // Vectorized range scan; a non-finite bound (a NaN/±inf element
    // reached a lane) reroutes to the filtering rescan, so every kernel
    // set lands on the same finite `[min, max]` for the same row.
    let (mut min, mut max) = ks.act_range(x);
    if !min.is_finite() || !max.is_finite() {
        min = f32::INFINITY;
        max = f32::NEG_INFINITY;
        for &v in x {
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
            }
        }
    }
    // `Greater` fails for a constant row, an empty/all-non-finite row
    // (inverted infinities) and any NaN that slipped through — all of
    // which degrade to the exact constant representation below.
    if max.partial_cmp(&min) != Some(std::cmp::Ordering::Greater) {
        let m = if min.is_finite() { min } else { 0.0 };
        return ActPlan::Degenerate(ActQuant { scale: 0.0, min: m });
    }
    if x.len() >= CLIP_MIN_LEN {
        max = clip_upper(x, min, max);
    }
    let scale = (max - min) / ACT_LEVELS;
    if !scale.is_finite() {
        // A row straddling ±f32::MAX: the span overflows f32, so no f32
        // grid (nor the dequantizing epilogue, which would overflow the
        // same way) can represent it. Such a row is garbage input, not
        // traffic; degrade it to the exact zero row — deterministic and
        // finite — rather than letting ±inf/NaN leak into scores.
        return ActPlan::Degenerate(ActQuant {
            scale: 0.0,
            min: 0.0,
        });
    }
    let inv = ACT_LEVELS / (max - min);
    ActPlan::Encode { min, inv, scale }
}

/// Quantizes one f32 activation row into the caller's u8 buffer and
/// returns the affine parameters (see the module docs for the scheme). A
/// constant or empty row — including all-zero — gets scale `0.0` and
/// all-zero codes, dequantizing to exactly `min` everywhere; non-finite
/// values are excluded from the range and clamp to its nearest edge.
/// Rows of [`CLIP_MIN_LEN`] or more elements get outlier-aware
/// calibration: an isolated high tail saturates to code 127 instead of
/// stretching the grid (see [`clip_upper`]).
pub fn quantize_activations(x: &[f32], qa: &mut Vec<u8>) -> ActQuant {
    let ks = KernelSet::active();
    match act_plan(ks, x) {
        ActPlan::Degenerate(act) => {
            qa.clear();
            qa.resize(x.len(), 0);
            act
        }
        ActPlan::Encode { min, inv, scale } => {
            qa.resize(x.len(), 0);
            ks.act_encode(x, min, inv, qa);
            ActQuant { scale, min }
        }
    }
}

/// Decodes a row quantized by [`quantize_activations`] back to f32:
/// `out[k] = min + scale · codes[k]`. This is the read path for *resident*
/// quantized state — per-flow vectors a streaming engine keeps in int8
/// form between packets (quantize on store, dequantize on use). One fused
/// multiply-add per element on the dispatched [`KernelSet`], bit-identical
/// on every kernel tier.
pub fn dequantize_activations_into(codes: &[u8], q: ActQuant, out: &mut [f32]) {
    KernelSet::active().act_decode(codes, q, out)
}

/// A matrix quantized to int8 with per-output-row symmetric scales — the
/// weight format of the int8 inference engine, stored as
/// output-stationary [`Panels`]: `[row block][k-quad][output lane][4
/// consecutive k]`, rows zero-padded to whole [`PANEL_LANES`] blocks and
/// columns to whole [`PANEL_K`] quads. Packed once per scorer from a
/// trained f32 [`Matrix`]; the f32 model stays the source of truth
/// (quantized weights are never serialized).
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    pub rows: usize,
    pub cols: usize,
    q: Vec<PanelQuad>,
    kq: usize,
    scales: Vec<f32>,
    row_sums: Vec<f32>,
}

impl QuantMatrix {
    /// Per-row symmetric int8 quantization of `m`, packed into panels.
    pub fn quantize(m: &Matrix) -> QuantMatrix {
        let kq = m.cols.div_ceil(PANEL_K);
        let blocks = m.rows.div_ceil(PANEL_LANES);
        let mut q = vec![PanelQuad([[0; PANEL_K]; PANEL_LANES]); blocks * kq];
        let mut scales = vec![0.0f32; blocks * PANEL_LANES];
        let mut row_sums = vec![0.0f32; blocks * PANEL_LANES];
        for r in 0..m.rows {
            let row = m.row(r);
            let mut max = 0.0f32;
            for &v in row {
                max = max.max(v.abs());
            }
            let (scale, inv) = if max == 0.0 || !max.is_finite() {
                (0.0, 0.0)
            } else {
                (max / WEIGHT_LEVELS, WEIGHT_LEVELS / max)
            };
            let block = &mut q[r / PANEL_LANES * kq..][..kq];
            let mut sum = 0i32;
            for (k, &v) in row.iter().enumerate() {
                let qv = ((v * inv).round() as i32).clamp(-127, 127);
                sum += qv;
                block[k / PANEL_K].0[r % PANEL_LANES][k % PANEL_K] = qv as i8;
            }
            scales[r] = scale;
            row_sums[r] = sum as f32;
        }
        QuantMatrix {
            rows: m.rows,
            cols: m.cols,
            q,
            kq,
            scales,
            row_sums,
        }
    }

    /// The panels as the GEMV kernel consumes them.
    pub fn panels(&self) -> Panels<'_> {
        Panels {
            q: &self.q,
            kq: self.kq,
            scales: &self.scales,
            row_sums: &self.row_sums,
        }
    }

    /// The int8 code of weight `(r, c)`, unpacked from its panel.
    #[inline]
    pub fn code(&self, r: usize, c: usize) -> i8 {
        assert!(r < self.rows && c < self.cols, "weight index out of range");
        self.q[r / PANEL_LANES * self.kq + c / PANEL_K].0[r % PANEL_LANES][c % PANEL_K]
    }

    /// The scale of row `r` (f32 weight ≈ `scale(r) · code(r, k)`).
    #[inline]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Reconstructs the f32 matrix the quantized weights represent —
    /// the oracle for quantization-error tests, and for the packing.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            self.scales[r] * f32::from(self.code(r, c))
        })
    }

    /// `y = self · x`: quantizes `x` into `qa` and runs the int8 panel
    /// GEMV on the dispatched kernel set. `qa` grows to the padded `K`
    /// once and is then reused; bytes past `cols` are whatever an earlier
    /// call left there, and meet only zero weights.
    pub fn matvec_into(&self, x: &[f32], qa: &mut Vec<u8>, y: &mut [f32]) {
        self.score_row(KernelSet::active(), x, qa, y)
    }

    /// `C = A · selfᵀ`, quantizing each row of `A` independently through
    /// the very same per-row path as [`matvec_into`](Self::matvec_into) —
    /// which makes every row of the GEMM bitwise identical to its matvec,
    /// the invariant behind int8 streaming == int8 batch (and micro-batched
    /// == per-packet streaming).
    pub fn matmul_nt_into(&self, a: &Matrix, qa: &mut Vec<u8>, c: &mut Matrix) {
        assert_eq!(a.cols, self.cols, "quant nt shape mismatch");
        c.resize(a.rows, self.rows);
        let ks = KernelSet::active();
        for i in 0..a.rows {
            self.score_row(ks, a.row(i), qa, c.row_mut(i));
        }
    }

    /// Plan, encode, one panel GEMV — the shared body of
    /// [`matvec_into`](Self::matvec_into) and each
    /// [`matmul_nt_into`](Self::matmul_nt_into) row.
    fn score_row(&self, ks: &KernelSet, x: &[f32], qa: &mut Vec<u8>, y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "quant matvec input length mismatch");
        assert_eq!(y.len(), self.rows, "quant matvec output length mismatch");
        if qa.len() < self.kq * PANEL_K {
            qa.resize(self.kq * PANEL_K, 0);
        }
        let codes = &mut qa[..self.cols];
        let act = match act_plan(ks, x) {
            ActPlan::Degenerate(act) => {
                codes.fill(0);
                act
            }
            ActPlan::Encode { min, inv, scale } => {
                ks.act_encode(x, min, inv, codes);
                ActQuant { scale, min }
            }
        };
        ks.panel_gemv_i8(&self.panels(), qa, act, y);
    }
}

/// Int8 counterpart of [`Dense`]: quantized weights, f32 bias and the
/// shared bias+activation epilogue kernel.
#[derive(Debug, Clone)]
pub struct QuantDense {
    pub w: QuantMatrix,
    pub b: Vec<f32>,
    pub activation: Activation,
}

impl QuantDense {
    pub fn quantize(d: &Dense) -> QuantDense {
        QuantDense {
            w: QuantMatrix::quantize(&d.w),
            b: d.b.clone(),
            activation: d.activation,
        }
    }

    /// Batched forward pass into a caller-owned matrix, mirroring
    /// [`Dense::forward_into`] with the int8 GEMM.
    pub fn forward_into(&self, x: &Matrix, qa: &mut Vec<u8>, y: &mut Matrix) {
        self.w.matmul_nt_into(x, qa, y);
        let ks = KernelSet::active();
        for r in 0..y.rows {
            ks.bias_act(y.row_mut(r), &self.b, self.activation);
        }
    }
}

/// Int8 counterpart of [`Autoencoder`]: every layer's weights quantized
/// per output row, activations re-quantized between layers (each layer's
/// f32 output row gets its own scale, so depth does not compound the
/// activation grid error).
#[derive(Debug, Clone)]
pub struct QuantAutoencoder {
    layers: Vec<QuantDense>,
}

impl QuantAutoencoder {
    pub fn quantize(ae: &Autoencoder) -> QuantAutoencoder {
        QuantAutoencoder {
            layers: ae.layers.iter().map(QuantDense::quantize).collect(),
        }
    }

    pub fn input_size(&self) -> usize {
        self.layers[0].w.cols
    }

    /// Batched reconstruction through the same ping-ponged [`AeWorkspace`]
    /// as the f32 engine (plus its quantized-activation scratch row).
    pub fn forward_into<'w>(&self, x: &Matrix, ws: &'w mut AeWorkspace) -> &'w Matrix {
        debug_assert!(!self.layers.is_empty());
        let AeWorkspace { bufs: [a, b], qa } = ws;
        self.layers[0].forward_into(x, qa, a);
        let mut flip = false; // output currently in `a`
        for layer in &self.layers[1..] {
            let (src, dst) = if flip { (&*b, &mut *a) } else { (&*a, &mut *b) };
            layer.forward_into(src, qa, dst);
            flip = !flip;
        }
        if flip {
            &ws.bufs[1]
        } else {
            &ws.bufs[0]
        }
    }

    /// Mean absolute reconstruction error per row of `x`, appended to
    /// `out` — the int8 twin of
    /// [`Autoencoder::reconstruction_errors_into`]. The input comparison
    /// and L1 reduction stay f32 (the error is measured against the real
    /// input, not its quantized image).
    pub fn reconstruction_errors_into(&self, x: &Matrix, ws: &mut AeWorkspace, out: &mut Vec<f32>) {
        let y = self.forward_into(x, ws);
        let ks = KernelSet::active();
        out.reserve(x.rows);
        for r in 0..x.rows {
            let err = ks.sum_abs_diff(x.row(r), y.row(r));
            out.push(err / x.cols as f32);
        }
    }
}

/// Int8 counterpart of [`PackedGru`]: the `3H×I` input and `3H×H`
/// recurrent projections run on the int8 GEMM; biases, gate sigmoids and
/// the hidden-state update stay on the f32 gate kernel. Feeding packets
/// one at a time through [`step`](Self::step) is bitwise identical to one
/// [`run`](Self::run) over the whole sequence, exactly like the f32
/// engine (both quantize each activation row independently and share the
/// dot kernels).
#[derive(Debug, Clone)]
pub struct QuantPackedGru {
    w: QuantMatrix,
    u: QuantMatrix,
    b: Vec<f32>,
    hidden: usize,
}

impl QuantPackedGru {
    /// Quantizes a gate-packed cell's projection matrices — from their
    /// row-major values, which the f32 panels hold bit for bit, so the
    /// codes do not depend on the f32 layout.
    pub fn quantize(p: &PackedGru) -> QuantPackedGru {
        QuantPackedGru {
            w: QuantMatrix::quantize(&p.w.unpack()),
            u: QuantMatrix::quantize(&p.u.unpack()),
            b: p.b.clone(),
            hidden: p.hidden,
        }
    }

    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    pub fn input_size(&self) -> usize {
        self.w.cols
    }

    /// Int8 twin of [`PackedGru::run`] over the same [`GruWorkspace`].
    pub fn run(&self, xs: &Matrix, ws: &mut GruWorkspace) {
        let hidden = self.hidden;
        let steps = xs.rows;
        debug_assert_eq!(xs.cols, self.input_size());

        self.w.matmul_nt_into(xs, &mut ws.qa, &mut ws.xp);
        for r in 0..steps {
            let row = ws.xp.row_mut(r);
            for (v, &bv) in row.iter_mut().zip(&self.b) {
                *v += bv;
            }
        }

        ws.hs.resize(steps, hidden);
        ws.zs.resize(steps, hidden);
        ws.rs.resize(steps, hidden);
        ws.up.resize(3 * hidden, 0.0);
        ws.h.clear();
        ws.h.resize(hidden, 0.0);

        let ks = KernelSet::active();
        for t in 0..steps {
            self.u.matvec_into(&ws.h, &mut ws.qa, &mut ws.up);
            ks.gru_gates(
                ws.xp.row(t),
                &ws.up,
                &mut ws.h,
                ws.zs.row_mut(t),
                ws.rs.row_mut(t),
            );
            ws.hs.row_mut(t).copy_from_slice(&ws.h);
        }
    }

    /// Int8 twin of [`PackedGru::step`] over the same [`GruStepScratch`].
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
        scratch.xp.resize(3 * hidden, 0.0);
        scratch.up.resize(3 * hidden, 0.0);

        self.w.matvec_into(x, &mut scratch.qa, &mut scratch.xp);
        for (v, &bv) in scratch.xp.iter_mut().zip(&self.b) {
            *v += bv;
        }
        self.u.matvec_into(h, &mut scratch.qa, &mut scratch.up);
        KernelSet::active().gru_gates(&scratch.xp, &scratch.up, h, z, r);
    }

    /// Int8 twin of [`PackedGru::step_batch`]: one GRU step for `B`
    /// independent flows at once. Because the int8 GEMM quantizes each
    /// activation row independently and scores it through the exact
    /// per-row path of [`QuantMatrix::matvec_into`], every row of the
    /// batch is bitwise identical to a separate [`step`](Self::step)
    /// call with that flow's `x`/`h` — the invariant the micro-batched
    /// streaming path relies on.
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
        for i in 0..b {
            let row = scratch.xp.row_mut(i);
            for (v, &bv) in row.iter_mut().zip(&self.b) {
                *v += bv;
            }
        }
        self.u.matmul_nt_into(hs, &mut scratch.qa, &mut scratch.up);

        zs.resize(b, hidden);
        rs.resize(b, hidden);
        let ks = KernelSet::active();
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

/// A GRU inference engine at either precision, so the scoring paths hold
/// one value and stay agnostic of the mode. Both variants share
/// [`GruWorkspace`]/[`GruStepScratch`] and the step == run bitwise
/// guarantee.
#[derive(Debug, Clone)]
pub enum GruEngine {
    F32(PackedGru),
    Int8(QuantPackedGru),
}

impl GruEngine {
    /// Wraps packed weights at the requested precision (quantizing for
    /// [`QuantMode::Int8`]).
    pub fn from_packed(packed: PackedGru, mode: QuantMode) -> GruEngine {
        match mode {
            QuantMode::Off => GruEngine::F32(packed),
            QuantMode::Int8 => GruEngine::Int8(QuantPackedGru::quantize(&packed)),
        }
    }

    pub fn mode(&self) -> QuantMode {
        match self {
            GruEngine::F32(_) => QuantMode::Off,
            GruEngine::Int8(_) => QuantMode::Int8,
        }
    }

    pub fn hidden_size(&self) -> usize {
        match self {
            GruEngine::F32(p) => p.hidden_size(),
            GruEngine::Int8(q) => q.hidden_size(),
        }
    }

    pub fn input_size(&self) -> usize {
        match self {
            GruEngine::F32(p) => p.input_size(),
            GruEngine::Int8(q) => q.input_size(),
        }
    }

    pub fn run(&self, xs: &Matrix, ws: &mut GruWorkspace) {
        match self {
            GruEngine::F32(p) => p.run(xs, ws),
            GruEngine::Int8(q) => q.run(xs, ws),
        }
    }

    pub fn step(
        &self,
        x: &[f32],
        h: &mut [f32],
        scratch: &mut GruStepScratch,
        z: &mut [f32],
        r: &mut [f32],
    ) {
        match self {
            GruEngine::F32(p) => p.step(x, h, scratch, z, r),
            GruEngine::Int8(q) => q.step(x, h, scratch, z, r),
        }
    }

    /// One GRU step for `B` independent flows at once (row `i` of
    /// `xs`/`hs`/`zs`/`rs` belongs to flow `i`). At both precisions each
    /// row is bitwise identical to a separate [`step`](Self::step) call.
    pub fn step_batch(
        &self,
        xs: &Matrix,
        hs: &mut Matrix,
        scratch: &mut GruBatchScratch,
        zs: &mut Matrix,
        rs: &mut Matrix,
    ) {
        match self {
            GruEngine::F32(p) => p.step_batch(xs, hs, scratch, zs, rs),
            GruEngine::Int8(q) => q.step_batch(xs, hs, scratch, zs, rs),
        }
    }
}

/// An autoencoder inference engine at either precision. Both variants own
/// a packed copy of the weights built once in
/// [`from_model`](Self::from_model) — f32 panels (≈700 kB at the paper's
/// sizes) or int8 panels — so build one engine per scorer, not per
/// connection; the f32 variant still borrows biases and activations from
/// the trained model, which stays the source of truth.
#[derive(Debug, Clone)]
pub enum AeEngine<'a> {
    F32(PackedAutoencoder<'a>),
    Int8(QuantAutoencoder),
}

impl<'a> AeEngine<'a> {
    /// Packs the trained autoencoder at the requested precision.
    pub fn from_model(ae: &'a Autoencoder, mode: QuantMode) -> AeEngine<'a> {
        match mode {
            QuantMode::Off => AeEngine::F32(PackedAutoencoder::pack(ae)),
            QuantMode::Int8 => AeEngine::Int8(QuantAutoencoder::quantize(ae)),
        }
    }

    pub fn mode(&self) -> QuantMode {
        match self {
            AeEngine::F32(_) => QuantMode::Off,
            AeEngine::Int8(_) => QuantMode::Int8,
        }
    }

    /// Per-row mean absolute reconstruction error, appended to `out`.
    pub fn reconstruction_errors_into(&self, x: &Matrix, ws: &mut AeWorkspace, out: &mut Vec<f32>) {
        match self {
            AeEngine::F32(ae) => ae.reconstruction_errors_into(x, ws, out),
            AeEngine::Int8(q) => q.reconstruction_errors_into(x, ws, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gru::GruCell;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn activation_quantization_round_trips_within_half_step() {
        // Two-sided and one-sided rows; one-sided data must use the full
        // 7-bit range (that is the point of the asymmetric grid).
        for x in [
            (0..37)
                .map(|i| ((i as f32) * 0.71).sin() * 2.5)
                .collect::<Vec<f32>>(),
            (0..37).map(|i| (i as f32) / 36.0).collect(),
        ] {
            let mut qa = Vec::new();
            let act = quantize_activations(&x, &mut qa);
            assert!(act.scale > 0.0);
            assert_eq!(*qa.iter().min().unwrap(), 0, "min maps to code 0");
            assert_eq!(*qa.iter().max().unwrap(), 127, "max maps to code 127");
            for (&v, &q) in x.iter().zip(&qa) {
                let back = act.min + f32::from(q) * act.scale;
                assert!(
                    (back - v).abs() <= act.scale * 0.5 + 1e-6,
                    "{v} -> {q} -> {back} (scale {})",
                    act.scale
                );
            }
        }
    }

    #[test]
    fn degenerate_rows_quantize_exactly() {
        let mut qa = Vec::new();
        // All-zero: scale 0, min 0 → dequantizes to exact zeros.
        let act = quantize_activations(&[0.0; 9], &mut qa);
        assert_eq!((act.scale, act.min), (0.0, 0.0));
        assert!(qa.iter().all(|&q| q == 0));
        // Constant row: represented exactly through `min`.
        let act = quantize_activations(&[0.75; 5], &mut qa);
        assert_eq!((act.scale, act.min), (0.0, 0.75));
        // A NaN among normal values clamps into the finite range; an
        // all-NaN row degrades to zeros.
        let act = quantize_activations(&[1.0, f32::NAN, -1.0], &mut qa);
        assert!(act.scale > 0.0);
        assert!(qa[1] <= 127);
        let act = quantize_activations(&[f32::NAN; 4], &mut qa);
        assert_eq!((act.scale, act.min), (0.0, 0.0));
    }

    /// A row straddling ±f32::MAX has a span that overflows f32: no f32
    /// grid can represent it (and the dequantizing epilogue would
    /// overflow the same way), so it degrades to the exact zero row —
    /// outputs stay finite instead of leaking ±inf/NaN into scores.
    #[test]
    fn huge_span_rows_stay_finite() {
        let x = [f32::MAX, -f32::MAX, 0.0, 1.0];
        let mut qa = Vec::new();
        let act = quantize_activations(&x, &mut qa);
        assert_eq!((act.scale, act.min), (0.0, 0.0));
        assert!(qa.iter().all(|&q| q == 0));
        let m = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) as f32 * 0.3).sin());
        let q = QuantMatrix::quantize(&m);
        let mut y = vec![f32::NAN; 3];
        q.matvec_into(&x, &mut qa, &mut y);
        assert_eq!(y, vec![0.0; 3], "degenerate row contributes exact zeros");
    }

    #[test]
    fn weight_quantization_round_trips_within_half_step() {
        let m = Matrix::from_fn(7, 13, |r, c| ((r * 13 + c) as f32 * 0.37).sin() * 1.7);
        let q = QuantMatrix::quantize(&m);
        let back = q.dequantize();
        for r in 0..m.rows {
            let step = q.scale(r);
            for c in 0..m.cols {
                assert!(
                    (back.get(r, c) - m.get(r, c)).abs() <= step * 0.5 + 1e-6,
                    "({r},{c}): {} vs {}",
                    back.get(r, c),
                    m.get(r, c)
                );
            }
        }
    }

    #[test]
    fn zero_weight_rows_produce_zero_outputs() {
        let mut m = Matrix::from_fn(4, 8, |r, c| (r * 8 + c) as f32 * 0.1);
        m.row_mut(2).fill(0.0);
        let q = QuantMatrix::quantize(&m);
        let x: Vec<f32> = (0..8).map(|i| i as f32 * 0.3 - 1.0).collect();
        let mut qa = Vec::new();
        let mut y = vec![f32::NAN; 4];
        q.matvec_into(&x, &mut qa, &mut y);
        assert_eq!(y[2], 0.0);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    /// The quantized matvec equals the *exact* f32 product of the
    /// dequantized weights with the dequantized activations — i.e. the
    /// int8 path's only error is the quantization grid, not the kernels.
    #[test]
    fn quant_matvec_equals_dequantized_product() {
        let m = Matrix::from_fn(9, 21, |r, c| ((r * 21 + c) as f32 * 0.17).cos() * 0.8);
        let q = QuantMatrix::quantize(&m);
        let x: Vec<f32> = (0..21).map(|i| ((i as f32) * 0.43).sin() * 1.3).collect();
        let mut qa = Vec::new();
        let mut y = vec![0.0f32; 9];
        q.matvec_into(&x, &mut qa, &mut y);

        let act = quantize_activations(&x, &mut qa);
        for (r, &yr) in y.iter().enumerate() {
            let mut exact = 0.0f64;
            for (k, &code) in qa.iter().enumerate() {
                let xa = f64::from(act.min) + f64::from(code) * f64::from(act.scale);
                let w = f64::from(q.scale(r)) * f64::from(q.code(r, k));
                exact += xa * w;
            }
            assert!(
                (f64::from(yr) - exact).abs() < 1e-3,
                "row {r}: {} vs {exact}",
                yr
            );
        }
    }

    /// The eight hot shapes (`rows × cols`): the six autoencoder layers at
    /// the paper's Table-6 sizes, then the GRU's input and recurrent
    /// projections.
    const HOT_SHAPES: [(usize, usize); 8] = [
        (192, 345),
        (96, 192),
        (40, 96),
        (96, 40),
        (192, 96),
        (345, 192),
        (96, 37),
        (96, 32),
    ];

    fn wavy(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * cols + c) as f32 * 0.173 + 0.5).sin() * 0.9
        })
    }

    /// Packing is a pure relayout: unpacking the panels gives back the
    /// row-major per-row symmetric quantization bit for bit, and every pad
    /// weight, scale and row sum is zero.
    #[test]
    fn packing_round_trips_the_row_major_quantization() {
        for (rows, cols) in [
            (1, 1),
            (7, 13),
            (17, 5),
            (16, 4),
            (33, 64),
            (96, 37),
            (40, 96),
        ] {
            let m = wavy(rows, cols);
            let q = QuantMatrix::quantize(&m);
            let want = Matrix::from_fn(rows, cols, |r, c| {
                let max = m.row(r).iter().fold(0.0f32, |a, v| a.max(v.abs()));
                let code = (m.get(r, c) * (WEIGHT_LEVELS / max))
                    .round()
                    .clamp(-127.0, 127.0);
                max / WEIGHT_LEVELS * code
            });
            assert_eq!(q.dequantize(), want, "{rows}x{cols}");
            let p = q.panels();
            assert_eq!(
                p.q.len(),
                rows.div_ceil(PANEL_LANES) * cols.div_ceil(PANEL_K)
            );
            let live: i32 =
                p.q.iter()
                    .flat_map(|quad| quad.0.as_flattened())
                    .map(|&v| i32::from(v).abs())
                    .sum();
            let codes: i32 = (0..rows)
                .flat_map(|r| (0..cols).map(move |c| (r, c)))
                .map(|(r, c)| i32::from(q.code(r, c)).abs())
                .sum();
            assert_eq!(live, codes, "{rows}x{cols}: a pad weight is non-zero");
            assert!(p.scales[rows..]
                .iter()
                .chain(&p.row_sums[rows..])
                .all(|&v| v == 0.0));
        }
    }

    /// Top code × extreme weights over the longest hot row: a saturating
    /// `maddubs` pair-sum would diverge here. Unit dequantization params
    /// make `y` the i32 accumulator itself (345·127·127 < 2²⁴, so exact),
    /// and pad activation bytes at the top code prove pad weights are zero.
    #[test]
    fn panel_gemv_is_exact_at_contract_extremes() {
        let (rows, cols) = (40, 345);
        let m = Matrix::from_fn(rows, cols, |r, c| match r % 3 {
            0 => 127.0,
            1 => -127.0,
            _ => [127.0, -127.0][(r + c) % 2],
        });
        let q = QuantMatrix::quantize(&m);
        let qa = vec![127u8; cols.div_ceil(PANEL_K) * PANEL_K];
        let unit = ActQuant {
            scale: 1.0,
            min: 0.0,
        };
        for ks in KernelSet::available() {
            let mut y = vec![f32::NAN; rows];
            ks.panel_gemv_i8(&q.panels(), &qa, unit, &mut y);
            for (r, &got) in y.iter().enumerate() {
                assert_eq!(q.scale(r), 1.0);
                let want: i32 = (0..cols).map(|c| 127 * i32::from(q.code(r, c))).sum();
                assert_eq!(got, want as f32, "{} row {r}", ks.name);
            }
        }
    }

    /// The seed's row-major algorithm, kept as the oracle: encode the row,
    /// take `Σ_k qa[k]·q[r][k]` one output at a time, dequantize.
    fn matvec_reference(q: &QuantMatrix, x: &[f32]) -> Vec<f32> {
        let mut qa = Vec::new();
        let act = quantize_activations(x, &mut qa);
        (0..q.rows)
            .map(|r| {
                let (mut acc, mut row_sum) = (0i32, 0i32);
                for (c, &a) in qa.iter().enumerate() {
                    acc += i32::from(a) * i32::from(q.code(r, c));
                    row_sum += i32::from(q.code(r, c));
                }
                crate::simd::dequantize(acc, row_sum as f32, act, q.scale(r))
            })
            .collect()
    }

    /// Every tier's panel matvec is **bitwise** the row-major reference
    /// at the eight hot shapes — on an ordinary row, a constant
    /// (degenerate) row, and a row holding NaN and +inf — through one
    /// scratch reused across shapes, so stale pad bytes are exercised.
    #[test]
    fn panel_matvec_is_bitwise_the_row_major_reference() {
        let mut qa = Vec::new();
        for (rows, cols) in HOT_SHAPES {
            let q = QuantMatrix::quantize(&wavy(rows, cols));
            let ordinary: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.61).cos() * 1.7).collect();
            let mut malformed = ordinary.clone();
            malformed[1] = f32::NAN;
            malformed[cols / 2] = f32::INFINITY;
            for x in [ordinary, vec![0.75; cols], malformed] {
                let want: Vec<u32> = matvec_reference(&q, &x)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                for ks in KernelSet::available() {
                    let mut y = vec![f32::NAN; rows];
                    q.score_row(ks, &x, &mut qa, &mut y);
                    let got: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{} {rows}x{cols}", ks.name);
                }
            }
        }
    }

    #[test]
    fn quant_one_row_gemm_is_bitwise_matvec() {
        let m = Matrix::from_fn(10, 33, |r, c| ((r + 3 * c) as f32 * 0.29).sin());
        let q = QuantMatrix::quantize(&m);
        let x = Matrix::from_fn(1, 33, |_, c| ((c as f32) * 0.61).cos());
        let mut qa = Vec::new();
        let mut c = Matrix::default();
        q.matmul_nt_into(&x, &mut qa, &mut c);
        let mut y = vec![0.0f32; 10];
        q.matvec_into(x.row(0), &mut qa, &mut y);
        assert_eq!(c.row(0), y.as_slice());
    }

    #[test]
    fn quant_gru_step_matches_run_bitwise() {
        let mut rng = StdRng::seed_from_u64(41);
        let cell = GruCell::new(6, 10, &mut rng);
        let packed = PackedGru::pack(&cell);
        let q = QuantPackedGru::quantize(&packed);
        let mut ws = GruWorkspace::new();
        let mut scratch = GruStepScratch::new();
        for seq in [1usize, 3, 9, 40] {
            let mut xs = Matrix::zeros(seq, 6);
            for t in 0..seq {
                for i in 0..6 {
                    xs.set(t, i, ((t * 6 + i) as f32 * 0.37).sin() * 0.5);
                }
            }
            q.run(&xs, &mut ws);
            let mut h = vec![0.0f32; 10];
            let mut z = vec![0.0f32; 10];
            let mut r = vec![0.0f32; 10];
            for t in 0..seq {
                q.step(xs.row(t), &mut h, &mut scratch, &mut z, &mut r);
                assert_eq!(h.as_slice(), ws.hs.row(t), "h diverged at t={t}");
                assert_eq!(z.as_slice(), ws.zs.row(t), "z diverged at t={t}");
                assert_eq!(r.as_slice(), ws.rs.row(t), "r diverged at t={t}");
            }
        }
    }

    #[test]
    fn quant_ae_single_rows_match_batch_bitwise() {
        let ae = Autoencoder::new(&[12, 7, 4, 7, 12], 3);
        let q = QuantAutoencoder::quantize(&ae);
        let x = Matrix::from_fn(5, 12, |r, c| ((r * 12 + c) as f32 * 0.23).sin());
        let mut ws = AeWorkspace::new();
        let mut batch = Vec::new();
        q.reconstruction_errors_into(&x, &mut ws, &mut batch);
        assert_eq!(batch.len(), 5);
        for (r, &expected) in batch.iter().enumerate() {
            let row = Matrix::from_vec(1, 12, x.row(r).to_vec());
            let mut single = Vec::new();
            q.reconstruction_errors_into(&row, &mut ws, &mut single);
            assert_eq!(single[0], expected, "row {r}: 1-row pass != batched");
        }
    }

    #[test]
    fn quant_ae_tracks_f32_reconstruction() {
        // A trained-ish AE is not needed: any fixed network must
        // reconstruct *similarly* at int8 — the drift is quantization
        // noise, not a different function.
        let ae = Autoencoder::new(&[16, 8, 16], 7);
        let q = QuantAutoencoder::quantize(&ae);
        let x = Matrix::from_fn(6, 16, |r, c| ((r * 16 + c) as f32 * 0.31).cos() * 0.9);
        let f = ae.reconstruction_errors(&x);
        let mut ws = AeWorkspace::new();
        let mut qe = Vec::new();
        q.reconstruction_errors_into(&x, &mut ws, &mut qe);
        for (a, b) in f.iter().zip(&qe) {
            assert!((a - b).abs() < 0.02, "drift too large: f32 {a} vs int8 {b}");
        }
    }

    /// One adversarially-inflated element in a long row must not stretch
    /// the activation grid: the clip planner saturates the spike to code
    /// 127 and keeps near-full resolution for the honest body.
    #[test]
    fn outlier_clip_engages_on_isolated_spike() {
        let mut x: Vec<f32> = (0..96).map(|i| ((i as f32) * 0.37).sin().abs()).collect();
        x[40] = 50.0;
        let mut qa = Vec::new();
        let act = quantize_activations(&x, &mut qa);
        assert_eq!(qa[40], 127, "the spike saturates to the top code");
        let unclipped = (50.0 - 0.0) / ACT_LEVELS;
        assert!(
            act.scale < unclipped * 0.1,
            "grid step {} should be far below the unclipped {}",
            act.scale,
            unclipped
        );
        for (i, (&v, &q)) in x.iter().zip(&qa).enumerate() {
            if i == 40 {
                continue;
            }
            let back = act.min + f32::from(q) * act.scale;
            assert!(
                (back - v).abs() <= act.scale * 0.5 + 1e-6,
                "body element {i}: {v} -> {q} -> {back} (scale {})",
                act.scale
            );
        }
    }

    /// A dense ramp has no outlier gap: the clip gate must leave the raw
    /// `[min, max]` grid untouched (bitwise — same scale computation).
    #[test]
    fn outlier_clip_skips_dense_rows() {
        let x: Vec<f32> = (0..96).map(|i| i as f32 / 95.0).collect();
        let mut qa = Vec::new();
        let act = quantize_activations(&x, &mut qa);
        assert_eq!(act.scale, (1.0 - 0.0) / ACT_LEVELS);
        assert_eq!(qa[95], 127);
        // Short rows never clip, whatever their shape.
        let mut short: Vec<f32> = (0..37).map(|i| ((i as f32) * 0.37).sin().abs()).collect();
        short[20] = 50.0;
        let act = quantize_activations(&short, &mut qa);
        let min = short.iter().cloned().fold(f32::MAX, f32::min);
        assert_eq!(act.scale, (50.0 - min) / ACT_LEVELS);
    }

    /// Int8 twin of the f32 `step_batch` pin: batching B live flows
    /// through one GEMM must be bitwise identical to stepping each flow
    /// on its own.
    #[test]
    fn quant_step_batch_matches_per_flow_step_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        let cell = GruCell::new(6, 10, &mut rng);
        let q = QuantPackedGru::quantize(&PackedGru::pack(&cell));
        let mut scratch = GruStepScratch::new();
        let mut batch_scratch = GruBatchScratch::new();
        for b in [0usize, 1, 3, 4, 7, 16] {
            // Per-flow reference: distinct mid-flow hidden states.
            let mut xs = Matrix::zeros(b, 6);
            let mut hs = Matrix::zeros(b, 10);
            for f in 0..b {
                for i in 0..6 {
                    xs.set(f, i, ((f * 6 + i) as f32 * 0.29).cos());
                }
                for i in 0..10 {
                    hs.set(f, i, ((f * 10 + i) as f32 * 0.13).sin() * 0.8);
                }
            }
            let mut want_h = Vec::new();
            let mut want_z = Vec::new();
            let mut want_r = Vec::new();
            for f in 0..b {
                let mut h = hs.row(f).to_vec();
                let mut z = vec![0.0f32; 10];
                let mut r = vec![0.0f32; 10];
                q.step(xs.row(f), &mut h, &mut scratch, &mut z, &mut r);
                want_h.push(h);
                want_z.push(z);
                want_r.push(r);
            }
            let mut zs = Matrix::default();
            let mut rs = Matrix::default();
            q.step_batch(&xs, &mut hs, &mut batch_scratch, &mut zs, &mut rs);
            for f in 0..b {
                assert_eq!(hs.row(f), want_h[f].as_slice(), "h row {f} (b={b})");
                assert_eq!(zs.row(f), want_z[f].as_slice(), "z row {f} (b={b})");
                assert_eq!(rs.row(f), want_r[f].as_slice(), "r row {f} (b={b})");
            }
        }
    }

    #[test]
    fn engines_report_their_mode() {
        let mut rng = StdRng::seed_from_u64(5);
        let cell = GruCell::new(3, 4, &mut rng);
        let packed = PackedGru::pack(&cell);
        assert_eq!(
            GruEngine::from_packed(packed.clone(), QuantMode::Off).mode(),
            QuantMode::Off
        );
        let int8 = GruEngine::from_packed(packed, QuantMode::Int8);
        assert_eq!(int8.mode(), QuantMode::Int8);
        assert_eq!(int8.hidden_size(), 4);
        assert_eq!(int8.input_size(), 3);
        let ae = Autoencoder::new(&[4, 2, 4], 1);
        assert_eq!(
            AeEngine::from_model(&ae, QuantMode::Off).mode(),
            QuantMode::Off
        );
        assert_eq!(
            AeEngine::from_model(&ae, QuantMode::Int8).mode(),
            QuantMode::Int8
        );
    }
}
