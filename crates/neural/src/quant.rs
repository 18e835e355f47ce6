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
//! * **Activations**: quantized **on the fly, one row per GEMV call**, to
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
//!   For rows of at least `CLIP_MIN_LEN` (48) elements the scan range is
//!   *outlier-clipped*: a 128-bin histogram pass finds the highest bin
//!   whose upper tail holds at most ~1/64 of the samples, and if that
//!   cut is separated from the raw maximum by a clear gap (≥25% of the
//!   raw width) the grid covers only `[min, cut)` and everything above
//!   saturates to code 127. One adversarially-inflated feature then
//!   costs *itself* its resolution instead of stretching the grid —
//!   and flattening every honest value — across the whole row. The
//!   clip decision is a pure function of the row, applied by the shared
//!   planner behind every row of every product, so it never
//!   perturbs the streaming == batch equivalences below.
//! * **Dequantization**: with `R_r = Σ_k q[r][k]` precomputed,
//!   `y[r] = s_r · (s_a · acc[r] + m · R_r)` — the per-row zero-point
//!   correction folds the activation offset back in exactly, as the
//!   epilogue of the panel GEMV (two multiplies, an add, a multiply, never
//!   an FMA, so it too is bit-identical across tiers). The result feeds
//!   the existing f32 epilogues (bias+activation, GRU gates), which stay
//!   on the dispatched f32 [`KernelSet`].
//!
//! Because each activation row is quantized independently, a row of a
//! batch is bitwise identical to that row scored alone — the same
//! invariant the f32 panels have — so a row's int8 score never depends
//! on what it was batched with, and the int8-vs-f32 drift is pure
//! quantization error (bounded by the property tests; end-to-end score
//! drift and verdict-flip rate are pinned by the clap-core calibration
//! harness).
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
//! Engine selection: the engines ([`crate::PackedGru`],
//! [`crate::PackedAutoencoder`]) are one body over either weight format; a
//! caller gets them over [`QuantMatrix`] by passing [`QuantMode::Int8`]
//! where it builds a scorer, and nothing ambient does.
//! The int8 kernels themselves — the panel GEMV and the activation scan,
//! encode and decode — live in the [`KernelSet`] ladder
//! (`avx512vnni → avx512 → avx2 → scalar`), so `NEURAL_KERNELS` pins their
//! ISA exactly as for the f32 kernels.

use crate::matrix::Matrix;
use crate::panel::PanelMatrix;
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
    let (n, top) = gate_counts(x, min, inv, (CLIP_BINS - CLIP_BINS / 4) as f32);
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

/// Lanes of [`gate_counts`]' chunked loop.
const GATE_LANES: usize = 16;

/// How many elements of `x` are finite, and how many of those land at
/// or above bin `gate_bin` of the histogram `(v − min)·inv` bins. The
/// counts run in [`GATE_LANES`] per-lane accumulators over whole chunks
/// (a branchless body LLVM vectorizes), then the tail; integer sums, so
/// the result is exactly the one-element-at-a-time loop's.
fn gate_counts(x: &[f32], min: f32, inv: f32, gate_bin: f32) -> (u32, u32) {
    let mut n = [0u32; GATE_LANES];
    let mut top = [0u32; GATE_LANES];
    let count = |n: &mut u32, top: &mut u32, v: f32| {
        let finite = v.is_finite();
        *n += u32::from(finite);
        *top += u32::from(finite & ((v - min) * inv >= gate_bin));
    };
    let chunks = x.chunks_exact(GATE_LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for l in 0..GATE_LANES {
            count(&mut n[l], &mut top[l], chunk[l]);
        }
    }
    for (l, &v) in tail.iter().enumerate() {
        count(&mut n[l], &mut top[l], v);
    }
    (n.iter().sum(), top.iter().sum())
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
/// Rows of `CLIP_MIN_LEN` (48) or more elements get outlier-aware
/// calibration: an isolated high tail saturates to code 127 instead of
/// stretching the grid (see the module docs).
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

    /// `y = self · x` for one activation row: the row is quantized into
    /// `qa` on its own grid (plan, encode) and runs one int8 panel GEMV on
    /// the dispatched kernel set, so a row's output never depends on what
    /// was scored before it — the invariant behind int8 streaming == int8
    /// batch. `qa` grows to the padded `K` once and is then reused; bytes
    /// past `cols` are whatever an earlier call left there, and meet only
    /// zero weights.
    pub fn matvec_into(&self, x: &[f32], qa: &mut Vec<u8>, y: &mut [f32]) {
        self.score_row(KernelSet::active(), x, qa, y)
    }

    /// [`matvec_into`](Self::matvec_into) on a given kernel set: plan,
    /// encode, one panel GEMV.
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

/// One inference weight matrix at the precision its engine was built for:
/// f32 panels or int8 panels behind one `matvec_into`, so
/// [`PackedGru`] and [`PackedAutoencoder`] each have one body for both.
/// [`QuantMode`] picks the variant when the engine is built; nothing
/// switches it afterwards.
///
/// [`PackedGru`]: crate::PackedGru
/// [`PackedAutoencoder`]: crate::PackedAutoencoder
#[derive(Debug, Clone)]
pub(crate) enum PackedWeights {
    F32(PanelMatrix),
    Int8(QuantMatrix),
}

impl PackedWeights {
    pub(crate) fn pack(m: &Matrix, mode: QuantMode) -> PackedWeights {
        match mode {
            QuantMode::Off => PackedWeights::F32(PanelMatrix::pack(m)),
            QuantMode::Int8 => PackedWeights::Int8(QuantMatrix::quantize(m)),
        }
    }

    /// The same weights at `mode`. Quantizing reads the row-major values
    /// the f32 panels hold bit for bit, so the codes do not depend on the
    /// f32 layout; the way back is the (lossy) dequantized matrix.
    pub(crate) fn at(self, mode: QuantMode) -> PackedWeights {
        match (self, mode) {
            (PackedWeights::F32(p), QuantMode::Int8) => PackedWeights::pack(&p.unpack(), mode),
            (PackedWeights::Int8(q), QuantMode::Off) => PackedWeights::pack(&q.dequantize(), mode),
            (same, _) => same,
        }
    }

    pub(crate) fn mode(&self) -> QuantMode {
        match self {
            PackedWeights::F32(_) => QuantMode::Off,
            PackedWeights::Int8(_) => QuantMode::Int8,
        }
    }

    pub(crate) fn rows(&self) -> usize {
        match self {
            PackedWeights::F32(p) => p.rows,
            PackedWeights::Int8(q) => q.rows,
        }
    }

    pub(crate) fn cols(&self) -> usize {
        match self {
            PackedWeights::F32(p) => p.cols,
            PackedWeights::Int8(q) => q.cols,
        }
    }

    /// `y = self · x` for one activation row. `qa` holds the activation
    /// codes at int8 (see [`QuantMatrix::matvec_into`]) and is left alone
    /// at f32.
    pub(crate) fn matvec_into(&self, x: &[f32], qa: &mut Vec<u8>, y: &mut [f32]) {
        match self {
            PackedWeights::F32(p) => p.matvec_into(x, y),
            PackedWeights::Int8(q) => q.matvec_into(x, qa, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Row elements that stress the pre-gate's counts: NaNs, ±inf, ±0.0,
    /// subnormals, the extremes, arbitrary bit patterns and plain values.
    fn element() -> impl Strategy<Value = f32> {
        const SPECIAL: [u32; 10] = [
            0x7fc0_0000,
            0xffc0_0001,
            0x7f80_0000,
            0xff80_0000,
            0x8000_0000,
            0x0000_0000,
            0x0000_0001,
            0x807f_ffff,
            0x7f7f_ffff,
            0xff7f_ffff,
        ];
        prop_oneof![
            (0..SPECIAL.len()).prop_map(|i| f32::from_bits(SPECIAL[i])),
            any::<u32>().prop_map(f32::from_bits),
            -2.0f32..2.0,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The chunked pre-gate counts what the one-element loop counts,
        /// on rows of every length around the chunk width.
        #[test]
        fn gate_counts_match_the_scalar_loop(
            x in prop::collection::vec(element(), 0..80),
            min in -2.0f32..1.0,
            width in prop_oneof![0.5f32..4.0, Just(f32::MIN_POSITIVE), Just(1e30f32)],
        ) {
            let (inv, gate_bin) = (CLIP_BINS as f32 / width, 96.0);
            let (mut n, mut top) = (0u32, 0u32);
            for &v in &x {
                let finite = v.is_finite();
                n += u32::from(finite);
                top += u32::from(finite && (v - min) * inv >= gate_bin);
            }
            prop_assert_eq!(gate_counts(&x, min, inv, gate_bin), (n, top));
        }
    }

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
}
