//! A small, pure-Rust neural-network library for the CLAP reproduction.
//!
//! The paper's models are deliberately compact (Table 6): a single-layer
//! GRU with 32 hidden units for connection-state prediction, and a 7-layer
//! dense autoencoder (345 → 40 → 345) for context-profile density
//! estimation. This crate implements exactly the pieces those models need,
//! from scratch:
//!
//! * [`Matrix`] — row-major `f32` matrices with the three GEMM variants
//!   training requires, each one register-blocked kernel call;
//! * [`PanelMatrix`] — the same weights packed as output-stationary panels
//!   for the f32 inference engines;
//! * [`GruCell`] / [`GruClassifier`] — a gated recurrent unit with full
//!   backpropagation through time, exposing per-timestep **update and reset
//!   gate activations** (CLAP's inter-packet context features);
//! * [`Autoencoder`] — dense autoencoder trained with L1 reconstruction
//!   loss (paper Eq. 3);
//! * [`Adam`] — the Adam optimizer;
//! * losses ([`softmax_cross_entropy`]) and activations.
//!
//! Every gradient is verified against central finite differences in the
//! test suite. Models serialize with serde for the persistence arrows in
//! the paper's Figure 2/3 pipeline.
//!
//! # The fused inference engine
//!
//! Training wants per-step intermediates; scoring wants throughput. The
//! crate therefore keeps two forward implementations over one weight
//! layout and proves them equivalent in the test suite:
//!
//! * **Reference path** — [`GruCell::forward`] / [`Autoencoder::forward`]:
//!   row-major [`Matrix`] GEMMs, used by training, by the small baseline
//!   autoencoders and as the oracle in equivalence tests. The GRU runs a
//!   whole sequence's input side as one GEMM and each step's recurrent
//!   side as a one-row product, on the gate-stacked weights the fused
//!   path packs.
//! * **Fused path** — the inference engines, [`PackedGru`] (alias
//!   [`GruEngine`]) and [`PackedAutoencoder`] (alias [`AeEngine`]). Each
//!   is **one body for both precisions**: precision is a property of the
//!   packed weight matrix (f32 [`PanelMatrix`] or int8 [`QuantMatrix`]),
//!   fixed by the [`QuantMode`] the engine is built with — f32 unless the
//!   caller asks for int8 — and everything around the matvec (biases,
//!   gates, activations, the error reduction) is f32 either way. The
//!   pieces:
//!   * *Packed gates* ([`PackedGru`]): the cell's `[Wz; Wr; Wn]` (`3H×I`)
//!     and `[Uz; Ur; Un]` (`3H×H`), packed as they are stored, so each
//!     step's input side and recurrent side are one fused matvec each.
//!   * *Weight panels* ([`PanelMatrix`], [`QuantMatrix`]): every inference
//!     weight matrix is repacked once per scorer into output-stationary
//!     panels — at f32 `[row block of 16][k][output lane]`, 64-byte-aligned
//!     lines, rows zero-padded to whole blocks — and **one kernel per
//!     precision** sits under every inference product, each taking one
//!     activation row: the f32 panel GEMV ([`KernelSet::panel_gemv_f32`])
//!     and the int8 panel GEMV ([`KernelSet::panel_gemv_i8`]). Each
//!     broadcasts one activation (four, at int8) per `k` against a block
//!     of outputs, so each output lane owns one accumulator, with no
//!     horizontal reduction, no k-tail and one sequential aligned weight
//!     stream per block. The packing is never
//!     cached inside a trainable model (it could go stale under `train`);
//!     the row-major [`Matrix`] stays the source of truth.
//!   * *Resumable stepping* ([`PackedGru::step`] + [`GruStepScratch`]):
//!     one timestep at a time with the hidden state carried by the caller,
//!     so a scorer persists an `H`-float state per live flow and advances
//!     it as packets arrive. This is the only way a sequence runs — an
//!     offline scorer loops it over a connection — which is what makes
//!     online scores match offline ones exactly.
//!   * *One row per window* ([`PackedAutoencoder`] + [`AeWorkspace`]):
//!     a stream scores each packet's stacked window as the packet arrives,
//!     so the autoencoder takes one row through all its layers, one panel
//!     GEMV a layer, and its activations stay in L1. A batch is a loop of
//!     such rows, so a row's result never depends on the rows around it.
//!   * *Scratch* ([`GruStepScratch`], [`AeWorkspace`]): grow-only,
//!     flow-independent buffers threaded through the hot path (the
//!     projections of the current step, the activations of the current
//!     rows and, at int8, their activation codes); steady-state inference
//!     performs zero heap allocation.
//!
//! # Threads
//!
//! Training is the one part of the crate that runs threads of its own.
//! [`Autoencoder::train`], [`GruClassifier::train`] and
//! [`GruClassifier::accuracy`] run on *training lanes*: the calling thread
//! plus `rayon::current_num_threads() − 1` helpers, spawned when the call
//! starts and joined before it returns, so no thread outlives a `train()`
//! and scoring never shares a core with one. Inside
//! `rayon::ThreadPool::install` the pool's size is the lane count
//! (`install(1)` trains on the calling thread alone); on a rayon worker it
//! is one. There is no other knob. Between the phases of a batch the
//! helpers spin, then yield, and never park: a wake-up costs about a
//! millisecond on an idle virtual CPU, and a phase is shorter than that.
//!
//! The lane count never shows in a result. Every activation, gradient and
//! Adam update is computed by exactly one lane, with the chain of
//! operations it has on one, and lanes claim their units of work one at a
//! time from a shared counter:
//!
//! * An autoencoder batch splits twice. Blocks of batch rows run the
//!   forward pass, the L1 gradient and every layer's row half of backward
//!   ([`Dense::forward_rows`], [`Dense::backward_rows`]), with no sync
//!   between layers. Then blocks of each layer's output neurons form their
//!   rows of `dW` and their `db` ([`Dense::param_grads`]) and apply their
//!   slice of the layer's Adam step, while the caller sums the loss in row
//!   order.
//! * A GRU batch runs one sequence per unit, each into its own gradient
//!   slot, and the caller sums the slots in batch order.
//!
//! An autoencoder unit carries at least about half a million
//! multiply-adds, so a small layer is one unit and a small model's row
//! phase (Baseline #1's, Kitsune's) is one unit, which runs on the caller
//! without waking anyone. How the units fall never changes a bit.
//!
//! Trained weights are therefore a pure function of the data, the config
//! and the kernel set. `tests/lanes.rs` trains on 1 to 4 lanes and compares
//! the bits; the workspace's end-to-end suite pins a hash of the
//! benchmark's trained model on one lane and on the default count.
//!
//! # Kernel dispatch
//!
//! The dense inner loops — the f32 and the int8 panel GEMV of
//! the inference engines, the training GEMMs behind [`Matrix`] (the nt-GEMM
//! [`simd::KernelSet::gemm_nt_f32`] of the forward pass and of
//! [`Matrix::matvec_into`], the rank-update GEMM
//! [`simd::KernelSet::gemm_rank_f32`] of both backward products, each
//! defined by the arithmetic its doc states), the fused GRU gate block, the dense bias+activation epilogue and the
//! autoencoder's L1 error reduction — are function pointers in a
//! [`simd::KernelSet`], selected **once per process**:
//!
//! * **Feature detection.** [`simd::KernelSet::active`] probes the CPU
//!   with `is_x86_feature_detected!` and picks the widest supported set:
//!   `avx512vnni` (AVX-512F+BW+VNNI — adds the `vpdpbusd` int8 GEMV) →
//!   `avx512` (AVX-512F, 16-lane) → `avx2` (AVX2+FMA, 8-lane) →
//!   `scalar`. The SIMD sets are explicit `std::arch::x86_64` intrinsic
//!   kernels, so vectorized builds no longer depend on
//!   `-C target-cpu=native`; non-x86 targets always get the scalar set.
//! * **Override.** `NEURAL_KERNELS=scalar|avx2|avx512|avx512vnni` pins a
//!   specific set — the only environment variable this workspace's
//!   libraries read. A set the CPU lacks falls back to the ladder (so
//!   the AVX2 path can be run on an AVX-512 machine and the same CI leg
//!   on any runner); any other value panics on first dispatch, naming
//!   the four. CI runs the whole suite once under `scalar` and once
//!   under `avx2`. Tests can also fetch a specific set
//!   ([`simd::KernelSet::scalar`], `avx2()`, `avx512()`,
//!   `avx512vnni()`) and call its kernels directly without affecting
//!   the process-wide choice.
//! * **Adding an ISA.** Implement the ten kernel functions
//!   (gemm_nt_f32, gemm_rank_f32, bias_act, gru_gates, sum_abs_diff,
//!   panel_gemv_f32, plus the int8 kernels panel_gemv_i8, act_range,
//!   act_encode and act_decode) for the new instruction set — one one-row
//!   panel kernel per precision, `panel_gemv_f32` and `panel_gemv_i8`; the
//!   f32 and int8 weight panels are each one layout for every set, so a
//!   new panel kernel reads the bytes the others read, and the two
//!   training GEMMs must keep their documented contracts (an nt-GEMM
//!   output depends only on its own rows of `A` and `B`, a rank-GEMM
//!   output is its stated multiply-add chain) — add a `static`
//!   `KernelSet` naming them, and
//!   extend the `select()` ladder in `simd.rs` behind the right
//!   `is_x86_feature_detected!`/`cfg` guard. The property tests in
//!   `tests/proptests.rs` automatically cover any set reported by
//!   [`simd::KernelSet::available`], pinning it to the scalar reference
//!   within 1e-6 across randomized (including non-multiple-of-lane)
//!   shapes, and its training GEMMs to their contracts bitwise.
//!
//! SIMD results may differ from the scalar reference by float
//! reassociation, fused multiply-adds and the polynomial `exp` used for
//! vectorized sigmoid/tanh; all are bounded to 1e-6 by the test suite (the
//! f32 panel GEMV runs the same per-lane FMA chain on avx2 and avx512, so
//! those two agree bitwise). Within one kernel set results are
//! deterministic, and a batch is a loop of single rows, so a row of a
//! batch is bitwise that row scored alone — which is what keeps streaming
//! (step-at-a-time) scoring exactly equal to batched scoring.
//!
//! # Int8 quantized inference (`quant`)
//!
//! The [`quant`] module runs the same inference mathematics on int8
//! weights with i32 accumulation — the last large single-core lever after
//! fusion and SIMD, since the autoencoder's f32 weights dominate both the
//! FLOPs (≈176k MACs/packet at Table-6 sizes) and the working set.
//!
//! * **Row-scale scheme.** Weights quantize per *output row*, symmetric:
//!   `q = round(w / s_r)`, `s_r = max|row| / 127` ([`QuantMatrix`]), so
//!   each row spends its full int8 range regardless of other rows.
//!   Activations quantize per GEMV call to 7-bit unsigned over the row's
//!   empirical `[min, max]` (asymmetric — one-sided data like profile
//!   features and gate activations in `[0, 1]` gets double resolution);
//!   the offset folds back through precomputed row sums at dequant time.
//!   Both scan/encode steps are themselves `KernelSet` kernels.
//! * **Saturation behavior.** Activation codes are confined to `0..=127`
//!   and weights to `-127..=127`, which bounds every `maddubs` i16
//!   pair-sum by 2·127·127 = 32258 < 32767: saturation is unreachable by
//!   construction, so the i32 accumulators are exact and **every kernel
//!   tier returns bit-identical results** (integer addition has no
//!   reassociation drift). The proptests pin SIMD == scalar with `==`,
//!   not a tolerance. Outliers cannot saturate the accumulators either.
//! * **The int8 ladder.** One kernel sits under every quantized matvec
//!   — the panel GEMV, in the same dispatched [`KernelSet`]:
//!   `avx512vnni` (`vpdpbusd`, u8×i8 quads straight into i32 lanes) →
//!   `avx512` and `avx2` (both the 256-bit `maddubs` + `madd` kernel) →
//!   scalar. [`QuantMatrix`] stores its codes as output-stationary
//!   panels (`[row block][k-quad][output lane][4 consecutive k]`), so a
//!   matvec is plan → encode → one GEMV in which every output lane owns
//!   an i32 accumulator: no horizontal reduction, no k-tail, one
//!   sequential weight stream. `benchmark/` is the record of what that
//!   is worth end to end (CHANGES.md, PR 13).
//! * **Engine selection.** Every default is f32 ([`QuantMode::Off`]); a
//!   scorer runs int8 when the caller that builds it passes
//!   [`QuantMode::Int8`], which packs the very same engines over
//!   [`QuantMatrix`] weights. Per-row activation quantization keeps a row
//!   of a batch bitwise that row scored alone, so the batch/sharded
//!   equivalence guarantees hold at either precision.

pub mod adam;
pub mod autoencoder;
pub mod classifier;
pub mod dense;
pub mod gru;
mod lanes;
pub mod matrix;
pub mod panel;
pub mod quant;
pub mod simd;

pub use adam::Adam;
pub use autoencoder::{AeEngine, AeWorkspace, Autoencoder, AutoencoderConfig, PackedAutoencoder};
pub use classifier::{GruClassifier, GruClassifierConfig, TrainReport};
pub use dense::Dense;
pub use gru::{GruCell, GruEngine, GruStepScratch, GruTrace, PackedGru};
pub use matrix::Matrix;
pub use panel::PanelMatrix;
pub use quant::{
    dequantize_activations_into, quantize_activations, ActQuant, QuantMatrix, QuantMode,
};
pub use simd::KernelSet;

/// Numerically-stable softmax over a slice, in place.
pub fn softmax_inplace(logits: &mut [f32]) {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in logits.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum.max(f32::MIN_POSITIVE);
    for v in logits.iter_mut() {
        *v *= inv;
    }
}

/// Softmax + cross-entropy against a one-hot target class.
///
/// Returns the loss and overwrites `logits` with its gradient
/// `softmax(logits) - onehot`.
pub fn softmax_cross_entropy(logits: &mut [f32], target: usize) -> f32 {
    softmax_inplace(logits);
    let loss = -logits[target].max(1e-12).ln();
    logits[target] -= 1.0;
    loss
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        softmax_inplace(&mut v);
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn softmax_handles_large_logits() {
        let mut v = vec![1000.0, 1001.0];
        softmax_inplace(&mut v);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_shape() {
        let mut grad = [0.0, 0.0, 10.0];
        let loss = softmax_cross_entropy(&mut grad, 2);
        assert!(loss < 0.01);
        assert!(grad[2] < 0.0); // pushes the target logit up
        assert!(grad[0] > 0.0 && grad[1] > 0.0);
        let sum: f32 = grad.iter().sum();
        assert!(sum.abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_wrong_prediction_is_costly() {
        let loss = softmax_cross_entropy(&mut [10.0, 0.0], 1);
        assert!(loss > 5.0);
    }

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(20.0) > 0.999);
        assert!(sigmoid(-20.0) < 0.001);
    }
}
