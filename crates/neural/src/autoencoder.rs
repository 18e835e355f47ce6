//! Dense autoencoder trained with L1 reconstruction loss (paper Eq. 3).

use crate::dense::{Activation, Dense, DenseGrads, DenseTrace};
use crate::quant::{PackedWeights, QuantMode};
use crate::simd::KernelSet;
use crate::{Adam, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutoencoderConfig {
    /// Neuron counts per layer, input first, output last. The paper's CLAP
    /// autoencoder is 7 layers with a 345-wide input and a 40-wide
    /// bottleneck; [`AutoencoderConfig::clap_paper`] builds exactly that.
    pub layer_sizes: Vec<usize>,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    pub seed: u64,
}

impl AutoencoderConfig {
    /// The paper's CLAP autoencoder shape (Table 6): 7 layers, input 345,
    /// bottleneck 40.
    pub fn clap_paper(input: usize) -> Self {
        AutoencoderConfig {
            layer_sizes: vec![input, 192, 96, 40, 96, 192, input],
            epochs: 60,
            batch_size: 64,
            learning_rate: 1e-3,
            seed: 0xae,
        }
    }

    /// Baseline #1's smaller shape (Table 6): 3 layers, bottleneck 5.
    pub fn baseline1(input: usize) -> Self {
        AutoencoderConfig {
            layer_sizes: vec![input, 5, input],
            epochs: 300,
            batch_size: 64,
            learning_rate: 3e-3,
            seed: 0xb1,
        }
    }
}

/// A stack of dense layers trained to reproduce its input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Autoencoder {
    pub(crate) layers: Vec<Dense>,
}

/// Ping-pong activation buffers for [`Autoencoder::forward_into`] and
/// [`PackedAutoencoder`]. Reuse one per scoring session; buffers grow to
/// the largest batch (or, for the packed engine, the widest layer) seen.
#[derive(Debug, Clone, Default)]
pub struct AeWorkspace {
    bufs: [Matrix; 2],
    /// Activation codes of the row being multiplied; stays empty on an
    /// f32 engine.
    qa: Vec<u8>,
}

impl AeWorkspace {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Autoencoder {
    /// Builds the network: tanh on hidden layers, linear output.
    pub fn new(layer_sizes: &[usize], seed: u64) -> Self {
        assert!(
            layer_sizes.len() >= 3,
            "need at least input/bottleneck/output"
        );
        assert_eq!(
            layer_sizes.first(),
            layer_sizes.last(),
            "autoencoder output must match input"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = layer_sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == layer_sizes.len() {
                    Activation::Linear
                } else {
                    Activation::Tanh
                };
                Dense::new(w[0], w[1], act, &mut rng)
            })
            .collect();
        Autoencoder { layers }
    }

    /// Input dimensionality.
    pub fn input_size(&self) -> usize {
        self.layers[0].input_size()
    }

    /// Reconstruction for a batch (rows = samples).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut ws = AeWorkspace::new();
        self.forward_into(x, &mut ws).clone()
    }

    /// Batched reconstruction through ping-ponged workspace buffers: the
    /// whole GEMM chain runs with zero allocation once `ws` has grown.
    /// Returns the output buffer (valid until the next call with `ws`).
    pub fn forward_into<'w>(&self, x: &Matrix, ws: &'w mut AeWorkspace) -> &'w Matrix {
        debug_assert!(!self.layers.is_empty());
        let [a, b] = &mut ws.bufs;
        self.layers[0].forward_into(x, a);
        let mut flip = false; // output currently in `a`
        for layer in &self.layers[1..] {
            let (src, dst) = if flip { (&*b, &mut *a) } else { (&*a, &mut *b) };
            layer.forward_into(src, dst);
            flip = !flip;
        }
        if flip {
            &ws.bufs[1]
        } else {
            &ws.bufs[0]
        }
    }

    /// Mean absolute reconstruction error per row — CLAP's anomaly signal.
    pub fn reconstruction_errors(&self, x: &Matrix) -> Vec<f32> {
        let mut ws = AeWorkspace::new();
        let mut out = Vec::new();
        self.reconstruction_errors_into(x, &mut ws, &mut out);
        out
    }

    /// Allocation-free batched variant of
    /// [`reconstruction_errors`](Self::reconstruction_errors): appends one
    /// error per row of `x` to `out`.
    pub fn reconstruction_errors_into(&self, x: &Matrix, ws: &mut AeWorkspace, out: &mut Vec<f32>) {
        let y = self.forward_into(x, ws);
        let ks = KernelSet::active();
        out.reserve(x.rows);
        for r in 0..x.rows {
            let err = ks.sum_abs_diff(x.row(r), y.row(r));
            out.push(err / x.cols as f32);
        }
    }

    /// Reconstruction error for a single vector.
    pub fn reconstruction_error(&self, x: &[f32]) -> f32 {
        let m = Matrix::from_vec(1, x.len(), x.to_vec());
        self.reconstruction_errors(&m)[0]
    }

    /// Trains on `data` (rows = samples); returns the mean L1 loss per
    /// epoch.
    pub fn train(&mut self, data: &Matrix, cfg: &AutoencoderConfig) -> Vec<f32> {
        assert_eq!(data.cols, self.input_size(), "training data width mismatch");
        // Shuffling RNG decorrelated from weight-init RNG, still deterministic.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7321_9afe_11d3_0042);
        let mut opts: Vec<(Adam, Adam)> = self
            .layers
            .iter()
            .map(|l| {
                (
                    Adam::new(l.w.data.len(), cfg.learning_rate),
                    Adam::new(l.b.len(), cfg.learning_rate),
                )
            })
            .collect();

        let n = data.rows;
        let mut order: Vec<usize> = (0..n).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);

        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut total_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                let batch = gather_rows(data, chunk);
                let (loss, grads) = self.batch_grads(&batch);
                total_loss += loss as f64;
                batches += 1;
                for ((layer, (ow, ob)), g) in
                    self.layers.iter_mut().zip(opts.iter_mut()).zip(&grads)
                {
                    let (wp, bp) = layer.params_mut();
                    ow.step(wp, &g.dw.data);
                    ob.step(bp, &g.db);
                }
            }
            epoch_losses.push((total_loss / batches.max(1) as f64) as f32);
        }
        epoch_losses
    }

    /// Forward + backward for one batch under L1 loss; returns the mean
    /// loss and per-layer gradients.
    fn batch_grads(&self, batch: &Matrix) -> (f32, Vec<DenseGrads>) {
        let mut traces: Vec<DenseTrace> = Vec::with_capacity(self.layers.len());
        let mut cur = batch.clone();
        for layer in &self.layers {
            let tr = layer.forward_trace(&cur);
            cur = tr.output.clone();
            traces.push(tr);
        }
        // L1 loss: mean |out - in|; gradient = sign / (rows * cols).
        let out = &traces.last().unwrap().output;
        let scale = 1.0 / (batch.rows * batch.cols) as f32;
        let mut loss = 0.0f32;
        let mut dy = Matrix::zeros(out.rows, out.cols);
        for i in 0..out.data.len() {
            let diff = out.data[i] - batch.data[i];
            loss += diff.abs();
            dy.data[i] = diff.signum() * scale;
        }
        loss *= scale;

        let mut grads = vec![None; self.layers.len()];
        let mut grad_in = dy;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (dx, g) = layer.backward(&traces[i], grad_in);
            grads[i] = Some(g);
            grad_in = dx;
        }
        (loss, grads.into_iter().map(Option::unwrap).collect())
    }
}

/// The inference form of an [`Autoencoder`], at either precision: every
/// layer's weights packed once into output-stationary panels — f32
/// ([`crate::PanelMatrix`]) or int8 ([`crate::QuantMatrix`]), as
/// [`from_model`](Self::from_model) is told — biases and activations still
/// read from the borrowed model. Built per scorer, so build one engine per
/// scorer rather than per connection (≈700 kB of f32 panels at the paper's
/// sizes), and never cached in the trainable model, where it could go
/// stale under [`Autoencoder::train`].
///
/// A batch is scored one row at a time, each row through all layers (one
/// panel GEMV plus the dispatched bias + activation epilogue per layer;
/// at int8 each layer's f32 output row is re-quantized on its own grid, so
/// depth does not compound the activation error) before the next row
/// starts: the activations of a row never leave L1, the weights stream
/// from L2 either way, and a batched pass is bitwise the same rows scored
/// alone.
#[derive(Debug, Clone)]
pub struct PackedAutoencoder<'a> {
    model: &'a Autoencoder,
    w: Vec<PackedWeights>,
}

/// The autoencoder inference engine of a scorer: a [`PackedAutoencoder`]
/// at the precision [`from_model`](PackedAutoencoder::from_model) was
/// given.
pub type AeEngine<'a> = PackedAutoencoder<'a>;

impl<'a> PackedAutoencoder<'a> {
    /// Packs the trained autoencoder at the requested precision.
    pub fn from_model(model: &'a Autoencoder, mode: QuantMode) -> Self {
        PackedAutoencoder {
            model,
            w: model
                .layers
                .iter()
                .map(|l| PackedWeights::pack(&l.w, mode))
                .collect(),
        }
    }

    pub fn mode(&self) -> QuantMode {
        self.w[0].mode()
    }

    /// Mean absolute reconstruction error per row of `x`, appended to
    /// `out`. The comparison against the input and the L1 reduction are
    /// f32 at either precision (the error is measured against the real
    /// input, not its quantized image). Allocation-free once `ws` has
    /// grown to the widest layer.
    pub fn reconstruction_errors_into(&self, x: &Matrix, ws: &mut AeWorkspace, out: &mut Vec<f32>) {
        let ks = KernelSet::active();
        let AeWorkspace { bufs: [a, b], qa } = ws;
        let mut layer = |i: usize, src: &[f32], dst: &mut Matrix| {
            let dense = &self.model.layers[i];
            dst.resize(1, self.w[i].rows());
            self.w[i].matvec_into(src, qa, &mut dst.data);
            ks.bias_act(&mut dst.data, &dense.b, dense.activation);
        };
        out.reserve(x.rows);
        for r in 0..x.rows {
            // The references trade places, not the buffers: each buffer
            // serves the same layers row after row, so both are at their
            // final size after the first.
            let (mut cur, mut next) = (&mut *a, &mut *b);
            layer(0, x.row(r), cur);
            for i in 1..self.w.len() {
                layer(i, &cur.data, next);
                std::mem::swap(&mut cur, &mut next);
            }
            out.push(ks.sum_abs_diff(x.row(r), &cur.data) / x.cols as f32);
        }
    }
}

/// Collects the given rows of `data` into a new matrix.
pub fn gather_rows(data: &Matrix, rows: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(rows.len(), data.cols);
    for (i, &r) in rows.iter().enumerate() {
        out.row_mut(i).copy_from_slice(data.row(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic data living on a 2-D manifold inside 8-D space.
    fn manifold_data(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, 8);
        for i in 0..n {
            let a = (i as f32 * 0.7).sin();
            let b = (i as f32 * 0.3).cos();
            let row = m.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v = match j % 4 {
                    0 => a,
                    1 => b,
                    2 => a * b,
                    _ => 0.5 * a - 0.25 * b,
                };
            }
        }
        m
    }

    #[test]
    fn training_reduces_loss() {
        let data = manifold_data(256);
        let cfg = AutoencoderConfig {
            layer_sizes: vec![8, 6, 3, 6, 8],
            epochs: 40,
            batch_size: 32,
            learning_rate: 3e-3,
            seed: 5,
        };
        let mut ae = Autoencoder::new(&cfg.layer_sizes, cfg.seed);
        let losses = ae.train(&data, &cfg);
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss did not halve: {:?} -> {:?}",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    fn anomalies_score_higher_than_inliers() {
        let data = manifold_data(512);
        let cfg = AutoencoderConfig {
            layer_sizes: vec![8, 6, 2, 6, 8],
            epochs: 60,
            batch_size: 32,
            learning_rate: 3e-3,
            seed: 6,
        };
        let mut ae = Autoencoder::new(&cfg.layer_sizes, cfg.seed);
        ae.train(&data, &cfg);
        let inlier_err: f32 =
            ae.reconstruction_errors(&data).iter().sum::<f32>() / data.rows as f32;
        // Off-manifold point: break the j%4 structure.
        let anomaly = vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let anom_err = ae.reconstruction_error(&anomaly);
        assert!(
            anom_err > inlier_err * 2.0,
            "anomaly {anom_err} vs inlier {inlier_err}"
        );
    }

    #[test]
    fn reconstruction_error_nonnegative_and_finite() {
        let ae = Autoencoder::new(&[4, 3, 4], 1);
        let e = ae.reconstruction_error(&[0.1, 0.2, 0.3, 0.4]);
        assert!(e.is_finite() && e >= 0.0);
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let data = manifold_data(64);
        let cfg = AutoencoderConfig {
            layer_sizes: vec![8, 4, 8],
            epochs: 5,
            batch_size: 16,
            learning_rate: 1e-3,
            seed: 9,
        };
        let mut ae = Autoencoder::new(&cfg.layer_sizes, cfg.seed);
        ae.train(&data, &cfg);
        let json = serde_json::to_string(&ae).unwrap();
        let back: Autoencoder = serde_json::from_str(&json).unwrap();
        let x = vec![0.3f32; 8];
        assert_eq!(ae.reconstruction_error(&x), back.reconstruction_error(&x));
    }

    /// A row's error never depends on what it was batched with, at either
    /// precision (at int8 each row quantizes on its own grid).
    #[test]
    fn packed_single_rows_match_batch_bitwise() {
        let ae = Autoencoder::new(&[12, 7, 4, 7, 12], 3);
        let x = Matrix::from_fn(5, 12, |r, c| ((r * 12 + c) as f32 * 0.23).sin());
        for mode in [QuantMode::Off, QuantMode::Int8] {
            let engine = AeEngine::from_model(&ae, mode);
            assert_eq!(engine.mode(), mode);
            let mut ws = AeWorkspace::new();
            let mut batch = Vec::new();
            engine.reconstruction_errors_into(&x, &mut ws, &mut batch);
            assert_eq!(batch.len(), 5);
            for (r, &expected) in batch.iter().enumerate() {
                let row = Matrix::from_vec(1, 12, x.row(r).to_vec());
                let mut single = Vec::new();
                engine.reconstruction_errors_into(&row, &mut ws, &mut single);
                assert_eq!(
                    single[0], expected,
                    "{mode:?} row {r}: 1-row pass != batched"
                );
            }
        }
    }

    /// The packed engine is the trained network, not a different function:
    /// f32 panels within float reassociation of the row-major reference,
    /// int8 within quantization noise of it.
    #[test]
    fn packed_tracks_reference_reconstruction() {
        let ae = Autoencoder::new(&[16, 8, 16], 7);
        let x = Matrix::from_fn(6, 16, |r, c| ((r * 16 + c) as f32 * 0.31).cos() * 0.9);
        let reference = ae.reconstruction_errors(&x);
        for (mode, tol) in [(QuantMode::Off, 1e-6), (QuantMode::Int8, 0.02)] {
            let mut ws = AeWorkspace::new();
            let mut packed = Vec::new();
            AeEngine::from_model(&ae, mode).reconstruction_errors_into(&x, &mut ws, &mut packed);
            for (a, b) in reference.iter().zip(&packed) {
                assert!((a - b).abs() < tol, "{mode:?}: reference {a} vs packed {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "output must match input")]
    fn mismatched_shape_rejected() {
        let _ = Autoencoder::new(&[8, 4, 7], 0);
    }
}
