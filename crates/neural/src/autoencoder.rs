//! Dense autoencoder trained with L1 reconstruction loss (paper Eq. 3).

use crate::adam::AdamStep;
use crate::dense::{Activation, Dense, DenseGrads};
use crate::lanes::{self, Block, Board, Lanes, Table};
use crate::quant::{PackedWeights, QuantMode};
use crate::simd::KernelSet;
use crate::{Adam, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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
/// the largest batch (or, for the packed engine, one row of the widest
/// layer) seen.
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

    /// The dense layers, input side first.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
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

    /// Trains on `data` (rows = samples); returns the mean L1 loss per
    /// epoch. Every batch runs through one private workspace — the gathered
    /// batch, each layer's output and gradient, the parameter gradients —
    /// so only the first batch allocates.
    ///
    /// A batch runs on the training lanes (`rayon::current_num_threads()`
    /// of them, for this call only) in two phases, each output written by
    /// one lane with the chain of operations it has on one: blocks of
    /// batch rows run the forward pass, the L1 gradient and the row half
    /// of every layer's backward pass; then blocks of each layer's output
    /// neurons form their rows of `dW`, their `db` and their Adam update,
    /// while the caller sums the loss in row order. The weights are
    /// therefore bitwise the same on any number of lanes.
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
        let mut ws = TrainWorkspace::new(&self.layers);

        lanes::scope(|lanes| {
            for _ in 0..cfg.epochs {
                order.shuffle(&mut rng);
                let mut total_loss = 0.0f64;
                let mut batches = 0usize;
                for chunk in order.chunks(cfg.batch_size.max(1)) {
                    ws.batch.resize(chunk.len(), data.cols);
                    for (dst, &r) in ws.batch.data.chunks_exact_mut(data.cols).zip(chunk) {
                        dst.copy_from_slice(data.row(r));
                    }
                    total_loss += self.train_batch(lanes, &mut opts, &mut ws) as f64;
                    batches += 1;
                }
                epoch_losses.push((total_loss / batches.max(1) as f64) as f32);
            }
        });
        epoch_losses
    }

    /// One optimizer step on the batch in `ws.batch` under L1 loss; returns
    /// the batch's mean loss.
    fn train_batch(
        &mut self,
        lanes: &Lanes,
        opts: &mut [(Adam, Adam)],
        ws: &mut TrainWorkspace,
    ) -> f32 {
        let TrainWorkspace {
            batch,
            acts,
            dys,
            grads,
            steps,
            table,
        } = ws;
        let (rows, cols) = (batch.rows, batch.cols);
        let depth = self.layers.len();
        for ((layer, a), d) in self.layers.iter().zip(&mut *acts).zip(&mut *dys) {
            a.resize(rows, layer.output_size());
            d.resize(rows, layer.output_size());
        }
        // L1 loss: mean |out - in|; gradient = sign / (rows * cols).
        let scale = 1.0 / (rows * cols) as f32;

        // Row phase. Parts `0..depth` are the layers' outputs, `depth..` the
        // gradients at their pre-activations.
        let row_macs: usize = self
            .layers
            .iter()
            .map(|l| 2 * l.w.data.len())
            .sum::<usize>()
            - self.layers[0].w.data.len();
        let mut board = Board::new(table);
        board.group(rows, block(ROW_BLOCK, row_macs));
        for m in acts.iter_mut().chain(dys.iter_mut()) {
            board.part(&mut m.data, m.cols);
        }
        let layers = &self.layers;
        let input = |r: Range<usize>| &batch.data[r.start * cols..r.end * cols];
        let row_phase = |mut blk: Block| {
            let x = input(blk.rows());
            let [y] = blk.parts([0]);
            layers[0].forward_rows(x, y);
            for (i, layer) in layers.iter().enumerate().skip(1) {
                let [x, y] = blk.parts([i - 1, i]);
                layer.forward_rows(x, y);
            }
            let [out, dy] = blk.parts([depth - 1, 2 * depth - 1]);
            for ((d, &o), &x) in dy.iter_mut().zip(&*out).zip(x) {
                *d = (o - x).signum() * scale;
            }
            // The first layer's input gradient has no reader: it is not
            // formed.
            for (i, layer) in layers.iter().enumerate().rev() {
                if i == 0 {
                    let [y, dy] = blk.parts([0, depth]);
                    layer.backward_rows(y, dy, None);
                } else {
                    let [y, dy, dx] = blk.parts([i, depth + i, depth + i - 1]);
                    layer.backward_rows(y, dy, Some(dx));
                }
            }
        };
        lanes.each_block(&board, row_phase, || {});

        // Parameter phase: one group per layer, whose parts are the
        // weights, their gradient and Adam moments, then the same for the
        // biases.
        steps.clear();
        steps.extend(opts.iter_mut().map(|(ow, ob)| (ow.tick(), ob.tick())));
        let mut board = Board::new(table);
        for ((layer, (ow, ob)), g) in self.layers.iter_mut().zip(opts).zip(&mut *grads) {
            let (out, width) = (layer.output_size(), layer.input_size());
            let Dense { w, b, .. } = layer;
            let (mw, vw) = ow.moments_mut();
            let (mb, vb) = ob.moments_mut();
            board.group(out, block(PARAM_BLOCK, (rows + ADAM_MACS) * width));
            for (buf, width) in [
                (&mut w.data[..], width),
                (&mut g.dw.data[..], width),
                (mw, width),
                (vw, width),
                (&mut b[..], 1),
                (&mut g.db[..], 1),
                (mb, 1),
                (vb, 1),
            ] {
                board.part(buf, width);
            }
        }
        let (acts, dys, steps) = (&*acts, &*dys, &*steps);
        let param_phase = |mut blk: Block| {
            let (l, outs) = (blk.group(), blk.rows());
            let x = if l == 0 {
                &batch.data
            } else {
                &acts[l - 1].data
            };
            let dy = &dys[l];
            let [w, dw, mw, vw, b, db, mb, vb] = blk.parts([0, 1, 2, 3, 4, 5, 6, 7]);
            Dense::param_grads(x, &dy.data, dy.cols, outs, dw, db);
            let (sw, sb) = steps[l];
            sw.apply(w, dw, mw, vw);
            sb.apply(b, db, mb, vb);
        };
        let mut loss = 0.0f32;
        lanes.each_block(&board, param_phase, || {
            for (&o, &x) in acts[depth - 1].data.iter().zip(&batch.data) {
                loss += (o - x).abs();
            }
        });
        loss * scale
    }
}

/// Batch rows per unit of the row phase, at least: a unit runs all layers,
/// so a block streams every weight from L2 twice; 8 rows measured as fast
/// as a whole 64-row batch on one lane, and gives two lanes 8 units of a
/// 64-row batch to share.
const ROW_BLOCK: usize = 8;

/// Output neurons per unit of the parameter phase, at least: four of the
/// rank-update GEMM's 4-row tiles, so a unit's rows of `dW` end on a whole
/// tile.
const PARAM_BLOCK: usize = 16;

/// Multiply-adds a unit carries, at least: a unit another lane runs costs
/// a claim and the cache lines of its rows, which must stay a small part
/// of it. Below this a small layer, or a whole small model, is one unit a
/// phase — and a phase of one unit runs on the caller.
const UNIT_MACS: usize = 1 << 19;

/// What an Adam update of one parameter costs, in multiply-adds: three
/// divisions and a square root.
const ADAM_MACS: usize = 40;

/// Rows a unit takes: `min`, or more when a row costs less than
/// `UNIT_MACS / min` multiply-adds. The split never changes a bit.
fn block(min: usize, row_macs: usize) -> usize {
    min.max(UNIT_MACS.div_ceil(row_macs.max(1)))
}

/// The buffers one training batch runs through, sized by the first batch
/// and reused by every later one.
#[derive(Debug)]
struct TrainWorkspace {
    /// The batch's rows, gathered from the training data.
    batch: Matrix,
    /// Each layer's activated output — the next layer's input.
    acts: Vec<Matrix>,
    /// The loss gradient at each layer's pre-activation.
    dys: Vec<Matrix>,
    /// Each layer's parameter gradients.
    grads: Vec<DenseGrads>,
    /// Each layer's weight and bias Adam update for this batch.
    steps: Vec<(AdamStep, AdamStep)>,
    /// The lanes' table of the buffers a phase splits.
    table: Table,
}

impl TrainWorkspace {
    fn new(layers: &[Dense]) -> Self {
        TrainWorkspace {
            batch: Matrix::default(),
            acts: vec![Matrix::default(); layers.len()],
            dys: vec![Matrix::default(); layers.len()],
            grads: layers
                .iter()
                .map(|l| DenseGrads {
                    dw: Matrix::zeros(l.output_size(), l.input_size()),
                    db: vec![0.0; l.output_size()],
                })
                .collect(),
            steps: Vec::with_capacity(layers.len()),
            table: Table::default(),
        }
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
/// A row is scored alone, through all layers before the next row starts:
/// per layer one panel GEMV — f32, or int8 on an activation row
/// re-quantized on its own grid so depth does not compound the activation
/// error — then the dispatched bias + activation epilogue. Activations
/// never leave L1, and a batch is a loop of single rows: a row's error
/// does not depend on the rows around it.
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
        out.reserve(x.rows);
        for r in 0..x.rows {
            // The references trade places, not the buffers: each buffer
            // serves the same layers row after row.
            let (mut cur, mut next) = (&mut *a, &mut *b);
            let mut src = x.row(r);
            for (w, dense) in self.w.iter().zip(&self.model.layers) {
                next.resize(1, w.rows());
                w.matvec_into(src, qa, &mut next.data);
                ks.bias_act(&mut next.data, &dense.b, dense.activation);
                std::mem::swap(&mut cur, &mut next);
                src = &cur.data;
            }
            out.push(ks.sum_abs_diff(x.row(r), src) / x.cols as f32);
        }
    }
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
        let anomaly = Matrix::from_vec(1, 8, vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
        let anom_err = ae.reconstruction_errors(&anomaly)[0];
        assert!(
            anom_err > inlier_err * 2.0,
            "anomaly {anom_err} vs inlier {inlier_err}"
        );
    }

    #[test]
    fn reconstruction_error_nonnegative_and_finite() {
        let ae = Autoencoder::new(&[4, 3, 4], 1);
        let e = ae.reconstruction_errors(&Matrix::from_vec(1, 4, vec![0.1, 0.2, 0.3, 0.4]));
        assert!(e[0].is_finite() && e[0] >= 0.0);
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
        let x = Matrix::from_vec(1, 8, vec![0.3f32; 8]);
        assert_eq!(ae.reconstruction_errors(&x), back.reconstruction_errors(&x));
    }

    /// A row's error never depends on what it was batched with, at either
    /// precision (a batch is a loop of 1-row passes, and at int8 each row
    /// quantizes on its own grid): at the paper's shape, for batches of
    /// 1..=9 rows, with zero features and an all-zero row among them.
    #[test]
    fn packed_single_rows_match_batch_bitwise() {
        let ae = Autoencoder::new(&[345, 192, 96, 40, 96, 192, 345], 3);
        let x = Matrix::from_fn(9, 345, |r, c| match (r, (r + c) % 3) {
            (4, _) | (_, 0) => 0.0,
            _ => ((r * 345 + c) as f32 * 0.23).sin(),
        });
        for mode in [QuantMode::Off, QuantMode::Int8] {
            let engine = AeEngine::from_model(&ae, mode);
            assert_eq!(engine.mode(), mode);
            let mut ws = AeWorkspace::new();
            let single: Vec<u32> = (0..x.rows)
                .map(|r| {
                    let mut err = Vec::new();
                    let row = Matrix::from_vec(1, 345, x.row(r).to_vec());
                    engine.reconstruction_errors_into(&row, &mut ws, &mut err);
                    err[0].to_bits()
                })
                .collect();
            for rows in 1..=x.rows {
                let batch_x = Matrix::from_vec(rows, 345, x.data[..rows * 345].to_vec());
                let mut batch = Vec::new();
                engine.reconstruction_errors_into(&batch_x, &mut ws, &mut batch);
                let batch: Vec<u32> = batch.iter().map(|e| e.to_bits()).collect();
                assert_eq!(
                    batch,
                    single[..rows],
                    "{mode:?}: {rows}-row batch != 1-row passes"
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
