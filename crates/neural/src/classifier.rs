//! GRU sequence classifier: per-timestep state prediction (paper §3.3(a)).
//!
//! The classifier is trained to predict, for every packet in a connection,
//! the reference TCP state label (22 classes). The classification output is
//! only a *training vehicle* — what CLAP actually consumes downstream are
//! the gate activations in the [`GruTrace`].

use crate::gru::{GruGrads, PackedGru};
use crate::lanes;
use crate::matrix::vecops;
use crate::{softmax_cross_entropy, softmax_inplace, Adam, GruCell, GruTrace, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for training the state-prediction RNN.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruClassifierConfig {
    pub input: usize,
    pub hidden: usize,
    pub classes: usize,
    pub epochs: usize,
    /// Sequences per optimizer step.
    pub batch_size: usize,
    pub learning_rate: f32,
    pub seed: u64,
}

impl GruClassifierConfig {
    /// The paper's RNN shape (Table 6): input 32, hidden (= gate size) 32,
    /// one layer.
    pub fn clap_paper(classes: usize) -> Self {
        GruClassifierConfig {
            input: 32,
            hidden: 32,
            classes,
            epochs: 30,
            batch_size: 16,
            learning_rate: 3e-3,
            seed: 0x6e0,
        }
    }
}

/// Per-epoch training metrics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainReport {
    pub epoch_loss: Vec<f32>,
    pub epoch_accuracy: Vec<f32>,
}

/// GRU + linear softmax head over every timestep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruClassifier {
    pub cell: GruCell,
    /// Output head weights, `classes × hidden`.
    pub wo: Matrix,
    pub bo: Vec<f32>,
}

/// One training sequence: inputs per timestep and a class label per
/// timestep.
pub type LabeledSequence = (Vec<Vec<f32>>, Vec<usize>);

impl GruClassifier {
    pub fn new(cfg: &GruClassifierConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        GruClassifier {
            cell: GruCell::new(cfg.input, cfg.hidden, &mut rng),
            wo: Matrix::xavier(cfg.classes, cfg.hidden, &mut rng),
            bo: vec![0.0; cfg.classes],
        }
    }

    pub fn hidden_size(&self) -> usize {
        self.cell.hidden_size()
    }

    /// Runs the GRU over a sequence; the trace carries the gate activations
    /// CLAP fuses into context profiles. Borrows the rows — no cloning of
    /// caller feature storage is required.
    pub fn trace<S: AsRef<[f32]>>(&self, xs: &[S]) -> GruTrace {
        self.cell.forward(xs)
    }

    /// Gate-packed copy of the recurrent weights for the fused inference
    /// path; build once per scoring session and reuse.
    pub fn packed(&self) -> PackedGru {
        PackedGru::pack(&self.cell)
    }

    /// Class logits for one hidden state.
    pub fn logits(&self, h: &[f32]) -> Vec<f32> {
        let mut out = self.wo.matvec(h);
        vecops::add_assign(&mut out, &self.bo);
        out
    }

    /// Predicted class per timestep.
    pub fn predict<S: AsRef<[f32]>>(&self, xs: &[S]) -> Vec<usize> {
        let trace = self.trace(xs);
        trace
            .hs
            .iter()
            .map(|h| {
                let mut l = self.logits(h);
                softmax_inplace(&mut l);
                argmax(&l)
            })
            .collect()
    }

    /// Mean loss + gradient contribution of one sequence.
    fn sequence_grads<S: AsRef<[f32]>>(&self, xs: &[S], labels: &[usize]) -> SequenceGrads {
        debug_assert_eq!(xs.len(), labels.len());
        let trace = self.trace(xs);
        let hidden = self.hidden_size();
        let mut dwo = Matrix::zeros(self.wo.rows, self.wo.cols);
        let mut dbo = vec![0.0f32; self.bo.len()];
        let mut dhs = vec![vec![0.0f32; hidden]; trace.len()];
        let mut loss = 0.0f32;
        let mut correct = 0usize;
        for t in 0..trace.len() {
            let logits = self.logits(&trace.hs[t]);
            if argmax(&logits) == labels[t] {
                correct += 1;
            }
            let (l, dlogits) = softmax_cross_entropy(&logits, labels[t]);
            loss += l;
            dwo.add_outer(&dlogits, &trace.hs[t], 1.0);
            vecops::add_assign(&mut dbo, &dlogits);
            dhs[t] = self.wo.matvec_t(&dlogits);
        }
        let grads = self.cell.backward(&trace, &dhs, None);
        (loss, correct, grads, dwo, dbo)
    }

    /// Trains on labelled sequences. The sequences of a mini-batch run on
    /// the training lanes (`rayon::current_num_threads()` of them, for
    /// this call only), each into its own slot, and the slots are summed
    /// in batch order on the caller — so the weights are bitwise the same
    /// on any number of lanes. Sequences may borrow their rows
    /// (`Vec<&[f32]>`) — feature storage is not cloned.
    pub fn train<S: AsRef<[f32]> + Sync>(
        &mut self,
        data: &[(Vec<S>, Vec<usize>)],
        cfg: &GruClassifierConfig,
    ) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0054_8111);
        let mut report = TrainReport::default();

        let mut cell_opts: Vec<Adam> = {
            let dummy = GruGrads::zeros(cfg.input, cfg.hidden);
            let sizes = [
                dummy.dwz.data.len(),
                dummy.duz.data.len(),
                dummy.dbz.len(),
                dummy.dwr.data.len(),
                dummy.dur.data.len(),
                dummy.dbr.len(),
                dummy.dwn.data.len(),
                dummy.dun.data.len(),
                dummy.dbn.len(),
            ];
            sizes
                .iter()
                .map(|&s| Adam::new(s, cfg.learning_rate))
                .collect()
        };
        let mut wo_opt = Adam::new(self.wo.data.len(), cfg.learning_rate);
        let mut bo_opt = Adam::new(self.bo.len(), cfg.learning_rate);

        let batch_size = cfg.batch_size.max(1);
        let mut slots: Vec<Option<SequenceGrads>> = vec![None; batch_size.min(data.len())];
        let mut order: Vec<usize> = (0..data.len()).collect();
        lanes::scope(|lanes| {
            for _ in 0..cfg.epochs {
                order.shuffle(&mut rng);
                let mut epoch_loss = 0.0f64;
                let mut epoch_steps = 0usize;
                let mut epoch_correct = 0usize;

                for chunk in order.chunks(batch_size) {
                    let this = &*self;
                    lanes.each_mut(&mut slots[..chunk.len()], |j, slot| {
                        let (xs, labels) = &data[chunk[j]];
                        *slot = (!xs.is_empty()).then(|| this.sequence_grads(xs, labels));
                    });
                    let mut acc = GruGrads::zeros(cfg.input, cfg.hidden);
                    let mut dwo = Matrix::zeros(self.wo.rows, self.wo.cols);
                    let mut dbo = vec![0.0f32; self.bo.len()];
                    let mut steps = 0usize;
                    for (l, c, g, dw, db) in slots.iter_mut().filter_map(Option::take) {
                        epoch_loss += l as f64;
                        epoch_correct += c;
                        acc.add_assign(&g);
                        dwo.add_assign(&dw);
                        vecops::add_assign(&mut dbo, &db);
                        steps += 1;
                    }
                    if steps == 0 {
                        continue;
                    }
                    // Normalize by the number of sequences in the batch.
                    let scale = 1.0 / steps as f32;
                    acc.scale(scale);
                    dwo.scale(scale);
                    dbo.iter_mut().for_each(|v| *v *= scale);
                    epoch_steps += chunk.iter().map(|&i| data[i].0.len()).sum::<usize>();

                    for (opt, (param, grad)) in
                        cell_opts.iter_mut().zip(self.cell.param_grad_pairs(&acc))
                    {
                        opt.step(param, grad);
                    }
                    wo_opt.step(&mut self.wo.data, &dwo.data);
                    bo_opt.step(&mut self.bo, &dbo);
                }

                report
                    .epoch_loss
                    .push((epoch_loss / epoch_steps.max(1) as f64) as f32);
                report
                    .epoch_accuracy
                    .push(epoch_correct as f32 / epoch_steps.max(1) as f32);
            }
        });
        report
    }

    /// Per-timestep accuracy over a labelled evaluation set; the sequences
    /// run on the lanes `train` uses.
    pub fn accuracy<S: AsRef<[f32]> + Sync>(&self, data: &[(Vec<S>, Vec<usize>)]) -> f32 {
        let mut counts = vec![0usize; data.len()];
        lanes::scope(|lanes| {
            lanes.each_mut(&mut counts, |i, correct| {
                let (xs, labels) = &data[i];
                let preds = self.predict(xs);
                *correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
            })
        });
        let total: usize = data.iter().map(|(_, labels)| labels.len()).sum();
        if total == 0 {
            0.0
        } else {
            counts.iter().sum::<usize>() as f32 / total as f32
        }
    }
}

/// One sequence's loss, correct predictions, and cell, head-weight and
/// head-bias gradients.
type SequenceGrads = (f32, usize, GruGrads, Matrix, Vec<f32>);

/// Index of the largest element.
pub fn argmax(v: &[f32]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy sequence task with genuine temporal structure: the label of
    /// step t is the parity of the count of "high" inputs seen so far —
    /// unlearnable without memory.
    fn parity_dataset(n: usize, seq_len: usize, seed: u64) -> Vec<LabeledSequence> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut parity = 0usize;
                let mut xs = Vec::with_capacity(seq_len);
                let mut ys = Vec::with_capacity(seq_len);
                for _ in 0..seq_len {
                    let high = rng.gen_bool(0.5);
                    parity = (parity + usize::from(high)) % 2;
                    xs.push(vec![if high { 1.0 } else { -1.0 }, 1.0]);
                    ys.push(parity);
                }
                (xs, ys)
            })
            .collect()
    }

    #[test]
    fn learns_parity_task() {
        let cfg = GruClassifierConfig {
            input: 2,
            hidden: 12,
            classes: 2,
            epochs: 60,
            batch_size: 16,
            learning_rate: 5e-3,
            seed: 2,
        };
        let train = parity_dataset(120, 12, 1);
        let test = parity_dataset(40, 12, 99);
        let mut clf = GruClassifier::new(&cfg);
        let before = clf.accuracy(&test);
        let report = clf.train(&train, &cfg);
        let after = clf.accuracy(&test);
        assert!(
            after > 0.9,
            "accuracy before {before:.2} after {after:.2}, losses {:?}",
            &report.epoch_loss[..3.min(report.epoch_loss.len())]
        );
        assert!(report.epoch_loss.last().unwrap() < &report.epoch_loss[0]);
    }

    #[test]
    fn predict_shapes() {
        let cfg = GruClassifierConfig {
            input: 3,
            hidden: 4,
            classes: 5,
            epochs: 1,
            batch_size: 4,
            learning_rate: 1e-3,
            seed: 3,
        };
        let clf = GruClassifier::new(&cfg);
        let xs = vec![vec![0.0; 3]; 7];
        assert_eq!(clf.predict(&xs).len(), 7);
        assert!(clf.predict(&xs).iter().all(|&c| c < 5));
        assert_eq!(clf.predict::<Vec<f32>>(&[]).len(), 0);
    }

    #[test]
    fn argmax_edge_cases() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[]), 0);
        assert_eq!(argmax(&[f32::NAN, 1.0]), 1);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = GruClassifierConfig {
            input: 2,
            hidden: 3,
            classes: 2,
            epochs: 1,
            batch_size: 2,
            learning_rate: 1e-3,
            seed: 8,
        };
        let clf = GruClassifier::new(&cfg);
        let json = serde_json::to_string(&clf).unwrap();
        let back: GruClassifier = serde_json::from_str(&json).unwrap();
        let xs = vec![vec![0.5, -0.5]; 4];
        assert_eq!(clf.predict(&xs), back.predict(&xs));
    }
}
